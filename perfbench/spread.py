"""Run the benchmark over several seeds, one process per run, interleaving
the workloads, and report each end-to-end metric's spread: the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 --out perfbench/_out/set1.json
    python3 perfbench/spread.py --compare perfbench/_out/set1.json perfbench/_out/set2.json

Each run's result line and environment are kept in the --out file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": time.perf_counter() - start, "environment": env,
            "result": json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None,
            "stdout": lines[:-1], "stderr": proc.stderr[-2000:]}


def summarize(runs: list[dict]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine if r["result"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[f"{workload}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / med, "bound": bound,
                                         "n": len(values)}
    return out


def print_summary(summary: dict) -> None:
    for key, s in summary.items():
        flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
        print(f"{key:38s} median {s['median']:12.5f}  spread {s['spread']:7.2%}  "
              f"bound {s['bound']:.2f}  n {s['n']}{flag}")


def compare(first: Path, second: Path) -> int:
    a = json.loads(first.read_text())["summary"]
    b = json.loads(second.read_text())["summary"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    worst = 0
    for key in a:
        if key not in b:
            continue
        ratio = b[key]["median"] / a[key]["median"]
        worse = ratio - 1 if better[key.split("/")[1]] == "lower" else 1 - ratio
        ok = worse <= a[key]["bound"]
        worst |= not ok
        print(f"{key:38s} {a[key]['median']:12.5f} -> {b[key]['median']:12.5f}  "
              f"worse by {worse:7.2%}  bound {a[key]['bound']:.2f}  {'ok' if ok else 'FAIL'}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        for workload in workloads:  # interleaved, so drift hits every workload alike
            r = run_once(workload, seed, seconds)
            runs.append(r)
            res = r["result"]
            print(f"seed {seed:3d} {workload:18s} exit {r['exit']} {r['wall_s']:6.1f}s "
                  + (json.dumps({k: round(v["value"], 4) for k, v in res["metrics"].items()})
                     if res else r["stderr"][-300:]), flush=True)
    summary = summarize(runs)
    print_summary(summary)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
