"""Self-test of the benchmark's own checks, at tiny sizes.

Each workload must pass its checks on clean inputs. Then one fault is
planted per check and the failed count must rise:

    truncated_transcript  replay runs out of recorded answers (formalize_large)
    wrong_expected_tag    one expected outcome tag is wrong (formalize_large)
    swapped_reference     two references trade places (translate_score)
    raising_unit          every unit of work raises; run.py must still
                          print its result line, count each raise as a
                          failed check and exit 1 (translate_score)

It also runs two traced units per workload and requires their counts to
match, checks that BENCHMARK.json declares exactly the metrics the
benchmark reports, and runs run.py in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without a result line.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAULT_WORKLOAD = {"truncated_transcript": "formalize_large",
                  "wrong_expected_tag": "formalize_large",
                  "swapped_reference": "translate_score"}


def tiny_run(name: str, fault: str | None = None, traced: bool = False):
    work = HERE / "_work" / f"selftest-{name}-{fault}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        tally = workloads.CheckTally()
        wl = workloads.make(name, work, seed=3, tiny=True, fault=fault)
        tracers = []
        for i in range(2):
            tracer = tracing.Tracer(f"selftest-{i}") if traced else None
            uninstall = tracing.install(tracer) if tracer else None
            try:
                out = wl.unit()
            finally:
                if uninstall:
                    uninstall()
            wl.check(out, tally)
            if tracer:
                tracers.append(tracer)
        wl.check_match(tally)
        return tally, tracers, wl
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def raising_unit_reported() -> bool:
    """Runs run.py in this process on a tiny translate_score whose unit of
    work always raises. True when it exits 1 after a result line that shows
    the failure."""
    make = workloads.make

    def faulty(name, work, seed):
        wl = make(name, work, seed, tiny=True)

        def unit():
            raise RuntimeError("planted fault")

        wl.unit = unit
        return wl

    stdout = io.StringIO()
    workloads.make = faulty
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "translate_score", "--seed", "3", "--seconds", "1",
                             "--trace", "0"])
    finally:
        workloads.make = make
    lines = stdout.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    print(f"fault {'raising_unit':22s} on {'translate_score':16s} exit {code}, failed "
          f"{result['failed']} of {result['attempted']}: "
          f"{[x for x in lines if x.startswith('check failed')][:1]}")
    return code == 1 and not result["correct"] and result["failed"] >= 2


def bare_directory_fails() -> bool:
    bare = HERE / "_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "translate_score",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        return proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    expected = list(tracing.LAYER_METRICS) + ["trace.overhead_s", "trace.overhead_ratio"]
    if declared != expected:
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        tally, tracers, wl = tiny_run(name, traced=True)
        counts = [t.exact_counts() for t in tracers]
        print(f"clean {name:18s} failed {tally.failed} of {tally.attempted}; "
              f"traced counts repeat: {counts[0] == counts[1]}")
        if tally.failed or counts[0] != counts[1]:
            problems.append(f"{name}: clean run failed its checks: {tally.reasons[:3]}")
        missing = set(tracing.LAYER_METRICS) - set(tracers[0].metrics(wl.epochs_configured))
        if missing:
            problems.append(f"{name}: traced metrics missing {sorted(missing)}")

    for fault, name in FAULT_WORKLOAD.items():
        tally, _, _ = tiny_run(name, fault=fault)
        print(f"fault {fault:22s} on {name:16s} failed {tally.failed} of {tally.attempted}: "
              f"{tally.reasons[:1]}")
        if tally.failed == 0:
            problems.append(f"planted fault {fault} went unnoticed")

    if not raising_unit_reported():
        problems.append("planted fault raising_unit was not reported in the result line")

    ok = bare_directory_fails()
    print(f"run.py without src/ exits non-zero without a result: {ok}")
    if not ok:
        problems.append("run.py did not fail cleanly without src/")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
