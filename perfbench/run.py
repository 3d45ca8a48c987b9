"""Benchmark entry point: one workload, one process, one caller in a closed
loop (the next unit of work starts when the previous one returns).

    python3 perfbench/run.py --workload formalize_large --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it wraps each layer's public functions and reports the per-layer
metrics, plus the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object. The exit code is 0 only
when every output check passed. Inputs are generated from --seed under
perfbench/_work/, which is removed at the end; traced spans are written to
perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
MIN_REPS = 3

# the end-to-end throughput, under the unit of work each workload counts;
# the result line carries it as units_per_s_norm
THROUGHPUT_NAMES = {
    "formalize_large": "segments_per_s",
    "train_few_states": "steps_per_s",
    "train_many_states": "steps_per_s",
    "translate_score": "pairs_per_s",
}


def import_package():
    """Imports cogrules from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(HERE), str(SRC)]
    import cogrules

    if Path(cogrules.__file__).resolve().parent != SRC / "cogrules":
        raise ImportError(f"cogrules came from {cogrules.__file__}, not {SRC}")
    import numpy

    return numpy.__version__


def environment(numpy_version: str) -> dict:
    return {"cores": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def pin_to_current_cpu() -> int:
    """Keeps this process, and the set-up probes it starts, on one core, so
    that each calibration sees the core its unit of work runs on."""
    allowed = os.sched_getaffinity(0)
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(allowed)
    cpu = cpu if cpu in allowed else min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu


def guarded(tally, what: str, fn, *args):
    """Calls fn(*args). If it raises, that counts as one failed check, named
    by `what`, and the result is None."""
    try:
        return fn(*args)
    except Exception as e:  # a raising output is a failed output, not a crash
        tally.check(False, f"{what} raised {type(e).__name__}: {e}")
        return None


def measure_setup(wl, work: Path, tally) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, as measured and scaled to the
    reference machine speed by calibrations taken around each one.

    Every probe loads its bytecode from a cache of this run's own: one
    unmeasured probe first fills a fresh PYTHONPYCACHEPREFIX with the
    package, numpy and the stdlib, and the measured ones only read it. So
    the figure is that of a cached import, whatever src/cogrules/__pycache__
    or the caller's environment holds."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, str(HERE / "setup_probe.py"), wl.probe_kind, str(wl.config_path)]
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        before = calibration.seconds()
        proc = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                              timeout=120)
        after = calibration.seconds()
        if not tally.check(proc.returncode == 0, f"set-up probe failed: {proc.stderr.strip()}"):
            return raw, scaled
        if i == 0:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
            continue
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * calibration.REFERENCE_S * 2 / (before + after))
    return raw, scaled


@dataclass
class Unit:
    """One unit of work whose output passed through its checks."""
    elapsed: float
    rate: float  # units done per second, as measured
    scaled: float  # the same at the reference machine speed
    tracer: tracing.Tracer | None


def timed_reps(wl, seconds: float, tally, tracer_for=None, min_reps: int = MIN_REPS):
    """Runs units of work for about `seconds` of timed work (at least
    `min_reps`); checks every output outside the timed region. A unit, or
    its check, that raises counts as a failed check and ends the loop: the
    run has failed, and a unit that raises at once would otherwise repeat
    without end. `tracer_for(i)` gives the tracer of the i-th unit, or None
    to run it untraced. Returns the units that completed and the last
    output."""
    units, last, spent, attempts = [], None, 0.0, 0
    # stop when one more unit would end further past the target than short of it
    while attempts < min_reps or spent + spent / attempts / 2 < seconds:
        tracer = tracer_for(attempts) if tracer_for else None
        attempts += 1
        uninstall = tracing.install(tracer) if tracer else None
        try:
            with calibration.Sampler() as sampler:
                start = time.perf_counter()
                output = guarded(tally, "a unit of work", wl.unit)
                elapsed = time.perf_counter() - start - sampler.in_unit_s
        finally:
            if uninstall:
                uninstall()
        spent += elapsed
        if output is None:
            break
        done = guarded(tally, "checking a unit's output", check_and_count, wl, output, tally)
        if done is None:
            break
        last = output
        rate = done / elapsed
        units.append(Unit(elapsed, rate, rate / sampler.speed(), tracer))
    return units, last


def check_and_count(wl, output, tally) -> float:
    wl.check(output, tally)
    return wl.units_done(output)


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(tally, values: dict[str, float], kind: str) -> str:
    """The JSON result. A metric may be missing only from a failed run, where
    it reads 0."""
    units = declared_metrics(kind)
    missing = set(units) - set(values)
    if missing and not tally.failed:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    })


def run(args) -> int:
    env = environment(import_package())
    env["pinned_cpu"] = pin_to_current_cpu()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)  # configs name their files relative to here
    tally = workloads.CheckTally()
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
             "environment " + json.dumps(env, sort_keys=True)]
    try:
        wl = guarded(tally, "building the workload", workloads.make, args.workload, work,
                     args.seed)
        values = {}
        if wl is not None:
            measure = trace_run if args.trace else end_to_end_run
            values = guarded(tally, "the measurement", measure, args, wl, work, tally,
                             lines) or {}
            guarded(tally, "checking engine.match", wl.check_match, tally)
        lines.append(f"failed_ratio {tally.failed / max(tally.attempted, 1):.6f} ratio "
                     f"({tally.failed} of {tally.attempted} checked outputs)")
        lines += [f"check failed: {r}" for r in tally.reasons]
        line = result_line(tally, values, "per_layer" if args.trace else "end_to_end")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(line, flush=True)
    return 0 if tally.failed == 0 else 1


def end_to_end_run(args, wl, work: Path, tally, lines: list[str]):
    setup_raw, setup_scaled = measure_setup(wl, work, tally)
    warm = guarded(tally, "the warm-up unit", wl.unit)  # lazy set-up and caches settle
    if warm is not None:
        guarded(tally, "checking the warm-up output", wl.check, warm, tally)
    units, last = timed_reps(wl, args.seconds, tally)
    values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if setup_scaled:
        values["setup_s"] = statistics.median(setup_scaled)
        lines.append(f"setup_s {values['setup_s']:.6f} s at reference speed; "
                     f"{statistics.median(setup_raw):.6f} s as measured "
                     f"(median of {SETUP_PROBES} fresh processes, cached bytecode)")
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.3f} MB")
    if not units:
        lines.append("no unit of work completed its checks")
        return values
    values["units_per_s_norm"] = statistics.median(u.scaled for u in units)
    durations = [u.elapsed for u in units]
    q = statistics.quantiles(durations, n=4) if len(durations) > 1 else durations * 3
    lines += [
        f"{THROUGHPUT_NAMES[args.workload]} {values['units_per_s_norm']:.4f} 1/s at reference "
        f"speed; {statistics.median(u.rate for u in units):.4f} 1/s as measured "
        f"(median of {len(units)} units)",
        f"unit wall s: median {statistics.median(durations):.4f}, q1 {q[0]:.4f}, q3 {q[2]:.4f}, "
        f"max {max(durations):.4f}; all " + json.dumps([round(d, 5) for d in durations]),
        "rates at reference speed " + json.dumps([round(u.scaled, 3) for u in units]),
    ]
    lines += [f"{k} {json.dumps(v)}" for k, v in wl.notes(last).items()]
    return values


def trace_run(args, wl, work: Path, tally, lines: list[str]):
    warm = guarded(tally, "the warm-up unit", wl.unit)
    if warm is not None:
        guarded(tally, "checking the warm-up output", wl.check, warm, tally)
    # untraced and traced units alternate, so drift in the machine's speed
    # reaches both alike
    units, last = timed_reps(
        wl, args.seconds, tally,
        lambda i: tracing.Tracer(f"{args.workload}-{args.seed}-{i}") if i % 2 else None,
        min_reps=2 * MIN_REPS)
    plain = [u for u in units if u.tracer is None]
    traced = [u for u in units if u.tracer is not None]
    tracers = [u.tracer for u in traced]
    if not plain or not traced:
        lines.append("too few units of work completed their checks")
        return {}
    first = tracers[0].exact_counts()
    for t in tracers[1:]:
        tally.check(t.exact_counts() == first, "a count differs between two traced runs")
    for t in tracers:
        tally.check(t.counts["gateway.replay_misses"] == 0, "replay misses in a traced run")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans.unlink(missing_ok=True)
    for t in tracers:
        t.write(spans)
    per_run = [t.metrics(wl.epochs_configured) for t in tracers]
    values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    # seconds per unit at the reference machine speed, like units_per_s_norm
    done = wl.units_done(last)
    plain_s = statistics.median(done / u.scaled for u in plain)
    overhead = statistics.median(done / u.scaled for u in traced) - plain_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / plain_s
    shares = tracers[0].layer_self_shares()
    lines.append("self-time share by layer " + json.dumps(
        {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}))
    lines.append(f"tracing overhead {overhead:.4f} s per unit at reference speed "
                 f"({values['trace.overhead_ratio']:.2%}), {len(plain)} untraced and "
                 f"{len(traced)} traced units, alternating; spans in {spans.relative_to(ROOT)}")
    lines += [f"{k} {json.dumps(v)}" for k, v in wl.notes(last).items()]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ImportError as e:
        print(f"cannot import the package under test: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
