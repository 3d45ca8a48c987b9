"""Set-up time of a fresh process: import cogrules and load the workload's
config (or its pair file), up to the point where the first unit of work
could start. Prints the seconds taken.

    python3 perfbench/setup_probe.py run-all <config.json>
    python3 perfbench/setup_probe.py pairs <pairs.json>
"""

import sys
import time

start = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

kind, path = sys.argv[1], sys.argv[2]
if kind == "run-all":
    from cogrules import pipeline

    pipeline.load_config(path)
else:
    from cogrules import ltl, metrics  # noqa: F401

    pairs = json.loads(Path(path).read_text())
    predictions = [p["prediction"] for p in pairs]
    references = [p["reference"] for p in pairs]
elapsed = time.perf_counter() - start

import cogrules  # noqa: E402

if Path(cogrules.__file__).resolve().parent != SRC / "cogrules":
    sys.exit(f"imported cogrules from {cogrules.__file__}, not from {SRC}")
print(repr(elapsed))
