"""A fixed piece of pure-Python work, independent of cogrules, timed
during every unit of work to follow the speed the machine gives this
process.

On a shared 2-core VM the same code runs in a fast or a slow state, 1.6 to
1.8 times apart, that can switch within a second, and the share of time in
each drifts over minutes. A `Sampler` times a few rounds of the work every
SAMPLE_EVERY_S of wall time while a unit runs, in the same thread, so the
samples see the core in the states the unit saw. Each unit's time is
scaled by the reference sample time over the mean of its samples, which
states it at one fixed machine speed: the package's own speed still moves
the figure, the machine's state much less. Calibrations taken only before
and after a unit of a few seconds miss the switches in between, and
spread more than the raw times do. The work mixes what the package spends
its time on: small objects built and walked recursively, string
formatting, dict traffic and md5 hashing."""

from __future__ import annotations

import hashlib
import random
import signal
import time

# a round figure near the time of ROUNDS rounds on the sizing VM (2 cores,
# Python 3.11); only the ratio to a run's calibrations matters
REFERENCE_S = 0.010
ROUNDS = 150
SAMPLE_ROUNDS = 15
SAMPLE_EVERY_S = 0.05
REFERENCE_SAMPLE_S = REFERENCE_S * SAMPLE_ROUNDS / ROUNDS

_ATOMS = ("kavo", "tumi", "lera", "bosu", "fine", "gado")


class _Node:
    __slots__ = ("op", "kids", "name")

    def __init__(self, op: str, kids: tuple = (), name: str = ""):
        self.op, self.kids, self.name = op, kids, name


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0 or rng.random() < 0.3:
        return _Node("atom", name=rng.choice(_ATOMS))
    op = rng.choice(("not", "and", "or", "until"))
    if op == "not":
        return _Node(op, (_tree(rng, depth - 1),))
    return _Node(op, (_tree(rng, depth - 1), _tree(rng, depth - 1)))


def _show(node: _Node) -> str:
    if node.op == "atom":
        return node.name
    if node.op == "not":
        return f"! ({_show(node.kids[0])})"
    return f"({_show(node.kids[0])} {node.op} {_show(node.kids[1])})"


def work(rounds: int = ROUNDS) -> int:
    rng = random.Random(7)
    total = 0
    for _ in range(rounds):
        text = _show(_tree(rng, 6))
        counts: dict[int, int] = {}
        for i in range(0, len(text) - 2, 3):
            h = int.from_bytes(hashlib.md5(text[i:i + 3].encode()).digest()[:4], "big") % 64
            counts[h] = counts.get(h, 0) + 1
        total += len(text) + sorted(counts.values())[-1]
    return total


def seconds() -> float:
    """Median of three timings of `work`, about 10 ms each."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _sample_seconds() -> float:
    start = time.perf_counter()
    work(SAMPLE_ROUNDS)
    return time.perf_counter() - start


class Sampler:
    """Times SAMPLE_ROUNDS rounds of `work` once on entry and then every
    SAMPLE_EVERY_S of wall time, from a SIGALRM handler, until exit."""

    def __enter__(self) -> "Sampler":
        self.samples = [_sample_seconds()]
        self.in_unit_s = 0.0  # time the handler took from the unit
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_sample_seconds())
        self.in_unit_s += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """The machine speed during the unit, relative to the reference."""
        return REFERENCE_SAMPLE_S * len(self.samples) / sum(self.samples)
