"""Perceive-plan-act production cycle: precondition matching against a
world state and softmax conflict resolution over rule utilities, split
into independent longitudinal and lateral decision slots.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

from .knowledge import NO_ACTION, SLOTS, ActionPair, ProductionRule, Value


@dataclass(frozen=True)
class WorldState:
    features: tuple[tuple[str, Value], ...]
    t: int = 0

    @classmethod
    def make(cls, features: dict[str, Value], t: int = 0) -> "WorldState":
        return cls(tuple(sorted(features.items())), t)

    def as_dict(self) -> dict[str, Value]:
        return dict(self.features)

    def key(self) -> str:
        return json.dumps(self.features, sort_keys=True)


def shared_states() -> Callable[[dict[str, Value], int], WorldState]:
    """`WorldState.make` for the states of one batch of episodes, except that
    states with equal features share one features tuple: a table keyed on
    it then finds a recurring state by identity instead of comparing its
    pairs. Features are equal only with their values' types: True == 1, but
    a domain tells them apart, so the two never share."""
    shared: dict[tuple, tuple[tuple[str, Value], ...]] = {}

    def make(features: dict[str, Value], t: int = 0) -> WorldState:
        items = tuple(sorted(features.items()))
        return WorldState(shared.setdefault((items, tuple([type(v) for _, v in items])), items), t)
    return make


def match(state: WorldState, rules: list[ProductionRule]) -> list[ProductionRule]:
    """Conflict set: rules whose every precondition holds, name-ordered.
    A full scan of the rules' compiled preconditions, by set algebra."""
    pairs = set(state.features)
    names = {f for f, _ in state.features}
    hits = [r for r in rules
            if r.must <= pairs and r.must_not.isdisjoint(pairs) and r.must_name <= names]
    hits.sort(key=lambda r: r.name)
    return hits


def _softmax_terms(utilities: list[float], sigma: float) -> tuple[list[float], float]:
    """The softmax's unnormalised terms, with log-sum-exp stabilization, and
    their sum. Dividing by a positive sigma keeps the order, so `m` is the
    largest scaled utility."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    m = max(utilities, default=0.0) / sigma
    exps = [math.exp(u / sigma - m) for u in utilities]
    return exps, sum(exps)


def selection_probabilities(utilities: list[float], sigma: float) -> list[float]:
    """Softmax over a conflict set, empty or not."""
    exps, z = _softmax_terms(utilities, sigma)
    return [e / z for e in exps]


def pick(weights: list[float], rng: random.Random, total: float = 1.0) -> int:
    """Index drawn with probabilities `weights[i] / total` from one
    `rng.random()`; the last index when rounding leaves the draw past the
    cumulative sum. Dividing by the default total of 1.0 is exact."""
    x = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w / total
        if x < acc:
            return i
    return len(weights) - 1


def select(conflict: list[int], utilities: list[float], sigma: float,
           rng: random.Random) -> int:
    """`conflict[pick(selection_probabilities(...), rng)]` over the positions'
    `utilities`: the same draw, without normalising the terms past the one drawn."""
    if not conflict:
        raise ValueError("conflict set must be nonempty")
    exps, z = _softmax_terms([utilities[i] for i in conflict], sigma)
    return conflict[pick(exps, rng, z)]


class RuleSet:
    """A run's rules, which are frozen, and its only training state,
    `utilities`: one per rule position, the rule's own or the `utility` given.
    Candidates and `decide`'s slot fillers are positions, which tell apart
    rules that share a name, so a rule object may hold one position only.

    It keeps the rules sorted by name once, stably, and `match` scans them
    all. The per-slot candidates of every state it resolves are cached,
    keyed on the features alone, with no bound: a RuleSet lives for one
    run, so the cache holds one entry per distinct state of the run, as
    `evaluate_agreement`'s per-state memo does, and each distinct state is
    matched once a run. Episodes from `shared_states` share one features
    tuple per distinct state, so a cache hit on them compares by identity."""

    def __init__(self, rules: Iterable[ProductionRule], utility: float | None = None):
        self.rules = list(rules)
        self.utilities = [r.utility if utility is None else utility for r in self.rules]
        self._position = {id(r): i for i, r in enumerate(self.rules)}
        if len(self._position) < len(self.rules):
            raise ValueError("a rule object is given at two positions")
        self._by_name = sorted(self.rules, key=lambda r: r.name)
        self._cache: dict[tuple, tuple[list[int], ...]] = {}

    def candidates(self, state: WorldState) -> tuple[list[int], ...]:
        """Per slot, in SLOTS order, the positions of the rules of
        `match(state, ...)` with an effect in that slot, in match order."""
        found = self._cache.get(state.features)
        if found is None:
            matched, position = match(state, self._by_name), self._position
            found = self._cache[state.features] = tuple(
                [position[id(r)] for r in matched if getattr(r.effects, slot) is not None]
                for slot in SLOTS)
        return found

    def with_utilities(self) -> list[ProductionRule]:
        """The rules, each carrying its position's utility: what a rules file stores."""
        return [replace(r, utility=u) for r, u in zip(self.rules, self.utilities)]


def decide(candidates: tuple[list[int], ...], rules: RuleSet, sigma: float,
           rng: random.Random) -> tuple[int | None, int | None]:
    """One cycle over a state's `rules.candidates`: the position of the rule
    that filled each slot, in SLOTS order, or None for an empty slot, drawn
    from the two softmaxes of `_softmaxes` in order. The longitudinal
    candidates compete first, and a winner with a lateral effect fills both
    slots, so it is returned twice. Only if the lateral slot is still empty
    do the lateral candidates compete."""
    longitudinal, lateral = candidates
    utilities = rules.utilities
    winner = select(longitudinal, utilities, sigma, rng) if longitudinal else None
    if winner is not None and rules.rules[winner].effects.lateral is not None:
        return winner, winner
    return winner, select(lateral, utilities, sigma, rng) if lateral else None


def action_pair_key(longitudinal: str | None, lateral: str | None) -> str:
    return f"{longitudinal or 'none'}/{lateral or 'none'}"


def _softmaxes(state: WorldState, rules: RuleSet, sigma: float
               ) -> tuple[list[tuple[ActionPair, float]], list[tuple[str | None, float]]]:
    """The two softmaxes `decide` draws from. `winners` holds (effects, p)
    per longitudinal candidate, or (NO_ACTION, 1.0) when there is none;
    `laterals` holds (lateral, q) per lateral candidate, or (None, 1.0)."""
    longitudinal_candidates, lateral_candidates = rules.candidates(state)

    def softmax(candidates):
        probs = selection_probabilities([rules.utilities[i] for i in candidates], sigma)
        return [(rules.rules[i].effects, p) for i, p in zip(candidates, probs)]

    laterals = [(e.lateral, p) for e, p in softmax(lateral_candidates)] or [(None, 1.0)]
    winners = softmax(longitudinal_candidates) or [(NO_ACTION, 1.0)]
    return winners, laterals


def decision_distribution(state: WorldState, rules: RuleSet,
                          sigma: float) -> dict[str, float]:
    """The action-pair distribution `decide` samples from, in closed form
    (ACT-R's Boltzmann conflict resolution, slot by slot): the longitudinal
    softmax, where a winner with a lateral effect fixes the pair and any other
    winner, or no winner, is paired with the lateral softmax (or `none`)."""
    winners, laterals = _softmaxes(state, rules, sigma)
    dist: dict[str, float] = {}
    for effects, p in winners:
        for lateral, q in laterals if effects.lateral is None else [(effects.lateral, 1.0)]:
            key = action_pair_key(effects.longitudinal, lateral)
            dist[key] = dist.get(key, 0.0) + p * q
    return dist


def slot_marginals(state: WorldState, rules: RuleSet,
                   sigma: float) -> tuple[dict[str | None, float], dict[str | None, float]]:
    """The per-slot marginals of `decision_distribution`, in SLOTS order,
    summed without enumerating the pairs: P(longitudinal = a) is the mass
    of the winners with action a; P(lateral = b) is the mass of the winners
    that fix b, plus the winners' free mass times the lateral softmax.
    The key None holds the mass of an empty slot."""
    winners, laterals = _softmaxes(state, rules, sigma)
    lon: dict[str | None, float] = {}
    lat: dict[str | None, float] = {}
    free = 0.0
    for effects, p in winners:
        lon[effects.longitudinal] = lon.get(effects.longitudinal, 0.0) + p
        if effects.lateral is None:
            free += p
        else:
            lat[effects.lateral] = lat.get(effects.lateral, 0.0) + p
    for lateral, q in laterals:
        lat[lateral] = lat.get(lateral, 0.0) + free * q
    return lon, lat
