"""Cognitive reinforcement learning: per-slot rewards are decomposed
along the reasoning trace with a linear time decay and drive exponential
moving-average utility updates toward the reference behavior.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .engine import RuleSet, WorldState, decide, shared_states, slot_marginals
from .knowledge import (SLOTS, ActionPair, KnowledgeBase, ProductionRule, Value, read_jsonl,
                        read_section)


@dataclass
class TrainConfig:
    learning_rate: float = 2e-4
    decay: float = 0.01
    sigma: float = math.sqrt(2)
    initial_utility: float = 0.0
    reward_positive: float = 10.0
    reward_negative: float = 0.0
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (0 < self.learning_rate <= 1):
            raise ValueError("learning rate must be in (0, 1]")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass
class Episode:
    steps: list[tuple[WorldState, ActionPair]]
    scenario_id: str = ""
    subject_id: str = ""

    def __post_init__(self):
        if not self.steps:
            raise ValueError("episode must be nonempty")


@dataclass
class StepRecord:
    """One line of an episodes file, as `episodes_to_jsonl` writes it."""
    t: int
    state: dict[str, Value]
    reference: ActionPair
    episode: int = 0
    scenario: str = ""
    subject: str = ""


class EpisodeSchemaError(ValueError):
    pass


def validate_episodes(episodes: list[Episode], kb: KnowledgeBase,
                      path: str | Path | None = None) -> None:
    """Checks every episode's step times and every step's reference actions;
    the features of each features tuple are checked once. Episodes from
    `shared_states` share one tuple per distinct state, values' types
    included: True == 1 == 1.0, but domains tell them apart. An error names
    the episodes file `path`, when they were read from one, then the
    episode, by index and subject, and the step, by index and time; both
    indexes count from 0, as `episodes_to_jsonl` writes them."""
    source = "" if path is None else f"{path} "

    def refusal(i: int, s: int, problem: str) -> EpisodeSchemaError:
        ep = episodes[i]
        return EpisodeSchemaError(f"{source}episode {i} (subject {ep.subject_id!r}) step {s} "
                                  f"(t={ep.steps[s][0].t}): {problem}")
    checked = set()  # ids of the features tuples checked, all alive in `episodes`
    for i, ep in enumerate(episodes):
        times = [state.t for state, _ in ep.steps]
        if times != sorted(times):  # a reward may not precede the firing it credits
            s = next(s for s in range(1, len(times)) if times[s] < times[s - 1])
            raise refusal(i, s, "step time decreases")
        for s, (state, ref) in enumerate(ep.steps):
            if id(state.features) not in checked:
                for name, value in state.features:
                    if not kb.admits(name, value):
                        raise refusal(i, s, f"state {name}={value!r} is not in the knowledge base")
                checked.add(id(state.features))
            for slot, vocab in ((ref.longitudinal, kb.longitudinal_actions),
                                (ref.lateral, kb.lateral_actions)):
                if slot is not None and slot not in vocab:
                    raise refusal(i, s, f"reference action {slot!r} not in vocabulary")


def episodes_to_jsonl(episodes: list[Episode], path: str | Path) -> None:
    """Writes a `StepRecord` a line, the bytes of `json.dumps(..., sort_keys=True)`
    of the record with its reference as an object, and streams the lines.
    Each features tuple and each distinct reference is encoded once a call."""
    encode = json.JSONEncoder(sort_keys=True).encode
    states: dict[int, str] = {}  # id of a features tuple, alive in `episodes` -> JSON
    refs: dict[tuple, str] = {}  # slots and their types (True == 1 encodes apart) -> JSON
    with Path(path).open("w") as fh:
        for i, ep in enumerate(episodes):
            head = f'{{"episode": {i}, "reference": '
            middle = f', "scenario": {encode(ep.scenario_id)}, "state": '
            tail = f', "subject": {encode(ep.subject_id)}, "t": '
            for state, ref in ep.steps:
                state_json = states.get(id(state.features))
                if state_json is None:
                    state_json = states[id(state.features)] = encode(state.as_dict())
                key = (ref.longitudinal, ref.lateral, type(ref.longitudinal), type(ref.lateral))
                ref_json = refs.get(key)
                if ref_json is None:
                    ref_json = refs[key] = encode(vars(ref))
                t = str(state.t) if type(state.t) is int else encode(state.t)
                fh.write(f"{head}{ref_json}{middle}{state_json}{tail}{t}}}\n")


_WRITTEN_KEYS = frozenset(f.name for f in fields(StepRecord))  # all written by `episodes_to_jsonl`
_STATE_TYPES = frozenset((bool, int, str))  # the feature values `read_section` takes as is
_SLOT_TYPES = frozenset((str, type(None)))  # the JSON types of a reference slot


def episodes_from_jsonl(path: str | Path) -> list[Episode]:
    """The episodes file `path`, a `StepRecord` a line; an error names the file and the line.
    A line of the shape `episodes_to_jsonl` writes, whose reference an earlier line has
    read, is taken as is after the type checks `read_section` would make; any other line
    is read by `read_section`. Equal references share one `ActionPair`. A file without a
    step is refused, as is a line whose scenario or subject is not its episode's first
    line's. Equal states share one features tuple (`shared_states`), so the per-state
    tables of training, evaluation and writing compare them by identity."""
    # episode -> (scenario, subject, [(state, t, reference)])
    groups: dict[int, tuple[str, str, list]] = {}
    refs: dict[tuple, ActionPair] = {}  # a reference object's items -> its ActionPair
    pairs: dict[ActionPair, ActionPair] = {}  # one of each, however its object was written
    for n, obj in read_jsonl(path):
        ref = None
        if type(obj) is dict and obj.keys() == _WRITTEN_KEYS:
            t, state, episode, scenario, subject, reference = (
                obj["t"], obj["state"], obj["episode"], obj["scenario"], obj["subject"],
                obj["reference"])
            if (type(t) is int and type(episode) is int and type(scenario) is str
                    and type(subject) is str and type(state) is dict
                    and set(map(type, state.values())) <= _STATE_TYPES
                    and type(reference) is dict
                    and set(map(type, reference.values())) <= _SLOT_TYPES):
                ref = refs.get(tuple(reference.items()))
        if ref is None:
            rec = read_section(StepRecord, f"{path} line {n}", obj)
            t, state, episode, scenario, subject = (rec.t, rec.state, rec.episode, rec.scenario,
                                                    rec.subject)
            ref = pairs.setdefault(rec.reference, rec.reference)
            refs[tuple(obj["reference"].items())] = ref
        group = groups.get(episode)
        if group is None:
            group = groups[episode] = (scenario, subject, [])
        elif scenario != group[0] or subject != group[1]:
            raise ValueError(f"{path} line {n}: episode {episode} is scenario "
                             f"{group[0]!r} and subject {group[1]!r} on an earlier line")
        group[2].append((state, t, ref))
    if not groups:
        raise ValueError(f"{path}: holds no episode step")
    make = shared_states()
    return [Episode([(make(state, t), ref) for state, t, ref in steps], scenario, subject)
            for _, (scenario, subject, steps) in sorted(groups.items())]


def reward_decompose(reward: float, firings: list[tuple[int, int]], reward_step: int,
                     decay: float) -> list[tuple[int, float]]:
    """(position of the rule that fired, reward share) per (firing step,
    position) of `firings`: r_i = R - decay * (reward_step - firing step)."""
    shares = []
    for t, position in firings:
        if t > reward_step:
            raise ValueError("firing after reward step")
        shares.append((position, reward - decay * (reward_step - t)))
    return shares


def utility_update(u_prev: float, r: float, alpha: float) -> float:
    return u_prev + alpha * (r - u_prev)


@dataclass
class CurvePoint:
    epoch: int
    agreement: float
    mean_utility: float


def curve_to_csv(curve: list[CurvePoint], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "agreement", "mean_utility"])
        for pt in curve:
            writer.writerow([pt.epoch, f"{pt.agreement:.6f}", f"{pt.mean_utility:.10f}"])


def _train_one_epoch(episodes: list[Episode], plan: list[list[tuple]], rule_set: RuleSet,
                     cfg: TrainConfig, rng: random.Random) -> float:
    """One pass over the episodes, whose steps' candidates `plan` holds,
    updating `rule_set.utilities`; returns the per-slot agreement rate."""
    effects, utilities = [r.effects for r in rule_set.rules], rule_set.utilities
    agreed = compared = 0
    order = list(range(len(episodes)))
    rng.shuffle(order)
    for idx in order:
        # per slot, the (step, position) of each firing that filled it and still awaits a reward
        pending: tuple[list[tuple[int, int]], ...] = tuple([] for _ in SLOTS)
        for (state, ref), candidates in zip(episodes[idx].steps, plan[idx]):
            fillers = decide(candidates, rule_set, cfg.sigma, rng)
            for slot, pos, firings in zip(SLOTS, fillers, pending):
                if pos is not None:
                    firings.append((state.t, pos))
                ref_action = ref.slot(slot)
                if ref_action is None:
                    continue
                hit = pos is not None and effects[pos].slot(slot) == ref_action
                compared += 1
                agreed += hit
                reward = cfg.reward_positive if hit else cfg.reward_negative
                for fired, r_i in reward_decompose(reward, firings, state.t, cfg.decay):
                    utilities[fired] = utility_update(utilities[fired], r_i, cfg.learning_rate)
                firings.clear()
    return agreed / compared if compared else 0.0


def train(rules: list[ProductionRule], episodes: list[Episode],
          cfg: TrainConfig, on_epoch: Callable[[int, RuleSet], None] | None = None,
          ) -> tuple[RuleSet, list[CurvePoint]]:
    """Trains a utility per rule position, from the initial utility, for
    cfg.epochs epochs with one RNG seeded from cfg.seed. Each step's
    candidates are resolved once for the run, since training changes only
    utilities. Returns the RuleSet over the rules given, unchanged, with the
    trained `utilities`, so that later matching reuses its cache, and the
    per-epoch learning curve. on_epoch(epochs_done, rule_set) is called once
    before the first epoch, with epochs_done 0, and after each epoch. It may
    observe the rule set; it must not change it."""
    rule_set = RuleSet(rules, cfg.initial_utility)
    rng = random.Random(cfg.seed)
    curve: list[CurvePoint] = []
    if on_epoch is not None:
        on_epoch(0, rule_set)
    plan = [[rule_set.candidates(state) for state, _ in ep.steps]
            for ep in episodes] if cfg.epochs else []
    for epoch in range(cfg.epochs):
        agreement = _train_one_epoch(episodes, plan, rule_set, cfg, rng)
        mean_u = sum(rule_set.utilities) / len(rule_set.rules) if rule_set.rules else 0.0
        curve.append(CurvePoint(epoch=epoch, agreement=agreement, mean_utility=mean_u))
        if on_epoch is not None:
            on_epoch(epoch + 1, rule_set)
    return rule_set, curve


def evaluate_agreement(rules: RuleSet, episodes: list[Episode],
                       sigma: float) -> dict[str, float]:
    """Frozen-utility expected agreement rate per slot: each step scores the
    probability, under the distribution `decide` samples from, that the
    slot's action is the reference action. The marginals are computed once
    per features tuple, which `shared_states` shares among equal states."""
    # keyed on the ids of the features tuples, all alive in `episodes`
    marginals: dict[int, tuple[dict[str | None, float], ...]] = {}
    agreed = {s: 0.0 for s in SLOTS}
    compared = {s: 0 for s in SLOTS}
    for episode in episodes:
        for state, ref in episode.steps:
            per_slot = marginals.get(id(state.features))
            if per_slot is None:
                per_slot = marginals[id(state.features)] = slot_marginals(state, rules, sigma)
            for slot, dist in zip(SLOTS, per_slot):
                ref_action = ref.slot(slot)
                if ref_action is None:
                    continue
                compared[slot] += 1
                agreed[slot] += dist.get(ref_action, 0.0)
    # rounding can carry a sum of softmax probabilities an ulp past 1
    return {s: (min(1.0, agreed[s] / compared[s]) if compared[s] else 0.0) for s in SLOTS}
