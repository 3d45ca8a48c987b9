"""Desk-scale discrete-state scenario generators for the three driving
archetypes, with decision-table reference policies standing in for human
drivers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .knowledge import ActionPair, FeatureDomain, Grounding, KnowledgeBase, Value
from .engine import WorldState, pick, shared_states
from .trainer import Episode

HIGHWAY = "highway_cut_in"
INTERSECTION = "signalized_intersection"
LANE_CHANGE = "lane_change_interference"
ARCHETYPES = (HIGHWAY, INTERSECTION, LANE_CHANGE)

LONG_ACTIONS = ("accelerate", "keep", "decelerate", "brake")
LAT_ACTIONS = ("keep_lane", "change_left", "change_right")


def scenario_kb(archetype: str) -> KnowledgeBase:
    """Feature/action vocabulary and default grounding table per archetype."""
    if archetype == HIGHWAY:
        features = {
            "front_gap_closing": FeatureDomain("bool"),
            "right_vehicle_signaling": FeatureDomain("bool"),
            "speed_band": FeatureDomain("enum", ("low", "medium", "high")),
        }
        groundings = {
            "cut_in_ahead": Grounding("front_gap_closing", "=", True),
            "front_gap_closing": Grounding("front_gap_closing", "=", True),
            "right_vehicle_signaling": Grounding("right_vehicle_signaling", "=", True),
            "speed_high": Grounding("speed_band", "=", "high"),
            "speed_low": Grounding("speed_band", "=", "low"),
        }
    elif archetype == INTERSECTION:
        features = {
            "signal_state": FeatureDomain("enum", ("red", "yellow", "green")),
            "pedestrian_present": FeatureDomain("bool"),
            "near_stop_line": FeatureDomain("bool"),
        }
        groundings = {
            "signal_red": Grounding("signal_state", "=", "red"),
            "signal_green": Grounding("signal_state", "=", "green"),
            "signal_yellow": Grounding("signal_state", "=", "yellow"),
            "pedestrian_present": Grounding("pedestrian_present", "=", True),
            "pedestrian_crossing": Grounding("pedestrian_present", "=", True),
            "near_stop_line": Grounding("near_stop_line", "=", True),
        }
    elif archetype == LANE_CHANGE:
        features = {
            "front_vehicle_slow": FeatureDomain("bool"),
            "adjacent_vehicle_signaling": FeatureDomain("bool"),
            "left_lane_free": FeatureDomain("bool"),
        }
        groundings = {
            "front_vehicle_slow": Grounding("front_vehicle_slow", "=", True),
            "adjacent_vehicle_signaling": Grounding("adjacent_vehicle_signaling", "=", True),
            "left_lane_free": Grounding("left_lane_free", "=", True),
        }
    else:
        raise ValueError(f"unknown archetype {archetype!r}")
    return KnowledgeBase(features=features,
                         longitudinal_actions=LONG_ACTIONS,
                         lateral_actions=LAT_ACTIONS,
                         groundings=groundings)


class DecisionTable:
    """First-match condition table; total via the default row."""

    __slots__ = ("rows", "default")

    def __init__(self, rows: list[tuple[dict[str, Value], ActionPair]],
                 default: ActionPair = ActionPair("keep", "keep_lane")):
        self.rows = rows
        self.default = default

    def action(self, state: WorldState) -> ActionPair:
        feats = state.as_dict()
        for condition, pair in self.rows:
            if all(feats.get(k) == v for k, v in condition.items()):
                return pair
        return self.default


class ReferencePolicy:
    __slots__ = ("tables", "weights")

    def __init__(self, tables: list[DecisionTable], weights: list[float] | None = None):
        if not tables:
            raise ValueError("a policy needs at least one decision table")
        if not weights:
            weights = [1.0 / len(tables)] * len(tables)
        if len(weights) != len(tables):
            raise ValueError("a policy needs one mixture weight per decision table")
        if any(w < 0 for w in weights):
            raise ValueError("mixture weights must be >= 0")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        self.tables = tables
        self.weights = weights


@dataclass
class ScenarioSpec:
    archetype: str
    episode_length: int = 20
    trigger_low: int = 3   # NPC trigger step drawn uniformly from [low, high]
    trigger_high: int = 10
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.archetype not in ARCHETYPES:
            raise ValueError(f"unknown archetype {self.archetype!r}")
        if self.episode_length < 1:
            raise ValueError("episode length must be >= 1")
        if not 0 <= self.trigger_low <= self.trigger_high:
            raise ValueError("trigger steps must satisfy 0 <= trigger_low <= trigger_high")
        if not (0 <= self.noise_rate < 1):
            raise ValueError("noise rate must be in [0, 1)")


def _step_features(archetype: str, t: int, trigger: int, hazard_len: int) -> dict[str, Value]:
    active = trigger <= t < trigger + hazard_len
    if archetype == HIGHWAY:
        return {
            "front_gap_closing": active,
            "right_vehicle_signaling": active and t < trigger + max(1, hazard_len // 2),
            "speed_band": "high" if not active else "medium",
        }
    if archetype == INTERSECTION:
        phase = (t // 5) % 3
        return {
            "signal_state": ("green", "yellow", "red")[phase],
            "pedestrian_present": active,
            "near_stop_line": t >= trigger - 1,
        }
    return {
        "front_vehicle_slow": t >= max(1, trigger // 2),
        "adjacent_vehicle_signaling": active,
        "left_lane_free": not active,
    }


def _noisy(action: str | None, vocab: tuple[str, ...], noise: float,
           rng: random.Random) -> str | None:
    if action is None or noise <= 0:
        return action
    if rng.random() < noise:
        alternatives = [a for a in vocab if a != action]
        return rng.choice(alternatives)
    return action


def generate(spec: ScenarioSpec, policy: ReferencePolicy,
             n_episodes: int) -> list[Episode]:
    """Seeded, deterministic episode generation with per-episode driver
    (table) identity and optional label noise. Equal states share one
    features tuple (`engine.shared_states`). Fewer than one episode is refused."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    rng = random.Random(spec.seed)
    make = shared_states()
    kb = scenario_kb(spec.archetype)
    episodes = []
    for _ in range(n_episodes):
        table_idx = pick(policy.weights, rng)
        table = policy.tables[table_idx]
        hi = min(spec.trigger_high, spec.episode_length - 1)  # a short episode clamps both
        lo = min(spec.trigger_low, hi)
        trigger = rng.randint(lo, hi)
        hazard_len = rng.randint(3, 6)
        steps = []
        for t in range(spec.episode_length):
            state = make(_step_features(spec.archetype, t, trigger, hazard_len), t)
            ref = table.action(state)
            ref = ActionPair(
                _noisy(ref.longitudinal, kb.longitudinal_actions, spec.noise_rate, rng),
                _noisy(ref.lateral, kb.lateral_actions, spec.noise_rate, rng))
            steps.append((state, ref))
        episodes.append(Episode(steps=steps, scenario_id=spec.archetype,
                                subject_id=f"table_{table_idx}"))
    return episodes


def default_policy(archetype: str) -> ReferencePolicy:
    """A sensible single-driver policy per archetype."""
    if archetype == HIGHWAY:
        table = DecisionTable(rows=[
            ({"front_gap_closing": True, "right_vehicle_signaling": True},
             ActionPair("decelerate", "keep_lane")),
            ({"front_gap_closing": True}, ActionPair("brake", "keep_lane")),
            ({"speed_band": "low"}, ActionPair("accelerate", "keep_lane")),
        ])
    elif archetype == INTERSECTION:
        table = DecisionTable(rows=[
            ({"pedestrian_present": True}, ActionPair("brake", "keep_lane")),
            ({"signal_state": "red", "near_stop_line": True}, ActionPair("brake", "keep_lane")),
            ({"signal_state": "yellow"}, ActionPair("decelerate", "keep_lane")),
            ({"signal_state": "green"}, ActionPair("keep", "change_right")),
        ])
    elif archetype == LANE_CHANGE:
        table = DecisionTable(rows=[
            ({"front_vehicle_slow": True, "adjacent_vehicle_signaling": True},
             ActionPair("decelerate", "keep_lane")),
            ({"front_vehicle_slow": True, "left_lane_free": True},
             ActionPair("keep", "change_left")),
            ({"front_vehicle_slow": True}, ActionPair("decelerate", "keep_lane")),
        ])
    else:
        raise ValueError(f"unknown archetype {archetype!r}")
    return ReferencePolicy(tables=[table])
