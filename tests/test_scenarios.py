from collections import Counter

import pytest

from cogrules.knowledge import ActionPair
from cogrules.scenarios import (ARCHETYPES, DecisionTable, ReferencePolicy,
                                ScenarioSpec, default_policy, generate,
                                scenario_kb)
from cogrules.trainer import validate_episodes


class TestScenarioKb:
    def test_highway_vocabulary(self):
        kb = scenario_kb("highway_cut_in")
        assert "front_gap_closing" in kb.features
        assert "right_vehicle_signaling" in kb.features
        assert kb.longitudinal_actions == ("accelerate", "keep", "decelerate", "brake")
        assert kb.lateral_actions == ("keep_lane", "change_left", "change_right")

    def test_archetypes_distinct_features_shared_actions(self):
        kbs = [scenario_kb(a) for a in ARCHETYPES]
        feature_sets = [frozenset(kb.features) for kb in kbs]
        assert len(set(feature_sets)) == 3
        assert len({kb.longitudinal_actions for kb in kbs}) == 1
        assert len({kb.lateral_actions for kb in kbs}) == 1

    def test_unknown_archetype(self):
        with pytest.raises(ValueError):
            scenario_kb("submarine")


class TestGenerate:
    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_episodes_validate_against_kb(self, archetype):
        spec = ScenarioSpec(archetype=archetype, seed=3)
        episodes = generate(spec, default_policy(archetype), 10)
        validate_episodes(episodes, scenario_kb(archetype))

    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(archetype="highway_cut_in", seed=42)
        policy = default_policy("highway_cut_in")
        a = generate(spec, policy, 8)
        b = generate(spec, policy, 8)
        assert [e.steps for e in a] == [e.steps for e in b]

    def test_repeated_states_share_one_tuple(self):
        spec = ScenarioSpec(archetype="signalized_intersection", seed=8)
        states = [state for e in generate(spec, default_policy(spec.archetype), 12)
                  for state, _ in e.steps]
        distinct = {state.features: state.features for state in states}
        assert len(distinct) < len(states) // 4  # states recur
        assert all(state.features is distinct[state.features] for state in states)

    def test_noiseless_matches_table_exactly(self):
        spec = ScenarioSpec(archetype="highway_cut_in", noise_rate=0.0, seed=1)
        policy = default_policy("highway_cut_in")
        for episode in generate(spec, policy, 10):
            for state, ref in episode.steps:
                expected = policy.tables[0].action(state)
                assert (ref.longitudinal, ref.lateral) == \
                    (expected.longitudinal, expected.lateral)

    def test_noise_changes_some_actions(self):
        policy = default_policy("highway_cut_in")
        clean = generate(ScenarioSpec(archetype="highway_cut_in", seed=5), policy, 20)
        # regenerate states deterministically, then compare against the table
        noisy = generate(ScenarioSpec(archetype="highway_cut_in", seed=5,
                                      noise_rate=0.3), policy, 20)
        flips = sum(ref != policy.tables[0].action(state)
                    for e in noisy for state, ref in e.steps)
        assert flips > 0
        assert clean != noisy

    def test_mixture_frequencies(self):
        t1 = DecisionTable(rows=[], default=ActionPair("keep", "keep_lane"))
        t2 = DecisionTable(rows=[], default=ActionPair("brake", "keep_lane"))
        policy = ReferencePolicy(tables=[t1, t2], weights=[0.7, 0.3])
        spec = ScenarioSpec(archetype="highway_cut_in", episode_length=1, seed=9)
        episodes = generate(spec, policy, 10_000)
        counts = Counter(e.subject_id for e in episodes)
        assert abs(counts["table_0"] / 10_000 - 0.7) <= 0.02

    def test_policy_identifiable_from_noiseless_episodes(self):
        # an oracle table learner recovers each mixture component exactly
        t1 = DecisionTable(rows=[({"front_gap_closing": True}, ActionPair("brake", "keep_lane"))],
                           default=ActionPair("keep", "keep_lane"))
        t2 = DecisionTable(rows=[({"front_gap_closing": True},
                                  ActionPair("decelerate", "keep_lane"))],
                           default=ActionPair("accelerate", "keep_lane"))
        policy = ReferencePolicy(tables=[t1, t2], weights=[0.5, 0.5])
        spec = ScenarioSpec(archetype="highway_cut_in", seed=13)
        episodes = generate(spec, policy, 40)
        for episode in episodes:
            learned = {}
            for state, ref in episode.steps:
                key = state.key()
                assert learned.get(key, ref) == ref  # consistent per episode
                learned[key] = ref
            table = policy.tables[int(episode.subject_id.split("_")[1])]
            for state, ref in episode.steps:
                expected = table.action(state)
                assert (ref.longitudinal, ref.lateral) == \
                    (expected.longitudinal, expected.lateral)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ScenarioSpec(archetype="highway_cut_in", episode_length=0)
        with pytest.raises(ValueError):
            ScenarioSpec(archetype="highway_cut_in", noise_rate=1.0)

    @pytest.mark.parametrize("low,high", [(8, 4), (-5, -2), (-1, 10)])
    def test_trigger_bounds_out_of_order_or_negative_rejected(self, low, high):
        # (8, 4) put every hazard at step 4; (-5, -2) gave episodes no hazard
        with pytest.raises(ValueError, match="0 <= trigger_low <= trigger_high"):
            ScenarioSpec(archetype="highway_cut_in", trigger_low=low, trigger_high=high)

    def test_trigger_bounds_past_a_short_episode_are_clamped(self):
        spec = ScenarioSpec(archetype="highway_cut_in", episode_length=2, trigger_low=3,
                            trigger_high=10, seed=4)
        for episode in generate(spec, default_policy(spec.archetype), 5):
            assert [state.as_dict()["front_gap_closing"] for state, _ in episode.steps] == \
                [False, True]

    def test_negative_mixture_weight_rejected(self):
        tables = [DecisionTable(rows=[]), DecisionTable(rows=[], default=ActionPair("brake", None))]
        with pytest.raises(ValueError, match=">= 0"):
            ReferencePolicy(tables=tables, weights=[1.5, -0.5])

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [1.0, 0.0], [1.0]],
                             ids=["more", "more-with-zero", "fewer"])
    def test_a_weight_count_other_than_the_table_count_is_rejected(self, weights):
        # an extra weight was drawn as a table index that does not exist
        tables = [DecisionTable(rows=[])] * (1 if len(weights) > 1 else 2)
        with pytest.raises(ValueError, match="one mixture weight per decision table"):
            ReferencePolicy(tables=tables, weights=weights)

    def test_a_policy_without_a_table_is_rejected(self):
        with pytest.raises(ValueError, match="at least one decision table"):
            ReferencePolicy(tables=[])
        with pytest.raises(ValueError, match="at least one decision table"):
            ReferencePolicy(tables=[], weights=[1.0])
