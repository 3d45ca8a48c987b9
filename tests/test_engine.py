import dataclasses
import itertools
import json
import math
import random

import pytest

from cogrules.engine import (ActionPair, SLOTS, RuleSet, WorldState, decide,
                             decision_distribution, match, pick, select,
                             selection_probabilities, slot_marginals)
from cogrules.knowledge import ProductionRule, read_jsonl, read_section
from oracles import match_oracle, read_jsonl_oracle, summed_marginals

SQRT2 = math.sqrt(2)


def rule(name, preconditions, longitudinal=None, lateral=None, utility=0.0):
    return ProductionRule(name=name, preconditions=tuple(preconditions),
                          effects=ActionPair(longitudinal=longitudinal,
                                          lateral=lateral),
                          utility=utility)


class TestMatch:
    def test_single_match(self):
        r = rule("r1", [("a", "=", True)], longitudinal="brake")
        assert match(WorldState.make({"a": True}), [r]) == [r]

    def test_no_match(self):
        r = rule("r1", [("a", "=", True)], longitudinal="brake")
        assert match(WorldState.make({"a": False}), [r]) == []

    def test_all_matching_name_ordered(self):
        rules = [rule(n, [("a", "=", True)], longitudinal="keep")
                 for n in ("rc", "ra", "rb")]
        got = match(WorldState.make({"a": True}), rules)
        assert [r.name for r in got] == ["ra", "rb", "rc"]

    def test_negative_precondition(self):
        r = rule("r1", [("a", "!=", True)], longitudinal="keep")
        assert match(WorldState.make({"a": False}), [r]) == [r]
        assert match(WorldState.make({"a": True}), [r]) == []

    def test_missing_feature_fails_precondition(self):
        r = rule("r1", [("ghost", "=", True)], longitudinal="keep")
        assert match(WorldState.make({"a": True}), [r]) == []


class TestSelect:
    def test_equal_utilities_symmetric(self):
        probs = selection_probabilities([0.0, 0.0], SQRT2)
        assert probs == [0.5, 0.5]

    def test_dominant_utility(self):
        # direct evaluation: p1 = e^(10/sqrt2) / (e^(10/sqrt2) + 1)
        probs = selection_probabilities([10.0, 0.0], SQRT2)
        expected = math.exp(10 / SQRT2) / (math.exp(10 / SQRT2) + 1)
        assert abs(probs[0] - expected) < 1e-12
        assert abs(expected - 0.99915) < 5e-5

    def test_shift_invariance(self):
        base = selection_probabilities([1.0, 2.0, 3.0], SQRT2)
        shifted = selection_probabilities([101.0, 102.0, 103.0], SQRT2)
        assert all(abs(a - b) < 1e-12 for a, b in zip(base, shifted))

    def test_normalization_large_conflict_sets(self):
        rng = random.Random(5)
        for size in (2, 10, 100, 1000):
            utilities = [rng.uniform(-50, 50) for _ in range(size)]
            assert abs(sum(selection_probabilities(utilities, SQRT2)) - 1.0) <= 1e-9

    def test_extreme_utilities_stable(self):
        probs = selection_probabilities([1e6, 0.0], SQRT2)
        assert probs[0] == pytest.approx(1.0)
        assert not any(math.isnan(p) for p in probs)

    def test_empty_conflict_rejected(self):
        with pytest.raises(ValueError):
            select([], [0.0], SQRT2, random.Random(0))

    def test_equal_utility_pick_ratio(self):
        rng = random.Random(11)
        picks = sum(select([0, 1], [0.0, 0.0], SQRT2, rng) == 0
                    for _ in range(10_000))
        assert abs(picks / 10_000 - 0.5) <= 0.02

    def test_only_the_conflict_positions_utilities_compete(self):
        # position 0's far larger utility is not in the conflict set
        rng = random.Random(2)
        assert all(select([1, 2], [1e6, 0.0, -1e6], SQRT2, rng) == 1 for _ in range(100))


class FixedDraw:
    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


class TestPick:
    def test_draw_on_a_boundary_goes_to_the_next_index(self):
        assert pick([0.25, 0.75], FixedDraw(0.249)) == 0
        assert pick([0.25, 0.75], FixedDraw(0.25)) == 1

    def test_draw_past_the_cumulative_sum_falls_back_to_last(self):
        assert pick([0.3, 0.3], FixedDraw(0.99)) == 1

    def test_weights_over_a_total(self):
        assert pick([1.0, 3.0], FixedDraw(0.249), 4.0) == 0
        assert pick([1.0, 3.0], FixedDraw(0.25), 4.0) == 1

    def test_one_draw_per_pick(self):
        rng = random.Random(5)
        picks = [pick([0.5, 0.5], rng) for _ in range(3)]
        ref = random.Random(5)
        assert picks == [0 if ref.random() < 0.5 else 1 for _ in range(3)]


class TestSelectMatchesPick:
    """`select` draws from the softmax terms without building the normalised
    list; it must return `conflict[pick(selection_probabilities(...), rng)]`."""

    UTILITY_LISTS = {
        "equal": [2.5] * 7,
        "spread-1e6": [1e6, 0.0, -3.0, 5e5, 1e6],
        "negative": [-40.0, -0.5, -12.25, -7.0],
        "single": [-3.0],
        "seeded": [random.Random(9).uniform(-20, 20) for _ in range(50)],
    }

    @staticmethod
    def conflict(utilities):
        return list(range(len(utilities)))

    def assert_same_draw(self, utilities, rng_a, rng_b):
        conflict = self.conflict(utilities)
        expected = conflict[pick(selection_probabilities(utilities, SQRT2), rng_b)]
        assert select(conflict, utilities, SQRT2, rng_a) == expected

    @pytest.mark.parametrize("name", UTILITY_LISTS)
    def test_twin_rngs_draw_the_same_rules(self, name):
        for seed in range(20):
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(50):
                self.assert_same_draw(self.UTILITY_LISTS[name], a, b)
            assert a.random() == b.random()  # one draw each, so the streams agree

    @pytest.mark.parametrize("name", UTILITY_LISTS)
    def test_fixed_draws_at_zero_and_at_a_cumulative_sum(self, name):
        utilities = self.UTILITY_LISTS[name]
        first = selection_probabilities(utilities, SQRT2)[0]
        for x in (0.0, first):
            self.assert_same_draw(utilities, FixedDraw(x), FixedDraw(x))

    def test_a_draw_past_the_cumulative_sum_falls_through_to_the_last_rule(self):
        utilities = [0.0, 1.0, 2.0]
        x = 1 - 2**-53
        *_, total = itertools.accumulate(selection_probabilities(utilities, SQRT2))  # as pick sums
        assert total <= x  # rounding leaves x past the sum
        self.assert_same_draw(utilities, FixedDraw(x), FixedDraw(x))
        assert select(self.conflict(utilities), utilities, SQRT2, FixedDraw(x)) == 2

    @pytest.mark.parametrize("name", UTILITY_LISTS)
    def test_probabilities_sum_to_one(self, name):
        assert abs(sum(selection_probabilities(self.UTILITY_LISTS[name], SQRT2)) - 1.0) <= 1e-9

    def test_no_utilities_no_probabilities(self):
        assert selection_probabilities([], SQRT2) == []


class TestDecide:
    def test_single_rule_both_effects_fires_once(self):
        # a longitudinal winner with a lateral effect fills both slots
        r = rule("r1", [("a", "=", True)], longitudinal="brake",
                 lateral="keep_lane")
        rules = RuleSet([r])
        lon, lat = decide(rules.candidates(WorldState.make({"a": True})),
                          rules, SQRT2, random.Random(0))
        assert lon == 0 and lat == 0

    def test_no_match_empty_decision(self):
        rules = RuleSet([rule("r1", [("a", "=", True)], longitudinal="brake")])
        fillers = decide(rules.candidates(WorldState.make({"a": False})),
                         rules, SQRT2, random.Random(0))
        assert fillers == (None, None)

    def test_lateral_only_slot(self):
        rules = RuleSet([rule("r1", [("a", "=", True)], lateral="change_left")])
        lon, lat = decide(rules.candidates(WorldState.make({"a": True})),
                          rules, SQRT2, random.Random(0))
        assert lon is None
        assert lat == 0

    def test_competing_longitudinal_rules_monte_carlo(self):
        rules = RuleSet([rule("ra", [("a", "=", True)], longitudinal="brake"),
                         rule("rb", [("a", "=", True)], longitudinal="keep")])
        rng = random.Random(21)
        candidates = rules.candidates(WorldState.make({"a": True}))
        picks = sum(rules.rules[decide(candidates, rules, SQRT2, rng)[0]].effects.longitudinal
                    == "brake" for _ in range(10_000))
        assert abs(picks / 10_000 - 0.5) <= 0.02

    def test_argmax_dominance(self):
        rules = RuleSet([rule("hi", [("a", "=", True)], longitudinal="brake", utility=20.0),
                         rule("lo", [("a", "=", True)], longitudinal="keep", utility=0.0)])
        rng = random.Random(31)
        candidates = rules.candidates(WorldState.make({"a": True}))
        picks = sum(rules.rules[decide(candidates, rules, SQRT2, rng)[0]].effects.longitudinal
                    == "brake" for _ in range(10_000))
        assert picks / 10_000 > 0.999

    def test_deterministic_per_seed(self):
        rules = RuleSet([rule("ra", [("a", "=", True)], longitudinal="brake"),
                         rule("rb", [("a", "=", True)], longitudinal="keep",
                              lateral="change_left")])
        candidates = rules.candidates(WorldState.make({"a": True}))
        runs = []
        for _ in range(2):
            rng = random.Random(77)
            runs.append([tuple(rules.rules[i].name for i in decide(candidates, rules, SQRT2, rng))
                         for _ in range(50)])
        assert runs[0] == runs[1]
        # "rb" also competes for the lateral slot that "ra" leaves empty
        assert set(runs[0]) == {("ra", "rb"), ("rb", "rb")}

    def test_trace_justifies_every_action(self):
        # each filled slot is filled by a rule with an effect there
        rules = RuleSet([rule("ra", [("a", "=", True)], longitudinal="brake"),
                         rule("rb", [("a", "=", True)], lateral="change_left")])
        rng = random.Random(3)
        candidates = rules.candidates(WorldState.make({"a": True}))
        for _ in range(50):
            for slot, filler in zip(SLOTS, decide(candidates, rules, SQRT2, rng)):
                assert filler is not None and rules.rules[filler].effects.slot(slot) is not None

    def test_trace_probabilities_normalized(self):
        # every filler is the position of a rule that competed for its slot
        rules = RuleSet([rule(f"r{i}", [("a", "=", True)], longitudinal="keep",
                              utility=float(i)) for i in range(7)]
                        + [rule("lat", [("a", "=", True)], lateral="change_left")])
        state = WorldState.make({"a": True})
        candidates = rules.candidates(state)
        rng = random.Random(0)
        for _ in range(50):
            for filler, competed in zip(decide(candidates, rules, SQRT2, rng), candidates):
                assert filler in competed


class TestDecisionDistribution:
    STATE = WorldState.make({"a": True})

    def dist(self, rules):
        return decision_distribution(self.STATE, RuleSet(rules), SQRT2)

    def test_two_effect_winner_fixes_the_pair(self):
        # the only longitudinal candidate carries a lateral effect, so the
        # far likelier lateral-only rule never gets to resolve
        rules = [rule("both", [("a", "=", True)], longitudinal="brake", lateral="keep_lane"),
                 rule("lat", [("a", "=", True)], lateral="change_left", utility=10.0)]
        assert self.dist(rules) == {"brake/keep_lane": 1.0}

    def test_other_winner_pairs_with_the_lateral_softmax(self):
        # "lon" wins half the time and then the lateral step, which the
        # two-effect loser still enters, splits evenly
        rules = [rule("both", [("a", "=", True)], longitudinal="brake", lateral="keep_lane"),
                 rule("lat", [("a", "=", True)], lateral="change_left"),
                 rule("lon", [("a", "=", True)], longitudinal="keep")]
        assert self.dist(rules) == {"brake/keep_lane": 0.5, "keep/keep_lane": 0.25,
                                    "keep/change_left": 0.25}

    def test_lateral_only_conflict_set(self):
        rules = [rule("l1", [("a", "=", True)], lateral="keep_lane"),
                 rule("l2", [("a", "=", True)], lateral="change_left")]
        assert self.dist(rules) == {"none/keep_lane": 0.5, "none/change_left": 0.5}

    def test_empty_conflict_set_is_none_none(self):
        assert self.dist([rule("r", [("a", "=", False)], longitudinal="brake")]) == \
            {"none/none": 1.0}
        assert self.dist([]) == {"none/none": 1.0}
        assert selection_probabilities([], SQRT2) == []

    def test_equal_utilities_give_exact_halves(self):
        rules = [rule("ra", [("a", "=", True)], longitudinal="brake"),
                 rule("rb", [("a", "=", True)], longitudinal="keep")]
        assert self.dist(rules) == {"brake/none": 0.5, "keep/none": 0.5}

    def test_sums_to_one(self):
        rng = random.Random(13)
        effects = [("brake", None), ("keep", None), (None, "keep_lane"),
                   (None, "change_left"), ("brake", "keep_lane"), ("keep", "change_left")]
        for _ in range(500):
            rules = [rule(f"r{i}", [("a", "=", rng.random() < 0.8)], *rng.choice(effects),
                          utility=rng.uniform(-50, 50)) for i in range(rng.randint(0, 12))]
            assert abs(sum(self.dist(rules).values()) - 1.0) <= 1e-9


class TestSlotMarginals:
    STATE = WorldState.make({"a": True})
    EFFECTS = {
        "mixed": [("brake", None), ("keep", None), (None, "keep_lane"),
                  (None, "change_left"), ("brake", "keep_lane"), ("keep", "change_left")],
        "lateral_only": [(None, "keep_lane"), (None, "change_left")],
        "two_effect": [("brake", "keep_lane"), ("keep", "change_left"), ("brake", "change_left")],
    }

    def test_equal_the_summed_decision_distribution(self):
        rng = random.Random(17)
        for i in range(500):
            effects = self.EFFECTS[("mixed", "lateral_only", "two_effect")[i % 3]]
            equal = i % 2 == 0
            # preconditions that fail leave some sets, and some slots, without candidates
            rules = RuleSet([rule(f"r{j}", [("a", "=", rng.random() < 0.8)], *rng.choice(effects),
                                  utility=1.5 if equal else rng.uniform(-20, 20))
                             for j in range(rng.randint(0, 8))])
            want = summed_marginals(decision_distribution(self.STATE, rules, SQRT2))
            got = slot_marginals(self.STATE, rules, SQRT2)
            for w, g in zip(want, got):
                for action in set(w) | set(g):
                    assert abs(w.get(action, 0.0) - g.get(action, 0.0)) <= 1e-12, (i, action)


# rule-side features and their values: `b2` and `n` hold True and 1, which
# are equal, under one feature; `n` is an int feature; `ghost` never occurs
# in a state
VALUES = {"b0": (True, False), "b1": (True, False), "b2": (True, False, 1, 0),
          "lane": ("left", "mid", "right"), "n": (0, 1, 2, 3, True), "ghost": (True, False)}


def random_precondition(rng, cmp):
    feature = rng.choice(sorted(VALUES))
    return feature, cmp, rng.choice(VALUES[feature])


def twin(value):
    """The equal value of the other type, True for 1 and 0 for False; else itself."""
    if type(value) is bool:
        return int(value)
    return bool(value) if type(value) is int and value in (0, 1) else value


def random_rules(rng, size):
    """Rules with no preconditions, all `!=` ones, all `=` ones, mixed ones
    and contradictory ones (`a = v` with `a != v` or with `a != twin(v)`);
    names may repeat, so the name order's ties are covered too."""
    effects = [("brake", None), ("keep", None), (None, "keep_lane"),
               (None, "change_left"), ("brake", "keep_lane"), (None, None)]
    rules = []
    for i in range(size):
        kind = rng.choice(("none", "!=", "=", "mixed", "contradiction"))
        n_pre = 0 if kind == "none" else rng.randint(1, 3)
        mixed = kind in ("mixed", "contradiction")
        pres = [random_precondition(rng, rng.choice(("=", "!=")) if mixed else kind)
                for _ in range(n_pre)]
        if kind == "contradiction":
            feature, _, value = random_precondition(rng, "=")
            pres += [(feature, "=", value), (feature, "!=", rng.choice((value, twin(value))))]
            rng.shuffle(pres)
        rules.append(rule(f"r{rng.randrange(size)}", pres, *rng.choice(effects),
                          utility=rng.uniform(-5, 5)))
    return rules


def random_state(rng, idx):
    """Each rule-side feature but `ghost` present with probability 0.8, plus
    `idx`, which no rule tests, to make the state distinct."""
    feats = {"idx": idx}
    for name, values in VALUES.items():
        if name != "ghost" and rng.random() < 0.8:
            feats[name] = rng.choice(values)
    return WorldState.make(feats, t=rng.randrange(100))


def brute_force(state, rules):
    """Per slot, the positions in `rules` of the oracle's matched rules with an effect there."""
    position = {id(r): i for i, r in enumerate(rules)}
    matched = match_oracle(state, rules)
    return tuple([position[id(r)] for r in matched if r.effects.slot(slot) is not None]
                 for slot in SLOTS)


class TestMatchOracle:
    """`match`'s set algebra against the precondition-at-a-time oracle."""

    def test_random_rule_sets_equal_the_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            rules = random_rules(rng, rng.randint(0, 40))
            for _ in range(40):
                state = random_state(rng, 0)
                assert [id(r) for r in match(state, rules)] == \
                    [id(r) for r in match_oracle(state, rules)]

    def test_true_and_one_are_one_value(self):
        on, one = rule("on", [("a", "=", True)], "keep"), rule("one", [("a", "=", 1)], "keep")
        off = rule("off", [("a", "!=", 1)], "keep")
        assert match(WorldState.make({"a": 1}), [on, one, off]) == [on, one]
        assert match(WorldState.make({"a": True}), [on, one, off]) == [on, one]
        assert match(WorldState.make({"a": 0}), [on, one, off]) == [off]

    def test_an_absent_feature_fails_both_comparators(self):
        rules = [rule("eq", [("ghost", "=", 2)], "keep"), rule("ne", [("ghost", "!=", 2)], "keep")]
        assert match(WorldState.make({"a": 2}), rules) == []

    def test_contradictory_preconditions_never_match(self):
        r = rule("r", [("a", "=", True), ("a", "!=", 1)], "keep")
        assert all(match(WorldState.make({"a": v}), [r]) == [] for v in (True, 1, False, 0, 2))

    def test_no_preconditions_always_match(self):
        r = rule("r", [], "keep")
        assert match(WorldState.make({}), [r]) == [r] == match(WorldState.make({"a": 1}), [r])

    def test_replace_recompiles_the_preconditions(self):
        r = rule("r", [("a", "=", True)], "keep")
        flipped = dataclasses.replace(r, preconditions=(("a", "!=", True),))
        assert (flipped.must, flipped.must_not, flipped.must_name) == \
            (frozenset(), {("a", True)}, {"a"})
        assert match(WorldState.make({"a": True}), [r, flipped]) == [r]
        assert match(WorldState.make({"a": False}), [r, flipped]) == [flipped]
        assert ProductionRule.from_json(flipped.to_json()).must_not == flipped.must_not

    @pytest.mark.parametrize("cmp", [">", "<", "==", "approximately"])
    def test_a_rule_built_in_code_refuses_a_third_comparator(self, cmp):
        # else `match` would read any comparator but '=' as '!='
        with pytest.raises(ValueError, match=f"^comparator {cmp!r} is not "
                           "'=' or '!='$"):
            ProductionRule("r", (("a", cmp, 1),), ActionPair("brake"))


class TestFrozenRule:
    def test_every_field_refuses_assignment(self):
        r = rule("r", [("a", "=", True)], "keep")
        values = {"name": "s", "preconditions": (("a", "!=", True),),
                  "effects": ActionPair("brake"), "utility": 1.0, "provenance": {}}
        assert set(values) == {f.name for f in dataclasses.fields(ProductionRule)}
        for name, value in values.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, value)
        # the compiled preconditions stay the rule's own
        assert match(WorldState.make({"a": True}), [r]) == [r]
        assert match(WorldState.make({"a": False}), [r]) == []


class TestRuleSet:
    """`RuleSet`: its utilities, and its candidates against the oracle's conflict set."""

    def test_utilities_start_from_the_rules_or_one_value(self):
        rules = [rule("ra", [("a", "=", True)], "brake", utility=2.0),
                 rule("rb", [("a", "=", True)], "keep", utility=-1.0)]
        assert RuleSet(rules).utilities == [2.0, -1.0]
        assert RuleSet(rules, 0.5).utilities == [0.5, 0.5]

    def test_with_utilities_gives_each_rule_its_positions_utility(self):
        rules = [rule("ra", [("a", "=", True)], "brake", utility=2.0),
                 rule("rb", [("a", "=", True)], "keep")]
        rule_set = RuleSet(rules)
        rule_set.utilities[1] = 7.5
        written = rule_set.with_utilities()
        assert [r.utility for r in written] == [2.0, 7.5]
        assert [r.utility for r in rules] == [2.0, 0.0]
        assert [dataclasses.replace(w, utility=r.utility) for w, r in zip(written, rules)] == rules

    def test_a_rule_object_at_two_positions_is_refused(self):
        r = rule("r", [("a", "=", True)], "keep")
        with pytest.raises(ValueError, match="two positions"):
            RuleSet([r, r])
        # an equal rule is another object, and holds its own position
        twin = dataclasses.replace(r)
        assert RuleSet([r, twin]).candidates(WorldState.make({"a": True})) == ([0, 1], [])

    def test_random_rule_sets_equal_brute_force(self):
        rng = random.Random(41)
        for _ in range(60):
            rules = random_rules(rng, rng.randint(0, 40))
            rule_set = RuleSet(rules)
            states = [random_state(rng, rng.randrange(8)) for _ in range(40)]
            for state in states + states:  # misses, then hits
                assert rule_set.candidates(state) == brute_force(state, rules)

    def test_eviction_keeps_candidates_exact(self):
        rng = random.Random(43)
        rules = random_rules(rng, 40)
        rule_set = RuleSet(rules)
        states = [random_state(rng, i) for i in range(4396)]
        for state in states + states[:300]:  # the early states again, long after they missed
            assert rule_set.candidates(state) == brute_force(state, rules)

    def test_cache_is_keyed_on_features_not_time(self):
        rule_set = RuleSet([rule("r", [("a", "=", True)], longitudinal="brake")])
        first = rule_set.candidates(WorldState.make({"a": True}, t=0))
        assert rule_set.candidates(WorldState.make({"a": True}, t=9)) is first
        assert len(rule_set._cache) == 1

    def test_utility_change_after_caching_is_seen(self):
        rules = [rule("ra", [("a", "=", True)], longitudinal="brake"),
                 rule("rb", [("a", "=", True)], longitudinal="keep")]
        rule_set = RuleSet(rules)
        state = WorldState.make({"a": True})
        assert decision_distribution(state, rule_set, SQRT2) == \
            {"brake/none": 0.5, "keep/none": 0.5}
        rule_set.utilities[0] = 10.0
        expected = selection_probabilities([10.0, 0.0], SQRT2)
        assert decision_distribution(state, rule_set, SQRT2) == \
            {"brake/none": expected[0], "keep/none": expected[1]}


@dataclasses.dataclass
class Digit:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.n > 9:
            raise TypeError("n must be a digit")


class TestReadSection:
    def test_a_value_error_of_the_class_names_the_section(self):
        with pytest.raises(ValueError, match=r"^section 'digit': n must be >= 0$") as refused:
            read_section(Digit, "digit", {"n": -1})
        assert refused.value.__suppress_context__  # one error, not two chained

    def test_any_other_error_of_the_class_passes_unchanged(self):
        with pytest.raises(TypeError, match=r"^n must be a digit$"):
            read_section(Digit, "digit", {"n": 10})
        assert read_section(Digit, "digit", {"n": 7}) == Digit(7)


def read_outcome(reader, path):
    """The (line number, value) pairs a reader yields, as their repr (so NaN
    equals NaN and 1 differs from 1.0 and True), and its error message or None."""
    items = []
    try:
        for item in reader(path):
            items.append(item)
    except ValueError as e:
        return repr(items), str(e)
    return repr(items), None


class TestReadJsonl:
    """`read_jsonl` yields what `json.loads` a line at a time yields, or
    raises its error message, for any file."""

    # a string may hold U+2028, U+2029 and U+0085 raw: a record ends at "\n" only
    TEXT = ["x", "é", "中", "😀", '"', "\\", "\t", "\u2028", "\u2029", "\u0085", " "]
    NUMBERS = [0, -1, 7, 2 ** 70, 1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf")]
    # neither a value alone nor a blank line: whitespace, a BOM or extra data around
    # a value, a raw control character in a string, or no JSON at all
    ODD = ["{} x", "1 2", "[] []", "Infinity x", "nul", "{", "[1,]", '{"a" 1}', "'a'",
           '"\\x"', '"a\tb"', "\ufeff", "\ufeff{}", "\x85", "\u2028", "\x1c"]
    BLANK = ["", " ", "\t", " \t ", "\r"]

    def random_value(self, rng, depth=0):
        kind = rng.randrange(5 if depth < 3 else 3)
        if kind == 0:
            return rng.choice([None, True, False])
        if kind == 1:
            return rng.choice(self.NUMBERS)
        if kind == 2:
            return "".join(rng.choice(self.TEXT) for _ in range(rng.randint(0, 4)))
        if kind == 3:
            return [self.random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
        return {self.random_value(rng, 3): self.random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))}

    def random_line(self, rng):
        text = json.dumps(self.random_value(rng), ensure_ascii=rng.random() < 0.5,
                          separators=rng.choice([None, (",", ":")]))
        kind = rng.randrange(8)
        if kind == 0:
            return rng.choice(self.BLANK)
        if kind == 1:
            return rng.choice(self.ODD)
        if kind == 2:  # leading or trailing spaces and tabs
            return rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\t "])
        if kind == 3:
            return "\ufeff" + text
        return text

    def test_random_files(self, tmp_path):
        rng = random.Random(36)
        path = tmp_path / "f.jsonl"
        for _ in range(1500):
            lines = [self.random_line(rng) for _ in range(rng.randint(0, 6))]
            end = rng.choice(["\n", "\r\n"])
            text = end.join(lines) + rng.choice(["", end])  # with or without a final newline
            path.write_text(text, encoding="utf-8")
            assert read_outcome(read_jsonl, path) == read_outcome(read_jsonl_oracle, path), text

    @pytest.mark.parametrize("text", [
        "", "\n", " \n\t\n", "{}", "{}\n", ' {"a": 1}\t\n', "\t[1] \n", "{}\r\n[2]\r\n",
        "\ufeff{}\n", "{}\n{} x\n", "1 2", "NaN\n-Infinity\n", '"\u2028\u2029\u0085"\n',
        '{"a": [1, 2.5, true, null]}\n{\n', '"a\tb"'])
    def test_edge_cases(self, tmp_path, text):
        path = tmp_path / "f.jsonl"
        path.write_text(text, encoding="utf-8")
        assert read_outcome(read_jsonl, path) == read_outcome(read_jsonl_oracle, path)
