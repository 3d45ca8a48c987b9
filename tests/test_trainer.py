import dataclasses
import json
import math
import random
import re

import pytest

from cogrules import engine, trainer
from cogrules.cli import main
from cogrules.engine import ActionPair, RuleSet, WorldState, shared_states
from cogrules.knowledge import (FeatureDomain, KnowledgeBase, ProductionRule, read_jsonl,
                                read_section)
from cogrules.scenarios import ARCHETYPES, scenario_kb
from cogrules.trainer import (Episode, EpisodeSchemaError, StepRecord,
                              TrainConfig, episodes_from_jsonl,
                              episodes_to_jsonl, evaluate_agreement,
                              reward_decompose, train, utility_update,
                              validate_episodes)
from oracles import episodes_jsonl_oracle

SQRT2 = math.sqrt(2)


def rule(name, preconditions, longitudinal=None, lateral=None, utility=0.0):
    return ProductionRule(name=name, preconditions=tuple(preconditions),
                          effects=ActionPair(longitudinal=longitudinal,
                                          lateral=lateral), utility=utility)


def entry(chosen, t):
    """A firing as `reward_decompose` takes it: (firing step, rule position)."""
    return t, chosen


R = 3  # the position of the rule that fired


class TestRewardDecompose:
    def test_zero_gap(self):
        [(chosen, share)] = reward_decompose(10.0, [entry(R, 5)], 5, 0.01)
        assert chosen == R and share == 10.0

    def test_five_step_gap(self):
        [(_, r)] = reward_decompose(10.0, [entry(R, 0)], 5, 0.01)
        assert r == pytest.approx(9.95, abs=1e-12)

    def test_zero_reward_negative_share(self):
        [(_, r)] = reward_decompose(0.0, [entry(R, 2)], 9, 0.01)
        assert r == pytest.approx(-0.07, abs=1e-12)
        assert r <= 0

    def test_earlier_firings_get_less(self):
        early, late = 0, 1
        shares = dict(reward_decompose(10.0, [entry(early, 0), entry(late, 4)], 5, 0.01))
        assert shares[early] < shares[late]

    def test_repeated_firings_one_share_each(self):
        shares = reward_decompose(10.0, [entry(R, 1), entry(R, 3)], 4, 0.01)
        assert len(shares) == 2

    def test_firing_after_reward_rejected(self):
        with pytest.raises(ValueError):
            reward_decompose(10.0, [entry(R, 9)], 5, 0.01)


class TestUtilityUpdate:
    def test_table_constants(self):
        assert utility_update(0.0, 10.0, 2e-4) == pytest.approx(0.002, abs=1e-15)

    def test_fixed_point(self):
        assert utility_update(3.7, 3.7, 0.25) == 3.7

    def test_half_step(self):
        assert utility_update(5.0, 0.0, 0.5) == 2.5

    def test_contraction_identity(self):
        rng = random.Random(4)
        for _ in range(500):
            u = rng.uniform(-20, 20)
            r = rng.uniform(-20, 20)
            a = rng.uniform(1e-6, 1.0)
            nxt = utility_update(u, r, a)
            assert abs(nxt - r) == pytest.approx((1 - a) * abs(u - r), rel=1e-12)

    def test_closed_form_over_many_iterations(self):
        u, r, a = 0.0, 1.0, 2e-4
        n = 1_000_000
        for _ in range(n):
            u = utility_update(u, r, a)
        closed = r - (r - 0.0) * (1 - a) ** n
        assert abs(u - closed) < 1e-12

    def test_monotone_toward_reward(self):
        assert utility_update(0.0, 10.0, 0.1) > 0.0
        assert utility_update(10.0, 0.0, 0.1) < 10.0


def one_state_episode(n_steps, ref=("brake", None), state_features=None):
    steps = []
    for t in range(n_steps):
        steps.append((WorldState.make(state_features or {"front_gap_closing": True}, t),
                      ActionPair(*ref)))
    return Episode(steps=steps)


class TestTrain:
    def test_zero_epochs_noop(self):
        rules = [rule("r", [("front_gap_closing", "=", True)],
                      longitudinal="brake", utility=3.0)]
        cfg = TrainConfig(epochs=0, initial_utility=0.0)
        trained, curve = train(rules, [one_state_episode(5)], cfg)
        assert trained.utilities == [0.0]
        assert curve == []
        assert rules[0].utility == 3.0 and trained.rules[0] is rules[0]

    def test_learning_rate_zero_equivalent(self):
        # alpha must be > 0 by contract; the smallest rate leaves utilities
        # essentially at u0
        rules = [rule("r", [("front_gap_closing", "=", True)],
                      longitudinal="brake")]
        cfg = TrainConfig(learning_rate=1e-12, epochs=3)
        trained, _ = train(rules, [one_state_episode(10)], cfg)
        assert abs(trained.utilities[0]) < 1e-9

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_agree_disagree_separation(self):
        agree = rule("agree", [("front_gap_closing", "=", True)],
                     longitudinal="brake")
        disagree = rule("disagree", [("front_gap_closing", "=", True)],
                        longitudinal="accelerate")
        episodes = [one_state_episode(100) for _ in range(20)]  # 2000 steps
        cfg = TrainConfig(epochs=1, seed=3)
        trained, curve = train([agree, disagree], episodes, cfg)
        by_name = dict(zip((r.name for r in trained.rules), trained.utilities))
        assert by_name["agree"] > by_name["disagree"]
        assert curve[-1].agreement > 0.4

    def test_reproducible_bit_identical(self):
        rules = [rule("a", [("front_gap_closing", "=", True)], longitudinal="brake"),
                 rule("b", [("front_gap_closing", "=", True)], longitudinal="keep")]
        episodes = [one_state_episode(30) for _ in range(5)]
        cfg = TrainConfig(epochs=4, seed=17)
        t1, c1 = train(rules, episodes, cfg)
        t2, c2 = train(rules, episodes, cfg)
        assert t1.utilities == t2.utilities
        assert [(p.agreement, p.mean_utility) for p in c1] == \
            [(p.agreement, p.mean_utility) for p in c2]

    def test_on_epoch_observes_every_epoch_without_changing_the_run(self):
        agree = rule("agree", [("front_gap_closing", "=", True)], longitudinal="brake")
        disagree = rule("disagree", [("front_gap_closing", "=", True)],
                        longitudinal="accelerate")
        episodes = [one_state_episode(10) for _ in range(4)]
        cfg = TrainConfig(epochs=4, seed=3, learning_rate=0.1)
        seen = []
        observed, c1 = train([agree, disagree], episodes, cfg,
                             on_epoch=lambda done, rule_set: seen.append(
                                 (done, list(rule_set.utilities))))
        plain, c2 = train([agree, disagree], episodes, cfg)
        assert [done for done, _ in seen] == [0, 1, 2, 3, 4]
        assert seen[0][1] == [cfg.initial_utility] * 2
        assert seen[-1][1] == plain.utilities
        assert observed.utilities == plain.utilities
        assert c1 == c2

    def test_bounded_utilities(self):
        rules = [rule("a", [("front_gap_closing", "=", True)], longitudinal="brake"),
                 rule("b", [("front_gap_closing", "=", True)], longitudinal="keep")]
        episodes = [one_state_episode(50) for _ in range(10)]
        cfg = TrainConfig(epochs=10, seed=1, learning_rate=0.3)
        trained, _ = train(rules, episodes, cfg)
        for u in trained.utilities:
            assert -0.5 <= u <= 10.0  # [R- - beta*T, R+]

    def test_delayed_reward_decay(self):
        # longitudinal reference only on the last step: firings accumulate
        # and the earliest firing receives the smallest share
        r = rule("r", [("x", "=", True)], longitudinal="brake")
        steps = []
        for t in range(4):
            ref = ActionPair("brake", None) if t == 3 else ActionPair(None, None)
            steps.append((WorldState.make({"x": True}, t), ref))
        cfg = TrainConfig(epochs=1, seed=0, learning_rate=0.5, decay=0.01)
        trained, _ = train([r], [Episode(steps=steps)], cfg)
        # shares: 10 - 0.01*3, 10 - 0.01*2, 10 - 0.01*1, 10 applied in order
        u = 0.0
        for share in (9.97, 9.98, 9.99, 10.0):
            u = u + 0.5 * (share - u)
        assert trained.utilities[0] == pytest.approx(u, abs=1e-12)

    def test_credit_goes_to_the_rule_that_fired_not_to_its_name(self):
        # two rules may share a name (a hand-written rule store need not
        # keep names unique); only the first one ever matches
        fired = rule("same", [("front_gap_closing", "=", True)], longitudinal="brake")
        idle = rule("same", [("front_gap_closing", "=", False)], longitudinal="brake")
        cfg = TrainConfig(epochs=1, learning_rate=0.5)
        trained, curve = train([fired, idle], [one_state_episode(10)], cfg)
        assert curve[-1].agreement == 1.0
        assert trained.utilities[0] > 9.9
        assert trained.utilities[1] == cfg.initial_utility

    def test_trains_the_positions_and_leaves_the_rules_given(self):
        rules = [rule("agree", [("front_gap_closing", "=", True)], longitudinal="brake",
                      utility=4.0),
                 rule("disagree", [("front_gap_closing", "=", True)], longitudinal="keep")]
        before = [dataclasses.replace(r) for r in rules]
        cfg = TrainConfig(epochs=2, seed=5, learning_rate=0.2)
        trained, curve = train(rules, [one_state_episode(20)], cfg)
        assert all(t is r for t, r in zip(trained.rules, rules, strict=True))
        assert rules == before  # utility 4.0 and 0.0 as given
        assert trained.utilities[1] < 9.0 < trained.utilities[0]
        assert curve[-1].mean_utility == sum(trained.utilities) / 2

    def test_a_rule_object_given_twice_is_refused(self):
        r = rule("r", [("front_gap_closing", "=", True)], longitudinal="brake")
        with pytest.raises(ValueError, match="two positions"):
            train([r, r], [one_state_episode(5)], TrainConfig(epochs=1))


class TestEvaluate:
    def test_perfect_imitation(self):
        r = rule("r", [("front_gap_closing", "=", True)], longitudinal="brake")
        agreement = evaluate_agreement(RuleSet([r]), [one_state_episode(20)], SQRT2)
        assert agreement["longitudinal"] == 1.0

    def test_empty_rule_set(self):
        agreement = evaluate_agreement(RuleSet([]), [one_state_episode(20)], SQRT2)
        assert agreement["longitudinal"] == 0.0

    def test_equal_utility_coin_flip(self):
        rules = [rule("agree", [("front_gap_closing", "=", True)],
                      longitudinal="brake"),
                 rule("disagree", [("front_gap_closing", "=", True)],
                      longitudinal="accelerate")]
        episodes = [one_state_episode(100) for _ in range(100)]
        agreement = evaluate_agreement(RuleSet(rules), episodes, SQRT2)
        assert abs(agreement["longitudinal"] - 0.5) <= 0.03

    def test_two_effect_winner_fixes_the_lateral_reference(self):
        rules = [rule("both", [("front_gap_closing", "=", True)],
                      longitudinal="brake", lateral="keep_lane"),
                 rule("lat", [("front_gap_closing", "=", True)], lateral="change_left"),
                 rule("lon", [("front_gap_closing", "=", True)], longitudinal="keep")]
        episode = one_state_episode(4, ref=("keep", "keep_lane"))
        agreement = evaluate_agreement(RuleSet(rules), [episode], SQRT2)
        # "both" wins half the time and fixes keep_lane; otherwise the
        # lateral step splits evenly
        assert agreement == {"longitudinal": 0.5, "lateral": 0.75}

    def test_never_exceeds_one(self):
        # these utilities' softmax probabilities sum to 1 + 2**-52 in name order
        rules = [rule(f"r{i}", [("front_gap_closing", "=", True)], longitudinal="brake",
                      utility=u) for i, u in enumerate((0.0, 1.0, 4.0, 0.0))]
        agreement = evaluate_agreement(RuleSet(rules), [one_state_episode(20)], SQRT2)
        assert agreement["longitudinal"] == 1.0


class TestEpisodeIo:
    def test_jsonl_round_trip(self, tmp_path):
        episodes = [one_state_episode(3), one_state_episode(2, ref=(None, "keep_lane"))]
        path = tmp_path / "eps.jsonl"
        episodes_to_jsonl(episodes, path)
        loaded = episodes_from_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0].steps[0][0] == episodes[0].steps[0][0]
        assert loaded[1].steps[0][1] == ActionPair(None, "keep_lane")

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_records_end_at_newlines_only(self, tmp_path, separator):
        # JSON strings may hold these three raw; str.splitlines would break there
        subject = f"subject{separator}one"
        lines = [json.dumps({"episode": 0, "t": t, "state": {"gap": True}, "reference": {},
                             "subject": subject}, ensure_ascii=False) for t in (0, 1)]
        path = tmp_path / "eps.jsonl"
        path.write_text("\n".join(lines) + "\n")
        [episode] = episodes_from_jsonl(path)
        assert episode.subject_id == subject and [s.t for s, _ in episode.steps] == [0, 1]
        path.write_text("\n".join(lines + ["{"]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: "):
            episodes_from_jsonl(path)

    @pytest.mark.parametrize("key", ["subject", "scenario"])
    def test_an_episode_is_not_relabelled_on_a_later_line(self, tmp_path, key):
        lines = [{"episode": 0, "t": t, "state": {"gap": True}, "reference": {},
                  "subject": "a", "scenario": "s1"} for t in (0, 1, 2)]
        lines[2][key] = "b"
        path = tmp_path / "eps.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: episode 0 is "
                           "scenario 's1' and subject 'a' on an earlier line$"):
            episodes_from_jsonl(path)
        lines[2].update(episode=1)  # another episode may carry another label
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        first, second = episodes_from_jsonl(path)
        assert (first.scenario_id, first.subject_id) == ("s1", "a")
        assert (second.scenario_id, second.subject_id) == (lines[2]["scenario"],
                                                           lines[2]["subject"])

    def test_schema_validation(self):
        kb = scenario_kb("highway_cut_in")
        bad = Episode(steps=[(WorldState.make({"martian": True}, 0),
                              ActionPair("brake", None))])
        with pytest.raises(EpisodeSchemaError):
            validate_episodes([bad], kb)

    def test_decreasing_step_times_rejected(self):
        kb = scenario_kb("highway_cut_in")
        bad = Episode(steps=[(WorldState.make({"front_gap_closing": True}, t),
                              ActionPair("brake", None)) for t in (0, 2, 1)])
        with pytest.raises(EpisodeSchemaError):
            validate_episodes([bad], kb)

    def test_bad_reference_action(self):
        kb = scenario_kb("highway_cut_in")
        bad = Episode(steps=[(WorldState.make({"front_gap_closing": True}, 0),
                              ActionPair("warp", None))])
        with pytest.raises(EpisodeSchemaError):
            validate_episodes([bad], kb)


def random_episodes(rng, make):
    """Several episodes over a few recurring states, built with `make`
    (`WorldState.make` or a `shared_states()`): bool, int and str values,
    True and 1 under one feature in different states, non-ASCII and quoted
    names and strings, and references with empty slots."""
    pool = [{"flag": True, "lane": 2}, {"flag": 1, "lane": 2}, {"flag": False, "lane": 0},
            {"flag": 0, "band": "h\u00f6h"}, {"fl\u00e4g \"q\"": "a\"b\\c", "lane": 1}, {}]
    actions = ["brake", "keep", None, "\u00fcber \"fast\""]
    names = ["", "highway", "caf\u00e9 \"x\"", "\u8def"]
    episodes = []
    for _ in range(rng.randint(3, 6)):
        steps = [(make(rng.choice(pool), t), ActionPair(rng.choice(actions), rng.choice(actions)))
                 for t in range(rng.randint(1, 12))]
        episodes.append(Episode(steps, rng.choice(names), rng.choice(names)))
    return episodes


class TestEpisodesFileBytes:
    """`episodes_to_jsonl` writes the bytes of a `json.dumps` per step."""

    @pytest.mark.parametrize("shared", [False, True], ids=["made", "shared"])
    def test_random_episodes_match_the_oracle(self, tmp_path, shared):
        rng = random.Random(61)
        for n in range(30):
            episodes = random_episodes(rng, shared_states() if shared else WorldState.make)
            path = tmp_path / f"e{n}.jsonl"
            episodes_to_jsonl(episodes, path)
            assert path.read_bytes() == episodes_jsonl_oracle(episodes).encode()

    def test_a_file_read_back_writes_the_same_bytes(self, tmp_path):
        episodes = random_episodes(random.Random(62), WorldState.make)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        episodes_to_jsonl(episodes, first)
        episodes_to_jsonl(episodes_from_jsonl(first), second)
        assert second.read_bytes() == first.read_bytes()


def typed_reader(path):
    """`episodes_from_jsonl` with every line read by `read_section`, the path
    that every line not of the written shape takes."""
    groups = {}
    for n, obj in read_jsonl(path):
        rec = read_section(StepRecord, f"{path} line {n}", obj)
        recs = groups.setdefault(rec.episode, [])
        if recs and (rec.scenario, rec.subject) != (recs[0].scenario, recs[0].subject):
            raise ValueError(f"{path} line {n}: episode {rec.episode} is scenario "
                             f"{recs[0].scenario!r} and subject {recs[0].subject!r} "
                             "on an earlier line")
        recs.append(rec)
    if not groups:
        raise ValueError(f"{path}: holds no episode step")
    make = shared_states()
    return [Episode([(make(r.state, r.t), r.reference) for r in recs],
                    recs[0].scenario, recs[0].subject) for _, recs in sorted(groups.items())]


def typed(episodes):
    """Episodes as values that carry each scalar's type, since True == 1, and
    each step's features tuple numbered in order of first use."""
    tuples = {}
    return [(ep.scenario_id, ep.subject_id,
             [(tuple((k, type(v), v) for k, v in state.features), type(state.t), state.t,
               tuples.setdefault(id(state.features), len(tuples)), ref)
              for state, ref in ep.steps]) for ep in episodes]


# ways to break one record: a key or value that `read_section` refuses, or a
# label that differs from its episode's first line
BREAKS = {
    "missing key": lambda rec, rng: rec.pop(rng.choice(sorted(rec))),
    "extra key": lambda rec, rng: rec.update(extra=1),
    "null": lambda rec, rng: rec.update({rng.choice(sorted(rec)): None}),
    "bool t": lambda rec, rng: rec.update(t=True),
    "float episode": lambda rec, rng: rec.update(episode=float(rec["episode"])),
    "list feature": lambda rec, rng: rec["state"].update(flag=[1]),
    "float feature": lambda rec, rng: rec["state"].update(lane=1.0),
    "unknown slot": lambda rec, rng: rec["reference"].update(speed="fast"),
    "bool slot": lambda rec, rng: rec["reference"].update(lateral=True),
    "list slot": lambda rec, rng: rec["reference"].update(longitudinal=["brake"]),
    "number label": lambda rec, rng: rec.update({rng.choice(["scenario", "subject"]): 1}),
    "list reference": lambda rec, rng: rec.update(reference=["brake"]),
    "relabel": lambda rec, rng: rec.update(subject="other"),
}


def random_record(rng, episode, t):
    """A record of the written shape, with True and 1 (and False and 0) under
    one feature, and a reference of both slots, one slot, a null slot or its
    keys in another order."""
    state = {name: rng.choice(values) for name, values in
             (("flag", [True, 1, False, 0]), ("lane", [0, 2]), ("band", ["low", "höh"]))
             if rng.random() < 0.8}
    reference = {"lateral": rng.choice(["keep_lane", "change_left", None]),
                 "longitudinal": rng.choice(["brake", "keep", None])}
    shape = rng.random()
    if shape < 0.15:
        del reference[rng.choice(["lateral", "longitudinal"])]
    elif shape < 0.3:
        reference = dict(reversed(reference.items()))
    return {"episode": episode, "reference": reference, "scenario": "highway",
            "state": state, "subject": f"s{episode}", "t": t}


class TestWrittenShapeFastPath:
    """A line of the shape `episodes_to_jsonl` writes is taken as is; the result,
    or the refusal, is the one every line read by `read_section` gives."""

    def test_agrees_with_the_typed_reader_on_random_records(self, tmp_path):
        rng = random.Random(33)
        path = tmp_path / "eps.jsonl"
        seen = {"read": 0, "refused": 0} | {name: 0 for name in BREAKS}
        for _ in range(400):
            lines = []
            for episode in range(rng.randint(1, 4)):
                for t in range(rng.randint(1, 8)):
                    rec = random_record(rng, episode, t)
                    if rng.random() < 0.04:
                        name = rng.choice(sorted(BREAKS))
                        BREAKS[name](rec, rng)
                        seen[name] += 1
                    lines.append(json.dumps(rec, sort_keys=rng.random() < 0.7))
            path.write_text("".join(line + "\n" for line in lines))
            try:
                expected = typed_reader(path)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    episodes_from_jsonl(path)
                assert str(got.value) == str(e)
                seen["refused"] += 1
                continue
            episodes = episodes_from_jsonl(path)
            assert typed(episodes) == typed(expected)
            seen["read"] += 1
            refs = [ref for ep in episodes for _, ref in ep.steps]
            assert len({id(ref) for ref in refs}) == len(set(refs))  # one object per value
        assert min(seen.values()) > 0, seen

    def test_true_and_1_never_share_a_features_tuple(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        records = [{"episode": 0, "reference": {"lateral": None, "longitudinal": "brake"},
                    "scenario": "", "state": {"flag": value}, "subject": "", "t": t}
                   for t, value in enumerate([True, 1, True, 1, 1.0])]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records[:4]))
        states = [state for state, _ in episodes_from_jsonl(path)[0].steps]
        assert [type(s.as_dict()["flag"]) for s in states] == [bool, int, bool, int]
        assert states[0].features is states[2].features is not states[1].features
        assert states[1].features is states[3].features
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(ValueError, match=re.escape(f"section '{path} line 5': key 'state': "
                                                       "1.0 is not a boolean or an integer")):
            episodes_from_jsonl(path)

    def test_each_distinct_reference_is_read_by_the_typed_reader_once(self, tmp_path, monkeypatch):
        path = tmp_path / "eps.jsonl"
        main(["gen-data", "--archetype", "highway_cut_in", "--episodes", "12", "--noise", "0.2",
              "--seed", "3", "--out", str(tmp_path)])
        typed_reads = []

        def counting(cls, name, obj, /, **parse):
            typed_reads.append(obj["reference"])
            return read_section(cls, name, obj, **parse)
        monkeypatch.setattr(trainer, "read_section", counting)
        episodes = episodes_from_jsonl(tmp_path / "episodes.jsonl")
        refs = {ref for ep in episodes for _, ref in ep.steps}
        assert len(typed_reads) == len(refs) > 1
        assert sum(len(ep.steps) for ep in episodes) > 10 * len(refs)
        # another spelling of a reference read already is read, then shared
        first = json.loads((tmp_path / "episodes.jsonl").read_text().split("\n", 1)[0])
        both = first | {"reference": {"lateral": None, "longitudinal": "brake"}}
        one_slot = first | {"reference": {"longitudinal": "brake"}}
        path.write_text(json.dumps(both) + "\n" + json.dumps(one_slot) + "\n")
        typed_reads.clear()
        [episode] = episodes_from_jsonl(path)
        (_, a), (_, b) = episode.steps
        assert a is b and len(typed_reads) == 2


class TestEpisodesFileRoundTrip:
    """Reading an episodes file and writing it back gives its bytes."""

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_gen_data_output(self, tmp_path, archetype):
        main(["gen-data", "--archetype", archetype, "--episodes", "9", "--noise", "0.3",
              "--seed", "7", "--out", str(tmp_path)])
        written, back = tmp_path / "episodes.jsonl", tmp_path / "back.jsonl"
        episodes_to_jsonl(episodes_from_jsonl(written), back)
        assert back.read_bytes() == written.read_bytes()

    def test_a_file_of_six_key_records(self, tmp_path):
        # the shape of `json.dumps(record, sort_keys=True)` a line, keys and slots all written
        rng = random.Random(34)
        lines = [json.dumps({"episode": e, "scenario": "generated", "subject": "reference",
                             "t": t, "state": {"fä": rng.choice([True, 1, "x"]),
                                               "g": rng.randint(0, 3)},
                             "reference": {"longitudinal": rng.choice(["keep", "brake"]),
                                           "lateral": rng.choice(["keep_lane", None])}},
                            sort_keys=True)
                 for e in range(5) for t in range(rng.randint(1, 9))]
        written, back = tmp_path / "written.jsonl", tmp_path / "back.jsonl"
        written.write_text("\n".join(lines) + "\n")
        episodes_to_jsonl(episodes_from_jsonl(written), back)
        assert back.read_bytes() == written.read_bytes()


class TestSharedStates:
    """Equal states read from one episodes file share one features tuple."""

    def write(self, path, states):
        path.write_text("".join(
            f'{{"episode": {e}, "t": {t}, "state": {state}, "reference": {{}}}}\n'
            for e, t, state in states))
        return episodes_from_jsonl(path)

    def test_equal_states_share_one_tuple(self, tmp_path):
        a, b = '{"gap": true, "band": "low"}', '{"band": "low", "gap": true}'
        episodes = self.write(tmp_path / "e.jsonl", [(0, 0, a), (0, 1, '{"gap": false}'),
                                                     (1, 0, b), (1, 1, a)])
        (s0, _), (s1, _) = episodes[0].steps
        (s2, _), (s3, _) = episodes[1].steps
        assert s0.features is s2.features is s3.features
        assert s1.features is not s0.features
        assert [s.t for s in (s0, s1, s2, s3)] == [0, 1, 0, 1]

    def test_true_and_1_do_not_share(self, tmp_path):
        episodes = self.write(tmp_path / "e.jsonl", [(0, 0, '{"gap": true}'), (0, 1, '{"gap": 1}'),
                                                     (0, 2, '{"gap": true}'), (0, 3, '{"gap": 1}')])
        states = [state for state, _ in episodes[0].steps]
        assert states[0].features == states[1].features  # True == 1
        assert states[0].features is states[2].features
        assert states[1].features is states[3].features
        assert states[0].features is not states[1].features
        assert [type(s.as_dict()["gap"]) for s in states] == [bool, int, bool, int]

    def test_each_shared_state_is_checked_once(self, tmp_path, monkeypatch):
        kb = scenario_kb("highway_cut_in")
        a, b = '{"front_gap_closing": true}', '{"front_gap_closing": false, "speed_band": "low"}'
        episodes = self.write(tmp_path / "e.jsonl", [(e, t, (a, b)[t % 2])
                                                     for e in range(3) for t in range(6)])
        checked = []
        admits = KnowledgeBase.admits

        def counting_admits(self, name, value):
            checked.append(name)
            return admits(self, name, value)
        monkeypatch.setattr(KnowledgeBase, "admits", counting_admits)
        validate_episodes(episodes, kb)
        assert sorted(checked) == ["front_gap_closing", "front_gap_closing", "speed_band"]


class TestValidateOncePerState:
    """Each distinct state's features are checked once; every episode's times
    and every step's reference actions are still checked."""

    KB = scenario_kb("highway_cut_in")

    @staticmethod
    def episode(features_per_step, refs=None, times=None):
        refs = refs or [ActionPair("brake", None)] * len(features_per_step)
        times = times or range(len(features_per_step))
        return Episode(steps=[(WorldState.make(f, t), ref)
                              for f, ref, t in zip(features_per_step, refs, times)])

    @pytest.mark.parametrize("bad", [{"martian": True}, {"front_gap_closing": "sometimes"},
                                     {"front_gap_closing": [1]}],
                             ids=["unknown-feature", "value-out-of-domain", "unhashable-value"])
    def test_a_bad_state_first_seen_late_in_the_last_episode(self, bad):
        good = {"front_gap_closing": True}
        episodes = [self.episode([good] * 5), self.episode([good] * 4 + [bad])]
        with pytest.raises(EpisodeSchemaError, match=re.escape(repr(next(iter(bad.values()))))):
            validate_episodes(episodes, self.KB)

    INT_KB = KnowledgeBase(features={"lane": FeatureDomain("int", low=0, high=3)},
                           longitudinal_actions=("brake",), lateral_actions=("keep_lane",))

    @pytest.mark.parametrize("kb, good, bad", [
        (KB, {"front_gap_closing": True}, {"front_gap_closing": 1}),
        (KB, {"front_gap_closing": False}, {"front_gap_closing": 0.0}),
        (INT_KB, {"lane": 1}, {"lane": 1.0}),
        (INT_KB, {"lane": 1}, {"lane": True}),
    ], ids=["bool-then-int", "bool-then-float", "int-then-float", "int-then-bool"])
    def test_a_bad_value_equal_to_a_checked_one(self, kb, good, bad):
        # True == 1 == 1.0 and they hash alike, but a domain tells them apart
        episodes = [self.episode([good] * 3), self.episode([good, bad])]
        with pytest.raises(EpisodeSchemaError, match=re.escape(repr(next(iter(bad.values()))))):
            validate_episodes(episodes, kb)

    def test_a_bad_value_equal_to_a_checked_one_read_from_a_file(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        steps = [(0, "true"), (1, "true"), (2, "1")]
        path.write_text("".join(
            f'{{"t": {t}, "state": {{"front_gap_closing": {v}}}, '
            f'"reference": {{"longitudinal": "brake", "lateral": null}}}}\n' for t, v in steps))
        with pytest.raises(EpisodeSchemaError, match="front_gap_closing=1 "):
            validate_episodes(episodes_from_jsonl(path), self.KB)

    def test_a_bad_reference_action_on_a_state_already_checked(self):
        good = {"front_gap_closing": True}
        episodes = [self.episode([good] * 3),
                    self.episode([good] * 3, refs=[ActionPair("brake", None)] * 2
                                 + [ActionPair("warp", None)])]
        with pytest.raises(EpisodeSchemaError, match="warp"):
            validate_episodes(episodes, self.KB)

    def test_decreasing_step_times_in_the_second_episode(self):
        good = {"front_gap_closing": True}
        episodes = [self.episode([good] * 3), self.episode([good] * 3, times=(0, 2, 1))]
        with pytest.raises(EpisodeSchemaError, match="decrease"):
            validate_episodes(episodes, self.KB)


class TestCandidatesOncePerStep:
    """Training resolves each step's candidates once a run: rules' preconditions
    never change, so an epoch need not match its states again."""

    @pytest.mark.parametrize("epochs", [0, 1, 4])
    def test_one_resolution_per_step(self, monkeypatch, epochs):
        calls = {"candidates": 0, "match": 0}
        candidates, scan = RuleSet.candidates, engine.match

        def counting_candidates(self, state):
            calls["candidates"] += 1
            return candidates(self, state)

        def counting_match(state, rules):
            calls["match"] += 1
            return scan(state, rules)
        monkeypatch.setattr(RuleSet, "candidates", counting_candidates)
        monkeypatch.setattr(engine, "match", counting_match)
        rules = [rule("brake", [("a", "=", True)], longitudinal="brake"),
                 rule("keep", [("b", "!=", 1)], longitudinal="keep", lateral="keep_lane"),
                 rule("left", [], lateral="change_left")]
        make = shared_states()
        episodes = [Episode([(make({"a": (t + i) % 2 == 0, "b": t % 3}, t), ActionPair("brake"))
                             for t in range(5)]) for i in range(4)]
        steps = sum(len(ep.steps) for ep in episodes)
        states = {state.features for ep in episodes for state, _ in ep.steps}
        _, curve = train(rules, episodes, TrainConfig(epochs=epochs, seed=3))
        assert len(curve) == epochs
        assert calls == ({"candidates": steps, "match": len(states)} if epochs
                         else {"candidates": 0, "match": 0})

    def test_a_run_matches_each_distinct_state_once_at_any_size(self, monkeypatch):
        # every step a new state, 4,500 in all: training matches each once, and the
        # evaluation that reuses its RuleSet matches none again
        matched = []
        scan = engine.match

        def counting_match(state, rules):
            matched.append(state.features)
            return scan(state, rules)
        monkeypatch.setattr(engine, "match", counting_match)
        rules = [rule("brake", [("a", "=", True)], longitudinal="brake"),
                 rule("keep", [("b", "!=", 1)], longitudinal="keep", lateral="keep_lane")]
        make = shared_states()
        episodes = [Episode([(make({"a": t % 2 == 0, "b": t % 3, "idx": 10 * i + t}, t),
                              ActionPair("brake")) for t in range(10)]) for i in range(450)]
        trained, _ = train(rules, episodes, TrainConfig(epochs=1, seed=3))
        evaluate_agreement(trained, episodes, SQRT2)
        assert len(matched) == len(set(matched)) == 4500
