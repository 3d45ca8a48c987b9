import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cogrules
from cogrules import ltl
from cogrules.engine import (SLOTS, ActionPair, RuleSet, WorldState,
                             decision_distribution, slot_marginals)
from cogrules.knowledge import ProductionRule, read_rules
from cogrules.metrics import (decision_distributions, js_divergence, ltl_bleu,
                              ltl_match_accuracy, ltl_tokens, mean_js,
                              reference_distributions, rsr, sampled_distribution)
from cogrules.pipeline import load_config, run_experiment
from cogrules.trainer import Episode, episodes_from_jsonl, evaluate_agreement
from conftest import write_pipeline_config
from oracles import bleu_oracle, js_oracle, summed_marginals

SQRT2 = math.sqrt(2)


class TestMatchAccuracy:
    def test_identical_lists(self):
        preds = ["G (a -> b)", "F a"]
        assert ltl_match_accuracy(preds, list(preds)) == 1.0

    def test_commutative_match(self):
        assert ltl_match_accuracy(["G(b & a -> c)"], ["G(a & b -> c)"]) == 1.0

    def test_unparseable_counts_as_mismatch(self):
        preds = ["G (a -> b)", "((broken", "F a", "a U b"]
        refs = ["G (a -> b)", "a", "F a", "a U b"]
        assert ltl_match_accuracy(preds, refs) == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ltl_match_accuracy(["a"], [])


class TestBleu:
    def test_identical(self):
        toks = ltl_tokens("G ( a -> b )")
        assert ltl_bleu(toks, toks) == pytest.approx(1.0)

    def test_disjoint(self):
        assert ltl_bleu(["a", "b"], ["c", "d"]) == 0.0

    def test_empty_prediction(self):
        assert ltl_bleu([], ["a"]) == 0.0

    def test_shared_prefix_matches_oracle(self):
        pred = list("abcdefgxyz")
        ref = list("abcdefgpqr")
        assert ltl_bleu(pred, ref) == pytest.approx(bleu_oracle(pred, ref),
                                                    abs=1e-9)

    def test_random_pairs_match_oracle(self):
        rng = random.Random(8)
        vocab = ["G", "F", "(", ")", "a", "b", "&", "->", "!"]
        for _ in range(500):
            pred = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
            assert ltl_bleu(pred, ref) == pytest.approx(bleu_oracle(pred, ref),
                                                        abs=1e-9)

    def test_bit_identical_to_the_oracle(self):
        # the same float operations in the same order: any reordering that
        # moves a bit fails here, where the tests above allow 1e-9
        rng = random.Random(12)
        cases = [([], []), ([], ["a"]), (["a"], []), (["a"], ["a"]), (["a", "b"], ["b", "a"]),
                 (["a"] * 3, ["a"] * 2), (list("abab" * 3), list("ab" * 5))]
        vocabs = (["a"], ["a", "b"], ["G", "F", "(", ")", "a", "b", "&", "->", "!"])
        for _ in range(3000):
            vocab = rng.choice(vocabs)
            cases.append(([rng.choice(vocab) for _ in range(rng.randint(0, 12))],
                          [rng.choice(vocab) for _ in range(rng.randint(0, 12))]))
        assert sum(len(pred) < 4 for pred, _ in cases) > 500
        for pred, ref in cases:
            assert ltl_bleu(pred, ref) == bleu_oracle(pred, ref), (pred, ref)

    def test_bounded(self):
        rng = random.Random(9)
        for _ in range(200):
            pred = [rng.choice("ab") for _ in range(rng.randint(1, 8))]
            ref = [rng.choice("ab") for _ in range(rng.randint(1, 8))]
            assert 0.0 <= ltl_bleu(pred, ref) <= 1.0 + 1e-12


class TestTokens:
    def test_the_lexemes_of_tokenize_or_its_error(self):
        rng = random.Random(13)
        pieces = ["G", "F", "X", "U", "(", ")", "->", "!", "&", "|", " ", " ", "\t", "a",
                  "b1", "c_d", "true", "false", "Ga", "-", ">", "$", "<", "é"]
        bad = ["a-b", "x $ y", "-->", "G (a -> b) & c <"]
        texts = bad + ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
                       for _ in range(3000)]
        refused = []
        for text in texts:
            try:
                expected = ltl.tokenize(text)
            except ltl.ParseError as e:
                refused.append(text)
                with pytest.raises(ltl.ParseError) as got:
                    ltl_tokens(text)
                assert (str(got.value), got.value.offset) == (str(e), e.offset), text
            else:
                assert ltl_tokens(text) == expected, text
        assert refused[:len(bad)] == bad
        assert 500 < len(refused) < 2500


class TestJs:
    def test_identity(self):
        p = {"x": 0.5, "y": 0.5}
        assert js_divergence(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert js_divergence({"x": 1.0}, {"y": 1.0}) == pytest.approx(1.0)

    def test_half_vs_point(self):
        p = {"x": 0.5, "y": 0.5}
        q = {"x": 1.0}
        assert js_divergence(p, q) == pytest.approx(js_oracle(p, q), abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = random.Random(10)
        for _ in range(300):
            keys = [f"k{i}" for i in range(rng.randint(1, 6))]
            def rand_dist():
                weights = [rng.random() for _ in keys]
                total = sum(weights)
                return {k: w / total for k, w in zip(keys, weights)}
            p, q = rand_dist(), rand_dist()
            assert js_divergence(p, q) == pytest.approx(js_divergence(q, p),
                                                        abs=1e-12)
            assert -1e-12 <= js_divergence(p, q) <= 1.0 + 1e-12

    def test_matches_oracle_random(self):
        rng = random.Random(11)
        for _ in range(300):
            keys = [f"k{i}" for i in range(rng.randint(1, 8))]
            def rand_dist():
                weights = [rng.random() for _ in keys]
                total = sum(weights)
                return {k: w / total for k, w in zip(keys, weights)}
            p, q = rand_dist(), rand_dist()
            assert js_divergence(p, q) == pytest.approx(js_oracle(p, q),
                                                        abs=1e-12)

    def test_independent_of_string_hash_seed(self):
        # str hashing, and so set iteration order, differs per process; the
        # float sum must not follow it
        script = ("import random; from cogrules.metrics import js_divergence; "
                  "rng = random.Random(3); keys = [f'k{i}' for i in range(40)]; "
                  "w = [rng.random() for _ in range(80)]; "
                  "p = {k: x / sum(w[:40]) for k, x in zip(keys, w[:40])}; "
                  "q = {k: x / sum(w[40:]) for k, x in zip(keys, w[40:])}; "
                  "print(repr(js_divergence(p, q)))")
        env = dict(os.environ, PYTHONPATH=str(Path(cogrules.__file__).parents[1]))
        values = {subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                                 capture_output=True, text=True,
                                 env=dict(env, PYTHONHASHSEED=seed)).stdout
                  for seed in ("1", "2", "3")}
        assert len(values) == 1


def rule(name, preconditions, longitudinal=None, lateral=None, utility=0.0):
    return ProductionRule(name=name, preconditions=tuple(preconditions),
                          effects=ActionPair(longitudinal=longitudinal,
                                          lateral=lateral), utility=utility)


def repeated_state_episode(n, features=None, ref=("brake", None)):
    feats = features or {"x": True}
    return Episode(steps=[(WorldState.make(feats, t), ActionPair(*ref))
                          for t in range(n)])


class TestDecisionDistributions:
    def test_single_state_one_pair(self):
        r = rule("r", [("x", "=", True)], longitudinal="brake")
        episodes = [repeated_state_episode(50)]
        pairs = decision_distributions(RuleSet([r]), reference_distributions(episodes), SQRT2)
        assert len(pairs) == 1
        assert pairs[0] == ({"brake/none": 1.0}, {"brake/none": 1.0})
        [(_, counts)] = reference_distributions(episodes)
        assert counts == {"brake/none": 50}

    def test_deterministic_agent_point_mass(self):
        r = rule("r", [("x", "=", True)], longitudinal="brake",
                 lateral="keep_lane")
        pairs = decision_distributions(
            RuleSet([r]), reference_distributions([repeated_state_episode(10)]), SQRT2)
        model, _ = pairs[0]
        assert model == {"brake/keep_lane": 1.0}

    def test_model_side_is_exact(self):
        rules = [rule("a", [("x", "=", True)], longitudinal="brake"),
                 rule("b", [("x", "=", True)], longitudinal="keep")]
        pairs = decision_distributions(
            RuleSet(rules), reference_distributions([repeated_state_episode(40)]), SQRT2)
        model, reference = pairs[0]
        assert model == {"brake/none": 0.5, "keep/none": 0.5}
        assert reference == {"brake/none": 1.0}

    def test_perfect_imitator_near_zero_js(self):
        r = rule("r", [("x", "=", True)], longitudinal="brake")
        episodes = [repeated_state_episode(100)]
        assert mean_js(RuleSet([r]), reference_distributions(episodes), SQRT2) == \
            pytest.approx(0.0)

    def test_fewer_than_topk_states_uses_all(self):
        r = rule("r", [("x", "=", True)], longitudinal="brake")
        episodes = [repeated_state_episode(5)]
        pairs = decision_distributions(
            RuleSet([r]), reference_distributions(episodes, top_k=10), SQRT2)
        assert len(pairs) == 1

    def test_topk_selection_by_frequency(self):
        episodes = []
        for i in range(12):
            feats = {"x": True, "band": i}
            episodes.append(repeated_state_episode(12 - i, features=feats))
        r = rule("r", [("x", "=", True)], longitudinal="brake")
        refs = reference_distributions(episodes, top_k=10)
        assert len(decision_distributions(RuleSet([r]), refs, SQRT2)) == 10
        assert [dict(state.features)["band"] for state, _ in refs] == list(range(10))
        counts = [sum(c.values()) for _, c in refs]
        assert counts == sorted(counts, reverse=True)


def random_rule_set(rng):
    """Rules over two bool features with random effects (never both empty)
    and utilities, so conflict sets mix one- and two-effect rules."""
    pairs = [(lon, lat) for lon in (None, "brake", "keep", "accelerate")
             for lat in (None, "keep_lane", "change_left") if (lon, lat) != (None, None)]
    rules = []
    for i in range(rng.randint(3, 8)):
        # the last choice does not match the tested state
        pre = rng.choice([[("x", "=", True)], [("y", "=", False)],
                          [("x", "=", True), ("y", "!=", True)], [("y", "=", True)]])
        lon, lat = rng.choice(pairs)
        rules.append(rule(f"r{i}", pre, lon, lat, utility=rng.uniform(-3, 3)))
    return rules


class TestClosedFormAgainstSampling:
    """The exact distribution against 10^5 `decide` draws: every action pair
    within 5 binomial sigma (at most 0.008), and nothing sampled that the
    exact form gives probability 0."""

    DRAWS = 100_000

    def check(self, state, rules, seed):
        rules = RuleSet(rules)
        exact = decision_distribution(state, rules, SQRT2)
        sampled = sampled_distribution(state, rules, SQRT2, self.DRAWS, random.Random(seed))
        assert set(sampled) <= set(exact)
        for key, p in exact.items():
            sigma = math.sqrt(p * (1 - p) / self.DRAWS)
            assert abs(sampled.get(key, 0.0) - p) <= 5 * sigma, (key, p, sampled)

    def test_random_rule_sets(self):
        rng = random.Random(21)
        state = WorldState.make({"x": True, "y": False})
        for seed in range(3):
            self.check(state, random_rule_set(rng), seed)

    def test_trained_fixture_rules(self, tmp_path):
        cfg = load_config(write_pipeline_config(tmp_path))
        run_experiment(cfg)
        rules = read_rules(cfg.out_dir / "rules.json")
        episodes = episodes_from_jsonl(cfg.out_dir / "episodes.jsonl")
        for seed, (state, _) in enumerate(reference_distributions(episodes, cfg.eval.top_k)):
            self.check(state, rules, seed)


def sampled_agreement(rules, episodes, draws, rng):
    """Per-slot agreement estimated from the marginals of `draws`
    `sampled_distribution` draws per distinct state, and each estimate's
    binomial standard error, taken at the exact marginals."""
    by_state = {}
    for episode in episodes:
        for state, ref in episode.steps:
            refs = by_state.setdefault(state.features, (state, {s: Counter() for s in SLOTS}))[1]
            for slot in SLOTS:
                if ref.slot(slot) is not None:
                    refs[slot][ref.slot(slot)] += 1
    estimate = {s: 0.0 for s in SLOTS}
    variance = {s: 0.0 for s in SLOTS}
    for state, refs in by_state.values():
        sampled = summed_marginals(sampled_distribution(state, rules, SQRT2, draws, rng))
        for slot, exact, seen in zip(SLOTS, slot_marginals(state, rules, SQRT2), sampled):
            # one draw scores the step count of the reference it hits
            mean = sum(c * exact.get(a, 0.0) for a, c in refs[slot].items())
            square = sum(c * c * exact.get(a, 0.0) for a, c in refs[slot].items())
            estimate[slot] += sum(c * seen.get(a, 0.0) for a, c in refs[slot].items())
            variance[slot] += (square - mean * mean) / draws
    steps = {s: sum(sum(refs[s].values()) for _, refs in by_state.values()) for s in SLOTS}
    return ({s: estimate[s] / steps[s] for s in SLOTS},
            {s: math.sqrt(max(variance[s], 0.0)) / steps[s] for s in SLOTS})


class TestExactAgreementAgainstSampling:
    """`evaluate_agreement` against an estimate from `sampled_distribution`
    marginals: each slot within 5 binomial sigma (1e-12 where sigma is 0)."""

    def check(self, rules, episodes, seed, draws):
        rules = RuleSet(rules)
        exact = evaluate_agreement(rules, episodes, SQRT2)
        sampled, sigma = sampled_agreement(rules, episodes, draws, random.Random(seed))
        for slot in SLOTS:
            assert abs(sampled[slot] - exact[slot]) <= 5 * sigma[slot] + 1e-12, \
                (slot, exact, sampled, sigma)

    def test_random_rule_sets(self):
        rng = random.Random(23)
        states = [WorldState.make({"x": x, "y": y}) for x in (True, False) for y in (True, False)]
        refs = [(lon, lat) for lon in ("brake", "keep", "accelerate", None)
                for lat in ("keep_lane", "change_left", None)]
        for seed in range(3):
            episodes = [Episode(steps=[(rng.choice(states), ActionPair(*rng.choice(refs)))
                                       for _ in range(20)]) for _ in range(5)]
            self.check(random_rule_set(rng), episodes, seed, draws=5_000)

    def test_trained_fixture_rules(self, tmp_path):
        cfg = load_config(write_pipeline_config(tmp_path))
        manifest = run_experiment(cfg)
        rules = read_rules(cfg.out_dir / "rules.json")
        episodes = episodes_from_jsonl(cfg.out_dir / "episodes.jsonl")
        assert evaluate_agreement(RuleSet(rules), episodes, SQRT2) == manifest["agreement"]
        self.check(rules, episodes, 0, draws=20_000)


class TestRsr:
    POSITION = 0  # a filler is a rule position, and 0 is one

    def test_all_matched(self):
        p = self.POSITION
        assert rsr([(p, None), (None, p), (p, p)] * 2) == 1.0

    def test_no_rules(self):
        assert rsr([(None, None) for _ in range(4)]) == 0.0

    def test_three_of_four(self):
        assert rsr([(self.POSITION, None) for _ in range(3)] + [(None, None)]) == 0.75
