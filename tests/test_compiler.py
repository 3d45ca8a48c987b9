import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from cogrules import compiler, ltl
from cogrules.compiler import (EMBEDDING_DIMENSION, DuplicatedContent,
                               FormatMismatch, HashedTrigramEmbedding, InferenceError,
                               RuleStore, Viable, compile_formula, dedup_check,
                               ground, name_rule, outcome_report)
from cogrules.knowledge import (ActionPair, FeatureDomain, Grounding, KnowledgeBase,
                                ProductionRule, RuleValidationError, read_rules, validate_rule,
                                write_rules)
from cogrules.pipeline import formalize_corpus, load_config
from cogrules.scenarios import scenario_kb
from conftest import highway_corpus, write_pipeline_config
from oracles import dedup_oracle


@pytest.fixture
def kb():
    return scenario_kb("highway_cut_in")


def random_rule(rng):
    """A rule over 8 features with 1-3 equalities and one longitudinal action."""
    feats = [f"f{i}" for i in range(8)]
    pre = tuple(sorted({(rng.choice(feats), "=", rng.randrange(3))
                        for _ in range(rng.randint(1, 3))}))
    eff = ActionPair(longitudinal=rng.choice(["brake", "keep", "accelerate"]))
    return ProductionRule(name=name_rule(pre, eff), preconditions=pre, effects=eff)


def make_rule(preconditions, effects, name=None):
    pre = tuple(preconditions)
    eff = ActionPair(**effects)
    return ProductionRule(name=name or name_rule(pre, eff),
                          preconditions=pre, effects=eff)


class TestGround:
    def test_table_lookup(self, kb):
        verdict = ltl.Convertible((("cut_in_ahead", True),), (("decelerate", True),))
        pre, eff = ground(verdict, kb)
        assert pre == (("front_gap_closing", "=", True),)
        assert eff.longitudinal == "decelerate"
        assert eff.lateral is None

    def test_negative_literal_flips_comparator(self, kb):
        kb.groundings["pedestrian_present"] = Grounding("front_gap_closing", "=", True)
        verdict = ltl.Convertible((("pedestrian_present", False),),
                                  (("brake", True),))
        pre, _ = ground(verdict, kb)
        assert pre == (("front_gap_closing", "!=", True),)

    def test_unknown_atom(self, kb):
        verdict = ltl.Convertible((("x_unknown", True),), (("brake", True),))
        with pytest.raises(compiler.GroundingError, match="^atom 'x_unknown' is not in the "
                           "grounding table or action vocabulary$"):
            ground(verdict, kb)

    def test_unknown_action(self, kb):
        verdict = ltl.Convertible((("cut_in_ahead", True),), (("warp", True),))
        with pytest.raises(compiler.GroundingError, match="^atom 'warp' is not in the "
                           "grounding table or action vocabulary$"):
            ground(verdict, kb)

    def test_both_slots_assignable(self, kb):
        verdict = ltl.Convertible((("cut_in_ahead", True),),
                                  (("decelerate", True), ("keep_lane", True)))
        _, eff = ground(verdict, kb)
        assert (eff.longitudinal, eff.lateral) == ("decelerate", "keep_lane")


class TestNaming:
    def test_order_insensitive(self):
        pre_a = (("a", "=", 1), ("b", "!=", "x"))
        pre_b = (("b", "!=", "x"), ("a", "=", 1))
        eff = ActionPair(longitudinal="brake")
        assert name_rule(pre_a, eff) == name_rule(pre_b, eff)

    @pytest.mark.parametrize("comparators", [("=",), ("!=",), ("=", "!=")])
    def test_order_insensitive_over_values_whose_text_ties(self, comparators):
        # the sort key ties True with "True" and 1 with "1", and each tied
        # pair prints the same text, so no input order shows in the name
        values = (True, 1, "True", "1", 9, 10)
        eff = ActionPair(longitudinal="brake")
        names = set()
        for order in itertools.permutations(values):
            pre = tuple(("a", cmp, v) for v in order for cmp in comparators)
            names.add(name_rule(pre, eff))
            names.add(name_rule(pre[::-1], eff))
        assert len(names) == 1

    def test_scheme(self):
        name = name_rule((("a", "=", 1),), ActionPair(longitudinal="brake"))
        assert name == "if_a_eq_1__then_long_brake"

    def test_distinct_effects_distinct_names(self):
        pre = (("a", "=", 1),)
        assert name_rule(pre, ActionPair(longitudinal="brake")) != \
            name_rule(pre, ActionPair(longitudinal="keep"))


def dense(provider, text):
    """The provider's trigram counts as a list over every bucket."""
    counts = provider.embed(text)
    return [counts.get(i, 0) for i in range(EMBEDDING_DIMENSION)]


def exact_cosine(a, b):
    """dot / sqrt(|a|^2 |b|^2) over sparse integer counts."""
    dot = sum(c * b.get(k, 0) for k, c in a.items())
    return dot / math.sqrt(sum(c * c for c in a.values()) * sum(c * c for c in b.values()))


def md5_trigram_counts(text):
    """The embedding's definition: per trigram of ^text$, the first 4
    bytes of its md5, big-endian, mod EMBEDDING_DIMENSION."""
    padded = f"^{text}$"
    counts = {}
    for i in range(max(1, len(padded) - 2)):
        digest = hashlib.md5(padded[i:i + 3].encode()).digest()
        bucket = int.from_bytes(digest[:4], "big") % EMBEDDING_DIMENSION
        counts[bucket] = counts.get(bucket, 0) + 1
    return counts


class TestEmbedding:
    def test_hashed_trigram_counts(self):
        provider = HashedTrigramEmbedding()
        for text in ["abc", "if_a_eq_1__then_long_brake", "x", "", "aaaa"]:
            vec = provider.embed(text)
            assert dict(vec) == md5_trigram_counts(text)
            assert all(type(c) is int for c in vec.values())
            assert sum(vec.values()) == max(1, len(text))

    def test_deterministic(self):
        p1, p2 = HashedTrigramEmbedding(), HashedTrigramEmbedding()
        assert p1.embed("rule_name") == p2.embed("rule_name")

    def test_memoised_vector_is_read_only(self):
        provider = HashedTrigramEmbedding()
        vec = provider.embed("rule_name")
        assert provider.embed("rule_name") is vec
        with pytest.raises(TypeError):
            vec[0] = 1
        assert vec == HashedTrigramEmbedding().embed("rule_name")

    def test_each_trigram_hashed_once_per_provider(self, monkeypatch):
        hashed = []
        md5 = hashlib.md5

        def counting(data):
            hashed.append(data)
            return md5(data)
        monkeypatch.setattr(compiler.hashlib, "md5", counting)
        names = ["if_a_eq_1__then_long_brake", "if_a_eq_2__then_long_brake",
                 "if_b_ne_true__then_lat_left", "aaaa", "", "x"]
        trigrams = {f"^{t}$"[i:i + 3].encode()
                    for t in names for i in range(max(1, len(t)))}
        first = HashedTrigramEmbedding()
        vectors = [dict(first.embed(t)) for t in names]
        assert sorted(hashed) == sorted(trigrams)
        hashed.clear()
        second = HashedTrigramEmbedding()  # starts cold
        assert [dict(second.embed(t)) for t in reversed(names)] == vectors[::-1]
        assert sorted(hashed) == sorted(trigrams)
        monkeypatch.setattr(compiler.hashlib, "md5", md5)
        assert vectors == [md5_trigram_counts(t) for t in names]

    def test_formalize_corpus_embeds_each_name_once(self, tmp_path, monkeypatch):
        computed = []
        original = HashedTrigramEmbedding._embed

        def counting(self, text):
            computed.append(text)
            return original(self, text)
        monkeypatch.setattr(HashedTrigramEmbedding, "_embed", counting)
        cfg = load_config(write_pipeline_config(tmp_path))
        corpus = highway_corpus()
        # a second pass over the corpus makes every rule a repeat candidate
        corpus += [dict(r, id=f"again-{i}") for i, r in enumerate(corpus)]
        store, _ = formalize_corpus(corpus, cfg)
        assert len(store) > 2
        assert {r.name for r in store} <= set(computed)
        assert len(computed) == len(set(computed))


class TestDedup:
    def test_empty_store_passes(self):
        rule = make_rule([("a", "=", 1)], {"longitudinal": "brake"})
        assert dedup_check(rule, RuleStore()) is None

    def test_body_identical_short_circuits(self):
        rule = make_rule([("a", "=", 1)], {"longitudinal": "brake"})
        twin = make_rule([("a", "=", 1)], {"longitudinal": "brake"},
                         name="completely_different_name")
        hit = dedup_check(twin, RuleStore([rule]))
        assert isinstance(hit, DuplicatedContent)
        assert hit.similarity == 1.0

    def test_matches_bruteforce_oracle(self):
        provider = HashedTrigramEmbedding()
        rng = random.Random(99)
        for _ in range(200):
            store_rules = [random_rule(rng) for _ in range(rng.randint(0, 20))]
            candidate = random_rule(rng)
            got = dedup_check(candidate, RuleStore(store_rules), threshold=0.9)
            expected = dedup_oracle(
                candidate.name, candidate.body_key(),
                [(r.name, r.body_key()) for r in store_rules],
                lambda t: dense(provider, t), threshold=0.9)
            assert (got is not None) == expected

    def test_reports_bruteforce_argmax(self):
        # the criterion 7 generator; `existing` and `similarity` must be the
        # first equal-body rule, else the stored name of highest cosine
        # (smallest name on ties), ranked here in exact fractions, without
        # the memo or the index
        rng = random.Random(71)
        duplicates = 0
        for _ in range(1000):
            store_rules = [random_rule(rng) for _ in range(rng.randint(0, 20))]
            candidate = random_rule(rng)
            threshold = rng.choice([0.9, 0.5, 0.99])
            got = dedup_check(candidate, RuleStore(store_rules), threshold=threshold)
            same_body = [r.name for r in store_rules
                         if r.body_key() == candidate.body_key()]
            if same_body:
                assert got == DuplicatedContent(same_body[0], 1.0)
                continue
            if not store_rules:
                assert got is None
                continue
            fresh = HashedTrigramEmbedding()
            cand = fresh.embed(candidate.name)

            def squared_cosine(rule):
                vec = fresh.embed(rule.name)
                dot = sum(c * vec.get(k, 0) for k, c in cand.items())
                return Fraction(dot * dot, sum(c * c for c in cand.values())
                                * sum(c * c for c in vec.values()))
            best = min(store_rules, key=lambda r: (-squared_cosine(r), r.name))
            name, sim = best.name, exact_cosine(cand, fresh.embed(best.name))
            if sim >= threshold:
                duplicates += 1
                assert got == DuplicatedContent(name, sim)
            else:
                assert got is None
        assert duplicates > 0

    def test_equal_count_vectors_tie_exactly(self):
        # both padded names hold the same multiset of trigrams, so their
        # count vectors are equal whatever the hashing; the smaller wins
        provider = HashedTrigramEmbedding()
        assert provider.embed("ababba") == provider.embed("abbaba")
        later = make_rule([("a", "=", 1)], {"longitudinal": "brake"}, name="abbaba")
        smaller = make_rule([("a", "=", 2)], {"longitudinal": "brake"}, name="ababba")
        candidate = make_rule([("a", "=", 3)], {"longitudinal": "brake"}, name="abab")
        sim = exact_cosine(provider.embed("abab"), provider.embed("ababba"))
        assert 0.5 < sim < 1.0
        for rules in ([later, smaller], [smaller, later]):
            assert dedup_check(candidate, RuleStore(rules), threshold=0.5) == \
                DuplicatedContent("ababba", sim)

    def test_first_rule_with_equal_body_is_reported(self):
        first = make_rule([("a", "=", 1)], {"longitudinal": "brake"}, name="zz_first")
        second = make_rule([("a", "=", 1)], {"longitudinal": "brake"}, name="aa_second")
        candidate = make_rule([("a", "=", 1)], {"longitudinal": "brake"})
        store = RuleStore([first])
        store.add(second)
        for s in (store, RuleStore([first, second])):
            assert dedup_check(candidate, s) == \
                DuplicatedContent("zz_first", 1.0)

    def test_a_rule_is_stored_only_through_add(self):
        # a rule appended to the rules behind `add` would never be indexed, and
        # `dedup_check` would miss its body and its name
        first = make_rule([("a", "=", 1)], {"longitudinal": "brake"}, name="if_a_then_brake")
        second = make_rule([("b", "=", 2)], {"longitudinal": "keep"}, name="if_b_then_keep")
        store = RuleStore([first])
        with pytest.raises(AttributeError):
            store.rules.append(second)
        with pytest.raises(AttributeError):
            store.rules = [first, second]
        assert store.rules == (first,) and list(store) == [first] and len(store) == 1
        store.add(second)
        assert store.rules == (first, second) and store.rules[1] is second
        assert dedup_check(second, store) == DuplicatedContent("if_b_then_keep", 1.0)

    def test_body_key_orders_values_of_two_types_and_keeps_true_and_1_apart(self):
        mixed = [("a", "=", True), ("a", "=", "x"), ("a", "=", 1), ("b", "!=", 2)]
        keys = {make_rule(order, {"longitudinal": "brake"}).body_key()
                for order in (mixed, mixed[::-1], mixed[2:] + mixed[:2])}
        assert len(keys) == 1
        as_true = make_rule([("a", "=", True)], {"longitudinal": "brake"}, name="qqq")
        as_one = make_rule([("a", "=", 1)], {"longitudinal": "brake"}, name="zzz")
        assert as_true.body_key() != as_one.body_key()
        assert dedup_check(as_one, RuleStore([as_true])) is None

    def test_grown_store_answers_like_one_built_at_once(self, kb):
        rng = random.Random(5)
        atoms = sorted(kb.groundings)
        actions = list(kb.longitudinal_actions) + list(kb.lateral_actions)

        def random_formula():
            pre = " & ".join(rng.sample(atoms, rng.randint(1, 3)))
            return ltl.parse(f"G (({pre}) -> {rng.choice(actions)})")
        grown = RuleStore()
        for _ in range(40):
            compile_formula(random_formula(), kb, grown)
        built = RuleStore(list(grown))
        assert len(grown) > 5
        for _ in range(200):
            outcome = compile_formula(random_formula(), kb, RuleStore())
            if isinstance(outcome, Viable):
                assert dedup_check(outcome.rule, grown) == dedup_check(outcome.rule, built)


class TestValidate:
    def test_contradictory_equalities(self, kb):
        rule = make_rule([("speed_band", "=", "low"), ("speed_band", "=", "high")],
                         {"longitudinal": "brake"})
        with pytest.raises(RuleValidationError):
            validate_rule(rule, kb)

    def test_eq_and_ne_same_value(self, kb):
        rule = make_rule([("front_gap_closing", "=", True),
                          ("front_gap_closing", "!=", True)],
                         {"longitudinal": "brake"})
        with pytest.raises(RuleValidationError):
            validate_rule(rule, kb)

    def test_all_pass_effects_rejected(self, kb):
        rule = make_rule([("front_gap_closing", "=", True)], {})
        with pytest.raises(RuleValidationError):
            validate_rule(rule, kb)

    @pytest.mark.parametrize("preconditions,effects,detail", [
        ([], {"longitudinal": "brake"}, "no preconditions"),
        ([("speed_band", "!=", "low"), ("speed_band", "=", "low")], {"longitudinal": "brake"},
         "contradictory assertions on 'speed_band'"),
        ([("front_gap_closing", "=", True)], {"lateral": "hover"},
         "unknown lateral action 'hover'"),
        ([("speed_band", "=", "warp")], {"longitudinal": "brake"},
         "value 'warp' of 'speed_band' is not in the knowledge base")],
        ids=["no-preconditions", "equal-to-a-denied-value", "unknown-lateral-action",
             "value-out-of-domain"])
    def test_refusal(self, kb, preconditions, effects, detail):
        with pytest.raises(RuleValidationError, match=re.escape(detail)):
            validate_rule(make_rule(preconditions, effects), kb)


class TestKnowledgeBaseRefusals:
    @pytest.mark.parametrize("changes,detail", [
        ({"longitudinal_actions": ()}, "must be nonempty"),
        ({"lateral_actions": ()}, "must be nonempty"),
        ({"lateral_actions": ("keep_lane", "brake")}, "must be disjoint"),
        ({"groundings": {"flying": Grounding("altitude", "=", 1)}},
         "grounding 'flying': altitude=1 is not in the knowledge base"),
        ({"groundings": {"crawl": Grounding("speed_band", "=", "crawl")}},
         "grounding 'crawl': speed_band='crawl' is not in the knowledge base")],
        ids=["no-longitudinal-actions", "no-lateral-actions", "overlapping-vocabularies",
             "grounding-on-an-unknown-feature", "grounding-value-out-of-domain"])
    def test_knowledge_base(self, kb, changes, detail):
        with pytest.raises(ValueError, match=re.escape(detail)):
            KnowledgeBase(**{**vars(kb), **changes})

    @pytest.mark.parametrize("kwargs,detail", [
        ({"kind": "float"}, "bad feature kind 'float'"),
        ({"kind": "enum"}, "enum domain needs values"),
        ({"kind": "int", "low": 3, "high": 2}, "empty int domain")],
        ids=["bad-kind", "enum-without-values", "empty-int-range"])
    def test_feature_domain(self, kwargs, detail):
        with pytest.raises(ValueError, match=re.escape(detail)):
            FeatureDomain(**kwargs)


class TestCompile:
    def test_finally_is_inference_error(self, kb):
        outcome = compile_formula(ltl.parse("F cut_in_ahead"), kb, RuleStore())
        assert isinstance(outcome, InferenceError)

    def test_viable_with_zero_initial_utility(self, kb):
        outcome = compile_formula(ltl.parse("G (cut_in_ahead -> decelerate)"),
                                  kb, RuleStore())
        assert isinstance(outcome, Viable)
        assert outcome.rule.utility == 0.0

    def test_second_compile_is_duplicate(self, kb):
        store = RuleStore()
        f = ltl.parse("G (cut_in_ahead -> decelerate)")
        assert isinstance(compile_formula(f, kb, store), Viable)
        assert isinstance(compile_formula(f, kb, store), DuplicatedContent)

    @pytest.mark.parametrize("formula,detail", [
        ("G (cut_in_ahead -> !decelerate)",
         "negated action atom 'decelerate' has no effect semantics"),
        ("G (cut_in_ahead -> (decelerate & accelerate))",
         "multiple longitudinal actions in consequent"),
        ("G (cut_in_ahead -> (change_left & keep_lane))",
         "multiple lateral actions in consequent")],
        ids=["negated-action", "two-longitudinal-actions", "two-lateral-actions"])
    def test_an_ungroundable_consequent_is_inference_error(self, kb, formula, detail):
        outcome = compile_formula(ltl.parse(formula), kb, RuleStore())
        assert outcome == InferenceError(detail)

    def test_unknown_atom_is_inference_error(self, kb):
        outcome = compile_formula(ltl.parse("G (martian -> brake)"), kb,
                                  RuleStore())
        assert isinstance(outcome, InferenceError)
        assert "martian" in outcome.detail

    def test_loader_failure_without_repair_is_format_mismatch(self, kb):
        kb.groundings["slow"] = Grounding("speed_band", "=", "low")
        kb.groundings["fast"] = Grounding("speed_band", "=", "high")
        outcome = compile_formula(ltl.parse("G ((slow & fast) -> brake)"), kb,
                                  RuleStore())
        assert isinstance(outcome, FormatMismatch)

    def test_provenance_and_threshold_are_keyword_only(self, kb):
        store = RuleStore()
        f = ltl.parse("G (cut_in_ahead -> decelerate)")
        with pytest.raises(TypeError):
            compile_formula(f, kb, store, {"segment": "0"})
        assert isinstance(compile_formula(f, kb, store, provenance={"segment": "0"}), Viable)
        with pytest.raises(TypeError):
            dedup_check(store.rules[0], store, 0.5)
        assert dedup_check(store.rules[0], store, threshold=0.5).similarity == 1.0

    def test_dedup_monotone_under_store_growth(self, kb):
        store = RuleStore()
        f = ltl.parse("G (cut_in_ahead -> decelerate)")
        compile_formula(f, kb, store)
        extra = ltl.parse("G (speed_low -> accelerate)")
        compile_formula(extra, kb, store)
        assert isinstance(compile_formula(f, kb, store),
                          DuplicatedContent)


class TestOutcomeReport:
    def test_empty(self):
        assert outcome_report([]) == {"Viable": 0, "FormatMismatch": 0,
                                      "DuplicatedContent": 0, "InferenceError": 0}

    def test_counts(self):
        rule = make_rule([("a", "=", 1)], {"longitudinal": "brake"})
        outcomes = [Viable(rule), Viable(rule), InferenceError("Finally")]
        report = outcome_report(outcomes)
        assert report["Viable"] == 2
        assert report["InferenceError"] == 1
        assert report["FormatMismatch"] == report["DuplicatedContent"] == 0

    def test_order_independent(self):
        rule = make_rule([("a", "=", 1)], {"longitudinal": "brake"})
        outcomes = [Viable(rule), InferenceError("x"), FormatMismatch("y"),
                    DuplicatedContent("z", 0.95)]
        shuffled = list(reversed(outcomes))
        assert outcome_report(outcomes) == outcome_report(shuffled)

    def test_csv_round_trip(self, tmp_path):
        report = outcome_report([InferenceError("x")])
        path = tmp_path / "r.csv"
        compiler.write_outcome_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "outcome,count"
        assert "InferenceError,1" in lines


class TestStoreSerialization:
    def test_round_trip(self, tmp_path, kb):
        store = RuleStore()
        compile_formula(ltl.parse("G (cut_in_ahead -> decelerate)"), kb, store)
        path = tmp_path / "rules.json"
        write_rules(store.rules, path)
        loaded = read_rules(path)
        assert [r.to_json() for r in loaded] == [r.to_json() for r in store]

    def test_an_empty_slot_is_pass_on_disk_and_none_in_memory(self, tmp_path, kb):
        store = RuleStore()
        for text in ("G (cut_in_ahead -> decelerate)", "G (right_vehicle_signaling -> keep_lane)",
                     "G (speed_low -> (accelerate & change_left))"):
            outcome = compile_formula(ltl.parse(text), kb, store)
            assert outcome.tag == "Viable"
        path = tmp_path / "rules.json"
        write_rules(store.rules, path)
        assert [r["effects"] for r in json.loads(path.read_text())] == [
            {"longitudinal": "decelerate", "lateral": "pass"},
            {"longitudinal": "pass", "lateral": "keep_lane"},
            {"longitudinal": "accelerate", "lateral": "change_left"}]
        loaded = read_rules(path)
        assert [r.effects for r in loaded] == [ActionPair("decelerate", None),
                                               ActionPair(None, "keep_lane"),
                                               ActionPair("accelerate", "change_left")]
        write_rules(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("lateral", [{"lateral": "pass"}, {"lateral": None}, {}],
                             ids=["pass", "null", "missing"])
    def test_pass_null_and_a_missing_key_are_an_empty_slot(self, lateral):
        rule = ProductionRule.from_json({"name": "r", "preconditions": [["a", "=", 1]],
                                         "effects": {"longitudinal": "brake", **lateral}})
        assert rule.effects == ActionPair("brake", None)
