"""Acceptance gate: one test per release criterion, each printing a
single PASS line (run with `pytest tests/test_acceptance.py -s`).

Tolerances are pinned here on purpose; loosening them is a release
decision, not a test fix.
"""

import gc
import math
import random
import time

from cogrules import ltl
from cogrules.cli import main as cli_main
from cogrules.compiler import (EMBEDDING_DIMENSION, HashedTrigramEmbedding, RuleStore,
                               dedup_check)
from cogrules.critic_tree import CriticTree, CriticTreeConfig
from cogrules.engine import ActionPair, WorldState, selection_probabilities
from cogrules.gateway import CriticEnsembleSpec, Session
from cogrules.knowledge import ProductionRule
from cogrules.metrics import js_divergence, ltl_bleu, mean_js, reference_distributions
from cogrules.pipeline import formalize_corpus, load_config, run_experiment
from cogrules.trainer import (Episode, TrainConfig,
                              reward_decompose, train, utility_update)
from conftest import (highway_corpus, random_formula, scripted_spec,
                      single_critic_ensemble, write_pipeline_config)
from oracles import bleu_oracle, dedup_oracle, js_oracle

SQRT2 = math.sqrt(2)


def _ok(n: int, detail: str = "") -> None:
    print(f"\n[criterion {n}] PASS" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# 1. parser/printer round trip and canonicalization idempotence at bulk scale

def test_01_roundtrip_and_canonicalization_bulk():
    rng = random.Random(2024)
    formulas = [random_formula(rng, 8) for _ in range(100_000)]
    gc.disable()
    try:
        start = time.perf_counter()
        for f in formulas:
            assert ltl.parse(ltl.to_string(f)) == f
            c = ltl.canonicalize(f)
            assert ltl.canonicalize(c) == c
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert elapsed < 5.0, f"bulk round-trip took {elapsed:.2f}s (budget 5s)"
    _ok(1, f"100000 formulas in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. convertibility taxonomy on a pinned 40-case fixture

CONVERTIBLE_CASES = [
    ("G (a -> b)", (("a", True),), (("b", True),)),
    ("G ((a & b) -> c)", (("a", True), ("b", True)), (("c", True),)),
    ("G ((b & a) -> c)", (("a", True), ("b", True)), (("c", True),)),
    ("G (a & b -> c)", (("a", True), ("b", True)), (("c", True),)),
    ("G ((a & ! c) -> (b & d))", (("a", True), ("c", False)),
     (("b", True), ("d", True))),
    ("G (! a -> b)", (("a", False),), (("b", True),)),
    ("G (! ! a -> b)", (("a", True),), (("b", True),)),
    ("G ((a & a) -> b)", (("a", True),), (("b", True),)),
    ("G (a -> (b & b))", (("a", True),), (("b", True),)),
    ("G ((a & b & c) -> d)", (("a", True), ("b", True), ("c", True)),
     (("d", True),)),
    ("G(a->b)", (("a", True),), (("b", True),)),
    ("G (a -> ! b)", (("a", True),), (("b", False),)),
    ("G ((! a & ! b) -> c)", (("a", False), ("b", False)), (("c", True),)),
    ("G ((c & b & a) -> d)", (("a", True), ("b", True), ("c", True)),
     (("d", True),)),
    ("G (front_gap_closing -> brake)", (("front_gap_closing", True),),
     (("brake", True),)),
    ("G ((front_gap_closing & right_vehicle_signaling) -> decelerate)",
     (("front_gap_closing", True), ("right_vehicle_signaling", True)),
     (("decelerate", True),)),
    ("G (a -> (b & ! c & d))", (("a", True),),
     (("b", True), ("c", False), ("d", True))),
    ("G (! ! ! a -> b)", (("a", False),), (("b", True),)),
    ("G ((a & b) -> (c & d))", (("a", True), ("b", True)),
     (("c", True), ("d", True))),
    ("G (speed_low -> accelerate)", (("speed_low", True),),
     (("accelerate", True),)),
]

INFERENCE_ERROR_CASES = [
    ("F a", "Finally"),
    ("F (keep_lane)", "Finally"),
    ("a U b", "Until"),
    ("true U left_lane_free", "Until"),
    ("X a", "Next"),
    ("X (G (a -> b))", "Next"),
    ("G (F a)", "Finally"),
    ("G (a -> F b)", "Finally"),
    ("G (X a -> b)", "Next"),
    ("G (a -> (b U c))", "Until"),
    ("G (G (a -> b))", "Globally"),
    ("G (G a -> b)", "Globally"),
    ("a -> b", "not a globally-guarded implication"),
    ("! G (a -> b)", "not a globally-guarded implication"),
    ("G (a -> b) & G (c -> d)", "not a globally-guarded implication"),
    ("G a", "body is not an implication"),
    ("G (a & b)", "body is not an implication"),
    ("G ((a | b) -> c)", "non-conjunctive body"),
    ("G ((a -> b) -> c)", "non-conjunctive body"),
    ("G ((a & ! a) -> b)", "contradictory literals"),
]


def test_02_convertibility_taxonomy_fixture():
    assert len(CONVERTIBLE_CASES) + len(INFERENCE_ERROR_CASES) == 40
    for text, antecedent, consequent in CONVERTIBLE_CASES:
        verdict = ltl.classify(ltl.parse(text))
        assert verdict == ltl.Convertible(antecedent, consequent), text
    for text, reason in INFERENCE_ERROR_CASES:
        verdict = ltl.classify(ltl.parse(text))
        assert verdict == ltl.InferenceError(reason), text
    _ok(2, "40 classification cases")


# ---------------------------------------------------------------------------
# 3. revision-tree conformance on scripted traces, plus the degenerate
#    single-critic/zero-depth configuration exploring strictly less

def _tree(revisor_fn, critic_fn, num_critics, max_depth):
    cfg = CriticTreeConfig(num_critics=num_critics, max_depth=max_depth,
                           revisor=scripted_spec(revisor_fn),
                           critics=single_critic_ensemble(critic_fn))
    return CriticTree(cfg, Session())


def test_03_revision_tree_traces_and_degenerate_contrast():
    # trace A: unanimous approval returns the root immediately
    tree = _tree(lambda m: "G (a -> b)", lambda m: "APPROVED",
                 num_critics=2, max_depth=2)
    formula, trace = tree.run("text", "G a")
    assert (formula, trace.revisor_calls, trace.critic_calls,
            len(trace.nodes), trace.fallback) == ("G (a -> b)", 1, 2, 1, False)

    # trace B: one rejection spawns one child which is approved
    state = {"calls": 0}

    def critic(m):
        state["calls"] += 1
        return "REVISE: wrong operator" if state["calls"] == 1 else "APPROVED"

    def revisor(m):
        return ("G (a -> b)" if any("wrong operator" in msg.content for msg in m)
                else "F a")

    tree = _tree(revisor, critic, num_critics=1, max_depth=1)
    formula, trace = tree.run("text", "F a")
    assert (formula, len(trace.nodes), trace.revisor_calls,
            trace.critic_calls, trace.returned_node) == ("G (a -> b)", 2, 2, 2, 1)

    # trace C: depth budget exhausted falls back to the root revision;
    # the last level's children exist but are never judged
    revisions = iter(f"G (a -> b{i})" for i in range(100))
    tree = _tree(lambda m: next(revisions), lambda m: "REVISE: no",
                 num_critics=2, max_depth=0)
    formula, trace = tree.run("text", "G a")
    assert formula == "G (a -> b0)" and trace.fallback
    assert (len(trace.nodes), trace.revisor_calls, trace.critic_calls) == (3, 3, 2)
    assert trace.nodes[0].children == [1, 2]
    assert all(not trace.nodes[i].verdicts for i in (1, 2))

    # degenerate single-critic, zero-depth refinement explores strictly
    # fewer distinct revisions than the two-critic, depth-two tree on the
    # same always-rejecting adversarial fixture
    def fresh_revisor():
        counter = iter(range(1000))
        return lambda m: f"G (a -> b{next(counter)})"

    degenerate = _tree(fresh_revisor(), lambda m: "REVISE: still wrong",
                       num_critics=1, max_depth=0)
    _, d_trace = degenerate.run("text", "G a")

    wide_cfg = CriticTreeConfig(
        num_critics=2, max_depth=2, revisor=scripted_spec(fresh_revisor()),
        critics=CriticEnsembleSpec(members=[
            (scripted_spec(lambda m: "REVISE: operator is wrong"), 0.5),
            (scripted_spec(lambda m: "REVISE: vocabulary is wrong"), 0.5),
        ], seed=0))
    _, w_trace = CriticTree(wide_cfg, Session()).run("text", "G a")

    d_distinct = {n.formula_text for n in d_trace.nodes}
    w_distinct = {n.formula_text for n in w_trace.nodes}
    assert len(d_distinct) == 2
    assert len(w_distinct) == 15
    assert len(d_distinct) < len(w_distinct)
    _ok(3, "3 traces exact; degenerate explores 2 vs 15 revisions")


# ---------------------------------------------------------------------------
# 4. selection/update/decay numerics

def test_04_selection_update_and_decay_numerics():
    rng = random.Random(41)
    # softmax normalization on conflict sets up to 10^3
    for size in (1, 2, 3, 7, 10, 100, 1000):
        utilities = [rng.uniform(-50.0, 50.0) for _ in range(size)]
        probs = selection_probabilities(utilities, SQRT2)
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert all(p >= 0.0 for p in probs)
    # and agreement with the unstabilized textbook form on safe magnitudes
    utilities = [rng.uniform(-20.0, 20.0) for _ in range(50)]
    naive = [math.exp(u / SQRT2) for u in utilities]
    z = sum(naive)
    for got, want in zip(selection_probabilities(utilities, SQRT2),
                         (e / z for e in naive)):
        assert abs(got - want) <= 1e-12

    # exponential moving average matches the closed-form contraction
    u, r, alpha = 0.0, 1.0, 2e-4
    n = 1_000_000
    for _ in range(n):
        u = utility_update(u, r, alpha)
    closed = r - (r - 0.0) * (1.0 - alpha) ** n
    assert abs(u - closed) < 1e-12

    # per-firing reward shares equal R - decay * (reward step - firing step)
    fired = 0  # the position of the rule that fired
    for _ in range(200):
        reward_step = rng.randrange(0, 50)
        reward = rng.choice([10.0, 0.0, rng.uniform(-5, 15)])
        decay = rng.choice([0.01, 0.0, rng.uniform(0, 0.5)])
        firings = [(rng.randrange(0, reward_step + 1), fired)
                   for _ in range(rng.randrange(0, 6))]
        got = reward_decompose(reward, firings, reward_step, decay)
        want = [(position, reward - decay * (reward_step - t)) for t, position in firings]
        assert got == want  # exact float equality, same arithmetic
    _ok(4, "softmax 1e-9, contraction 1e-12 over 1e6 steps, decay exact")


# ---------------------------------------------------------------------------
# 5. learning convergence on the two-rule agree/disagree fixture

def test_05_learning_convergence_two_rule_fixture():
    start = time.perf_counter()

    def rule(name, lon, lat):
        return ProductionRule(name=name, preconditions=(("x", "=", True),),
                              effects=ActionPair(longitudinal=lon, lateral=lat))

    rules = [rule("agree", "brake", "keep_lane"),
             rule("disagree", "accelerate", "change_left")]
    # 400 decision steps per epoch, 5 epochs = 2000 training steps
    episodes = [Episode(steps=[(WorldState.make({"x": True}, t),
                                ActionPair("brake", "keep_lane"))
                               for t in range(20)]) for _ in range(20)]
    cfg = TrainConfig(epochs=5, seed=5)  # defaults: alpha=2e-4, decay=0.01,
    # sigma=sqrt(2), u0=0, R+=10, R-=0
    js_checkpoints = []

    def checkpoint(epochs_done, trained):
        js_checkpoints.append(mean_js(trained, reference_distributions(episodes), SQRT2))

    rule_set, _ = train(rules, episodes, cfg, on_epoch=checkpoint)

    by_name = dict(zip((r.name for r in rule_set.rules), rule_set.utilities))
    probs = selection_probabilities([by_name["agree"], by_name["disagree"]], SQRT2)
    assert probs[0] > 0.9, f"agreeing rule selected with p={probs[0]:.4f}"
    for earlier, later in zip(js_checkpoints, js_checkpoints[1:]):
        assert later <= earlier + 0.02, f"JS rose: {js_checkpoints}"
    assert js_checkpoints[-1] < js_checkpoints[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(5, f"p(agree)={probs[0]:.3f}, JS {js_checkpoints[0]:.3f}->"
           f"{js_checkpoints[-1]:.3f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. divergence and overlap metrics against independent oracles

_LTL_VOCAB = ["G", "F", "X", "U", "!", "&", "|", "->", "(", ")",
              "a", "b", "c", "sig", "true"]


def test_06_js_and_bleu_match_oracles():
    rng = random.Random(61)
    keys = [f"k{i}" for i in range(8)]

    def random_dist():
        support = rng.sample(keys, rng.randint(1, len(keys)))
        weights = [rng.random() + 1e-9 for _ in support]
        total = sum(weights)
        return {k: w / total for k, w in zip(support, weights)}

    for _ in range(1000):
        p, q = random_dist(), random_dist()
        assert abs(js_divergence(p, q) - js_oracle(p, q)) <= 1e-12

    for _ in range(1000):
        pred = [rng.choice(_LTL_VOCAB) for _ in range(rng.randint(1, 15))]
        ref = [rng.choice(_LTL_VOCAB) for _ in range(rng.randint(1, 15))]
        assert abs(ltl_bleu(pred, ref) - bleu_oracle(pred, ref)) <= 1e-9
    _ok(6, "1000 JS pairs within 1e-12, 1000 BLEU pairs within 1e-9")


# ---------------------------------------------------------------------------
# 7. duplicate detection against the brute-force cosine oracle

def test_07_dedup_matches_bruteforce_oracle():
    provider = HashedTrigramEmbedding()
    rng = random.Random(71)
    feats = [f"f{i}" for i in range(8)]

    def random_rule():
        pre = tuple(sorted({(rng.choice(feats), "=", rng.randrange(3))
                            for _ in range(rng.randint(1, 3))}))
        eff = ActionPair(longitudinal=rng.choice(["brake", "keep", "accelerate"]))
        from cogrules.compiler import name_rule
        return ProductionRule(name=name_rule(pre, eff), preconditions=pre,
                              effects=eff)

    for _ in range(1000):
        store_rules = [random_rule() for _ in range(rng.randint(0, 20))]
        candidate = random_rule()
        threshold = rng.choice([0.9, 0.5, 0.99])
        got = dedup_check(candidate, RuleStore(store_rules), threshold=threshold)
        expected = dedup_oracle(candidate.name, candidate.body_key(),
                                [(r.name, r.body_key()) for r in store_rules],
                                lambda t: [provider.embed(t).get(i, 0)
                                           for i in range(EMBEDDING_DIMENSION)],
                                threshold=threshold)
        assert (got is not None) == expected
    _ok(7, "1000 candidate/store configurations agree")


# ---------------------------------------------------------------------------
# 8. end-to-end reproducibility and the literal/supply contrast

def test_08_end_to_end_reproducibility(tmp_path, capsys):
    # record a model transcript once, then run the full pipeline from the
    # replayed transcript twice through the command-line entry point
    transcript = tmp_path / "transcript.jsonl"
    run_experiment(load_config(write_pipeline_config(
        tmp_path, record_path=str(transcript), out_dir="out_rec")))
    assert transcript.exists()

    replay_dir = tmp_path / "replay"
    replay_dir.mkdir()
    replay_cfg = write_pipeline_config(replay_dir, backends="replay",
                                       transcript_path=str(transcript))
    assert cli_main(["run-all", "--config", str(replay_cfg)]) == 0
    first = (replay_dir / "out" / "manifest.json").read_bytes()
    assert cli_main(["run-all", "--config", str(replay_cfg)]) == 0
    capsys.readouterr()
    assert (replay_dir / "out" / "manifest.json").read_bytes() == first

    # literal vs supply grounding: identical stores except the rule whose
    # precondition set the permissive prompt extended
    lit_cfg = load_config(write_pipeline_config(tmp_path, out_dir="out_lit"))
    sup_cfg = load_config(write_pipeline_config(tmp_path, prompt_mode="supply",
                                                out_dir="out_sup"))
    lit_store, _ = formalize_corpus(highway_corpus(), lit_cfg)
    sup_store, _ = formalize_corpus(highway_corpus(), sup_cfg)
    lit_rules = {r.name: r for r in lit_store}
    sup_rules = {r.name: r for r in sup_store}
    changed = []
    for lit_rule in lit_store:
        match = [s for s in sup_store
                 if s.effects.longitudinal == lit_rule.effects.longitudinal
                 and s.effects.lateral == lit_rule.effects.lateral]
        assert len(match) == 1
        if match[0].name != lit_rule.name or \
                match[0].preconditions != lit_rule.preconditions:
            changed.append((lit_rule, match[0]))
    assert len(changed) == 1
    narrow, extended = changed[0]
    assert set(narrow.preconditions) < set(extended.preconditions)
    assert sorted(n for n in lit_rules if n in sup_rules) == \
        sorted(n for n in lit_rules if n != narrow.name)

    # the over-constrained agent imitates no better than the literal one
    lit_manifest = run_experiment(lit_cfg)
    sup_manifest = run_experiment(sup_cfg)
    assert sup_manifest["final_js"] >= lit_manifest["final_js"]
    _ok(8, "replayed run-all bit-identical; supply JS "
           f"{sup_manifest['final_js']:.3f} >= literal "
           f"{lit_manifest['final_js']:.3f}")
