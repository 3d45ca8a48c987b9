"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name from outside. These checks fail as soon as a wrapped name is renamed
or moved, instead of only in a benchmark smoke run."""

import math
import random
from pathlib import Path

from cogrules import compiler, critic_tree, engine, gateway, ltl, metrics, pipeline, trainer
from cogrules.engine import ActionPair, RuleSet, WorldState
from cogrules.knowledge import ProductionRule
from cogrules.trainer import Episode

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PATCHED = (ltl, gateway.ReplayBackend, critic_tree.CriticTree, compiler,
           compiler.HashedTrigramEmbedding, engine, trainer, metrics, pipeline)


def install_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    tracer = tracing.Tracer("t")
    return tracer, tracing.install(tracer)


def test_install_then_uninstall_restores_every_name(monkeypatch):
    before = [dict(vars(owner)) for owner in PATCHED]
    _, uninstall = install_tracer(monkeypatch)
    try:
        assert metrics.decide is not before[PATCHED.index(metrics)]["decide"]
        assert engine.match is not before[PATCHED.index(engine)]["match"]
    finally:
        uninstall()
    assert [dict(vars(owner)) for owner in PATCHED] == before


def test_wrapped_names_are_the_ones_called(monkeypatch):
    rules = RuleSet([ProductionRule(name=n, preconditions=(("x", "=", True),),
                                    effects=ActionPair(longitudinal=n)) for n in ("brake", "keep")])
    state = WorldState.make({"x": True})
    episodes = [Episode(steps=[(state, ActionPair("brake"))])]
    tracer, uninstall = install_tracer(monkeypatch)
    try:
        metrics.mean_js(rules, metrics.reference_distributions(episodes), math.sqrt(2))
        # the exact JS matches each state once and samples nothing
        assert tracer.counts["metrics.decide_calls"] == 0
        _, _, calls = tracer.totals()
        assert calls["metrics.mean_js"] == 1 and calls["engine.match"] == 1
        metrics.sampled_distribution(state, rules, math.sqrt(2), 3, random.Random(0))
        assert tracer.counts["metrics.decide_calls"] == 3
    finally:
        uninstall()


def test_train_under_the_tracer_counts_epochs_and_decides(monkeypatch):
    # the tracer unpacks train's (RuleSet, curve) and wraps `decide` where
    # the trainer looks it up
    rules = [ProductionRule(name=n, preconditions=(("x", "=", True),),
                            effects=ActionPair(longitudinal=n)) for n in ("brake", "keep")]
    episodes = [Episode(steps=[(WorldState.make({"x": True}, t), ActionPair("brake"))
                               for t in range(5)]) for _ in range(3)]
    cfg = trainer.TrainConfig(epochs=4, seed=2)
    tracer, uninstall = install_tracer(monkeypatch)
    try:
        trained, curve = trainer.train(rules, episodes, cfg)
    finally:
        uninstall()
    assert isinstance(trained, RuleSet) and len(curve) == cfg.epochs
    assert tracer.counts["trainer.epochs_trained"] == cfg.epochs
    _, _, calls = tracer.totals()
    assert calls["trainer.train"] == 1
    assert calls["engine.decide"] == 5 * 3 * cfg.epochs


def test_parse_and_ltl_tokens_each_record_a_tokenize_span(monkeypatch):
    # both reach `tokenize` through the ltl module, where the tracer wraps it
    tracer, uninstall = install_tracer(monkeypatch)
    try:
        ltl.parse("G (a -> b)")
        assert tracer.totals()[2]["ltl.tokenize"] == 1
        assert metrics.ltl_tokens("a & b") == ["a", "&", "b"]
        assert tracer.totals()[2]["ltl.tokenize"] == 2
    finally:
        uninstall()
