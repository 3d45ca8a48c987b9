"""Span tracing from outside the package.

`install` replaces each layer's public functions, at the name their
callers look up, with wrappers that record a span (name, start, end,
parent) and a few counters. `uninstall` puts the originals back. Spans
stay in memory until the run ends. Only the outermost span of a name is
recorded, so recursion through a module-global name (`ltl.to_string`)
counts once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

# per-layer metrics, in the order they are reported; unit by suffix
LAYER_METRICS = (
    "ltl.parse.s", "ltl.parse.calls", "ltl.parse.chars_per_s", "ltl.tokenize.s",
    "ltl.canonicalize.s", "ltl.classify.s", "ltl.to_string.s",
    "gateway.complete.calls.revisor", "gateway.complete.calls.critic",
    "gateway.complete.calls.grounding", "gateway.complete.s", "gateway.request_chars",
    "gateway.replay_misses", "gateway.backend_inits", "gateway.backend_init.s",
    "critic_tree.run.calls", "critic_tree.run.self_s", "critic_tree.nodes",
    "critic_tree.approved_ratio",
    "compiler.compile_formula.self_s", "compiler.dedup_check.calls", "compiler.dedup_check.s",
    "compiler.embed.calls", "compiler.embed.s", "compiler.viable_ratio", "compiler.store_size",
    "engine.decide.calls", "engine.decide.s", "engine.match.s", "engine.conflict_size.mean",
    "engine.conflict_size.max", "engine.distinct_states", "engine.decides_per_state",
    "trainer.train.s", "trainer.train.self_s", "trainer.epochs_trained",
    "trainer.epochs_configured", "trainer.evaluate_agreement.s",
    "metrics.mean_js.s", "metrics.mean_js.self_s", "metrics.mean_js.decide_calls",
    "metrics.ltl_match_accuracy.s", "metrics.ltl_bleu.s",
    "pipeline.run_experiment.s", "pipeline.run_experiment.self_s", "pipeline.formalize_corpus.s",
)

# layer names, for the self-time shares
LAYERS = ("ltl", "gateway", "critic_tree", "compiler", "engine", "trainer", "metrics", "pipeline")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.conflict_sizes: Counter = Counter()
        self.states: set = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        if self._open[name]:  # inner recursion: the outer span covers it
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def write(self, path: Path) -> None:
        with path.open("a") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: inclusive seconds, self seconds and span count."""
        incl: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            d = end - start
            incl[name] += d
            self_s[name] += d
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= d
        return incl, self_s, calls

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly between two traced runs."""
        _, _, calls = self.totals()
        return {"calls": dict(calls), "counts": dict(self.counts),
                "conflict_sizes": dict(self.conflict_sizes), "states": len(self.states)}

    def metrics(self, epochs_configured: int) -> dict[str, float]:
        incl, self_s, calls = self.totals()
        c = self.counts
        decides = calls["engine.decide"]
        n_conf = sum(self.conflict_sizes.values())
        runs = calls["critic_tree.run"]
        compiles = calls["compiler.compile_formula"]
        m = {
            "ltl.parse.s": incl["ltl.parse"],
            "ltl.parse.calls": calls["ltl.parse"],
            "ltl.parse.chars_per_s": c["ltl.parse.chars"] / incl["ltl.parse"] if incl["ltl.parse"] else 0.0,
            "ltl.tokenize.s": incl["ltl.tokenize"],
            "ltl.canonicalize.s": incl["ltl.canonicalize"],
            "ltl.classify.s": incl["ltl.classify"],
            "ltl.to_string.s": incl["ltl.to_string"],
            "gateway.complete.calls.revisor": c["gateway.calls.revisor"],
            "gateway.complete.calls.critic": c["gateway.calls.critic"],
            "gateway.complete.calls.grounding": c["gateway.calls.grounding"],
            "gateway.complete.s": incl["gateway.complete"],
            "gateway.request_chars": c["gateway.request_chars"],
            "gateway.replay_misses": c["gateway.replay_misses"],
            "gateway.backend_inits": calls["gateway.backend_init"],
            "gateway.backend_init.s": incl["gateway.backend_init"],
            "critic_tree.run.calls": runs,
            "critic_tree.run.self_s": self_s["critic_tree.run"],
            "critic_tree.nodes": c["critic_tree.nodes"],
            "critic_tree.approved_ratio": c["critic_tree.approved"] / runs if runs else 0.0,
            "compiler.compile_formula.self_s": self_s["compiler.compile_formula"],
            "compiler.dedup_check.calls": calls["compiler.dedup_check"],
            "compiler.dedup_check.s": incl["compiler.dedup_check"],
            "compiler.embed.calls": calls["compiler.embed"],
            "compiler.embed.s": incl["compiler.embed"],
            "compiler.viable_ratio": c["compiler.viable"] / compiles if compiles else 0.0,
            "compiler.store_size": c["compiler.store_size"],
            "engine.decide.calls": decides,
            "engine.decide.s": incl["engine.decide"],
            "engine.match.s": incl["engine.match"],
            "engine.conflict_size.mean": (sum(k * v for k, v in self.conflict_sizes.items()) / n_conf
                                          if n_conf else 0.0),
            "engine.conflict_size.max": max(self.conflict_sizes, default=0),
            "engine.distinct_states": len(self.states),
            "engine.decides_per_state": decides / len(self.states) if self.states else 0.0,
            "trainer.train.s": incl["trainer.train"],
            "trainer.train.self_s": self_s["trainer.train"],
            "trainer.epochs_trained": c["trainer.epochs_trained"],
            "trainer.epochs_configured": epochs_configured if calls["trainer.train"] else 0,
            "trainer.evaluate_agreement.s": incl["trainer.evaluate_agreement"],
            "metrics.mean_js.s": incl["metrics.mean_js"],
            "metrics.mean_js.self_s": self_s["metrics.mean_js"],
            "metrics.mean_js.decide_calls": c["metrics.decide_calls"],
            "metrics.ltl_match_accuracy.s": incl["metrics.ltl_match_accuracy"],
            "metrics.ltl_bleu.s": incl["metrics.ltl_bleu"],
            "pipeline.run_experiment.s": incl["pipeline.run_experiment"],
            "pipeline.run_experiment.self_s": self_s["pipeline.run_experiment"],
            "pipeline.formalize_corpus.s": incl["pipeline.formalize_corpus"],
        }
        assert tuple(m) == LAYER_METRICS
        return {k: float(v) for k, v in m.items()}

    def layer_self_shares(self) -> dict[str, float]:
        _, self_s, _ = self.totals()
        by_layer: Counter = Counter()
        for name, s in self_s.items():
            by_layer[name.split(".")[0]] += s
        total = sum(by_layer.values())
        return {layer: by_layer[layer] / total if total else 0.0 for layer in LAYERS}


def install(tracer: Tracer):
    """Wraps the public functions; returns a function that unwraps them."""
    from cogrules import compiler, critic_tree, engine, gateway, ltl, metrics, pipeline, trainer

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper_for):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_for(original)))

    def plain(name):
        def make(fn):
            return lambda *a, **k: tracer.call(name, fn, *a, **k)
        return make

    counts = tracer.counts

    def parse(fn):
        def wrapper(text, *a, **k):
            counts["ltl.parse.chars"] += len(text) if isinstance(text, str) else 0
            return tracer.call("ltl.parse", fn, text, *a, **k)
        return wrapper

    patch(ltl, "parse", parse)
    for attr in ("tokenize", "to_string", "canonicalize", "classify"):
        patch(ltl, attr, plain(f"ltl.{attr}"))

    def complete(fn):
        def wrapper(self, messages):
            role = self.spec.model.split("_")[0]
            counts[f"gateway.calls.{role}"] += 1
            counts["gateway.request_chars"] += sum(len(m.content) for m in messages)
            try:
                return tracer.call("gateway.complete", fn, self, messages)
            except gateway.ReplayMiss:
                counts["gateway.replay_misses"] += 1
                raise
        return wrapper

    patch(gateway.ReplayBackend, "complete", complete)
    patch(gateway.ReplayBackend, "__init__", plain("gateway.backend_init"))

    def tree_run(fn):
        def wrapper(self, text, initial):
            refined, trace = tracer.call("critic_tree.run", fn, self, text, initial)
            counts["critic_tree.nodes"] += len(trace.nodes)
            counts["critic_tree.approved"] += not trace.fallback
            return refined, trace
        return wrapper

    patch(critic_tree.CriticTree, "run", tree_run)

    def compile_formula(fn):
        def wrapper(formula, kb, store, *a, **k):
            outcome = tracer.call("compiler.compile_formula", fn, formula, kb, store, *a, **k)
            counts["compiler.viable"] += outcome.tag == "Viable"
            counts["compiler.store_size"] = len(store)
            return outcome
        return wrapper

    patch(compiler, "compile_formula", compile_formula)
    patch(compiler, "dedup_check", plain("compiler.dedup_check"))
    patch(compiler.HashedTrigramEmbedding, "embed", plain("compiler.embed"))

    def match(fn):
        def wrapper(state, rules):
            hits = tracer.call("engine.match", fn, state, rules)
            tracer.conflict_sizes[len(hits)] += 1
            tracer.states.add(state.features)
            return hits
        return wrapper

    patch(engine, "match", match)

    def decide(counter):
        def make(fn):
            def wrapper(*a, **k):
                if counter:
                    counts[counter] += 1
                return tracer.call("engine.decide", fn, *a, **k)
            return wrapper
        return make

    # `decide` is imported by name into trainer and metrics
    patch(engine, "decide", decide(None))
    patch(trainer, "decide", decide(None))
    patch(metrics, "decide", decide("metrics.decide_calls"))

    def train(fn):
        def wrapper(*a, **k):
            rules, curve = tracer.call("trainer.train", fn, *a, **k)
            counts["trainer.epochs_trained"] += len(curve)
            return rules, curve
        return wrapper

    patch(trainer, "train", train)
    patch(trainer, "evaluate_agreement", plain("trainer.evaluate_agreement"))
    for attr in ("mean_js", "ltl_match_accuracy", "ltl_bleu"):
        patch(metrics, attr, plain(f"metrics.{attr}"))
    patch(pipeline, "formalize_corpus", plain("pipeline.formalize_corpus"))
    patch(pipeline, "run_experiment", plain("pipeline.run_experiment"))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
