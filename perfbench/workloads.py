"""The four workloads. Each one builds its inputs from the seed, runs one
unit of work through the package's public entry points and checks the
outputs with the benchmark's own oracles.

    formalize_large    run-all; a large corpus, critics that reject a
                       seeded share of nodes; compiler, gateway and
                       critic_tree do the work
    train_few_states   run-all; ~100 rules, episodes over a dozen states;
                       engine, trainer and metrics.mean_js do the work
    train_many_states  as train_few_states, but almost every step is a
                       new state
    translate_score    seeded (prediction, reference) LTL pairs scored by
                       exact match, BLEU and classify; ltl does the work
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from pathlib import Path

import inputs

SIZES = {
    # KB bool and enum features, corpus segments and mix, share of critic
    # verdicts that reject, episodes x steps, distinct states (None: a fresh
    # state per step), epochs, and the eval top_k states x samples per state.
    # Checkpoints stay at load_config's default of 5.
    "formalize_large": dict(n_bool=24, n_enum=6, segments=300, mix="formalize", reject=0.35,
                            episodes=4, length=10, states=None, epochs=1, top_k=3, samples=5),
    "train_few_states": dict(n_bool=24, n_enum=6, segments=120, mix="train", reject=0.0,
                             episodes=40, length=25, states=12, epochs=10, top_k=10, samples=40),
    "train_many_states": dict(n_bool=24, n_enum=6, segments=120, mix="train", reject=0.0,
                              episodes=40, length=25, states=None, epochs=10, top_k=10, samples=40),
    "translate_score": dict(pairs=2000),
}

TINY = {
    "formalize_large": dict(segments=30, episodes=2, length=5),
    "train_few_states": dict(segments=20, episodes=4, length=10, epochs=2, samples=10),
    "train_many_states": dict(segments=20, episodes=4, length=10, epochs=2, samples=10),
    "translate_score": dict(pairs=60),
}

MATCH_SAMPLES = 64


class CheckTally:
    """Checked outputs and the ones that failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# ---------------------------------------------------------------------------
# scripted model backends, recorded once during set-up

def _register_scripts(seed: int, reject: float) -> None:
    from cogrules.gateway import register_script

    def revisor(messages):
        last = messages[-1].content
        found = re.search(r"Candidate formula: (.*)", last)
        if found:
            return found.group(1).strip()
        previous = [m.content for m in messages if m.role == "assistant"][-1]
        return f"({previous})"  # an equivalent revision, one level deeper

    def critic(member):
        rng = random.Random(f"critic:{seed}:{member}")

        def judge(messages):
            if rng.random() < reject:
                return f"REVISE: check atom {inputs.word(rng, 3)}"
            return "APPROVED"
        return judge

    def grounding(messages):
        return re.search(r"stated: (.*)\nVocabulary:", messages[-1].content).group(1).strip()

    register_script("perfbench_revisor", revisor)
    register_script("perfbench_critic_a", critic("a"))
    register_script("perfbench_critic_b", critic("b"))
    register_script("perfbench_grounding", grounding)


def _run_all_config(size: dict, seed: int, backend) -> dict:
    return {
        "prompt_mode": "literal",
        "kb": "kb.json",
        "corpus": "corpus.json",
        "episodes": "episodes.jsonl",
        "critic_tree": {
            "num_critics": 2,
            "max_depth": 2,
            "revisor": backend("revisor"),
            "critics": {"members": [[backend("critic_a"), 0.5], [backend("critic_b"), 0.5]],
                        "seed": seed},
        },
        "grounding": backend("grounding"),
        "train": {"epochs": size["epochs"], "seed": seed, "learning_rate": 0.05},
        "eval": {"top_k": size["top_k"], "samples": size["samples"]},
        "out_dir": "out",
    }


class RunAll:
    """`cogrules run-all` on generated inputs, replayed from a transcript."""

    probe_kind = "run-all"

    def __init__(self, name: str, work: Path, seed: int, size: dict, fault: str | None):
        from cogrules import pipeline

        self.name, self.work, self.seed = name, work, seed
        kb = inputs.Kb(seed, size["n_bool"], size["n_enum"])
        records, self.expected_tags, self.expected_rules = inputs.make_corpus(
            kb, seed, size["segments"], size["mix"])
        self.kb = kb
        self.segments = len(records)
        self.episodes = inputs.make_episodes(kb, self.expected_rules, seed, size["episodes"],
                                             size["length"], size["states"])
        self.steps = sum(len(e) for e in self.episodes)
        (work / "kb.json").write_text(json.dumps(kb.to_json(), indent=1, sort_keys=True))
        (work / "corpus.json").write_text(json.dumps(
            [{"id": r["id"], "text": r["text"], "initial": r["initial"]} for r in records], indent=1))
        (work / "episodes.jsonl").write_text(inputs.episodes_jsonl(self.episodes))

        # record the model calls once with scripted backends ...
        _register_scripts(seed, size["reject"])
        record = _run_all_config(size, seed, lambda role: {
            "kind": "scripted", "script": f"perfbench_{role}", "model": role,
            "record_path": "transcript.jsonl"})
        (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        pipeline.formalize_corpus(
            json.loads((work / "corpus.json").read_text()), pipeline.load_config(work / "record.json"))
        if fault == "truncated_transcript":
            lines = (work / "transcript.jsonl").read_text().splitlines(keepends=True)
            (work / "transcript.jsonl").write_text("".join(lines[:len(lines) * 9 // 10]))
        if fault == "wrong_expected_tag":
            i = self.expected_tags.index("Viable")
            self.expected_tags[i] = "InferenceError"

        # ... and replay them in every timed run
        replay = _run_all_config(size, seed, lambda role: {
            "kind": "replay", "transcript_path": "transcript.jsonl", "model": role})
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(replay, indent=1, sort_keys=True))
        self.cfg = pipeline.load_config(self.config_path)
        self.epochs_configured = size["epochs"]
        self.first_manifest: bytes | None = None

    def unit(self):
        from cogrules import pipeline
        return pipeline.run_experiment(self.cfg)

    def units_done(self, output) -> float:
        """Segments for formalize_large; trained steps for the train_*
        workloads, counting the epochs that curve.csv shows were trained."""
        if self.name == "formalize_large":
            return self.segments
        return self.steps * self.epochs_trained()

    def epochs_trained(self) -> int:
        with (self.work / "out" / "curve.csv").open() as fh:
            return sum(1 for _ in csv.reader(fh)) - 1

    def check(self, output, tally: CheckTally) -> None:
        out = self.work / "out"
        manifest = (out / "manifest.json").read_bytes()
        if self.first_manifest is None:
            self.first_manifest = manifest
        else:
            tally.check(manifest == self.first_manifest, "manifest.json differs between runs")
        segments = json.loads((out / "segments.json").read_text())
        for seg, tag in zip(segments, self.expected_tags):
            tally.check(seg["outcome"] == tag,
                        f"segment {seg['id']}: outcome {seg['outcome']}, expected {tag}")
        tally.check(len(segments) == len(self.expected_tags), "segment count")
        misses = [s["id"] for s in segments if s["detail"].startswith("gateway failure")]
        tally.check(not misses, f"replay misses on segments {misses[:5]}")
        names = [r["name"] for r in json.loads((out / "rules.json").read_text())]
        tally.check(names == [r.name(self.kb) for r in self.expected_rules],
                    "stored rule names differ from the expected viable rules")
        final_js = output["final_js"]
        tally.check(final_js is not None and 0.0 <= final_js <= 1.0, f"final_js {final_js}")
        tally.check(all(0.0 <= v <= 1.0 for v in output["agreement"].values()),
                    f"agreement {output['agreement']}")

    def check_match(self, tally: CheckTally) -> None:
        """engine.match against a brute-force precondition check, on seeded
        sample states."""
        from cogrules import engine
        from cogrules.knowledge import ProductionRule

        raw = json.loads((self.work / "out" / "rules.json").read_text())
        rules = [ProductionRule.from_json(obj) for obj in raw]
        rng = random.Random(f"match:{self.seed}")
        states = [self.kb.random_state(rng) for _ in range(MATCH_SAMPLES)]
        states += [s for s, _ in self.episodes[0]][:MATCH_SAMPLES // 4]
        for state in states:
            expected = sorted(obj["name"] for obj in raw
                              if all(f in state and (state[f] == v) == (c == "=")
                                     for f, c, v in obj["preconditions"]))
            got = [r.name for r in engine.match(engine.WorldState.make(state), rules)]
            tally.check(got == expected, "engine.match differs from brute force")

    def notes(self, output) -> dict:
        return {"final_js": output["final_js"], "agreement": output["agreement"],
                "manifest_sha256": hashlib.sha256(self.first_manifest or b"").hexdigest(),
                "segments": self.segments, "steps": self.steps,
                "epochs_trained": self.epochs_trained(),
                "epochs_configured": self.epochs_configured,
                "rules": len(self.expected_rules)}


class TranslateScore:
    """Scores seeded (prediction, reference) pairs: exact match after
    canonicalization, BLEU over LTL tokens, and the convertibility verdict
    of both sides."""

    probe_kind = "pairs"

    def __init__(self, name: str, work: Path, seed: int, size: dict, fault: str | None):
        pairs = inputs.make_pairs(seed, size["pairs"])
        if fault == "swapped_reference":
            i = next(k for k, p in enumerate(pairs) if p["label"] == "equivalent")
            j = next(k for k, p in enumerate(pairs) if k != i)
            pairs[i]["reference"], pairs[j]["reference"] = pairs[j]["reference"], pairs[i]["reference"]
        self.config_path = work / "pairs.json"
        self.config_path.write_text(json.dumps(pairs, indent=1))
        self.pairs = pairs
        self.predictions = [p["prediction"] for p in pairs]
        self.references = [p["reference"] for p in pairs]
        self.n_equivalent = sum(p["label"] == "equivalent" for p in pairs)
        self.epochs_configured = 0

    def unit(self):
        from cogrules import ltl, metrics

        accuracy = metrics.ltl_match_accuracy(self.predictions, self.references)
        bleu, verdicts = [], []
        for pred, ref in zip(self.predictions, self.references):
            bleu.append(metrics.ltl_bleu(metrics.ltl_tokens(pred), metrics.ltl_tokens(ref)))
            try:
                pred_verdict = ltl.classify(ltl.parse(pred))
            except ltl.ParseError:
                pred_verdict = None
            verdicts.append((pred_verdict, ltl.classify(ltl.parse(ref))))
        return {"accuracy": accuracy, "bleu": bleu, "verdicts": verdicts}

    def units_done(self, output) -> float:
        return len(self.pairs)

    def check(self, output, tally: CheckTally) -> None:
        from cogrules import ltl

        n = len(self.pairs)
        hits = output["accuracy"] * n
        tally.check(abs(hits - self.n_equivalent) < 1e-6,
                    f"accuracy {output['accuracy']:.6f} x {n} pairs != {self.n_equivalent} equivalent")
        for pair, b, (pv, rv) in zip(self.pairs, output["bleu"], output["verdicts"]):
            ok = 0.0 <= b <= 1.0
            ref_convertible = isinstance(rv, ltl.Convertible)
            ok &= ref_convertible == pair["convertible"]
            if pair["label"] == "equivalent":  # same verdict; reasons may name F or U
                ok &= pv is not None and (pv == rv if ref_convertible
                                          else isinstance(pv, ltl.InferenceError))
            tally.check(ok, f"pair {pair['prediction']!r} / {pair['reference']!r}")

    def check_match(self, tally: CheckTally) -> None:
        pass

    def notes(self, output) -> dict:
        return {"accuracy": output["accuracy"], "pairs": len(self.pairs),
                "equivalent": self.n_equivalent,
                "mean_bleu": sum(output["bleu"]) / len(output["bleu"])}


def make(name: str, work: Path, seed: int, tiny: bool = False, fault: str | None = None):
    size = dict(SIZES[name])
    if tiny:
        size.update(TINY[name])
    cls = TranslateScore if name == "translate_score" else RunAll
    return cls(name, work, seed, size, fault)


WORKLOADS = tuple(SIZES)
