import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogrules
from cogrules import engine, ltl, pipeline, scenarios, trainer
from cogrules.critic_tree import CriticTree
from cogrules.gateway import ReplayMiss
from cogrules.knowledge import KnowledgeBase
from cogrules.pipeline import formalize_corpus, load_config, run_experiment
from conftest import highway_corpus, scripted_spec, write_pipeline_config


def literal_config(tmp_path, **kw):
    return load_config(write_pipeline_config(tmp_path, **kw))


class TestLoadConfig:
    def test_archetype_kb_resolution(self, tmp_path):
        cfg = literal_config(tmp_path)
        assert "front_gap_closing" in cfg.kb.features
        assert cfg.prompt_mode == "literal"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = literal_config(tmp_path)
        assert cfg.corpus == tmp_path / "corpus.json"
        assert cfg.out_dir == tmp_path / "out"

    def test_unknown_prompt_mode_rejected(self, tmp_path):
        path = write_pipeline_config(tmp_path, prompt_mode="telepathic")
        with pytest.raises(ValueError, match="telepathic"):
            load_config(path)

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        # the benchmark's run-all configs, eval.samples included, must keep loading
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        scenarios.scenario_kb("highway_cut_in").save(tmp_path / "kb.json")
        backends = {  # as workloads.RunAll builds them
            "record": lambda role: {"kind": "scripted", "script": f"perfbench_{role}",
                                    "model": role, "record_path": "transcript.jsonl"},
            "replay": lambda role: {"kind": "replay", "transcript_path": "transcript.jsonl",
                                    "model": role}}
        run_all = [n for n in workloads.WORKLOADS if n != "translate_score"]
        assert len(run_all) == 3
        for name in run_all:
            size = workloads.SIZES[name]
            for kind, backend in backends.items():
                raw = workloads._run_all_config(size, 4, backend)
                assert raw["eval"]["samples"] == size["samples"]
                path = tmp_path / f"{name}_{kind}.json"
                path.write_text(json.dumps(raw))
                cfg = load_config(path)
                assert cfg.eval.top_k == size["top_k"]
                assert cfg.train.epochs == size["epochs"]
                assert cfg.critic_tree.critics.seed == 4

    def test_benchmark_inputs_load(self, tmp_path, monkeypatch):
        # the KB, corpus and episodes the benchmark generates must pass the strict readers
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import inputs
        import workloads
        cfg = literal_config(tmp_path)
        for name in (n for n in workloads.WORKLOADS if n != "translate_score"):
            size = workloads.SIZES[name]
            kb = inputs.Kb(4, size["n_bool"], size["n_enum"])
            (tmp_path / "kb.json").write_text(json.dumps(kb.to_json()))
            loaded_kb = KnowledgeBase.load(tmp_path / "kb.json")
            assert len(loaded_kb.groundings) == len(kb.atoms)
            records, _, rules = inputs.make_corpus(kb, 4, size["segments"], size["mix"])
            corpus = [{"id": r["id"], "text": r["text"], "initial": r["initial"]}
                      for r in records]  # as workloads.RunAll writes it
            assert [s.id for s in pipeline.read_corpus(corpus, cfg)] == [r["id"] for r in records]
            episodes = inputs.make_episodes(kb, rules, 4, size["episodes"], size["length"],
                                            size["states"])
            (tmp_path / "episodes.jsonl").write_text(inputs.episodes_jsonl(episodes))
            loaded = trainer.episodes_from_jsonl(tmp_path / "episodes.jsonl")
            assert [len(e.steps) for e in loaded] == [len(e) for e in episodes]
            trainer.validate_episodes(loaded, loaded_kb)


class TestFormalizeCorpus:
    def test_outcome_census(self, tmp_path):
        cfg = literal_config(tmp_path)
        store, results = formalize_corpus(highway_corpus(), cfg)
        tags = [r.outcome.tag for r in results]
        assert tags.count("Viable") == 4
        assert tags.count("InferenceError") == 1
        assert tags.count("DuplicatedContent") == 1
        assert len(list(store)) == 4

    def test_segment_failures_do_not_abort(self, tmp_path):
        cfg = literal_config(tmp_path)
        corpus = [{"id": "bad", "text": "gibberish", "initial": "((("}] + \
            highway_corpus()
        store, results = formalize_corpus(corpus, cfg)
        assert results[0].outcome.tag == "FormatMismatch"
        assert len(results) == len(corpus)
        assert len(list(store)) == 4

    def test_negated_antecedent_polarity(self, tmp_path):
        cfg = literal_config(tmp_path)
        store, _ = formalize_corpus(highway_corpus(), cfg)
        lane_rules = [r for r in store if r.effects.lateral == "keep_lane"]
        assert len(lane_rules) == 1
        assert ("speed_band", "!=", "low") in lane_rules[0].preconditions

    def test_supply_mode_extends_brake_precondition(self, tmp_path):
        lit = literal_config(tmp_path)
        sup = load_config(write_pipeline_config(tmp_path, prompt_mode="supply"))
        lit_store, _ = formalize_corpus(highway_corpus(), lit)
        sup_store, _ = formalize_corpus(highway_corpus(), sup)

        def brake_only(store):
            [r] = [r for r in store if r.effects.longitudinal == "brake"]
            return r

        lit_brake, sup_brake = brake_only(lit_store), brake_only(sup_store)
        assert set(lit_brake.preconditions) < set(sup_brake.preconditions)
        assert ("speed_band", "=", "low") in sup_brake.preconditions
        # every other rule compiles identically in both modes
        others = lambda store: sorted(
            (r.preconditions, r.effects.longitudinal, r.effects.lateral)
            for r in store if r.effects.longitudinal != "brake")
        assert others(lit_store) == others(sup_store)

    def test_missing_initial_translation_raises(self, tmp_path, model_calls):
        # every record is checked before the first model call
        cfg = literal_config(tmp_path)
        with pytest.raises(ValueError, match="segment x: no initial translation source"):
            formalize_corpus(highway_corpus() + [{"id": "x", "text": "no column"}], cfg)
        assert model_calls == []

    def test_missing_initial_translation_names_the_corpus_record(self, tmp_path, model_calls):
        cfg = literal_config(tmp_path)
        records = highway_corpus() + [{"id": "x", "text": "no column"}]
        with pytest.raises(ValueError) as refused:
            formalize_corpus(records, cfg)
        assert str(refused.value) == (f"section '{cfg.corpus} record {len(records) - 1}': "
                                      "segment x: no initial translation source")
        assert model_calls == []

    def test_replay_miss_is_format_mismatch(self, tmp_path):
        cfg = literal_config(tmp_path)

        def missing(messages):
            raise ReplayMiss("no recorded response")
        cfg.grounding = scripted_spec(missing)
        store, results = formalize_corpus(highway_corpus()[:1], cfg)
        assert results[0].outcome.tag == "FormatMismatch"
        assert results[0].outcome.detail.startswith("gateway failure: ")
        assert results[0].refined == ""
        assert len(store) == 0

    def test_initial_translation_miss_is_format_mismatch(self, tmp_path):
        cfg = literal_config(tmp_path)

        def missing(messages):
            raise ReplayMiss("no recorded response")
        cfg.initial_backend = scripted_spec(missing)
        corpus = [{"id": "x", "text": "brake when the gap closes"}] + highway_corpus()
        store, results = formalize_corpus(corpus, cfg)
        assert results[0].outcome.tag == "FormatMismatch"
        assert results[0].outcome.detail.startswith("gateway failure: ")
        assert len(results) == len(corpus)
        assert len(store) == 4

    def test_programming_error_propagates(self, tmp_path):
        cfg = literal_config(tmp_path)

        def broken(messages):
            raise TypeError("bug in the backend")
        cfg.grounding = scripted_spec(broken)
        with pytest.raises(TypeError):
            formalize_corpus(highway_corpus()[:1], cfg)

    def test_unparseable_grounding_is_recorded_as_refined(self, tmp_path):
        cfg = literal_config(tmp_path)
        cfg.grounding = scripted_spec(lambda messages: "G (front_gap_closing ->")
        corpus = [{"id": "s", "text": "brake when the gap closes",
                   "initial": "G (front_gap_closing -> brake)"}]
        _, results = formalize_corpus(corpus, cfg)
        assert results[0].outcome.tag == "FormatMismatch"
        assert results[0].outcome.detail.startswith("unparseable formula: ")
        assert results[0].refined == "G (front_gap_closing ->"
        with pytest.raises(ltl.ParseError) as raised:
            ltl.parse("G (front_gap_closing ->")
        assert results[0].outcome.detail == f"unparseable formula: {raised.value}"

    @pytest.mark.parametrize("prompt_mode", ["literal", "supply"])
    def test_each_distinct_formula_is_parsed_once_per_segment(self, tmp_path, monkeypatch,
                                                              prompt_mode):
        """The critic tree and the grounded-text parse share one memo."""
        parsed = []
        parse, run = ltl.parse, CriticTree.run

        def counting(text):
            parsed[-1].append(text)
            return parse(text)

        def starting_a_segment(self, text, initial):
            parsed.append([])
            return run(self, text, initial)
        monkeypatch.setattr(pipeline.ltl, "parse", counting)
        monkeypatch.setattr(CriticTree, "run", starting_a_segment)
        cfg = literal_config(tmp_path, prompt_mode=prompt_mode)
        _, results = formalize_corpus(highway_corpus(), cfg)
        assert len(parsed) == len(results)
        for texts, result in zip(parsed, results):
            assert len(texts) == len(set(texts))
            assert result.refined in texts

    def test_segment_results_align_with_outcomes(self, tmp_path):
        cfg = literal_config(tmp_path)
        store, results = formalize_corpus(highway_corpus(), cfg)
        assert [r.segment_id for r in results] == \
            [rec["id"] for rec in highway_corpus()]
        # every outcome's detail is empty, a reason, or the duplicated rule
        names = {rule.name for rule in store}
        for r in results:
            if r.outcome.tag == "Viable":
                assert r.outcome.detail == "" and r.outcome.rule.name in names
            elif r.outcome.tag == "DuplicatedContent":
                assert r.outcome.detail == r.outcome.existing and r.outcome.detail in names
            else:
                assert r.outcome.detail != ""


ARTIFACTS = ("rules.json", "outcomes.csv", "curve.csv", "js_curve.csv",
             "segments.json", "episodes.jsonl", "manifest.json")


class TestRunExperiment:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = literal_config(tmp_path)
        manifest = run_experiment(cfg)
        for name in ARTIFACTS:
            assert (cfg.out_dir / name).exists()
        on_disk = json.loads((cfg.out_dir / "manifest.json").read_text())
        assert on_disk == manifest
        assert sum(manifest["outcomes"].values()) == len(highway_corpus())
        # artifact hashes actually describe the files written
        for name, digest in manifest["artifacts"].items():
            assert pipeline._sha256(cfg.out_dir / name) == digest

    def test_agreement_improves_and_js_drops(self, tmp_path):
        cfg = literal_config(tmp_path)
        run_experiment(cfg)
        rows = (cfg.out_dir / "curve.csv").read_text().strip().splitlines()[1:]
        agreements = [float(r.split(",")[1]) for r in rows]
        assert agreements[-1] > agreements[0]
        js_rows = (cfg.out_dir / "js_curve.csv").read_text().strip().splitlines()[1:]
        js = [float(r.split(",")[1]) for r in js_rows]
        assert js[-1] < js[0]

    def test_repeat_run_bit_identical(self, tmp_path):
        cfg = literal_config(tmp_path)
        run_experiment(cfg)
        first = (cfg.out_dir / "manifest.json").read_bytes()
        run_experiment(load_config(tmp_path / "config_literal.json"))
        assert (cfg.out_dir / "manifest.json").read_bytes() == first

    # sha256 of the fixture's artifacts. The first three were recorded when
    # every decide still scanned the whole rule list; a change to the order
    # of random draws, or to what a draw selects, moves them. The last three
    # were recorded when episodes.jsonl was written a json.dumps per step.
    GOLDEN = {
        "literal": {
            "rules.json": "4372848edf5d5d2dd47939f6af87c21a164343da69277fd9f6c6b90cff3c46c2",
            "curve.csv": "dd2c9c3ea53a78269a4c2841f9514dcc6e9a0d1996abcc7e1785ab0cb013fc0b",
            "js_curve.csv": "2ba5dbff8ead33838cbc203acd2dcd90767451b5dbbe5ab2c709dfe53c13bec6",
            "episodes.jsonl": "47f03834356cdcadee5d4a43642b3c09c889e58169a12b135bb0d541bf0893ac",
            "segments.json": "aa593bc83a7029dd16b5cb34e06a482fda3c190f22d8eeb83361b7797d69be3e",
            "outcomes.csv": "693bd5c2c67cea4ef457133884ba7a90794ed29e1c7b1f69f524bd894e18ccf1",
        },
        "supply": {
            "rules.json": "689acf5112ea3ef2adeb156c38d433a711227b24fd54774e16a8e1a287115d80",
            "curve.csv": "c670c3029f36390faa1ee21ac254ebb30cc69ed993e80388051a6b42f36704ee",
            "js_curve.csv": "79c781d91cecb63977cb129d78d63e4f7ac32ce4a2f67bc1ae1447a2f7b6f465",
            "episodes.jsonl": "47f03834356cdcadee5d4a43642b3c09c889e58169a12b135bb0d541bf0893ac",
            "segments.json": "7cd4a4d55b10ea1d4b4d8441a8fbf615c87eca2ad6e08f4e7a59ff178aa828b7",
            "outcomes.csv": "693bd5c2c67cea4ef457133884ba7a90794ed29e1c7b1f69f524bd894e18ccf1",
        },
    }

    @pytest.mark.parametrize("mode", sorted(GOLDEN))
    def test_fixture_artifacts_match_recorded_digests(self, tmp_path, mode):
        cfg = load_config(write_pipeline_config(tmp_path, prompt_mode=mode))
        run_experiment(cfg)
        assert {name: pipeline._sha256(cfg.out_dir / name) for name in self.GOLDEN[mode]} \
            == self.GOLDEN[mode]

    # sha256 of the training draws on the fixture: the names of the rules
    # that filled each cycle's two slots (null for an empty slot), in order,
    # recorded when `decide` returned the action pair and its firings
    DRAWS = {"literal": "0345acab8021617073be9d2f76ac9c397c530a12e3da6c825f2e7151bf94a7b7",
             "supply": "497b380a36a70a40020325c81e24c040f15e12d2c69d97717564476bbef43ff5"}

    @pytest.mark.parametrize("mode", sorted(DRAWS))
    def test_training_draws_match_recorded_digests(self, tmp_path, monkeypatch, mode):
        draws, decide = [], trainer.decide

        def recording_decide(candidates, rules, *args):
            fillers = decide(candidates, rules, *args)
            draws.append([None if pos is None else rules.rules[pos].name for pos in fillers])
            return fillers
        monkeypatch.setattr(trainer, "decide", recording_decide)
        run_experiment(load_config(write_pipeline_config(tmp_path, prompt_mode=mode)))
        assert len(draws) == 800 * 30  # steps x epochs
        assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == self.DRAWS[mode]

    def test_second_run_matches_from_a_cold_cache(self, tmp_path, monkeypatch):
        # every RuleSet, and so its cache, ends with its run
        matched = []
        scan = engine.match

        def counting_match(state, rules):
            matched.append(state.features)
            return scan(state, rules)
        monkeypatch.setattr(engine, "match", counting_match)
        cfg = literal_config(tmp_path, epochs=6)
        run_experiment(cfg)
        first, first_matches = (cfg.out_dir / "manifest.json").read_bytes(), list(matched)
        run_experiment(cfg)
        assert (cfg.out_dir / "manifest.json").read_bytes() == first
        assert first_matches and matched == first_matches * 2

    def test_agreement_reuses_the_trained_rule_set(self, tmp_path, monkeypatch):
        # every state that agreement visits was matched, and cached, in training
        evaluations, matched = [], []
        scan, evaluate = engine.match, trainer.evaluate_agreement

        def counting_match(state, rules):
            matched.append(len(evaluations))
            return scan(state, rules)

        def recording_evaluate(*args):
            evaluations.append(args[0])
            return evaluate(*args)
        monkeypatch.setattr(engine, "match", counting_match)
        monkeypatch.setattr(trainer, "evaluate_agreement", recording_evaluate)
        run_experiment(literal_config(tmp_path, epochs=2))
        assert len(evaluations) == 1 and evaluations[0].rules
        assert matched and 1 not in matched

    def test_manifest_independent_of_string_hash_seed(self, tmp_path):
        # str hashing, and so set iteration order, differs per process
        script = ("import sys; from pathlib import Path; "
                  "from conftest import write_pipeline_config; "
                  "from cogrules.pipeline import load_config, run_experiment; "
                  "run_experiment(load_config(write_pipeline_config(Path(sys.argv[1]))))")
        search_path = os.pathsep.join([str(Path(cogrules.__file__).parents[1]),
                                       str(Path(__file__).parent)])
        manifests = []
        for hash_seed in ("1", "2"):
            base = tmp_path / f"hashseed{hash_seed}"
            base.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=search_path)
            subprocess.run([sys.executable, "-c", script, str(base)], env=env,
                           check=True, timeout=300)
            manifests.append((base / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_supply_js_at_least_literal(self, tmp_path):
        lit = literal_config(tmp_path, out_dir="out_lit")
        sup = load_config(write_pipeline_config(tmp_path, prompt_mode="supply",
                                                out_dir="out_sup"))
        m_lit = run_experiment(lit)
        m_sup = run_experiment(sup)
        assert m_sup["final_js"] >= m_lit["final_js"]


class TestReplayTranscripts:
    def test_record_then_replay_identical(self, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        rec_cfg = load_config(write_pipeline_config(
            tmp_path, record_path=str(transcript), out_dir="out_rec"))
        recorded = run_experiment(rec_cfg)
        assert transcript.exists() and transcript.stat().st_size > 0

        replay_dir = tmp_path / "replay"
        replay_dir.mkdir()
        rep_cfg = load_config(write_pipeline_config(
            replay_dir, backends="replay", transcript_path=str(transcript),
            out_dir="out_rep"))
        replayed = run_experiment(rep_cfg)
        # the model-facing results agree; only config hashes may differ
        assert replayed["outcomes"] == recorded["outcomes"]
        assert replayed["final_js"] == recorded["final_js"]
        assert replayed["artifacts"]["rules.json"] == \
            recorded["artifacts"]["rules.json"]

    def test_replay_runs_reproduce_bit_identical_manifests(self, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        run_experiment(load_config(write_pipeline_config(
            tmp_path, record_path=str(transcript), out_dir="out_rec")))
        replay_dir = tmp_path / "replay"
        replay_dir.mkdir()
        path = write_pipeline_config(replay_dir, backends="replay",
                                     transcript_path=str(transcript))
        run_experiment(load_config(path))
        first = (replay_dir / "out" / "manifest.json").read_bytes()
        run_experiment(load_config(path))
        assert (replay_dir / "out" / "manifest.json").read_bytes() == first

    def test_each_run_reads_its_transcript_once(self, tmp_path, monkeypatch):
        transcript = tmp_path / "transcript.jsonl"
        run_experiment(load_config(write_pipeline_config(
            tmp_path, record_path=str(transcript), out_dir="out_rec")))
        replay_dir = tmp_path / "replay"
        replay_dir.mkdir()
        cfg = load_config(write_pipeline_config(replay_dir, backends="replay",
                                                transcript_path=str(transcript)))
        reads = []
        path_open = Path.open

        def counting_open(self, *a, **k):
            if self.resolve() == transcript.resolve():
                reads.append(self)
            return path_open(self, *a, **k)
        monkeypatch.setattr(Path, "open", counting_open)
        run_experiment(cfg)
        assert len(reads) == 1
        run_experiment(cfg)  # a second run on the same config reads it again
        assert len(reads) == 2


def checkpointed_run(base, epochs, checkpoints):
    """Runs the fixture in `base` with the given epochs and JS checkpoints."""
    path = write_pipeline_config(base, epochs=epochs)
    raw = json.loads(path.read_text())
    raw["eval"]["checkpoints"] = checkpoints
    path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    cfg = load_config(path)
    manifest = run_experiment(cfg)
    return cfg.out_dir, manifest


def csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


class TestCheckpointsOnlyObserve:
    @pytest.mark.parametrize("epochs,checkpoints",
                             [(7, 5), (3, 5), (1, 5), (6, 1), (6, 3), (6, 6)])
    def test_configured_epochs_are_trained(self, tmp_path, epochs, checkpoints):
        out, _ = checkpointed_run(tmp_path, epochs, checkpoints)
        assert [int(r[0]) for r in csv_rows(out / "curve.csv")] == list(range(epochs))
        js_epochs = [int(r[0]) for r in csv_rows(out / "js_curve.csv")]
        assert js_epochs[0] == 0 and js_epochs[-1] == epochs
        assert len(js_epochs) == 1 + min(epochs, checkpoints)

    def test_checkpoint_count_does_not_change_the_run(self, tmp_path):
        runs = []
        for checkpoints in (1, 3, 6):
            base = tmp_path / f"ck{checkpoints}"
            base.mkdir()
            out, manifest = checkpointed_run(base, 6, checkpoints)
            runs.append(((out / "rules.json").read_bytes(), (out / "curve.csv").read_bytes(),
                         manifest["final_js"], dict(csv_rows(out / "js_curve.csv"))))
        for rules, curve, final_js, js in runs[1:]:
            assert (rules, curve, final_js) == runs[0][:3]
            # a JS row is the same at its epoch whatever the checkpoint count
            assert all(runs[-1][3][e] == v for e, v in js.items())

    def test_same_config_object_twice_is_bit_identical(self, tmp_path):
        cfg = literal_config(tmp_path, epochs=6)
        run_experiment(cfg)
        first = (cfg.out_dir / "manifest.json").read_bytes()
        run_experiment(cfg)
        assert (cfg.out_dir / "manifest.json").read_bytes() == first


class TestNoViableRule:
    """A run whose corpus yields no rule takes the path of every other run."""

    @pytest.mark.parametrize("corpus", [None, [{"text": "Eventually brake.", "initial": "F brake"},
                                               {"text": "Just go.", "initial": "G (speed_low"}]],
                             ids=["no_corpus", "no_viable_record"])
    def test_configured_epochs_are_trained_and_js_reported(self, tmp_path, corpus):
        path = write_pipeline_config(tmp_path, epochs=6)
        raw = json.loads(path.read_text())
        if corpus is None:
            del raw["corpus"]
        else:
            (tmp_path / "corpus.json").write_text(json.dumps(corpus))
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        manifest = run_experiment(cfg)
        out = cfg.out_dir
        assert json.loads((out / "rules.json").read_text()) == []
        assert manifest["outcomes"]["Viable"] == 0
        assert [int(r[0]) for r in csv_rows(out / "curve.csv")] == list(range(6))
        assert [int(r[0]) for r in csv_rows(out / "js_curve.csv")] == [0, 2, 4, 6]
        assert isinstance(manifest["final_js"], float) and 0.0 <= manifest["final_js"] <= 1.0
