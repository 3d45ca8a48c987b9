import json
import math

import pytest

from cogrules import gateway, scenarios, trainer
from cogrules.cli import main
from conftest import bundled_corpus, write_pipeline_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_all_inputs(base, scenario=False) -> dict:
    """The fixture config, reading its KB and episodes from files too, and
    those input files, as JSON values keyed by file name ("config" for the
    config, a list of lines for the episodes). With `scenario`, the config
    and corpus only: the config's scenario section generates the episodes."""
    raw = json.loads(write_pipeline_config(base, epochs=3).read_text())
    corpus = json.loads((base / "corpus.json").read_text())
    if scenario:
        return {"config": raw, "corpus.json": corpus}
    spec = scenarios.ScenarioSpec(**raw.pop("scenario"))
    del raw["n_episodes"]  # counts generated episodes only
    raw.update(kb="kb.json", episodes="episodes.jsonl")
    episodes = scenarios.generate(spec, scenarios.default_policy(spec.archetype), 3)
    trainer.episodes_to_jsonl(episodes, base / "episodes.jsonl")
    return {"config": raw, "corpus.json": corpus,
            "episodes.jsonl": [json.loads(line) for line in
                               (base / "episodes.jsonl").read_text().splitlines()],
            "kb.json": scenarios.scenario_kb(spec.archetype).to_json()}


def write_inputs(base, inputs: dict):
    """Writes `run_all_inputs`' values to their files; returns the config's path."""
    for name, value in inputs.items():
        text = ("".join(json.dumps(line) + "\n" for line in value)
                if name.endswith(".jsonl") else json.dumps(value))
        (base / ("config.json" if name == "config" else name)).write_text(text)
    return base / "config.json"


def nested(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def gen_data(base, capsys):
    """gen-data's KB and two episodes in `base`/data."""
    run_cli(capsys, "gen-data", "--archetype", "highway_cut_in", "--episodes", "2",
            "--seed", "5", "--out", str(base / "data"))


def a_rule(**changes) -> dict:
    """A rules-file record that holds in `gen_data`'s KB, with `changes`."""
    return {"name": "r", "preconditions": [["front_gap_closing", "=", True]],
            "effects": {"longitudinal": "brake"}, "utility": 0.0, **changes}


def run_on_rules(base, capsys, command, rules):
    """Runs `command` (eval, train or compile) on a rules file holding `rules`,
    with `gen_data`'s KB and episodes; train writes to `base`/trained."""
    data_dir = base / "data"
    path = base / "rules.json"
    path.write_text(json.dumps(rules))
    argv = {"eval": ["--episodes", str(data_dir / "episodes.jsonl")],
            "train": ["--kb", str(data_dir / "kb.json"), "--seed", "0",
                      "--episodes", str(data_dir / "episodes.jsonl"),
                      "--out", str(base / "trained")],
            "compile": ["--config", str(write_pipeline_config(base)),
                        "--formula", "G (front_gap_closing -> brake)"]}[command]
    return run_cli(capsys, command, "--rules", str(path), *argv)


def run_all_refuses(base, capsys, model_calls, inputs) -> str:
    """Runs run-all on `inputs` and checks that it stops with exit 1 and one
    error line, before any model call and before out/ exists. Returns the
    error line."""
    code, out, err = run_cli(capsys, "run-all", "--config", str(write_inputs(base, inputs)))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (base / "out").exists()
    assert model_calls == []
    return err


class TestParseClassify:
    def test_parse_emits_canonical_json(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "G(b & a -> brake)")
        assert code == 0
        payload = json.loads(out)
        assert payload["formula"] == "G (((b & a) -> brake))"
        assert payload["canonical"]["op"] == "globally"

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "parse", "G (a ->")
        assert code == 1
        assert "error:" in err

    def test_classify_convertible(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "G (a & ! b -> brake)")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "Convertible"
        assert ["b", False] in payload["antecedent"]

    def test_classify_inference_error(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "F brake")
        assert code == 0
        assert json.loads(out)["verdict"] == "InferenceError"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestTranslateCompile:
    def test_translate_returns_refined_formula(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path)
        code, out, _ = run_cli(
            capsys, "translate", "--config", str(cfg), "--seed", "3",
            "--text", "Brake when the gap closes.",
            "--initial", "G (front_gap_closing -> brake)")
        payload = json.loads(out)
        assert code == 0
        assert payload["formula"] == "G (front_gap_closing -> brake)"
        assert payload["trace"]["fallback"] is False

    def test_translate_replay_miss_exit_one(self, tmp_path, capsys):
        transcript = tmp_path / "empty.jsonl"
        transcript.write_text("")
        cfg = write_pipeline_config(tmp_path, backends="replay",
                                    transcript_path=str(transcript))
        code, out, err = run_cli(
            capsys, "translate", "--config", str(cfg), "--seed", "3",
            "--text", "Brake when the gap closes.",
            "--initial", "G (front_gap_closing -> brake)")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_translate_refuses_a_malformed_http_endpoint(self, tmp_path, capsys, monkeypatch):
        # refused when the config is read: no call is made, so none is retried
        monkeypatch.setattr(gateway.time, "sleep", pytest.fail)
        cfg = write_pipeline_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["critic_tree"]["revisor"] = {"kind": "http", "endpoint": "stub", "model": "m"}
        cfg.write_text(json.dumps(raw))
        code, out, err = run_cli(
            capsys, "translate", "--config", str(cfg), "--seed", "3",
            "--text", "Brake when the gap closes.",
            "--initial", "G (front_gap_closing -> brake)")
        assert (code, out) == (1, "")
        assert err == ("error: section 'config.critic_tree.revisor': "
                       "http backend needs a model and an http(s) URL: 'stub'\n")

    def test_compile_viable_writes_store(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path)
        out_dir = tmp_path / "compiled"
        code, out, _ = run_cli(
            capsys, "compile", "--config", str(cfg),
            "--formula", "G (front_gap_closing -> brake)",
            "--out", str(out_dir))
        payload = json.loads(out)
        assert code == 0
        assert payload["outcome"] == "Viable"
        store = json.loads((out_dir / "rules.json").read_text())
        assert len(store) == 1

    def test_compile_duplicate_against_existing_store(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path)
        out_dir = tmp_path / "compiled"
        run_cli(capsys, "compile", "--config", str(cfg),
                "--formula", "G (front_gap_closing -> brake)",
                "--out", str(out_dir))
        code, out, _ = run_cli(
            capsys, "compile", "--config", str(cfg),
            "--formula", "G (front_gap_closing -> brake)",
            "--rules", str(out_dir / "rules.json"))
        payload = json.loads(out)
        assert code == 0
        assert payload["outcome"] == "DuplicatedContent"
        assert payload["similarity"] == 1.0

    def test_compile_against_a_rule_with_values_of_two_types_under_one_comparator(
            self, tmp_path, capsys):
        rule = a_rule(preconditions=[["front_gap_closing", "=", True],
                                     ["front_gap_closing", "=", "x"]])
        code, out, err = run_on_rules(tmp_path, capsys, "compile", [rule])
        assert code == 0, err
        assert json.loads(out)["outcome"] == "Viable"

    def test_compile_inference_error(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path)
        code, out, _ = run_cli(capsys, "compile", "--config", str(cfg),
                               "--formula", "F brake")
        assert code == 0
        assert json.loads(out)["outcome"] == "InferenceError"


class TestDataTrainEval:
    def test_gen_train_eval_round_trip(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path)
        data_dir = tmp_path / "data"
        code, out, _ = run_cli(capsys, "gen-data", "--archetype",
                               "highway_cut_in", "--episodes", "20",
                               "--seed", "5", "--out", str(data_dir))
        assert code == 0
        assert json.loads(out)["episodes"] == 20
        assert (data_dir / "kb.json").exists()

        rules_dir = tmp_path / "compiled"
        run_cli(capsys, "compile", "--config", str(cfg),
                "--formula", "G (front_gap_closing -> brake)",
                "--out", str(rules_dir))
        train_dir = tmp_path / "trained"
        code, out, _ = run_cli(
            capsys, "train", "--kb", str(data_dir / "kb.json"),
            "--rules", str(rules_dir / "rules.json"),
            "--episodes", str(data_dir / "episodes.jsonl"),
            "--epochs", "5", "--seed", "2", "--out", str(train_dir))
        payload = json.loads(out)
        assert code == 0
        assert payload["epochs"] == 5
        assert (train_dir / "rules_trained.json").exists()
        trained = json.loads((train_dir / "rules_trained.json").read_text())
        assert trained[0]["utility"] > 0

        code, out, _ = run_cli(
            capsys, "eval", "--rules", str(train_dir / "rules_trained.json"),
            "--episodes", str(data_dir / "episodes.jsonl"))
        payload = json.loads(out)
        assert code == 0
        assert 0.0 <= payload["agreement"]["longitudinal"] <= 1.0
        assert 0.0 <= payload["mean_js"] <= 1.0

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_gen_data_refuses_fewer_than_one_episode(self, tmp_path, capsys, count):
        # an episodes file without a step is refused by every command that reads it
        code, out, err = run_cli(capsys, "gen-data", "--archetype", "highway_cut_in",
                                 "--episodes", count, "--seed", "5",
                                 "--out", str(tmp_path / "data"))
        assert code == 1
        assert out == ""
        assert err == "error: n_episodes must be >= 1\n"
        assert not (tmp_path / "data").exists()

    def test_train_rejects_reference_action_outside_the_kb(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run_cli(capsys, "gen-data", "--archetype", "highway_cut_in", "--episodes", "2",
                "--seed", "5", "--out", str(data_dir))
        episodes = data_dir / "episodes.jsonl"
        first, *rest = episodes.read_text().splitlines()
        rec = json.loads(first)
        rec["reference"]["longitudinal"] = "teleport"
        episodes.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        rules_dir = tmp_path / "compiled"
        run_cli(capsys, "compile", "--config", str(write_pipeline_config(tmp_path)),
                "--formula", "G (front_gap_closing -> brake)", "--out", str(rules_dir))
        code, out, err = run_cli(
            capsys, "train", "--kb", str(data_dir / "kb.json"),
            "--rules", str(rules_dir / "rules.json"), "--episodes", str(episodes),
            "--epochs", "1", "--seed", "0", "--out", str(tmp_path / "trained"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "'teleport'" in err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("preconditions,effects,named", [
        ([["nope", "=", True]], {"longitudinal": "brake"}, "'nope'"),
        ([["front_gap_closing", "=", True]], {"longitudinal": "fly"}, "'fly'")],
        ids=["unknown-feature", "unknown-action"])
    def test_train_rejects_a_rule_outside_the_kb(self, tmp_path, capsys,
                                                 preconditions, effects, named):
        gen_data(tmp_path, capsys)
        code, out, err = run_on_rules(tmp_path, capsys, "train",
                                      [a_rule(preconditions=preconditions, effects=effects)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("vocabulary", ["longitudinal_actions", "lateral_actions"])
    def test_a_kb_action_may_not_be_named_pass(self, tmp_path, capsys, vocabulary):
        # a rules file spells an empty effect slot "pass"
        gen_data(tmp_path, capsys)
        kb_path = tmp_path / "data" / "kb.json"
        kb = json.loads(kb_path.read_text())
        kb[vocabulary].append("pass")
        kb_path.write_text(json.dumps(kb))
        code, out, err = run_on_rules(tmp_path, capsys, "train", [a_rule()])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "'pass'" in err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "compile"])
    def test_rules_file_with_an_unknown_key_exit_one(self, tmp_path, capsys, command):
        gen_data(tmp_path, capsys)
        rule = a_rule()
        for where, obj in (("'rule.effects'", rule["effects"]), ("'rule'", rule)):
            obj["sideways"] = "left"
            code, out, err = run_on_rules(tmp_path, capsys, command, [rule])
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and where in err and "'sideways'" in err
            del obj["sideways"]
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("preconditions", [["abc"], [["front_gap_closing", True]], "abc",
                                               [["front_gap_closing", "=", True, 1]]],
                             ids=["string", "pair", "not-a-list", "four-items"])
    def test_rules_file_with_a_precondition_that_is_not_a_triple_exit_one(
            self, tmp_path, capsys, command, preconditions):
        gen_data(tmp_path, capsys)
        code, out, err = run_on_rules(tmp_path, capsys, command,
                                      [a_rule(preconditions=preconditions)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "'rule'" in err and "'preconditions'" in err, err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "compile"])
    def test_a_bad_rule_is_named_by_file_and_index(self, tmp_path, capsys, command):
        gen_data(tmp_path, capsys)
        rules = [a_rule(name="first"), a_rule(name="second", effects={"sideways": 1}),
                 a_rule(name="third")]
        code, out, err = run_on_rules(tmp_path, capsys, command, rules)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'rules.json'} rule 2: "), err
        assert "'rule.effects'" in err and "'sideways'" in err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "compile"])
    @pytest.mark.parametrize("changes,named", [
        ({"utility": "x"}, "section 'rule': key 'utility': 'x' is not a number"),
        ({"utility": True}, "section 'rule': key 'utility': True is not a number"),
        ({"utility": [1.0]}, "section 'rule': key 'utility': [1.0] is not a number"),
        ({"utility": math.nan}, "section 'rule': key 'utility': nan is not a finite number"),
        ({"utility": -math.inf}, "section 'rule': key 'utility': -inf is not a finite number"),
        ({"name": 5}, "section 'rule': key 'name': 5 is not a string"),
        ({"effects": {"longitudinal": 5}},
         "section 'rule.effects': key 'longitudinal': 5 is not a string"),
        ({"effects": {"longitudinal": "brake", "lateral": ["keep_lane"]}},
         "section 'rule.effects': key 'lateral': ['keep_lane'] is not a string"),
        ({"preconditions": [["front_gap_closing", "<", True]]},
         "section 'rule': comparator '<' is not"),
        ({"preconditions": [["front_gap_closing", "approximately", True]]},
         "section 'rule': comparator 'approximately' is not"),
        ({"preconditions": [["front_gap_closing", "=", [1]]]},
         "section 'rule': key 'preconditions': [1] is not a boolean or an integer or a string"),
        ({"preconditions": [["front_gap_closing", "=", 0.5]]},
         "section 'rule': key 'preconditions': 0.5 is not a boolean or an integer or a string"),
        ({"preconditions": [[5, "=", True]]},
         "section 'rule': key 'preconditions': 5 is not a string")],
        ids=["utility-string", "utility-bool", "utility-list", "utility-nan",
             "utility-minus-infinity", "name-number", "action-number", "action-list",
             "comparator-less-than", "comparator-word", "value-list", "value-float",
             "feature-number"])
    def test_a_rule_value_of_the_wrong_type_exit_one(self, tmp_path, capsys, command,
                                                     changes, named):
        gen_data(tmp_path, capsys)
        code, out, err = run_on_rules(tmp_path, capsys, command, [a_rule(**changes)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'rules.json'} rule 1: {named}"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("key,value,named", [
        ("state", 5, "'state'"), ("state", {"front_gap_closing": [1]}, "'state'"),
        ("state", {"front_gap_closing": 0.5}, "'state'"), ("state", [], "'state'"),
        ("t", "x", "'t'"), ("t", 1.5, "'t'"), ("t", True, "'t'"), ("episode", "a", "'episode'")],
        ids=["state-number", "state-list-value", "state-float-value", "state-list",
             "t-string", "t-float", "t-bool", "episode-string"])
    def test_eval_refuses_an_episode_step_of_the_wrong_shape(self, tmp_path, capsys,
                                                             key, value, named):
        gen_data(tmp_path, capsys)
        episodes = tmp_path / "data" / "episodes.jsonl"
        lines = episodes.read_text().splitlines()
        rec = json.loads(lines[2])
        rec[key] = value
        lines[2] = json.dumps(rec)
        episodes.write_text("\n".join(lines) + "\n")
        code, out, err = run_on_rules(tmp_path, capsys, "eval", [a_rule()])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: section {str(episodes) + ' line 3'!r}: key {named}"), err
        assert err.count("\n") == 1, err

    def test_train_names_the_episode_and_step_of_a_state_outside_the_kb(self, tmp_path, capsys):
        run_cli(capsys, "gen-data", "--archetype", "highway_cut_in", "--episodes", "5",
                "--seed", "5", "--out", str(tmp_path / "data"))
        episodes = tmp_path / "data" / "episodes.jsonl"
        records = [json.loads(line) for line in episodes.read_text().splitlines()]
        bad = next(r for r in records if r["episode"] == 3 and r["t"] == 8)
        bad["state"]["front_gap_closing"] = "maybe"
        episodes.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out, err = run_on_rules(tmp_path, capsys, "train", [a_rule()])
        assert code == 1
        assert out == ""
        assert err == (f"error: {episodes} episode 3 (subject {bad['subject']!r}) step 8 (t=8): "
                       "state front_gap_closing='maybe' is not in the knowledge base\n")
        assert not (tmp_path / "trained").exists()

    def test_train_names_the_rule_outside_the_kb(self, tmp_path, capsys):
        gen_data(tmp_path, capsys)
        rules = [a_rule(name="first"), a_rule(name="second", effects={"longitudinal": "fly"}),
                 a_rule(name="third")]
        code, out, err = run_on_rules(tmp_path, capsys, "train", rules)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'rules.json'} rule 2 ('second'): "), err
        assert "'fly'" in err
        assert not (tmp_path / "trained").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "compile"])
    @pytest.mark.parametrize("content", [5, {"name": "r"}, "rules"], ids=["number", "object", "string"])
    def test_a_rules_file_that_is_not_a_list_exit_one(self, tmp_path, capsys, command, content):
        gen_data(tmp_path, capsys)
        code, out, err = run_on_rules(tmp_path, capsys, command, content)
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path / 'rules.json'}: not a JSON list of rules\n"
        assert not (tmp_path / "trained").exists()

    def test_eval_on_an_empty_rules_file_reports_mean_js(self, tmp_path, capsys):
        gen_data(tmp_path, capsys)
        code, out, _ = run_on_rules(tmp_path, capsys, "eval", [])
        payload = json.loads(out)
        assert code == 0
        assert payload["agreement"] == {"lateral": 0.0, "longitudinal": 0.0}
        assert 0.0 < payload["mean_js"] <= 1.0

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "eval", "--rules",
                               str(tmp_path / "nope.json"), "--episodes",
                               str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert "error:" in err


    @pytest.mark.parametrize("command", ["eval", "gen-data"])
    def test_an_unreadable_or_unwritable_path_is_an_input_error(self, tmp_path, capsys, command):
        # eval reads a directory as its rules; gen-data writes under a regular file
        gen_data(tmp_path, capsys)
        argv = {"eval": ["eval", "--rules", str(tmp_path / "data"),
                         "--episodes", str(tmp_path / "data" / "episodes.jsonl")],
                "gen-data": ["gen-data", "--archetype", "highway_cut_in", "--seed", "1",
                             "--out", str(tmp_path / "data" / "kb.json" / "out")]}[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestRunAll:
    def test_run_all_reports_manifest(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path, epochs=9)
        code, out, _ = run_cli(capsys, "run-all", "--config", str(cfg))
        payload = json.loads(out)
        assert code == 0
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert payload == on_disk
        assert sum(payload["outcomes"].values()) == 6

    # each bundled corpus through run-all with its archetype's KB and scenario,
    # 70 episodes and 30 epochs: the outcome counts (Viable, FormatMismatch,
    # DuplicatedContent, InferenceError), per-slot agreement and final JS
    # recorded when `decide` returned the action pair and its firings
    BUNDLED = {
        ("highway_cut_in", "literal"):
            ((4, 0, 1, 1), (0.21105675661460246, 1.0), 0.3718882985243926),
        ("highway_cut_in", "supply"):
            ((4, 0, 1, 1), (0.10571428571428572, 1.0), 0.6666666666666666),
        ("signalized_intersection", "literal"):
            ((4, 0, 0, 0), (0.9817747120474668, 0.4785714285714286), 0.75),
        ("signalized_intersection", "supply"):
            ((4, 0, 0, 0), (0.9817747120474668, 0.4785714285714286), 0.75),
        ("lane_change_interference", "literal"):
            ((2, 0, 0, 1), (0.23357142857142857, 0.6185714285714285), 1.0),
        ("lane_change_interference", "supply"):
            ((2, 0, 0, 1), (0.23357142857142857, 0.6185714285714285), 1.0)}

    @pytest.mark.parametrize("archetype,mode", sorted(BUNDLED))
    def test_run_all_on_each_bundled_scenario(self, tmp_path, capsys, archetype, mode):
        (tmp_path / "corpus.json").write_text(json.dumps(bundled_corpus(archetype)))
        path = write_pipeline_config(tmp_path, prompt_mode=mode)
        raw = json.loads(path.read_text())
        raw.update(kb=archetype, n_episodes=70)
        raw["scenario"]["archetype"] = archetype
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "run-all", "--config", str(path))
        assert code == 0, err
        manifest = json.loads(out)
        outcomes, agreement, final_js = self.BUNDLED[archetype, mode]
        counts = manifest["outcomes"]
        assert tuple(counts[k] for k in ("Viable", "FormatMismatch", "DuplicatedContent",
                                         "InferenceError")) == outcomes
        assert (manifest["agreement"]["longitudinal"], manifest["agreement"]["lateral"]) \
            == pytest.approx(agreement, rel=0, abs=1e-12)
        assert manifest["final_js"] == pytest.approx(final_js, rel=0, abs=1e-12)

    def test_run_all_repeat_identical_stdout(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path, epochs=9)
        _, first, _ = run_cli(capsys, "run-all", "--config", str(cfg))
        _, second, _ = run_cli(capsys, "run-all", "--config", str(cfg))
        assert first == second

    def test_run_all_manifest_does_not_depend_on_out(self, tmp_path, capsys):
        # --out only says where the artifacts go; it is not part of the config hash
        cfg = write_pipeline_config(tmp_path, epochs=9)
        manifests = []
        for out in ("o1", "o2"):
            code, _, err = run_cli(capsys, "run-all", "--config", str(cfg),
                                   "--out", str(tmp_path / out))
            assert code == 0, err
            manifests.append((tmp_path / out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_run_all_writes_only_inside_out_dir(self, tmp_path, capsys):
        cfg = write_pipeline_config(tmp_path, epochs=9)
        before = {p for p in tmp_path.iterdir()}
        run_cli(capsys, "run-all", "--config", str(cfg))
        after = {p for p in tmp_path.iterdir()}
        assert after - before == {tmp_path / "out"}

    def test_replay_run_all_from_another_directory(self, tmp_path, capsys, monkeypatch):
        # transcript and record paths resolve against the config's directory,
        # like corpus, episodes and kb, not against the working directory
        config_dir = tmp_path / "config"
        config_dir.mkdir()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        record = write_pipeline_config(config_dir, record_path="transcript.jsonl")
        assert run_cli(capsys, "run-all", "--config", str(record))[0] == 0
        assert (config_dir / "transcript.jsonl").exists()
        replay = write_pipeline_config(config_dir, backends="replay",
                                       transcript_path="transcript.jsonl", out_dir="out_replay")
        code, _, err = run_cli(capsys, "run-all", "--config", str(replay))
        assert code == 0, err
        manifest = config_dir / "out_replay" / "manifest.json"
        from_elsewhere = manifest.read_bytes()
        monkeypatch.chdir(config_dir)
        assert run_cli(capsys, "run-all", "--config", replay.name)[0] == 0
        assert manifest.read_bytes() == from_elsewhere
        assert list(elsewhere.iterdir()) == []

    def test_replay_transcript_record_without_a_response_exit_one(self, tmp_path, capsys):
        record = write_pipeline_config(tmp_path, record_path="transcript.jsonl")
        assert run_cli(capsys, "run-all", "--config", str(record))[0] == 0
        transcript = tmp_path / "transcript.jsonl"
        first, *rest = transcript.read_text().splitlines()
        rec = json.loads(first)
        del rec["response"]
        transcript.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        replay = write_pipeline_config(tmp_path, backends="replay",
                                       transcript_path="transcript.jsonl", out_dir="out_replay")
        code, out, err = run_cli(capsys, "run-all", "--config", str(replay))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"{transcript} line 1" in err and "'response'" in err
        assert not (tmp_path / "out_replay").exists()

    @pytest.mark.parametrize("key,value", [("response", 5), ("response", ["x"]),
                                           ("request_hash", 7)],
                             ids=["response-number", "response-list", "hash-number"])
    def test_replay_transcript_value_that_is_not_a_string_exit_one(self, tmp_path, capsys,
                                                                   key, value):
        record = write_pipeline_config(tmp_path, record_path="transcript.jsonl")
        assert run_cli(capsys, "run-all", "--config", str(record))[0] == 0
        transcript = tmp_path / "transcript.jsonl"
        first, *rest = transcript.read_text().splitlines()
        rec = json.loads(first)
        rec[key] = value
        transcript.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        replay = write_pipeline_config(tmp_path, backends="replay",
                                       transcript_path="transcript.jsonl", out_dir="out_replay")
        code, out, err = run_cli(capsys, "run-all", "--config", str(replay))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {transcript} line 1: ") and repr(key) in err, err
        assert not (tmp_path / "out_replay").exists()

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_replay_transcript_line_that_is_not_an_object_exit_one(self, tmp_path, capsys, line):
        record = write_pipeline_config(tmp_path, record_path="transcript.jsonl")
        assert run_cli(capsys, "run-all", "--config", str(record))[0] == 0
        transcript = tmp_path / "transcript.jsonl"
        _, *rest = transcript.read_text().splitlines()
        transcript.write_text("\n".join([line, *rest]) + "\n")
        replay = write_pipeline_config(tmp_path, backends="replay",
                                       transcript_path="transcript.jsonl", out_dir="out_replay")
        code, out, err = run_cli(capsys, "run-all", "--config", str(replay))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"{transcript} line 1" in err, err
        assert not (tmp_path / "out_replay").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("eval", "top_k", 0), ("eval", "top_k", -1), ("eval", "checkpoints", 0),
        ("train", "epochs", -1), (None, "n_episodes", 0), (None, "n_episodes", -3)])
    def test_run_all_rejects_a_value_it_cannot_honour(self, tmp_path, capsys,
                                                      section, key, value):
        path = write_pipeline_config(tmp_path)
        raw = json.loads(path.read_text())
        (raw[section] if section else raw)[key] = value
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "run-all", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path,section", [
        pytest.param(("config", "train"), "config.train", id="path0-train"),
        pytest.param(("config", "scenario"), "config.scenario", id="path1-scenario"),
        pytest.param(("config", "grounding"), "config.grounding", id="path2-grounding"),
        pytest.param(("config", "critic_tree", "revisor"), "config.critic_tree.revisor",
                     id="path3-critic_tree.revisor"),
        (("config",), "config"),
        pytest.param(("config", "critic_tree"), "config.critic_tree", id="path5-critic_tree"),
        pytest.param(("config", "critic_tree", "critics"), "config.critic_tree.critics",
                     id="path6-critic_tree.critics"),
        pytest.param(("config", "critic_tree", "critics", "members", 0, 0),
                     "config.critic_tree.critics.members", id="path7-critic_tree.critics.members"),
        pytest.param(("config", "initial_backend"), "config.initial_backend",
                     id="path8-initial_backend"),
        pytest.param(("config", "eval"), "config.eval", id="path9-eval"),
        pytest.param(("corpus.json", 0), "{dir}/corpus.json record 0", id="corpus-record"),
        pytest.param(("episodes.jsonl", 3), "{dir}/episodes.jsonl line 4", id="episode-line"),
        pytest.param(("episodes.jsonl", 3, "reference"), "{dir}/episodes.jsonl line 4.reference",
                     id="episode-reference"),
        pytest.param(("kb.json",), "{dir}/kb.json", id="kb"),
        pytest.param(("kb.json", "features", "speed_band"), "{dir}/kb.json.features.speed_band",
                     id="kb-feature"),
        pytest.param(("kb.json", "groundings", "speed_low"), "{dir}/kb.json.groundings.speed_low",
                     id="kb-grounding")])
    def test_run_all_names_a_misspelled_config_key(self, tmp_path, capsys, model_calls,
                                                   path, section):
        inputs = run_all_inputs(tmp_path, scenario=path[:2] == ("config", "scenario"))
        inputs["config"]["initial_backend"] = {"kind": "scripted", "script": "fixture_revisor"}
        nested(inputs, path)["lerning_rate"] = 0.1
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert repr(section.format(dir=tmp_path)) in err and "'lerning_rate'" in err

    @pytest.mark.parametrize("path,key,section", [
        pytest.param(("config", "critic_tree"), "num_critics", "config.critic_tree",
                     id="path0-num_critics-critic_tree"),
        (("config",), "kb", "config"),
        pytest.param(("corpus.json", 2), "text", "{dir}/corpus.json record 2", id="corpus-record"),
        pytest.param(("episodes.jsonl", 0), "state", "{dir}/episodes.jsonl line 1",
                     id="episode-line"),
        pytest.param(("kb.json",), "features", "{dir}/kb.json", id="kb")])
    def test_run_all_names_a_missing_config_key(self, tmp_path, capsys, model_calls,
                                                path, key, section):
        inputs = run_all_inputs(tmp_path)
        del nested(inputs, path)[key]
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert repr(section.format(dir=tmp_path)) in err and repr(key) in err

    @pytest.mark.parametrize("path,value,names", [
        (("config", "n_episodes"), None, ("'config'", "'n_episodes'", "null")),
        (("config", "train", "epochs"), None, ("'config.train'", "'epochs'", "null")),
        (("config", "kb"), None, ("'config'", "'kb'", "null")),
        (("config", "critic_tree", "revisor"), None,
         ("'config.critic_tree'", "'revisor'", "null")),
        (("config", "grounding", "record_path"), None,
         ("'config.grounding'", "'record_path'", "null")),
        (("config", "train"), 5, ("'config.train'", "not a JSON object")),
        (("config", "train"), [], ("'config.train'", "not a JSON object")),
        (("config", "eval"), 5, ("'config.eval'", "not a JSON object")),
        (("config", "eval", "top_k"), None, ("'config.eval'", "'top_k'", "null")),
        (("config", "critic_tree", "critics", "members"), lambda ms: [ms[0][0]],
         ("'config.critic_tree.critics'", "'members'", "}} is not a list")),
        (("config", "critic_tree", "critics", "members"), lambda ms: [[ms[0][0]]],
         ("'config.critic_tree.critics'", "'members'", "}}] is not a list of 2 values")),
        (("corpus.json",), lambda records: {"highway_cut_in": records},
         ("{dir}/corpus.json", "not a JSON list")),
        (("corpus.json", 1), "I braked when the gap closed.",
         ("{dir}/corpus.json record 1'", "not a JSON object")),
        (("episodes.jsonl", 2, "t"), None, ("episodes.jsonl line 3'", "'t'", "null")),
        (("kb.json", "features", "speed_band", "values"), None,
         ("kb.json.features.speed_band'", "'values'", "null"))],
        ids=["n_episodes-null", "epochs-null", "kb-null", "revisor-null", "record_path-null",
             "train-number", "train-list", "eval-number", "top_k-null", "member-not-a-pair",
             "member-one-item", "corpus-object", "corpus-string-record", "episode-t-null",
             "kb-values-null"])
    def test_run_all_refuses_a_value_of_the_wrong_shape(self, tmp_path, capsys, model_calls,
                                                        path, value, names):
        inputs = run_all_inputs(tmp_path)
        *outer, last = path
        obj = nested(inputs, outer)
        obj[last] = value(obj[last]) if callable(value) else value
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert all(name.format(dir=tmp_path) in err for name in names), err

    @pytest.mark.parametrize("path,value,named", [
        (("config", "train", "epochs"), "3", "'config.train': key 'epochs': '3'"),
        (("config", "eval", "top_k"), "8", "'config.eval': key 'top_k': '8'"),
        (("config", "n_episodes"), 40.0, "'config': key 'n_episodes': 40.0"),
        (("config", "critic_tree", "critics", "members", 0, 1), "1.0",
         "'config.critic_tree.critics': key 'members': '1.0'"),
        (("config", "scenario", "noise_rate"), "0", "'config.scenario': key 'noise_rate': '0'"),
        (("config", "kb"), 5, "'config': key 'kb': 5"),
        (("config", "corpus"), 5, "'config': key 'corpus': 5"),
        (("config", "out_dir"), ["o"], "'config': key 'out_dir': ['o']"),
        (("config", "grounding", "record_path"), 7, "'config.grounding': key 'record_path': 7"),
        (("config", "train", "seed"), "7", "'config.train': key 'seed': '7'"),
        (("config", "critic_tree", "max_depth"), 1.5, "'config.critic_tree': key 'max_depth': 1.5"),
        (("config", "critic_tree", "num_critics"), True,
         "'config.critic_tree': key 'num_critics': True"),
        (("kb.json", "lateral_actions"), "keep_lane",
         "'{dir}/kb.json': key 'lateral_actions': 'keep_lane'"),
        (("kb.json", "features", "gap"), {"kind": "int", "low": "0", "high": 5},
         "'{dir}/kb.json.features.gap': key 'low': '0'"),
        (("corpus.json", 0, "text"), 5, "'{dir}/corpus.json record 0': key 'text': 5"),
        # json reads NaN and Infinity as floats, which no setting can honour
        (("config", "train", "sigma"), math.nan, "'config.train': key 'sigma': nan"),
        (("config", "train", "decay"), math.inf, "'config.train': key 'decay': inf"),
        (("config", "train", "initial_utility"), math.nan,
         "'config.train': key 'initial_utility': nan"),
        (("config", "train", "reward_positive"), math.nan,
         "'config.train': key 'reward_positive': nan"),
        (("config", "critic_tree", "critics", "members", 0, 1), math.nan,
         "'config.critic_tree.critics': key 'members': nan"),
        (("config", "critic_tree", "revisor", "temperature"), math.inf,
         "'config.critic_tree.revisor': key 'temperature': inf")],
        ids=["epochs-string", "top_k-string", "n_episodes-float", "probability-string",
             "noise_rate-string", "kb-number", "corpus-number", "out_dir-list",
             "record_path-number", "seed-string", "max_depth-float", "num_critics-bool",
             "kb-actions-string", "kb-low-string", "corpus-text-number", "sigma-nan",
             "decay-infinity", "initial_utility-nan", "reward_positive-nan", "probability-nan",
             "temperature-infinity"])
    def test_run_all_refuses_a_value_of_the_wrong_type(self, tmp_path, capsys, model_calls,
                                                       path, value, named):
        inputs = run_all_inputs(tmp_path, scenario=path[:2] == ("config", "scenario"))
        *outer, last = path
        nested(inputs, outer)[last] = value
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert f"error: section {named.format(dir=tmp_path)} is not " in err, err

    @pytest.mark.parametrize("path,value,section,refusal", [
        (("config", "critic_tree", "revisor"), {"kind": "http", "endpoint": "stub", "model": "m"},
         "config.critic_tree.revisor", "http backend needs a model and an http(s) URL: 'stub'"),
        (("config", "grounding"), {"kind": "http", "endpoint": "http://h/v1"},
         "config.grounding", "http backend needs a model and an http(s) URL: 'http://h/v1'"),
        (("config", "scenario", "trigger_low"), 12, "config.scenario",
         "trigger steps must satisfy 0 <= trigger_low <= trigger_high"),
        (("config", "eval", "top_k"), 0, "config.eval", "eval.top_k must be >= 1")],
        ids=["revisor-stub-endpoint", "grounding-no-model", "scenario-trigger", "eval-top_k"])
    def test_run_all_names_the_section_whose_class_refuses_a_value(
            self, tmp_path, capsys, model_calls, path, value, section, refusal):
        inputs = run_all_inputs(tmp_path, scenario=path[:2] == ("config", "scenario"))
        *outer, last = path
        nested(inputs, outer)[last] = value
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == f"error: section {section!r}: {refusal}\n", err

    @pytest.mark.parametrize("key,value,refusal", [
        ("scenario", {"archetype": "highway_cut_in"},
         "keys 'episodes' and 'scenario' may not both be set"),
        ("n_episodes", 70,  # its default, set: the file decides how many episodes there are
         "key 'n_episodes' counts generated episodes; it may not be set with 'episodes'")],
        ids=["scenario", "n_episodes"])
    def test_run_all_refuses_a_second_episode_source(self, tmp_path, capsys, model_calls,
                                                     key, value, refusal):
        inputs = run_all_inputs(tmp_path)
        inputs["config"][key] = value
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == f"error: section 'config': {refusal}\n", err

    def test_run_all_refuses_a_config_without_an_episode_source(self, tmp_path, capsys,
                                                               model_calls):
        inputs = run_all_inputs(tmp_path)
        del inputs["config"]["episodes"]
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == "error: config provides neither episodes nor a scenario\n", err

    @pytest.mark.parametrize("key", ["subject", "scenario"])
    def test_run_all_refuses_an_episode_relabelled_on_a_later_line(self, tmp_path, capsys,
                                                                    model_calls, key):
        inputs = run_all_inputs(tmp_path)
        first = inputs["episodes.jsonl"][0]
        assert inputs["episodes.jsonl"][5]["episode"] == first["episode"] == 0
        inputs["episodes.jsonl"][5][key] += "_other"
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == (f"error: {tmp_path / 'episodes.jsonl'} line 6: episode 0 is scenario "
                       f"{first['scenario']!r} and subject {first['subject']!r} on an "
                       "earlier line\n"), err

    @pytest.mark.parametrize("key", ["kb", "out_dir"])
    def test_run_all_refuses_an_empty_required_path(self, tmp_path, capsys, model_calls, key):
        inputs = run_all_inputs(tmp_path)
        inputs["config"][key] = ""
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == f"error: section 'config': key {key!r} may not be empty\n", err

    @pytest.mark.parametrize("slot,name", [
        ("lateral_actions", "keep-lane"), ("longitudinal_actions", "X"),
        ("groundings", "front gap")])
    def test_run_all_refuses_a_kb_name_that_no_formula_can_name(self, tmp_path, capsys,
                                                               model_calls, slot, name):
        inputs = run_all_inputs(tmp_path)
        kb = inputs["kb.json"]
        if slot == "groundings":
            kb[slot][name] = kb[slot].pop("front_gap_closing")
        else:
            kb[slot] = [*kb[slot], name]
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err.startswith(f"error: section {str(tmp_path / 'kb.json')!r}: "
                              f"{name!r} is not an atom name"), err

    @pytest.mark.parametrize("value,named", [
        (5, "'state'"), ({"front_gap_closing": [1]}, "'state'"), ("x", "'state'")],
        ids=["state-number", "state-list-value", "state-string"])
    def test_run_all_refuses_an_episode_state_of_the_wrong_shape(self, tmp_path, capsys,
                                                                 model_calls, value, named):
        inputs = run_all_inputs(tmp_path)
        inputs["episodes.jsonl"][2]["state"] = value
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert f"{tmp_path / 'episodes.jsonl'} line 3'" in err and named in err, err

    def test_run_all_names_the_episodes_file_of_a_state_outside_the_kb(self, tmp_path, capsys,
                                                                       model_calls):
        inputs = run_all_inputs(tmp_path)
        inputs["episodes.jsonl"][2]["state"]["front_gap_closing"] = "maybe"
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err.startswith(f"error: {tmp_path / 'episodes.jsonl'} episode 0 "), err
        assert "front_gap_closing='maybe' is not in the knowledge base" in err, err

    @pytest.mark.parametrize("name,line", [
        ("config.json", None), ("kb.json", None), ("corpus.json", None), ("rules.json", None),
        ("episodes.jsonl", 6), ("transcript.jsonl", 2)])
    def test_a_json_syntax_error_names_the_file_and_the_line(self, tmp_path, capsys, model_calls,
                                                             name, line):
        argv = ["run-all", "--config", str(write_inputs(tmp_path, run_all_inputs(tmp_path)))]
        if name == "transcript.jsonl":
            record = write_pipeline_config(tmp_path, record_path=name, out_dir="out_record")
            assert run_cli(capsys, "run-all", "--config", str(record))[0] == 0
            model_calls.clear()
            argv[-1] = str(write_pipeline_config(tmp_path, backends="replay", transcript_path=name))
        elif name == "rules.json":
            (tmp_path / name).write_text(json.dumps([a_rule()]))
            argv = ["eval", "--rules", str(tmp_path / name),
                    "--episodes", str(tmp_path / "episodes.jsonl")]
        path = tmp_path / name
        lines = path.read_text().splitlines(keepends=True) if line else [path.read_text()]
        cut = lines[(line or 1) - 1]
        lines[(line or 1) - 1] = cut[:len(cut) // 2] + "\n"
        path.write_text("".join(lines))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}{f' line {line}' if line else ''}: ") and \
            err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()
        assert model_calls == []

    def test_run_all_reads_the_kb_and_episode_files(self, tmp_path, capsys, model_calls):
        # the positive control for the refusals above: the same inputs, unedited, run
        code, _, err = run_cli(capsys, "run-all", "--config",
                               str(write_inputs(tmp_path, run_all_inputs(tmp_path))))
        assert code == 0, err
        assert model_calls and (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "episodes.jsonl").read_bytes() == \
            (tmp_path / "episodes.jsonl").read_bytes()

    def test_a_programming_error_is_not_an_error_line(self, tmp_path, capsys, monkeypatch):
        # the CLI turns only the failures it names into exit 1; a bug surfaces
        def broken(messages):
            return {}["missing"]
        monkeypatch.setitem(gateway.SCRIPT_REGISTRY, "fixture_grounding", broken)
        with pytest.raises(KeyError, match="missing"):
            main(["run-all", "--config", str(write_pipeline_config(tmp_path))])
        assert "error:" not in capsys.readouterr().err

    def test_run_all_seed_sets_the_training_seed_only(self, tmp_path, capsys):
        # --seed, like --out, leaves the config hash alone; the manifest records it
        cfg = write_pipeline_config(tmp_path, epochs=3)
        manifests = []
        for out, seed in (("plain", ()), ("seeded", ("--seed", "5"))):
            code, _, err = run_cli(capsys, "run-all", "--config", str(cfg),
                                   "--out", str(tmp_path / out), *seed)
            assert code == 0, err
            manifests.append(json.loads((tmp_path / out / "manifest.json").read_text()))
        assert manifests[0]["seed"] == 11
        assert manifests[1]["seed"] == 5
        assert manifests[1]["config_hash"] == manifests[0]["config_hash"]

    def test_run_all_ignores_unknown_eval_keys(self, tmp_path, capsys):
        # eval stays lenient: older configs still carry eval.samples
        config = write_pipeline_config(tmp_path, epochs=3)
        raw = json.loads(config.read_text())
        raw["eval"]["samples"] = 10
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "run-all", "--config", str(config))
        assert code == 0, err


class TestEmptyAndRepeatedInputs:
    """Inputs that used to pass the readers and fail, or be merged, only after
    model calls: each is refused before the first call and before out/ exists."""

    def test_run_all_refuses_a_corpus_record_with_empty_text(self, tmp_path, capsys,
                                                            model_calls):
        inputs = run_all_inputs(tmp_path)
        inputs["corpus.json"].append({"text": "", "initial": "G (a -> brake)"})
        n = len(inputs["corpus.json"]) - 1
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == (f"error: section '{tmp_path / 'corpus.json'} record {n}': "
                       "key 'text' may not be empty\n"), err

    @pytest.mark.parametrize("first_id", [0, "0", None], ids=["int", "string", "unlabelled"])
    def test_run_all_refuses_a_segment_id_that_repeats(self, tmp_path, capsys, model_calls,
                                                       first_id):
        # ids are compared as the strings they become; an unlabelled record 0 is "0"
        inputs = run_all_inputs(tmp_path)
        corpus = inputs["corpus.json"]
        corpus[0].pop("id")
        if first_id is not None:
            corpus[0]["id"] = first_id
        corpus.append({"id": "0", "text": "I braked.", "initial": "G (a -> brake)"})
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == (f"error: section '{tmp_path / 'corpus.json'} record {len(corpus) - 1}': "
                       "segment id '0' is also record 0's\n"), err

    def test_run_all_refuses_an_episodes_file_without_a_step(self, tmp_path, capsys,
                                                            model_calls):
        inputs = run_all_inputs(tmp_path)
        inputs["episodes.jsonl"] = []
        err = run_all_refuses(tmp_path, capsys, model_calls, inputs)
        assert err == f"error: {tmp_path / 'episodes.jsonl'}: holds no episode step\n", err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_train_and_eval_refuse_an_episodes_file_without_a_step(self, tmp_path, capsys,
                                                                  command):
        gen_data(tmp_path, capsys)
        episodes = tmp_path / "data" / "episodes.jsonl"
        episodes.write_text("\n")
        code, out, err = run_on_rules(tmp_path, capsys, command, [a_rule()])
        assert (code, out) == (1, "")
        assert err == f"error: {episodes}: holds no episode step\n", err
        assert not (tmp_path / "trained").exists()

    def test_run_all_refuses_a_replay_record_with_an_empty_response(self, tmp_path, capsys,
                                                                   monkeypatch):
        record = write_pipeline_config(tmp_path, record_path="transcript.jsonl")
        assert run_cli(capsys, "run-all", "--config", str(record))[0] == 0
        transcript = tmp_path / "transcript.jsonl"
        lines = transcript.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["response"] = ""
        lines[1] = json.dumps(rec)
        transcript.write_text("\n".join(lines) + "\n")
        replayed = []

        def counted(self, messages, complete=gateway.ReplayBackend.complete):
            replayed.append(messages)
            return complete(self, messages)
        monkeypatch.setattr(gateway.ReplayBackend, "complete", counted)
        replay = write_pipeline_config(tmp_path, backends="replay",
                                       transcript_path="transcript.jsonl", out_dir="out_replay")
        code, out, err = run_cli(capsys, "run-all", "--config", str(replay))
        assert (code, out) == (1, "")
        assert err == f"error: {transcript} line 2: 'response' may not be empty\n", err
        assert replayed == []
        assert not (tmp_path / "out_replay").exists()
