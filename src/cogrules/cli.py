"""Command-line surface: one subcommand per pipeline stage. Machine
output (JSON/CSV) goes to stdout or --out files; human logs to stderr.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import compiler, gateway, ltl, metrics, pipeline, scenarios, trainer
from .critic_tree import CriticTree
from .engine import RuleSet
from .knowledge import KnowledgeBase, read_rules, write_rules


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_parse(args) -> int:
    f = ltl.parse(args.formula)
    _emit({"formula": ltl.to_string(f),
           "canonical": ltl.to_json(ltl.canonicalize(f))})
    return 0


def cmd_classify(args) -> int:
    verdict = ltl.classify(ltl.parse(args.formula))
    if isinstance(verdict, ltl.Convertible):
        _emit({"verdict": "Convertible",
               "antecedent": [[n, p] for n, p in verdict.antecedent],
               "consequent": [[n, p] for n, p in verdict.consequent]})
    else:
        _emit({"verdict": "InferenceError", "reason": verdict.reason})
    return 0


def cmd_translate(args) -> int:
    cfg = pipeline.load_config(args.config)
    critics = dataclasses.replace(cfg.critic_tree.critics, seed=args.seed)
    tree = CriticTree(dataclasses.replace(cfg.critic_tree, critics=critics), gateway.Session(),
                      cfg.kb.atom_vocabulary)
    formula, trace = tree.run(args.text, args.initial)
    _emit({"formula": formula, "trace": trace.to_json()})
    return 0


def cmd_compile(args) -> int:
    cfg = pipeline.load_config(args.config)
    store = compiler.RuleStore(read_rules(args.rules) if args.rules else [])
    outcome = compiler.compile_formula(ltl.parse(args.formula), cfg.kb, store)
    out = {"outcome": outcome.tag}
    if isinstance(outcome, compiler.Viable):
        out["rule"] = outcome.rule.to_json()
    elif isinstance(outcome, compiler.DuplicatedContent):
        out["existing"] = outcome.existing
        out["similarity"] = outcome.similarity
    else:
        out["detail"] = outcome.detail
    _emit(out)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_rules(store.rules, Path(args.out) / "rules.json")
    return 0


def cmd_gen_data(args) -> int:
    spec = scenarios.ScenarioSpec(archetype=args.archetype,
                                  episode_length=args.length,
                                  noise_rate=args.noise, seed=args.seed)
    policy = scenarios.default_policy(args.archetype)
    episodes = scenarios.generate(spec, policy, args.episodes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "episodes.jsonl"
    trainer.episodes_to_jsonl(episodes, path)
    scenarios.scenario_kb(args.archetype).save(out_dir / "kb.json")
    _emit({"episodes": len(episodes), "path": str(path)})
    return 0


def cmd_train(args) -> int:
    kb = KnowledgeBase.load(args.kb)
    rules = read_rules(args.rules, kb)
    episodes = trainer.episodes_from_jsonl(args.episodes)
    trainer.validate_episodes(episodes, kb, args.episodes)
    cfg = trainer.TrainConfig(epochs=args.epochs, seed=args.seed)
    trained, curve = trainer.train(rules, episodes, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rules(trained.with_utilities(), out_dir / "rules_trained.json")
    trainer.curve_to_csv(curve, out_dir / "curve.csv")
    _emit({"epochs": len(curve),
           "final_agreement": curve[-1].agreement if curve else None,
           "out": str(out_dir)})
    return 0


def cmd_eval(args) -> int:
    rules = RuleSet(read_rules(args.rules))
    episodes = trainer.episodes_from_jsonl(args.episodes)
    sigma = trainer.TrainConfig().sigma
    _emit({"agreement": trainer.evaluate_agreement(rules, episodes, sigma),
           "mean_js": metrics.mean_js(rules, metrics.reference_distributions(episodes), sigma)})
    return 0


def cmd_run_all(args) -> int:
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.out:
        cfg.out_dir = Path(args.out)
    manifest = pipeline.run_experiment(cfg)
    _emit(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cogrules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula, print canonical AST")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("classify", help="convertibility verdict for a formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("translate", help="refine a candidate formula via the critic tree")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--initial", required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("compile", help="compile a formula into a production rule")
    p.add_argument("--config", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--rules", help="existing rule store JSON")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("gen-data", help="generate a synthetic episode dataset")
    p.add_argument("--archetype", choices=scenarios.ARCHETYPES, required=True)
    p.add_argument("--episodes", type=int, default=70)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train rule utilities on an episode dataset")
    p.add_argument("--kb", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained rules against episodes")
    p.add_argument("--rules", required=True)
    p.add_argument("--episodes", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("run-all", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (gateway.GatewayError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
