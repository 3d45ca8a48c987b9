"""End-to-end orchestration: experience text -> initial translation ->
critic-tree refinement -> grounding -> rule compilation -> utility
training -> evaluation, with literal and supply grounding prompt modes
and a reproducibility manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import compiler, ltl, metrics, scenarios, trainer
from .critic_tree import CriticTree, CriticTreeConfig
from .gateway import BackendSpec, ChatMessage, GatewayError, Session
from .knowledge import KnowledgeBase, load_json, read_section, write_rules
from .trainer import TrainConfig

LITERAL = "literal"
SUPPLY = "supply"

GROUNDING_TEMPLATES = {
    LITERAL: (
        "Rewrite this temporal logic formula using only atoms from the "
        "vocabulary, strictly preserving the conditions stated: {formula}\n"
        "Vocabulary: {atoms}\nReply with the formula only."),
    SUPPLY: (
        "Rewrite this temporal logic formula using only atoms from the "
        "vocabulary. Infer and add any environmental preconditions the "
        "text likely left implicit: {formula}\nVocabulary: {atoms}\n"
        "Reply with the formula only."),
}


@dataclass
class EvalConfig:
    top_k: int = 10
    checkpoints: int = 5

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("eval.top_k must be >= 1")
        if self.checkpoints < 1:
            raise ValueError("eval.checkpoints must be >= 1")


@dataclass
class PipelineConfig:
    critic_tree: CriticTreeConfig
    kb: KnowledgeBase
    prompt_mode: str = LITERAL
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: Path = Path("out")
    corpus: Path | None = None
    episodes: Path | None = None
    scenario: scenarios.ScenarioSpec | None = None
    n_episodes: int = 70
    grounding: BackendSpec | None = None
    initial_backend: BackendSpec | None = None
    eval: EvalConfig = field(default_factory=EvalConfig)
    raw: dict = field(default_factory=dict, init=False)  # source JSON, for the manifest hash

    def __post_init__(self):
        if self.prompt_mode not in (LITERAL, SUPPLY):
            raise ValueError(f"unknown prompt mode {self.prompt_mode!r}")


def load_config(path: str | Path) -> PipelineConfig:
    raw = load_json(path)
    base = Path(path).parent

    def resolve(p):
        return base / p if p else None

    def required(key, p):  # resolve maps "" to None, which these keys cannot be
        if not p:
            raise ValueError(f"section 'config': key {key!r} may not be empty")
        return base / p

    def in_dir(p):  # a backend path stays a string, "" meaning none
        return str(base / p) if p else p

    def knowledge_base(k):  # an archetype's name, or a KB file in the config's directory
        if type(k) is not str:
            raise ValueError(f"section 'config': key 'kb': {k!r} is not a string")
        return (scenarios.scenario_kb(k) if k in scenarios.ARCHETYPES
                else KnowledgeBase.load(required("kb", k)))

    def evaluation(e):  # eval.samples is retired; older configs still set it
        if isinstance(e, dict):
            e = {k: v for k, v in e.items() if k != "samples"}
        return read_section(EvalConfig, "config.eval", e)
    cfg = read_section(PipelineConfig, "config", raw, kb=knowledge_base, eval=evaluation,
                       corpus=resolve, episodes=resolve, transcript_path=in_dir,
                       record_path=in_dir, out_dir=lambda p: required("out_dir", p))
    cfg.raw = raw
    return cfg


@dataclass
class Segment:  # one corpus record
    text: str
    id: str | int | None = None  # None: the record's index
    initial: str | None = None


@dataclass
class SegmentResult:
    segment_id: str
    refined: str
    outcome: compiler.CompileOutcome


def read_corpus(records: list, cfg: PipelineConfig) -> list[Segment]:
    """The records as segments with distinct string ids, each with a nonempty
    text and an initial translation source."""
    names = [f"{cfg.corpus or 'corpus'} record {i}" for i in range(len(records))]
    segments = [read_section(Segment, name, r) for name, r in zip(names, records)]
    owner: dict[str, int] = {}  # segment id -> the record that has it
    for i, seg in enumerate(segments):
        seg.id = str(i if seg.id is None else seg.id)
        if not seg.text:
            raise ValueError(f"section {names[i]!r}: key 'text' may not be empty")
        if seg.id in owner:
            raise ValueError(f"section {names[i]!r}: segment id {seg.id!r} is also "
                             f"record {owner[seg.id]}'s")
        owner[seg.id] = i
        if seg.initial is None and cfg.initial_backend is None:
            raise ValueError(f"section {names[i]!r}: segment {seg.id}: "
                             "no initial translation source")
    return segments


def formalize_corpus(texts: list[dict], cfg: PipelineConfig,
                     ) -> tuple[compiler.RuleStore, list[SegmentResult]]:
    """Every record is read and checked before the first model call.
    Per-segment failures become outcomes, never aborting the corpus."""
    segments = read_corpus(texts, cfg)
    session = Session()
    tree = CriticTree(cfg.critic_tree, session, cfg.kb.atom_vocabulary)
    grounding_backend = session.backend(cfg.grounding) if cfg.grounding else None
    initial_backend = session.backend(cfg.initial_backend) if cfg.initial_backend else None
    grounding_template = GROUNDING_TEMPLATES[cfg.prompt_mode]
    atoms = ", ".join(cfg.kb.atom_vocabulary)
    store = compiler.RuleStore()
    results = []
    for seg in segments:
        try:
            initial = seg.initial
            if initial is None:
                initial = initial_backend.complete([ChatMessage("user", seg.text)]).content.strip()
            refined, _ = tree.run(seg.text, initial)
            grounded_text = refined
            if grounding_backend is not None:
                prompt = grounding_template.format(formula=refined, atoms=atoms)
                grounded_text = grounding_backend.complete([ChatMessage("user", prompt)]).content.strip()
        except GatewayError as e:
            results.append(SegmentResult(seg.id, "",
                                         compiler.FormatMismatch(f"gateway failure: {e}")))
            continue
        formula = tree.parse(grounded_text)  # the tree has parsed most of these already
        if isinstance(formula, ltl.ParseError):
            outcome = compiler.FormatMismatch(f"unparseable formula: {formula}")
        else:
            outcome = compiler.compile_formula(
                formula, cfg.kb, store,
                provenance={"segment": seg.id, "formula": ltl.to_string(formula)})
        results.append(SegmentResult(seg.id, grounded_text, outcome))
    return store, results


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(cfg: PipelineConfig) -> dict:
    """formalize -> train (with JS checkpoints) -> evaluate; writes all
    artifacts plus a manifest of config hash, seeds and artifact hashes.
    The episodes come from the episodes file or from the scenario, and a
    config that sets both, or `n_episodes` with the file, is refused.
    A corpus with no viable rule takes the same path: every configured
    epoch trains an empty rule list, which always decides `none/none`, and
    every checkpoint writes its JS, so `final_js` is always a number."""
    if cfg.episodes is not None and cfg.scenario is not None:
        raise ValueError("section 'config': keys 'episodes' and 'scenario' may not both be set")
    if cfg.episodes is not None and "n_episodes" in cfg.raw:  # the field has a default
        raise ValueError("section 'config': key 'n_episodes' counts generated episodes; "
                         "it may not be set with 'episodes'")
    texts = load_json(cfg.corpus) if cfg.corpus else []
    if not isinstance(texts, list):
        raise ValueError(f"corpus {str(cfg.corpus)!r}: not a JSON list of records")
    if cfg.episodes is not None:
        episodes = trainer.episodes_from_jsonl(cfg.episodes)
    elif cfg.scenario is not None:
        policy = scenarios.default_policy(cfg.scenario.archetype)
        episodes = scenarios.generate(cfg.scenario, policy, cfg.n_episodes)
    else:
        raise ValueError("config provides neither episodes nor a scenario")
    trainer.validate_episodes(episodes, cfg.kb, cfg.episodes)  # None when generated
    store, results = formalize_corpus(texts, cfg)  # checks every record first
    report = compiler.outcome_report([r.outcome for r in results])

    # JS before training and at evenly spread epochs, the last at cfg.train.epochs
    n = cfg.eval.checkpoints
    at = {0} | {cfg.train.epochs * (k + 1) // n for k in range(n)}
    references = metrics.reference_distributions(episodes, cfg.eval.top_k)
    js_curve = []

    def observe(epochs_done, rule_set):
        if epochs_done in at:
            js_curve.append((epochs_done, metrics.mean_js(rule_set, references, cfg.train.sigma)))

    trained, curve = trainer.train(list(store), episodes, cfg.train, on_epoch=observe)
    agreement = trainer.evaluate_agreement(trained, episodes, cfg.train.sigma)

    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_rules(trained.with_utilities(), out / "rules.json")
    compiler.write_outcome_csv(report, out / "outcomes.csv")
    trainer.curve_to_csv(curve, out / "curve.csv")
    (out / "js_curve.csv").write_text(
        "updates,mean_js\n" + "".join(f"{n},{v:.6f}\n" for n, v in js_curve))
    (out / "segments.json").write_text(json.dumps(
        [{"id": r.segment_id, "refined": r.refined, "outcome": r.outcome.tag,
          "detail": r.outcome.detail} for r in results], indent=2, sort_keys=True))
    trainer.episodes_to_jsonl(episodes, out / "episodes.jsonl")

    config_hash = hashlib.sha256(
        json.dumps(cfg.raw, sort_keys=True).encode()).hexdigest()
    manifest = {
        "config_hash": config_hash,
        "seed": cfg.train.seed,
        "prompt_mode": cfg.prompt_mode,
        "outcomes": report,
        "agreement": agreement,
        "final_js": js_curve[-1][1],
        "artifacts": {name: _sha256(out / name)
                      for name in ("rules.json", "outcomes.csv", "curve.csv",
                                   "js_curve.csv", "segments.json", "episodes.jsonl")},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest
