import importlib.resources
import itertools
import json
import random
import re
import urllib.request
from pathlib import Path

import pytest

from cogrules import ltl
from cogrules.gateway import SCRIPT_REGISTRY, BackendSpec, CriticEnsembleSpec, register_script
from cogrules.trainer import train
from oracles import train_oracle

_counter = itertools.count()


def scripted_spec(fn) -> BackendSpec:
    """Register an ad-hoc scripted backend under a unique name."""
    name = f"test_script_{next(_counter)}"
    register_script(name, fn)
    return BackendSpec(kind="scripted", script=name)


def single_critic_ensemble(fn, seed: int = 0) -> CriticEnsembleSpec:
    return CriticEnsembleSpec(members=[(scripted_spec(fn), 1.0)], seed=seed)


_LEAVES = tuple(ltl.Atom(n) for n in ("a", "b", "c", "d", "sig", "ped_x", "v1"))
_UNARY_CTORS = (ltl.Not, ltl.Next, ltl.Finally, ltl.Globally)
_BINARY_CTORS = (ltl.And, ltl.Or, ltl.Implies, ltl.Until)


def random_formula(rng: random.Random, depth: int) -> ltl.Ltl:
    """Random AST with depth budget; leaf-heavy (keeps bulk runs small)
    and a single RNG draw per node."""
    r = rng.random()
    if depth <= 0 or r < 0.45:
        i = int(r * 16661) % 8
        return ltl.TRUE if i == 7 else _LEAVES[i]
    kind = min(int((r - 0.45) * 14.5454), 7)
    if kind < 4:
        return _UNARY_CTORS[kind](random_formula(rng, depth - 1))
    return _BINARY_CTORS[kind - 4](random_formula(rng, depth - 1),
                                   random_formula(rng, depth - 1))


# --- deterministic end-to-end fixtures -------------------------------------
# Scripted backends with stable names so JSON configs can reference them.

def _fixture_revisor(messages):
    for m in messages:
        found = re.search(r"Candidate formula: (.*)", m.content)
        if found:
            return found.group(1).strip()
    raise AssertionError("revisor prompt carried no candidate formula")


def _fixture_grounding(messages):
    content = messages[-1].content
    found = re.search(r"(?:stated|implicit): (.*)\nVocabulary:", content, re.DOTALL)
    formula = found.group(1).strip()
    # The permissive prompt variant invents an extra environmental
    # precondition for the bare braking habit.
    if "implicit" in content and formula == "G (front_gap_closing -> brake)":
        return "G ((front_gap_closing & speed_low) -> brake)"
    return formula


register_script("fixture_revisor", _fixture_revisor)
register_script("fixture_critic_approve", lambda messages: "APPROVED")
register_script("fixture_grounding", _fixture_grounding)


@pytest.fixture
def model_calls(monkeypatch) -> list[str]:
    """The names of the fixture scripts, one per call the scripted backends serve."""
    calls: list[str] = []
    for name in ("fixture_revisor", "fixture_critic_approve", "fixture_grounding"):
        def counted(messages, name=name, fn=SCRIPT_REGISTRY[name]):
            calls.append(name)
            return fn(messages)
        monkeypatch.setitem(SCRIPT_REGISTRY, name, counted)
    return calls


def bundled_corpus(archetype: str) -> list[dict]:
    """The records of `archetype` in the package's experience texts."""
    data = json.loads(importlib.resources.files("cogrules")
                      .joinpath("data/experience_texts.json").read_text())
    return data[archetype]


def highway_corpus() -> list[dict]:
    return bundled_corpus("highway_cut_in")


def write_pipeline_config(base: Path, *, prompt_mode="literal", seed=11,
                          epochs=30, out_dir="out", backends=None,
                          record_path="", transcript_path="") -> Path:
    """Drop a highway-archetype pipeline config plus its corpus into `base`.

    `backends` switches the three model roles between the scripted fixtures
    (default) and replay against a recorded transcript.
    """
    corpus_path = base / "corpus.json"
    if not corpus_path.exists():
        corpus_path.write_text(json.dumps(highway_corpus(), indent=2))
    if backends is None:
        def role(script):
            spec = {"kind": "scripted", "script": script}
            if record_path:
                spec["record_path"] = record_path
            return spec
        backends = {
            "revisor": role("fixture_revisor"),
            "critic": role("fixture_critic_approve"),
            "grounding": role("fixture_grounding"),
        }
    elif backends == "replay":
        replay = {"kind": "replay", "transcript_path": transcript_path}
        backends = {"revisor": dict(replay), "critic": dict(replay),
                    "grounding": dict(replay)}
    raw = {
        "prompt_mode": prompt_mode,
        "kb": "highway_cut_in",
        "corpus": "corpus.json",
        "critic_tree": {
            "num_critics": 2,
            "max_depth": 2,
            "revisor": backends["revisor"],
            "critics": {"members": [[backends["critic"], 1.0]], "seed": 0},
        },
        "grounding": backends["grounding"],
        "scenario": {"archetype": "highway_cut_in", "episode_length": 20,
                     "trigger_low": 3, "trigger_high": 10, "seed": 7},
        "n_episodes": 40,
        "train": {"epochs": epochs, "seed": seed, "learning_rate": 0.05},
        "eval": {"top_k": 8, "checkpoints": 3},
        "out_dir": out_dir,
    }
    name = f"config_{prompt_mode}.json"
    path = base / name
    path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    return path


@pytest.fixture
def no_network(monkeypatch):
    """Fail the test if anything opens a URL, as the HTTP backend does."""
    def guard(*args, **kwargs):
        raise AssertionError("network access attempted")
    monkeypatch.setattr(urllib.request, "urlopen", guard)


def assert_train_matches_oracle(rules, episodes, cfg) -> list:
    """`train`'s utilities and curve equal the oracle's bit for bit; returns
    the oracle's draws."""
    trained, curve = train(rules, episodes, cfg)
    utilities, oracle_curve, draws = train_oracle(rules, episodes, cfg)
    assert [u.hex() for u in trained.utilities] == [u.hex() for u in utilities]
    assert [(float(p.agreement).hex(), p.mean_utility.hex()) for p in curve] == \
        [(float(a).hex(), m.hex()) for a, m in oracle_curve]
    assert [p.epoch for p in curve] == list(range(cfg.epochs))
    return draws
