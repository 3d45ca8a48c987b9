"""Compile convertible temporal-logic formulas into grounded production
rules: grounding through the knowledge base, deterministic naming,
embedding-based duplicate rejection, an optional error-guided repair
loop, and the four-way outcome taxonomy.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ltl
from .gateway import Backend, ChatMessage, GatewayError
from .knowledge import (PASS, Effects, KnowledgeBase, Precondition,
                        ProductionRule, RuleValidationError, validate_rule)

DUPLICATION_THRESHOLD = 0.9
REPAIR_ROUNDS = 3
EMBEDDING_DIMENSION = 256


class GroundingError(ValueError):
    pass


class UnknownAtom(GroundingError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} is not in the grounding table or action vocabulary")
        self.name = name


# ---------------------------------------------------------------------------
# outcomes

@dataclass(frozen=True)
class Viable:
    rule: ProductionRule
    tag = "Viable"


@dataclass(frozen=True)
class FormatMismatch:
    detail: str
    tag = "FormatMismatch"


@dataclass(frozen=True)
class DuplicatedContent:
    existing: str
    similarity: float
    tag = "DuplicatedContent"


@dataclass(frozen=True)
class InferenceError:
    detail: str
    tag = "InferenceError"


CompileOutcome = Viable | FormatMismatch | DuplicatedContent | InferenceError

OUTCOME_TAGS = ("Viable", "FormatMismatch", "DuplicatedContent", "InferenceError")


def outcome_report(outcomes: list) -> dict[str, int]:
    report = {tag: 0 for tag in OUTCOME_TAGS}
    for o in outcomes:
        report[o.tag] += 1
    return report


def write_outcome_csv(report: dict[str, int], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outcome", "count"])
        for tag in OUTCOME_TAGS:
            writer.writerow([tag, report.get(tag, 0)])


# ---------------------------------------------------------------------------
# embeddings

class HashedTrigramEmbedding:
    """Deterministic hashed character-trigram counts, L2-normalized.

    Each instance remembers the vectors it has computed, so a text is
    embedded once per provider; build one provider per run."""

    def __init__(self):
        self._memo: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        """Unit-norm vector for the text; read-only, shared between calls."""
        vec = self._memo.get(text)
        if vec is None:
            vec = self._embed(text)
            vec.flags.writeable = False
            self._memo[text] = vec
        return vec

    def _embed(self, text: str) -> np.ndarray:
        vec = np.zeros(EMBEDDING_DIMENSION)
        padded = f"^{text}$"
        for i in range(max(1, len(padded) - 2)):
            gram = padded[i:i + 3]
            h = int.from_bytes(hashlib.md5(gram.encode()).digest()[:4], "big")
            vec[h % EMBEDDING_DIMENSION] += 1.0
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec


# ---------------------------------------------------------------------------
# grounding and naming

def ground(verdict: ltl.Convertible, kb: KnowledgeBase) -> tuple[tuple[Precondition, ...], Effects]:
    preconditions: list[Precondition] = []
    for name, polarity in verdict.antecedent:
        g = kb.groundings.get(name)
        if g is None:
            raise UnknownAtom(name)
        cmp = g.comparator if polarity else ("!=" if g.comparator == "=" else "=")
        preconditions.append((g.feature, cmp, g.value))
    effects = Effects()
    for name, polarity in verdict.consequent:
        if not polarity:
            raise GroundingError(f"negated action atom {name!r} has no effect semantics")
        if name in kb.longitudinal_actions:
            if effects.longitudinal != PASS and effects.longitudinal != name:
                raise GroundingError("multiple longitudinal actions in consequent")
            effects.longitudinal = name
        elif name in kb.lateral_actions:
            if effects.lateral != PASS and effects.lateral != name:
                raise GroundingError("multiple lateral actions in consequent")
            effects.lateral = name
        else:
            raise UnknownAtom(name)
    return tuple(preconditions), effects


_CMP_NAMES = {"=": "eq", "!=": "ne"}


def name_rule(preconditions: tuple[Precondition, ...], effects: Effects) -> str:
    """Deterministic, order-insensitive over preconditions."""
    pre = "__".join(f"{feat}_{_CMP_NAMES[cmp]}_{str(val).lower()}"
                    for feat, cmp, val in sorted(preconditions, key=lambda p: (p[0], p[1], str(p[2]))))
    eff = []
    if effects.longitudinal != PASS:
        eff.append(f"long_{effects.longitudinal}")
    if effects.lateral != PASS:
        eff.append(f"lat_{effects.lateral}")
    return f"if_{pre}__then_{'__'.join(eff)}".lower()


# ---------------------------------------------------------------------------
# rule store and dedup

class RuleStore:
    """Ordered rule collection, indexed by rule body; the first stored
    rule with a given body names it."""

    def __init__(self, rules: list[ProductionRule] | None = None):
        self.rules: list[ProductionRule] = []
        self._by_body: dict[tuple, str] = {}
        for rule in rules or []:
            self.add(rule)

    def add(self, rule: ProductionRule) -> None:
        self.rules.append(rule)
        self._by_body.setdefault(rule.body_key(), rule.name)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def to_json(self) -> list[dict]:
        return [r.to_json() for r in self.rules]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RuleStore":
        data = json.loads(Path(path).read_text())
        return cls([ProductionRule.from_json(obj) for obj in data])


def dedup_check(candidate: ProductionRule, store: RuleStore,
                provider: HashedTrigramEmbedding,
                threshold: float = DUPLICATION_THRESHOLD) -> DuplicatedContent | None:
    """None means the candidate is novel. Exact body duplicates are
    rejected regardless of embedding similarity; otherwise the most
    similar stored name, ties broken by the smaller name, is compared
    against the cosine threshold."""
    if len(store) == 0:
        return None
    existing = store._by_body.get(candidate.body_key())
    if existing is not None:
        return DuplicatedContent(existing=existing, similarity=1.0)
    cand_vec = provider.embed(candidate.name)
    neg_sim, name = min((-float(np.dot(cand_vec, provider.embed(r.name))), r.name)
                        for r in store)
    if -neg_sim >= threshold:
        return DuplicatedContent(existing=name, similarity=-neg_sim)
    return None


# ---------------------------------------------------------------------------
# repair loop

REPAIR_PROMPT = (
    "The following production rule failed to load:\n{rule}\n"
    "Error: {error}\n"
    "Valid features: {features}\nLongitudinal actions: {long}\nLateral actions: {lat}\n"
    "Reply with a corrected rule as JSON with keys 'preconditions' "
    "(list of [feature, comparator, value]) and 'effects' "
    "(object with 'longitudinal' and 'lateral', 'pass' allowed).")


def _attempt_repair(rule: ProductionRule, error: str, kb: KnowledgeBase,
                    backend: Backend) -> ProductionRule | None:
    prompt = REPAIR_PROMPT.format(
        rule=json.dumps(rule.to_json(), sort_keys=True), error=error,
        features=", ".join(sorted(kb.features)),
        long=", ".join(kb.longitudinal_actions), lat=", ".join(kb.lateral_actions))
    reply = backend.complete([ChatMessage("user", prompt)]).content
    try:
        obj = json.loads(reply)
        preconditions = tuple(tuple(p) for p in obj["preconditions"])
        effects = Effects(**obj["effects"])
    except (ValueError, KeyError, TypeError):
        return None
    return ProductionRule(name=name_rule(preconditions, effects),
                          preconditions=preconditions, effects=effects,
                          utility=rule.utility, provenance=rule.provenance)


# ---------------------------------------------------------------------------
# compile pipeline

def compile_formula(formula: ltl.Ltl, kb: KnowledgeBase, store: RuleStore,
                    provider: HashedTrigramEmbedding,
                    repair: Backend | None = None,
                    initial_utility: float = 0.0,
                    provenance: dict | None = None) -> CompileOutcome:
    """classify -> ground -> dry-run load -> dedup -> insert. With a
    `repair` backend, a rule that fails to load gets up to REPAIR_ROUNDS
    model-proposed corrections."""
    verdict = ltl.classify(formula)
    if isinstance(verdict, ltl.InferenceError):
        return InferenceError(verdict.reason)
    try:
        preconditions, effects = ground(verdict, kb)
    except GroundingError as e:
        return InferenceError(str(e))
    rule = ProductionRule(name=name_rule(preconditions, effects),
                          preconditions=preconditions, effects=effects,
                          utility=initial_utility,
                          provenance=provenance or {"formula": ltl.to_string(formula)})
    attempts = 0
    while True:
        try:
            validate_rule(rule, kb)
            break
        except RuleValidationError as e:
            if repair is None or attempts >= REPAIR_ROUNDS:
                return FormatMismatch(str(e))
            attempts += 1
            try:
                repaired = _attempt_repair(rule, str(e), kb, repair)
            except GatewayError as gateway_error:
                return FormatMismatch(f"repair backend failed: {gateway_error}")
            if repaired is None:
                return FormatMismatch(f"unrepairable: {e}")
            rule = repaired
    dup = dedup_check(rule, store, provider)
    if dup is not None:
        return dup
    store.add(rule)
    return Viable(rule)
