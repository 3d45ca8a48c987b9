"""Compile convertible temporal-logic formulas into grounded production
rules: grounding through the knowledge base, deterministic naming,
trigram-count duplicate rejection, and the four-way outcome taxonomy.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from . import ltl
from .knowledge import (ActionPair, KnowledgeBase, Precondition, ProductionRule,
                        RuleValidationError, validate_rule)

DUPLICATION_THRESHOLD = 0.9
EMBEDDING_DIMENSION = 256
# bits per stored rule in RuleStore's packed postings, the width of an
# array("Q") item; a field holds the dot product of any two names shorter
# than 2**32 characters
POSTING_BITS = 64


class GroundingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# outcomes, each with a tag and a one-line detail

@dataclass(frozen=True)
class Viable:
    rule: ProductionRule
    tag = "Viable"
    detail = ""


@dataclass(frozen=True)
class FormatMismatch:
    detail: str
    tag = "FormatMismatch"


@dataclass(frozen=True)
class DuplicatedContent:
    existing: str
    similarity: float
    tag = "DuplicatedContent"

    @property
    def detail(self) -> str:
        return self.existing


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
    """Deterministic hashed character-trigram counts: bucket -> count, for
    the buckets that occur.

    Each instance remembers the vectors it has computed and the bucket of
    each trigram it has seen, so a text is embedded, and a trigram hashed,
    once per instance. Each `RuleStore` owns one."""

    def __init__(self):
        self._memo: dict[str, Mapping[int, int]] = {}
        self._buckets: dict[str, int] = {}

    def embed(self, text: str) -> Mapping[int, int]:
        """Sparse trigram counts of the text; read-only, shared between calls."""
        vec = self._memo.get(text)
        if vec is None:
            vec = self._memo[text] = MappingProxyType(self._embed(text))
        return vec

    def _embed(self, text: str) -> dict[int, int]:
        counts: dict[int, int] = {}
        buckets = self._buckets
        padded = f"^{text}$"
        for i in range(max(1, len(padded) - 2)):
            gram = padded[i:i + 3]
            bucket = buckets.get(gram)
            if bucket is None:
                h = int.from_bytes(hashlib.md5(gram.encode()).digest()[:4], "big")
                bucket = buckets[gram] = h % EMBEDDING_DIMENSION
            counts[bucket] = counts.get(bucket, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# grounding and naming

def ground(verdict: ltl.Convertible,
           kb: KnowledgeBase) -> tuple[tuple[Precondition, ...], ActionPair]:
    preconditions: list[Precondition] = []
    for name, polarity in verdict.antecedent:
        g = kb.groundings.get(name)
        if g is None:
            raise GroundingError(f"atom {name!r} is not in the grounding table or action vocabulary")
        cmp = g.comparator if polarity else ("!=" if g.comparator == "=" else "=")
        preconditions.append((g.feature, cmp, g.value))
    longitudinal = lateral = None
    for name, polarity in verdict.consequent:
        if not polarity:
            raise GroundingError(f"negated action atom {name!r} has no effect semantics")
        if name in kb.longitudinal_actions:
            if longitudinal not in (None, name):
                raise GroundingError("multiple longitudinal actions in consequent")
            longitudinal = name
        elif name in kb.lateral_actions:
            if lateral not in (None, name):
                raise GroundingError("multiple lateral actions in consequent")
            lateral = name
        else:
            raise GroundingError(f"atom {name!r} is not in the grounding table or action vocabulary")
    return tuple(preconditions), ActionPair(longitudinal, lateral)


_CMP_NAMES = {"=": "eq", "!=": "ne"}


def name_rule(preconditions: tuple[Precondition, ...], effects: ActionPair) -> str:
    """Deterministic, order-insensitive over preconditions."""
    pre = "__".join(f"{feat}_{_CMP_NAMES[cmp]}_{str(val).lower()}"
                    for feat, cmp, val in sorted(preconditions, key=lambda p: (p[0], p[1], str(p[2]))))
    eff = []
    if effects.longitudinal is not None:
        eff.append(f"long_{effects.longitudinal}")
    if effects.lateral is not None:
        eff.append(f"lat_{effects.lateral}")
    return f"if_{pre}__then_{'__'.join(eff)}".lower()


# ---------------------------------------------------------------------------
# rule store and dedup

class RuleStore:
    """Ordered rule collection and the index `dedup_check` reads, which `add`
    extends as each rule arrives: the first stored rule with each body, and an
    inverted index of the names' trigram counts under the store's `embedding`,
    with each name's squared norm. A bucket's postings are one integer, the sum
    of count << (POSTING_BITS * position), so a single multiply-add per
    candidate bucket adds that bucket's share to every stored rule's dot product."""

    def __init__(self, rules: list[ProductionRule] | None = None):
        self._rules: list[ProductionRule] = []
        self.embedding = HashedTrigramEmbedding()
        self._by_body: dict[tuple, str] = {}
        self._postings: dict[int, int] = {}
        self._norms2: list[int] = []
        for rule in rules or []:
            self.add(rule)

    def add(self, rule: ProductionRule) -> None:
        shift, postings = POSTING_BITS * len(self._rules), self._postings
        self._rules.append(rule)
        self._by_body.setdefault(rule.body_key(), rule.name)
        vec = self.embedding.embed(rule.name)
        for bucket, count in vec.items():
            postings[bucket] = postings.get(bucket, 0) + (count << shift)
        self._norms2.append(sum(c * c for c in vec.values()))

    @property
    def rules(self) -> tuple[ProductionRule, ...]:
        """The stored rules in insertion order; only `add` stores one."""
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)


def dedup_check(candidate: ProductionRule, store: RuleStore, *,
                threshold: float = DUPLICATION_THRESHOLD) -> DuplicatedContent | None:
    """None means the candidate is novel; `store`'s rules and index are only
    read. Exact body duplicates are rejected regardless of name similarity;
    otherwise the stored name of highest cosine with the candidate's name,
    ties broken by the smaller name, is compared against the threshold. The
    cosine is exact: dot / sqrt(|a|^2 |b|^2) over integer trigram counts."""
    if len(store) == 0:
        return None
    existing = store._by_body.get(candidate.body_key())
    if existing is not None:
        return DuplicatedContent(existing=existing, similarity=1.0)
    postings, norms2 = store._postings, store._norms2
    cand_vec = store.embedding.embed(candidate.name)
    packed = sum(count * postings.get(bucket, 0) for bucket, count in cand_vec.items())
    dots = array("Q", packed.to_bytes(POSTING_BITS // 8 * len(norms2), sys.byteorder))
    # cosines with one candidate rank exactly as dot^2 / |b|^2, in integers
    best_dot, best_norm2, name = 0, 1, None
    for dot, norm2, rule in zip(dots, norms2, store._rules):
        lhs, rhs = dot * dot * best_norm2, best_dot * best_dot * norm2
        if lhs > rhs or (lhs == rhs and (name is None or rule.name < name)):
            best_dot, best_norm2, name = dot, norm2, rule.name
    similarity = best_dot / math.sqrt(sum(c * c for c in cand_vec.values()) * best_norm2)
    if similarity >= threshold:
        return DuplicatedContent(existing=name, similarity=similarity)
    return None


# ---------------------------------------------------------------------------
# compile pipeline

def compile_formula(formula: ltl.Ltl, kb: KnowledgeBase, store: RuleStore, *,
                    provenance: dict | None = None) -> CompileOutcome:
    """classify -> ground -> dry-run load -> dedup -> insert."""
    verdict = ltl.classify(formula)
    if isinstance(verdict, ltl.InferenceError):
        return InferenceError(verdict.reason)
    try:
        preconditions, effects = ground(verdict, kb)
    except GroundingError as e:
        return InferenceError(str(e))
    rule = ProductionRule(name=name_rule(preconditions, effects),
                          preconditions=preconditions, effects=effects,
                          provenance=provenance or {"formula": ltl.to_string(formula)})
    try:
        validate_rule(rule, kb)
    except RuleValidationError as e:
        return FormatMismatch(str(e))
    dup = dedup_check(rule, store)
    if dup is not None:
        return dup
    store.add(rule)
    return Viable(rule)
