"""Evaluation math: exact-match accuracy and smoothed BLEU-4 for the
NL-to-LTL stage, Jensen-Shannon divergence, decision-distribution
extraction over the most frequent states, and the reasoning success rate.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from . import ltl
from .engine import RuleSet, WorldState, action_pair_key, decide, decision_distribution
from .trainer import Episode


def ltl_match_accuracy(predictions: list[str], references: list[str]) -> float:
    """Fraction of pairs with structurally equal canonical ASTs;
    unparseable predictions count as mismatches."""
    if len(predictions) != len(references):
        raise ValueError("prediction/reference length mismatch")
    if not predictions:
        return 0.0
    hits = 0
    for pred, ref in zip(predictions, references):
        try:
            p = ltl.canonicalize(ltl.parse(pred))
        except ltl.ParseError:
            continue
        r = ltl.canonicalize(ltl.parse(ref))
        hits += p == r
    return hits / len(predictions)


def ltl_tokens(text: str) -> list[str]:
    return ltl.tokenize(text)


def ltl_bleu(prediction: list[str], reference: list[str], max_n: int = 4) -> float:
    """Sentence BLEU with brevity penalty; add-one smoothing on n >= 2."""
    if not prediction:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, max_n + 1):
        # Counter tallies in C: unigrams are the tokens themselves, longer
        # n-grams tuples zipped from n shifted copies
        if n == 1:
            pred_ngrams, ref_ngrams = Counter(prediction), Counter(reference)
        else:
            pred_ngrams = Counter(zip(*[prediction[i:] for i in range(n)]))
            ref_ngrams = Counter(zip(*[reference[i:] for i in range(n)]))
        ref_count = ref_ngrams.get  # Counter[g] runs __missing__ in Python
        overlap = 0
        for g, c in pred_ngrams.items():
            r = ref_count(g, 0)
            overlap += c if c < r else r
        total = max(0, len(prediction) - n + 1)
        if n == 1:
            if overlap == 0:
                return 0.0
            precision = overlap / total
        else:
            precision = (overlap + 1) / (total + 1)
        log_precision_sum += math.log(precision)
    bleu = math.exp(log_precision_sum / max_n)
    if len(prediction) < len(reference):
        bleu *= math.exp(1 - len(reference) / len(prediction))
    return bleu


def js_divergence(p: dict[str, float], q: dict[str, float]) -> float:
    """Jensen-Shannon divergence with base-2 logs; bounded by 1."""
    # a fixed summation order keeps the float result independent of the
    # process's string hash seed
    js = 0.0
    for key in sorted(set(p) | set(q)):
        pi = p.get(key, 0.0)
        qi = q.get(key, 0.0)
        mi = (pi + qi) / 2
        if pi > 0:
            js += 0.5 * pi * math.log2(pi / mi)
        if qi > 0:
            js += 0.5 * qi * math.log2(qi / mi)
    return js


def reference_distributions(episodes: list[Episode],
                            top_k: int = 10) -> list[tuple[WorldState, Counter]]:
    """Reference action-pair counts of the top_k most frequent states
    (ties broken by state key), most frequent first. Equal states count
    together; those that share a features tuple (`engine.shared_states`)
    are found by identity. The episodes do not change during a run, so a
    run computes this once."""
    by_state: dict[tuple, tuple[WorldState, Counter]] = {}
    for episode in episodes:
        for state, ref in episode.steps:
            entry = by_state.get(state.features)
            if entry is None:
                entry = by_state[state.features] = (state, Counter())
            entry[1][action_pair_key(ref.longitudinal, ref.lateral)] += 1
    ranked = sorted(by_state.values(), key=lambda e: (-sum(e[1].values()), e[0].key()))
    return ranked[:top_k]


def decision_distributions(rules: RuleSet, references: list[tuple[WorldState, Counter]],
                           sigma: float) -> list[tuple[dict[str, float], dict[str, float]]]:
    """(exact model, observed reference) action-pair distributions for each
    state of `references`, the output of `reference_distributions`."""
    if not references:
        raise ValueError("references must be nonempty")
    pairs = []
    for state, counts in references:
        n = sum(counts.values())
        pairs.append((decision_distribution(state, rules, sigma),
                      {a: c / n for a, c in counts.items()}))
    return pairs


def mean_js(rules: RuleSet, references: list[tuple[WorldState, Counter]],
            sigma: float) -> float:
    pairs = decision_distributions(rules, references, sigma)
    return sum(js_divergence(m, r) for m, r in pairs) / len(pairs)


def sampled_distribution(state: WorldState, rules: RuleSet, sigma: float,
                         n: int, rng: random.Random) -> dict[str, float]:
    """Frequencies of n `decide` calls: the Monte Carlo estimate of
    `engine.decision_distribution`, kept as its reference."""
    counts: Counter = Counter()
    candidates = rules.candidates(state)
    for _ in range(n):
        lon, lat = decide(candidates, rules, sigma, rng)
        counts[action_pair_key(None if lon is None else rules.rules[lon].effects.longitudinal,
                               None if lat is None else rules.rules[lat].effects.lateral)] += 1
    return {a: c / n for a, c in counts.items()}


def rsr(cycles: list[tuple[int | None, int | None]]) -> float:
    """Reasoning success rate: fraction of cycles, each given by the slot
    fillers' positions that `decide` returned, where at least one slot was
    filled, that is, had a nonempty conflict set."""
    if not cycles:
        return 0.0
    return sum(fillers != (None, None) for fillers in cycles) / len(cycles)
