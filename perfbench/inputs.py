"""Seeded input generators for the benchmark workloads, with the expected
outputs worked out on the side.

Every function here is a pure function of its seed and sizes, so the same
seed gives byte-identical inputs. Nothing here imports cogrules: the
expected outcome tags, rule names and duplicate decisions are derived from
the benchmark's own reading of the paper's rules, never from the package's
code paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

LONG_ACTIONS = ("accelerate", "keep", "decelerate", "brake")
LAT_ACTIONS = ("keep_lane", "change_left", "change_right")
ENUM_VALUES = ("lvl1", "lvl2", "lvl3", "lvl4")
DUPLICATION_THRESHOLD = 0.9
EMBED_DIM = 256

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                   for _ in range(syllables))


def _names(rng: random.Random, count: int, syllables: int, taken: set) -> list[str]:
    """Distinct lowercase names of one fixed length, so that per-seed work
    does not depend on name lengths."""
    out = []
    while len(out) < count:
        name = word(rng, syllables)
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# knowledge base

class Kb:
    """Generated vocabulary: bool features (atom = feature name, value true)
    and enum features (one atom per value)."""

    def __init__(self, seed: int, n_bool: int, n_enum: int):
        rng = random.Random(f"kb:{seed}")
        taken = set(LONG_ACTIONS) | set(LAT_ACTIONS)
        self.bool_features = _names(rng, n_bool, 4, taken)
        self.enum_features = _names(rng, n_enum, 4, taken)
        self.unknown_atoms = _names(rng, 8, 4, taken)
        # atom -> (feature, value)
        self.atoms: dict[str, tuple[str, object]] = {f: (f, True) for f in self.bool_features}
        for e in self.enum_features:
            for v in ENUM_VALUES:
                self.atoms[f"{e}_{v}"] = (e, v)

    def to_json(self) -> dict:
        features = {f: {"kind": "bool"} for f in self.bool_features}
        features.update({e: {"kind": "enum", "values": list(ENUM_VALUES)}
                         for e in self.enum_features})
        return {
            "features": features,
            "longitudinal_actions": list(LONG_ACTIONS),
            "lateral_actions": list(LAT_ACTIONS),
            "groundings": {a: {"feature": f, "comparator": "=", "value": v}
                           for a, (f, v) in self.atoms.items()},
        }

    def random_state(self, rng: random.Random) -> dict:
        state = {f: rng.random() < 0.5 for f in self.bool_features}
        state.update({e: rng.choice(ENUM_VALUES) for e in self.enum_features})
        return state


# ---------------------------------------------------------------------------
# rules, as the benchmark understands them

class RuleSpec:
    """A G(antecedent -> consequent) rule: literals are (atom, polarity)."""

    def __init__(self, antecedent: list[tuple[str, bool]], long: str, lat: str | None):
        self.antecedent = antecedent
        self.long = long
        self.lat = lat

    def preconditions(self, kb: Kb) -> list[tuple[str, str, object]]:
        out = []
        for atom, pol in self.antecedent:
            feature, value = kb.atoms[atom]
            out.append((feature, "=" if pol else "!=", value))
        return out

    def body_key(self, kb: Kb) -> tuple:
        return (tuple(sorted(self.preconditions(kb), key=repr)), self.long, self.lat or "pass")

    def name(self, kb: Kb) -> str:
        pre = sorted(self.preconditions(kb), key=lambda p: (p[0], p[1], str(p[2])))
        parts = [f"{f}_{'eq' if c == '=' else 'ne'}_{str(v).lower()}" for f, c, v in pre]
        eff = [f"long_{self.long}"] + ([f"lat_{self.lat}"] if self.lat else [])
        return f"if_{'__'.join(parts)}__then_{'__'.join(eff)}".lower()

    def holds(self, kb: Kb, state: dict) -> bool:
        for feature, cmp, value in self.preconditions(kb):
            if feature not in state:
                return False
            if (state[feature] == value) != (cmp == "="):
                return False
        return True


def _literal_text(atom: str, pol: bool, rng: random.Random, double_neg: bool = False) -> str:
    if not pol:
        return f"!{atom}" if rng.random() < 0.5 else f"! {atom}"
    return f"!!{atom}" if double_neg else atom


def _conj(parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else "(" + " & ".join(parts) + ")"


def rule_formula(spec: RuleSpec, rng: random.Random, shuffle: bool = False) -> str:
    lits = list(spec.antecedent)
    if shuffle:
        rng.shuffle(lits)
    ante = _conj([_literal_text(a, p, rng, double_neg=shuffle and rng.random() < 0.5)
                  for a, p in lits])
    cons = [spec.long] + ([spec.lat] if spec.lat else [])
    if shuffle:
        rng.shuffle(cons)
    return f"G ({ante} -> {_conj(cons)})"


# ---------------------------------------------------------------------------
# the benchmark's own trigram-hash embedding and duplicate oracle

def embed(text: str) -> dict[int, float]:
    """Hashed character-trigram counts (md5, first four bytes, big-endian),
    as a sparse unit vector."""
    counts: dict[int, float] = {}
    padded = f"^{text}$"
    for i in range(max(1, len(padded) - 2)):
        h = int.from_bytes(hashlib.md5(padded[i:i + 3].encode()).digest()[:4], "big")
        counts[h % EMBED_DIM] = counts.get(h % EMBED_DIM, 0.0) + 1.0
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {k: c / norm for k, c in counts.items()}


def cosine(a: dict[int, float], b: dict[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b.get(k, 0.0) for k, v in a.items())


class DedupOracle:
    """Brute force: a candidate duplicates the store when some stored rule
    has the same body, or when its name's cosine similarity to some stored
    name reaches the threshold."""

    def __init__(self, kb: Kb):
        self.kb = kb
        self.bodies: set = set()
        self.vectors: list[dict[int, float]] = []

    def admit(self, spec: RuleSpec) -> bool:
        body = spec.body_key(self.kb)
        if body in self.bodies:
            return False
        vec = embed(spec.name(self.kb))
        if any(cosine(vec, v) >= DUPLICATION_THRESHOLD for v in self.vectors):
            return False
        self.bodies.add(body)
        self.vectors.append(vec)
        return True


# ---------------------------------------------------------------------------
# corpus

CORPUS_MIXES = {
    # share of each segment kind; the rest are fresh rules
    "formalize": {"exact_dup": 0.10, "near_dup": 0.10, "temporal": 0.10,
                  "unknown_atom": 0.07, "unparseable": 0.07, "contradictory": 0.06},
    "train": {"exact_dup": 0.02, "near_dup": 0.02, "temporal": 0.02,
              "unknown_atom": 0.02, "unparseable": 0.02, "contradictory": 0.02},
}


def _fresh_rule(kb: Kb, rng: random.Random) -> RuleSpec:
    n = rng.choice((1, 2, 2, 3))
    features = rng.sample(kb.bool_features + kb.enum_features, n)
    lits = []
    for f in features:
        if f in kb.atoms:
            lits.append((f, rng.random() < 0.7))
        else:
            lits.append((f"{f}_{rng.choice(ENUM_VALUES)}", rng.random() < 0.8))
    lat = rng.choice(LAT_ACTIONS) if rng.random() < 0.5 else None
    return RuleSpec(sorted(lits), rng.choice(LONG_ACTIONS), lat)


def _near_dup(spec: RuleSpec, kb: Kb, rng: random.Random) -> RuleSpec:
    """Same rule with one literal moved to a sibling enum value (or one bool
    literal flipped), so the body differs while the name barely does."""
    lits = list(spec.antecedent)
    i = rng.randrange(len(lits))
    atom, pol = lits[i]
    feature, value = kb.atoms[atom]
    if value is True:
        lits[i] = (atom, not pol)
    else:
        other = rng.choice([v for v in ENUM_VALUES if v != value])
        lits[i] = (f"{feature}_{other}", pol)
    return RuleSpec(sorted(lits), spec.long, spec.lat)


def _describe(text_parts: list[str], rng: random.Random) -> str:
    lead = rng.choice(("When", "Whenever", "If", "As soon as"))
    return f"{lead} {' and '.join(text_parts)}, the driver reacts accordingly."


def make_corpus(kb: Kb, seed: int, n_segments: int, mix: str
                ) -> tuple[list[dict], list[str], list[RuleSpec]]:
    """Returns the corpus records, the expected outcome tag of each segment
    and the rules expected in the store, in insertion order."""
    rng = random.Random(f"corpus:{seed}:{mix}")
    shares = CORPUS_MIXES[mix]
    kinds = []
    for kind, share in shares.items():
        kinds += [kind] * round(share * n_segments)
    # duplicates need an earlier rule: the first tenth is fresh rules
    head = max(1, n_segments // 10)
    kinds += ["fresh"] * (n_segments - head - len(kinds))
    rng.shuffle(kinds)
    kinds = ["fresh"] * head + kinds

    oracle = DedupOracle(kb)
    records, tags, rules = [], [], []
    seen: list[RuleSpec] = []
    for i, kind in enumerate(kinds):
        spec = None
        if kind == "fresh":
            spec = _fresh_rule(kb, rng)
            initial = rule_formula(spec, rng)
        elif kind == "exact_dup":
            spec = rng.choice(seen)
            initial = rule_formula(spec, rng, shuffle=True)
        elif kind == "near_dup":
            spec = _near_dup(rng.choice(seen), kb, rng)
            initial = rule_formula(spec, rng)
        elif kind == "temporal":
            base = _fresh_rule(kb, rng)
            ante = _conj([_literal_text(a, p, rng) for a, p in base.antecedent])
            shape = rng.randrange(4)
            initial = (f"G ({ante} -> F ({base.long}))", f"G ({ante} -> X ({base.long}))",
                       f"({ante} U {base.long})", f"F ({base.long})")[shape]
        elif kind == "unknown_atom":
            base = _fresh_rule(kb, rng)
            lits = base.antecedent + [(rng.choice(kb.unknown_atoms), True)]
            initial = rule_formula(RuleSpec(lits, base.long, base.lat), rng)
        elif kind == "unparseable":
            base = _fresh_rule(kb, rng)
            initial = rule_formula(base, rng)
            initial = (initial[:-1], initial.replace("->", "- >"),
                       initial.replace(" -> ", " -> & "))[rng.randrange(3)]
        else:  # contradictory: one enum feature asserted at two values
            e = rng.choice(kb.enum_features)
            v1, v2 = rng.sample(ENUM_VALUES, 2)
            bad = RuleSpec([(f"{e}_{v1}", True), (f"{e}_{v2}", True)], rng.choice(LONG_ACTIONS), None)
            initial = rule_formula(bad, rng)

        if kind in ("fresh", "exact_dup", "near_dup"):
            if oracle.admit(spec):
                tag = "Viable"
                rules.append(spec)
                seen.append(spec)
            else:
                tag = "DuplicatedContent"
        elif kind in ("temporal", "unknown_atom"):
            tag = "InferenceError"
        else:
            tag = "FormatMismatch"
        phrases = [w for w in initial.replace("(", " ").replace(")", " ").split()
                   if w[0].isalpha() and w not in ("G", "F", "X", "U")]
        records.append({"id": f"s{i:05d}", "text": _describe(phrases or ["nothing"], rng),
                        "initial": initial, "kind": kind})
        tags.append(tag)
    return records, tags, rules


# ---------------------------------------------------------------------------
# episodes

def make_episodes(kb: Kb, rules: list[RuleSpec], seed: int, n_episodes: int,
                  length: int, distinct_states: int | None) -> list[list[tuple[dict, dict]]]:
    """Episodes of (state, reference) steps. With `distinct_states` set,
    every state is one of that many prototypes; otherwise each step draws a
    fresh state. The reference driver follows the first rule that holds,
    with 10 % label noise so that decision distributions are not
    degenerate."""
    rng = random.Random(f"episodes:{seed}:{distinct_states}")
    prototypes = ([kb.random_state(rng) for _ in range(distinct_states)]
                  if distinct_states else None)
    episodes = []
    for _ in range(n_episodes):
        steps = []
        current = rng.randrange(distinct_states) if prototypes else 0
        for _ in range(length):
            if prototypes:
                if rng.random() < 0.3:
                    current = rng.randrange(distinct_states)
                state = prototypes[current]
            else:
                state = kb.random_state(rng)
            long, lat = "keep", "keep_lane"
            for r in rules:
                if r.holds(kb, state):
                    long, lat = r.long, r.lat or lat
                    break
            if rng.random() < 0.1:
                long = rng.choice(LONG_ACTIONS)
            if rng.random() < 0.1:
                lat = rng.choice(LAT_ACTIONS)
            steps.append((state, {"longitudinal": long, "lateral": lat}))
        episodes.append(steps)
    return episodes


def episodes_jsonl(episodes: list[list[tuple[dict, dict]]]) -> str:
    lines = []
    for i, steps in enumerate(episodes):
        for t, (state, ref) in enumerate(steps):
            lines.append(json.dumps({"episode": i, "scenario": "generated",
                                     "subject": "reference", "t": t,
                                     "state": state, "reference": ref}, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# translation pairs

class _F:
    """Tiny formula tree for pair generation: op in atom/not/and/or/implies/
    F/X/G/U/true."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, *args):
        self.op = op
        self.args = args


def _render(f: _F, rng: random.Random) -> str:
    op = f.op
    if op == "atom":
        return f.args[0]
    if op == "true":
        return "true"
    if op == "not":
        return f"!({_render(f.args[0], rng)})" if rng.random() < 0.5 else f"! ({_render(f.args[0], rng)})"
    if op in ("F", "X", "G"):
        return f"{op} ({_render(f.args[0], rng)})"
    sym = {"and": "&", "or": "|", "implies": "->", "U": "U"}[op]
    return f"({_render(f.args[0], rng)} {sym} {_render(f.args[1], rng)})"


def _boolean(rng: random.Random, atoms: list[str], depth: int) -> _F:
    if depth <= 0 or rng.random() < 0.3:
        return _F("atom", rng.choice(atoms))
    op = rng.choice(("not", "and", "or", "implies"))
    if op == "not":
        return _F("not", _boolean(rng, atoms, depth - 1))
    return _F(op, _boolean(rng, atoms, depth - 1), _boolean(rng, atoms, depth - 1))


def _rewrite(f: _F, rng: random.Random) -> _F:
    """An equivalent formula under the canonicalizer's identities:
    commutation of & and |, De Morgan, -> as |, F as true U, G as !F!,
    double negation and true units."""
    op, args = f.op, f.args
    if op in ("atom", "true"):
        if op == "atom" and rng.random() < 0.15:
            return _F("not", _F("not", f))
        return f
    sub = [_rewrite(a, rng) for a in args]
    r = rng.random()
    if op == "and":
        if r < 0.3:
            sub.reverse()
        out = _F("and", *sub)
        return _F("and", out, _F("true")) if rng.random() < 0.1 else out
    if op == "or":
        if r < 0.4:
            return _F("not", _F("and", _F("not", sub[0]), _F("not", sub[1])))
        return _F("or", *(sub[::-1] if r < 0.7 else sub))
    if op == "implies":
        return _F("or", _F("not", sub[0]), sub[1]) if r < 0.5 else _F("implies", *sub)
    if op == "F":
        return _F("U", _F("true"), sub[0]) if r < 0.5 else _F("F", sub[0])
    if op == "G":
        return _F("not", _F("F", _F("not", sub[0]))) if r < 0.5 else _F("G", sub[0])
    if op == "not":
        return _F("not", sub[0])
    return _F(op, *sub)


def _with_fresh_atom(f: _F, fresh: str, rng: random.Random) -> _F:
    """Replaces one atom occurrence by an atom the reference never uses."""
    leaves = []

    def walk(node, path):
        if node.op == "atom":
            leaves.append(path)
        for i, a in enumerate(node.args if node.op != "atom" else ()):
            walk(a, path + (i,))

    walk(f, ())
    target = rng.choice(leaves)

    def rebuild(node, path):
        if path == target:
            return _F("atom", fresh)
        if node.op == "atom":
            return node
        return _F(node.op, *(rebuild(a, path + (i,)) for i, a in enumerate(node.args)))

    return rebuild(f, ())


def make_pairs(seed: int, n_pairs: int) -> list[dict]:
    """(prediction, reference) pairs. Half the references are convertible
    G(conjunction -> conjunction) rules, half carry F, X or U. Each
    prediction is an equivalent rewrite (label 'equivalent') or a mutation
    that changes the canonical form (label 'mutation')."""
    rng = random.Random(f"pairs:{seed}")
    taken: set = set(LONG_ACTIONS) | set(LAT_ACTIONS)
    atoms = _names(rng, 24, 4, taken)
    fresh_atoms = _names(rng, 8, 4, taken)
    pairs = []
    for _ in range(n_pairs):
        convertible = rng.random() < 0.5
        equivalent = rng.random() < 0.5
        if convertible:
            lits = [(a, rng.random() < 0.7) for a in rng.sample(atoms, rng.randint(1, 4))]
            cons = rng.sample(LONG_ACTIONS, 1) + (rng.sample(LAT_ACTIONS, 1) if rng.random() < 0.5 else [])
            spec = RuleSpec(lits, cons[0], cons[1] if len(cons) > 1 else None)
            reference = rule_formula(spec, rng)
            if equivalent:
                prediction = rule_formula(spec, rng, shuffle=True)
                if rng.random() < 0.3:  # a repeated literal is deduplicated
                    a, p = rng.choice(lits)
                    dup = _literal_text(a, p, rng)
                    prediction = prediction.replace("G (", f"G ({dup} & ", 1)
            else:
                kind = rng.randrange(3)
                if kind == 0:  # flip one literal
                    i = rng.randrange(len(lits))
                    lits2 = list(lits)
                    lits2[i] = (lits2[i][0], not lits2[i][1])
                    prediction = rule_formula(RuleSpec(lits2, spec.long, spec.lat), rng, shuffle=True)
                elif kind == 1:  # unknown atom in place of one literal
                    i = rng.randrange(len(lits))
                    lits2 = list(lits)
                    lits2[i] = (rng.choice(fresh_atoms), lits2[i][1])
                    prediction = rule_formula(RuleSpec(lits2, spec.long, spec.lat), rng)
                else:  # truncated: unparseable
                    prediction = reference[:-1]
        else:
            body = _boolean(rng, atoms, 3)
            top = rng.randrange(4)
            if top == 0:
                tree = _F("F", body)
            elif top == 1:
                tree = _F("X", body)
            elif top == 2:
                tree = _F("U", body, _boolean(rng, atoms, 2))
            else:
                tree = _F("G", _F("implies", body, _F("F", _boolean(rng, atoms, 1))))
            reference = _render(tree, rng)
            if equivalent:
                prediction = _render(_rewrite(tree, rng), rng)
            else:
                kind = rng.randrange(3)
                if kind == 0:
                    prediction = _render(_with_fresh_atom(_rewrite(tree, rng),
                                                          rng.choice(fresh_atoms), rng), rng)
                elif kind == 1:  # negation of the whole formula
                    prediction = _render(_F("not", _rewrite(tree, rng)), rng)
                else:
                    prediction = reference[:-1]
        pairs.append({"prediction": prediction, "reference": reference,
                      "label": "equivalent" if equivalent else "mutation",
                      "convertible": convertible})
    return pairs
