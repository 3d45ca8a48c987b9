"""Independent reference implementations used to cross-check the package:
brute-force cosine dedup, direct-summation JS divergence, a Fraction-based
smoothed BLEU, per-slot marginals summed over action pairs, the LTL
normal form stated directly, the episodes file written a record at a
time, the conflict set checked a precondition at a time, the LTL
nodes and the records built only in code as dataclasses, a JSON Lines
file read by `json.loads` a line at a time, and the training loop
written out step by step.
Deliberately written against the textbook definitions, not the package
code paths."""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cogrules import ltl


def bleu_oracle(prediction, reference, max_n=4):
    """Smoothed BLEU: exact geometric mean of modified n-gram precisions
    (add-one smoothing for n >= 2) times the brevity penalty."""
    if not prediction:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        counts = {}
        for i in range(len(prediction) - n + 1):
            g = tuple(prediction[i:i + n])
            counts[g] = counts.get(g, 0) + 1
        ref_counts = {}
        for i in range(len(reference) - n + 1):
            g = tuple(reference[i:i + n])
            ref_counts[g] = ref_counts.get(g, 0) + 1
        clipped = sum(min(c, ref_counts.get(g, 0)) for g, c in counts.items())
        total = max(0, len(prediction) - n + 1)
        if n == 1:
            if clipped == 0:
                return 0.0
            precisions.append(Fraction(clipped, total))
        else:
            precisions.append(Fraction(clipped + 1, total + 1))
    # the logs are summed left to right, n = 1 first, so that the float
    # result can be compared bit for bit
    log_sum = 0.0
    for p in precisions:
        log_sum += math.log(float(p))
    geo = math.exp(log_sum / max_n)
    bp = 1.0
    if len(prediction) < len(reference):
        bp = math.exp(1 - len(reference) / len(prediction))
    return geo * bp


def kl_base2(p, q, support):
    total = 0.0
    for key in support:
        pi = p.get(key, 0.0)
        if pi == 0.0:
            continue
        total += pi * math.log2(pi / q[key])
    return total


def js_oracle(p, q):
    support = sorted(set(p) | set(q))
    m = {k: (p.get(k, 0.0) + q.get(k, 0.0)) / 2 for k in support}
    return 0.5 * kl_base2(p, m, support) + 0.5 * kl_base2(q, m, support)


def cosine(u, v):
    num = sum(a * b for a, b in zip(u, v))
    du = math.sqrt(sum(a * a for a in u))
    dv = math.sqrt(sum(b * b for b in v))
    if du == 0 or dv == 0:
        return 0.0
    return num / (du * dv)


def dedup_oracle(candidate_name, candidate_body, store, embed, threshold, top_k=5):
    """True means duplicate. store: list of (name, body) pairs."""
    for name, body in store:
        if body == candidate_body:
            return True
    if not store:
        return False
    cand = embed(candidate_name)
    sims = sorted(((cosine(cand, embed(name)), name) for name, _ in store),
                  key=lambda s: (-s[0], s[1]))
    return any(sim >= threshold for sim, _ in sims[:top_k])


def summed_marginals(dist):
    """Per-slot marginals of an "lon/lat" action-pair distribution, summed
    over the pairs; the key None stands for `none`."""
    lon, lat = {}, {}
    for key, p in dist.items():
        a, b = (None if x == "none" else x for x in key.split("/"))
        lon[a] = lon.get(a, 0.0) + p
        lat[b] = lat.get(b, 0.0) + p
    return lon, lat


def canonical_oracle(f):
    """The normal form `ltl.canonicalize` promises, built node by node: a
    convertible formula is G(literal chain -> literal chain) over `classify`'s
    sorted literals; otherwise |, ->, F and G become !, & and U, double
    negations and true conjuncts go, and every conjunction is one right-nested
    chain of its conjuncts sorted by `to_string`."""
    verdict = ltl.classify(f)
    if isinstance(verdict, ltl.Convertible):
        return ltl.Globally(ltl.Implies(_literal_chain(verdict.antecedent),
                                        _literal_chain(verdict.consequent)))
    return _normal(f)


def _chain(conjuncts):
    result = conjuncts[-1]
    for g in reversed(conjuncts[:-1]):
        result = ltl.And(g, result)
    return result


def _literal_chain(literals):
    return _chain([ltl.Atom(n) if positive else ltl.Not(ltl.Atom(n))
                   for n, positive in literals])


def _not(g):
    return g.operand if isinstance(g, ltl.Not) else ltl.Not(g)


def _and(left, right):
    conjuncts = []
    for g in (left, right):
        while isinstance(g, ltl.And):  # a normal-form chain nests to the right
            conjuncts.append(g.left)
            g = g.right
        if not isinstance(g, ltl.TrueConst):
            conjuncts.append(g)
    return _chain(sorted(conjuncts, key=ltl.to_string)) if conjuncts else ltl.TRUE


def _normal(f):
    if isinstance(f, (ltl.Atom, ltl.TrueConst)):
        return f
    if isinstance(f, ltl.Not):
        return _not(_normal(f.operand))
    if isinstance(f, ltl.And):
        return _and(_normal(f.left), _normal(f.right))
    if isinstance(f, ltl.Or):
        return _not(_and(_not(_normal(f.left)), _not(_normal(f.right))))
    if isinstance(f, ltl.Implies):
        return _not(_and(_normal(f.left), _not(_normal(f.right))))
    if isinstance(f, ltl.Next):
        return ltl.Next(_normal(f.operand))
    if isinstance(f, ltl.Until):
        return ltl.Until(_normal(f.left), _normal(f.right))
    if isinstance(f, ltl.Finally):
        return ltl.Until(ltl.TRUE, _normal(f.operand))
    assert isinstance(f, ltl.Globally), f
    return ltl.Not(ltl.Until(ltl.TRUE, _not(_normal(f.operand))))


def episodes_jsonl_oracle(episodes):
    """The episodes file's text: per step, one `json.dumps(..., sort_keys=True)`
    of its whole record, the reference as an object with both slots."""
    lines = []
    for i, episode in enumerate(episodes):
        for state, ref in episode.steps:
            record = {"t": state.t, "state": state.as_dict(),
                      "reference": {"longitudinal": ref.longitudinal, "lateral": ref.lateral},
                      "episode": i, "scenario": episode.scenario_id,
                      "subject": episode.subject_id}
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def read_jsonl_oracle(path):
    """(line number, value) for each nonblank line, every line through
    `json.loads`; a syntax error is a ValueError naming the file and the line."""
    for n, line in enumerate(Path(path).read_text().split("\n"), 1):
        if line.strip():
            try:
                value = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path} line {n}: {e.msg} at column {e.colno}") from None
            yield n, value


def match_oracle(state, rules):
    """The conflict set: the rules whose every precondition holds, sorted by
    name, ties in list order. A precondition holds when its feature is in
    the state and the state's value equals (`=`) or differs from (`!=`) its
    value."""
    feats = state.as_dict()

    def holds(feature, cmp, value):
        return feature in feats and (feats[feature] == value) == (cmp == "=")
    return sorted((r for r in rules if all(holds(*p) for p in r.preconditions)),
                  key=lambda r: r.name)


def train_oracle(rules, episodes, cfg):
    """The training loop from its definitions, with no `RuleSet`, plan or
    cache: (utilities, [(agreement, mean utility)] per epoch, the names of
    the rules that filled each cycle's two slots, None for an empty slot).

    Every utility starts at `cfg.initial_utility`, and one `random.Random`
    seeded with `cfg.seed` shuffles the episodes once an epoch and draws
    each softmax. Each step of an episode is one cycle: its conflict set is
    `match_oracle`'s; the longitudinal candidates compete first, and a
    winner with a lateral effect fills both slots; only if the lateral slot
    is still empty do the rules with a lateral effect compete for it. A
    softmax over utilities U_i picks rule i with probability
    exp(U_i / sigma) / sum_j exp(U_j / sigma), computed with the largest
    U / sigma subtracted, and draws by the first cumulative sum past one
    `rng.random()` (the last rule if none is). Then, per slot, the filler's
    firing joins the slot's pending firings; when the reference names the
    slot's action, the slot is compared: the reward R is the positive one if
    the filler's action is the reference's, else the negative one, each
    pending firing at time t gets r = R - decay * (now - t) and the update
    U <- U + alpha * (r - U), in firing order, and the slot's pending
    firings are cleared. Agreement is the share of compared slots that hit."""
    rng = random.Random(cfg.seed)
    utilities = [cfg.initial_utility] * len(rules)
    curve, draws = [], []

    def draw(candidates):
        m = max(utilities[i] for i in candidates) / cfg.sigma
        terms = [math.exp(utilities[i] / cfg.sigma - m) for i in candidates]
        total = sum(terms)
        x, cumulative = rng.random(), 0.0
        for i, term in zip(candidates, terms):
            cumulative += term / total
            if x < cumulative:
                return i
        return candidates[-1]

    for _ in range(cfg.epochs):
        order = list(range(len(episodes)))
        rng.shuffle(order)
        agreed = compared = 0
        for e in order:
            pending = {"longitudinal": [], "lateral": []}
            for state, ref in episodes[e].steps:
                conflict = [next(i for i, r in enumerate(rules) if r is hit)
                            for hit in match_oracle(state, rules)]
                lon = [i for i in conflict if rules[i].effects.longitudinal is not None]
                lat = [i for i in conflict if rules[i].effects.lateral is not None]
                fillers = {"longitudinal": draw(lon) if lon else None, "lateral": None}
                winner = fillers["longitudinal"]
                if winner is not None and rules[winner].effects.lateral is not None:
                    fillers["lateral"] = winner
                elif lat:
                    fillers["lateral"] = draw(lat)
                draws.append([None if i is None else rules[i].name for i in fillers.values()])
                for slot, filler in fillers.items():
                    if filler is not None:
                        pending[slot].append((state.t, filler))
                    wanted = getattr(ref, slot)
                    if wanted is None:
                        continue
                    hit = filler is not None and getattr(rules[filler].effects, slot) == wanted
                    compared += 1
                    agreed += hit
                    reward = cfg.reward_positive if hit else cfg.reward_negative
                    for t, i in pending[slot]:
                        r = reward - cfg.decay * (state.t - t)
                        utilities[i] = utilities[i] + cfg.learning_rate * (r - utilities[i])
                    pending[slot] = []
        curve.append((agreed / compared if compared else 0.0,
                      sum(utilities) / len(rules) if rules else 0.0))
    return utilities, curve, draws


# The LTL node classes as frozen, slotted dataclasses: equality, hashing,
# repr and positional matching as `dataclasses` generates them, which the
# package's hand-written nodes promise to keep.

@dataclass(frozen=True, slots=True)
class TrueConst:
    pass


@dataclass(frozen=True, slots=True)
class Atom:
    name: str

    def __post_init__(self):
        if not ltl.is_atom_name(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class Not:
    operand: object


@dataclass(frozen=True, slots=True)
class And:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Next:
    operand: object


@dataclass(frozen=True, slots=True)
class Until:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Finally:
    operand: object


@dataclass(frozen=True, slots=True)
class Globally:
    operand: object


NODE_TWINS = {ltl.TrueConst: TrueConst, ltl.Atom: Atom, ltl.Not: Not, ltl.And: And,
              ltl.Or: Or, ltl.Implies: Implies, ltl.Next: Next, ltl.Until: Until,
              ltl.Finally: Finally, ltl.Globally: Globally}


def dataclass_twin(f):
    """`f` rebuilt from the dataclass twins of its node classes."""
    twin = NODE_TWINS[type(f)]
    if isinstance(f, ltl.Atom):
        return twin(f.name)
    return twin(*(dataclass_twin(getattr(f, name)) for name in twin.__match_args__))


# The records the package builds only in code, as the dataclasses they were
# declared as: equality, hashing and repr as `dataclasses` generates them,
# and the same refusals, which the package's `record.Record` classes keep.
# CriticVerdict and CurvePoint were mutable dataclasses, which no caller
# changed; as records they are frozen, so their twins are too.

@dataclass(frozen=True)
class Outcome:
    tag: str
    detail: str = ""
    rule: object = None
    similarity: float | None = None


@dataclass(frozen=True)
class CriticVerdict:
    approved: bool
    feedback: str = ""

    def __post_init__(self):
        if not self.approved and not self.feedback:
            raise ValueError("disapproval requires feedback")


@dataclass(frozen=True)
class WorldState:
    features: tuple
    t: int = 0


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role {self.role!r}")
        if not isinstance(self.content, str):
            raise ValueError(f"content must be a string, not {type(self.content).__name__}")
        if self.role in ("user", "assistant") and not self.content:
            raise ValueError("user/assistant content must be nonempty")


@dataclass(frozen=True)
class Convertible:
    antecedent: tuple
    consequent: tuple


@dataclass(frozen=True)
class InferenceError:
    reason: str


@dataclass(frozen=True)
class CurvePoint:
    epoch: int
    agreement: float
    mean_utility: float
