"""Linear temporal logic ASTs: parsing, printing, canonicalization and
classification into the production-rule-convertible fragment.

Core grammar: true | atom | phi & phi | ! phi | X phi | phi U phi.
G, F, ->, | are carried as first-class derived nodes so that round-tripping
preserves the surface form the user wrote.
"""

from __future__ import annotations

from operator import itemgetter

from .record import Record


class Ltl(Record):
    """Base class for all formula nodes, which are records: immutable, equal
    when of one class with equal fields, and hashed, printed, copied and
    pickled by their fields. The node classes set each field through its
    slot's descriptor."""

    __slots__ = ()


class TrueConst(Ltl):
    __slots__ = ()


class Atom(Ltl):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not is_atom_name(name):
            raise ValueError(f"invalid atom name: {name!r}")
        _set_name(self, name)


class _Unary(Ltl):
    """A node with one operand."""

    __slots__ = ("operand",)

    def __init__(self, operand: Ltl):
        _set_operand(self, operand)


class _Binary(Ltl):
    """A node with a left and a right operand."""

    __slots__ = ("left", "right")

    def __init__(self, left: Ltl, right: Ltl):
        _set_left(self, left)
        _set_right(self, right)


_set_name = Atom.name.__set__
_set_operand = _Unary.operand.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Finally(_Unary):
    __slots__ = ()


class Globally(_Unary):
    __slots__ = ()


TRUE = TrueConst()


class ParseError(ValueError):
    """Raised on malformed input; carries the offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


# the operators, by lexeme; a binary one as (precedence, right-associative, node
# class), higher binding tighter
_UNARY = {"!": Not, "G": Globally, "F": Finally, "X": Next}
_BINARY = {"->": (1, True, Implies), "|": (2, False, Or), "&": (3, False, And),
           "U": (4, True, Until)}
# each operator node class: (its lexeme, whether it takes one operand)
_OPERATORS = {**{cls: (lexeme, True) for lexeme, cls in _UNARY.items()},
              **{cls: (lexeme, False) for lexeme, (_, _, cls) in _BINARY.items()}}
_FIXED = frozenset(("(", ")", "true", "false", *_UNARY, *_BINARY))  # all lexemes but atoms
_OPERAND = ("atom", "true", "(", *_UNARY)  # what a formula may start with
_CONSTANTS = {"true": TRUE, "false": Not(TRUE)}


def is_atom_name(name: str) -> bool:
    """An ASCII identifier that is not a keyword (true, false, G, F, X, U)."""
    return name.isascii() and name.isidentifier() and name not in _FIXED


CACHE_LEXEMES = 4096  # distinct lexemes, and atom names, that each table below keeps


class _Atoms(dict):
    """One Atom node per name, built and checked when the name enters the
    table; emptied when full."""

    __slots__ = ()

    def __missing__(self, name: str) -> Atom:
        if len(self) >= CACHE_LEXEMES:
            self.clear()
        atom = self[name] = Atom(name)
        return atom


_ATOMS = _Atoms()
_LEXEMES: set[str] = set()  # lexemes known to be valid; emptied when full


def _split(text: str) -> list[str]:
    return (text.replace("->", " -> ").replace("(", " ( ").replace(")", " ) ")
            .replace("!", " ! ").replace("&", " & ").replace("|", " | ").split())


def _offset(text: str, i: int) -> int:
    """The offset in `text` of its `i`-th lexeme, or the length of `text` past the last."""
    lexemes = _split(text)
    if i >= len(lexemes):
        return len(text)
    pos = 0
    for lexeme in lexemes[:i]:
        pos = text.find(lexeme, pos) + len(lexeme)
    return text.find(lexemes[i], pos)


def tokenize(text: str) -> list[str]:
    """The lexemes of `text`: operators, parentheses, keywords and atom names.
    Only lexemes not yet known to be valid are checked; a ParseError names the
    first character that cannot be in an atom."""
    lexemes = _split(text)
    if not _LEXEMES.issuperset(lexemes):
        for i, lexeme in enumerate(lexemes):
            if lexeme not in _FIXED and not is_atom_name(lexeme):
                bad = next(j for j, c in enumerate(lexeme) if j == 0 and c.isdigit()
                           or not (c.isascii() and (c.isalnum() or c == "_")))
                raise ParseError(f"unexpected character {lexeme[bad]!r}",
                                 _offset(text, i) + bad, ("operator", "atom", "parenthesis"))
            if len(_LEXEMES) >= CACHE_LEXEMES:
                _LEXEMES.clear()
            _LEXEMES.add(lexeme)
    return lexemes


class _Parser:
    """Precedence climbing, low to high: -> | & U unary."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.n = len(self.tokens)
        self.i = 0

    def parse(self) -> Ltl:
        f = self.expression(1)
        if self.i < self.n:
            raise ParseError("trailing input", _offset(self.text, self.i), ("end of input",))
        return f

    def expression(self, min_prec: int) -> Ltl:
        tokens = self.tokens
        n = self.n
        left = self.unary()
        while self.i < n:
            info = _BINARY.get(tokens[self.i])
            if info is None or info[0] < min_prec:
                break
            prec, right_assoc, ctor = info
            self.i += 1
            right = self.expression(prec if right_assoc else prec + 1)
            left = ctor(left, right)
        return left

    def unary(self) -> Ltl:
        i = self.i
        if i >= self.n:
            raise ParseError("unexpected end of input", _offset(self.text, i), _OPERAND)
        lexeme = self.tokens[i]
        self.i = i + 1
        if lexeme not in _FIXED:
            return _ATOMS[lexeme]
        if lexeme in _UNARY:
            return _UNARY[lexeme](self.unary())
        if lexeme == "(":
            f = self.expression(1)
            if self.i >= self.n or self.tokens[self.i] != ")":
                raise ParseError("unbalanced parenthesis", _offset(self.text, self.i), (")",))
            self.i += 1
            return f
        if lexeme in _CONSTANTS:
            return _CONSTANTS[lexeme]
        raise ParseError("unexpected token", _offset(self.text, i), _OPERAND)


def parse(text: str) -> Ltl:
    if not text or not text.strip():
        raise ParseError("empty input", 0, ("formula",))
    return _Parser(text).parse()


def to_string(f: Ltl) -> str:
    """Deterministic rendering; parse(to_string(f)) == f structurally."""
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls is TrueConst:
        return "true"
    if cls not in _OPERATORS:
        raise TypeError(f"not a formula: {f!r}")
    lexeme, unary = _OPERATORS[cls]
    if unary:
        return f"{lexeme} ({to_string(f.operand)})"
    return f"({to_string(f.left)} {lexeme} {to_string(f.right)})"


# (canonical node, its printed form, its parts): a Not's parts are its operand's
# triple, an And chain's the sorted list of its conjuncts' triples, others' None
_Canon = tuple[Ltl, str, "_Canon | list[_Canon] | None"]
_printed = itemgetter(1)


def _negate(c: _Canon) -> _Canon:
    node, key, parts = c
    if type(node) is Not:  # double negation
        return parts
    return Not(node), f"! ({key})", c


def _conjoin(left: _Canon, right: _Canon) -> _Canon:
    """The conjunction of two canonical values: their conjuncts in one chain
    sorted by printed form, true units dropped."""
    flat: list[_Canon] = []
    for c in (left, right):
        cls = type(c[0])
        if cls is And:  # a nested chain contributes its conjuncts
            flat += c[2]
        elif cls is not TrueConst:
            flat.append(c)
    if len(flat) < 2:
        return flat[0] if flat else (TRUE, "true", None)
    flat.sort(key=_printed)
    node, key, _ = flat[-1]
    for p, kp, _ in reversed(flat[:-1]):
        node = And(p, node)
        key = f"({kp} & {key})"
    return node, key, flat


def _canon(f: Ltl) -> _Canon:
    """Rewrite to normal form, carrying each node's printed form and parts
    bottom-up so conjunction sorting never re-renders subtrees."""
    cls = type(f)
    if cls is Atom:
        return f, f.name, None
    if cls is TrueConst:
        return f, "true", None
    if cls is Not:
        return _negate(_canon(f.operand))
    if cls is And:
        return _conjoin(_canon(f.left), _canon(f.right))
    if cls is Or:  # a | b == !(!a & !b)
        return _negate(_conjoin(_negate(_canon(f.left)), _negate(_canon(f.right))))
    if cls is Implies:  # a -> b == !(a & !b)
        return _negate(_conjoin(_canon(f.left), _negate(_canon(f.right))))
    if cls is Next:
        c, k, _ = _canon(f.operand)
        return Next(c), f"X ({k})", None
    if cls is Until:
        cl, kl, _ = _canon(f.left)
        cr, kr, _ = _canon(f.right)
        return Until(cl, cr), f"({kl} U {kr})", None
    if cls is Finally:
        c, k, _ = _canon(f.operand)
        return Until(TRUE, c), f"(true U {k})", None
    if cls is Globally:  # G a == !(true U !a)
        n, kn, _ = _negate(_canon(f.operand))
        return _negate((Until(TRUE, n), f"(true U {kn})", None))
    raise TypeError(f"not a formula: {f!r}")


def _literal_conjunction(lits: tuple["Literal", ...]) -> Ltl:
    nodes: list[Ltl] = [_ATOMS[n] if pol else Not(_ATOMS[n]) for n, pol in lits]
    result = nodes[-1]
    for p in reversed(nodes[:-1]):
        result = And(p, result)
    return result


def canonicalize(f: Ltl) -> Ltl:
    """Idempotent normal form. Convertible formulas normalize to
    G(sorted-literal-conjunction -> sorted-literal-conjunction) so the
    verdict survives canonicalization; everything else gets Or/Implies
    eliminated, F and G rewritten via U, conjunctions flattened and
    sorted, double negations and true units removed."""
    verdict = classify(f)
    if isinstance(verdict, Convertible):
        return Globally(Implies(_literal_conjunction(verdict.antecedent),
                                _literal_conjunction(verdict.consequent)))
    return _canon(f)[0]


Literal = tuple[str, bool]  # (atom name, polarity: True = positive)


class Convertible(Record):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: tuple[Literal, ...], consequent: tuple[Literal, ...]):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)


class InferenceError(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


ConvertibilityVerdict = Convertible | InferenceError


def _literals(f: Ltl) -> list[Literal] | None:
    """Flatten a conjunction of possibly-negated atoms; None if any
    conjunct is not a literal. Double negations are tolerated."""
    if isinstance(f, And):
        left = _literals(f.left)
        right = _literals(f.right)
        if left is None or right is None:
            return None
        return left + right
    g, polarity = f, True
    while isinstance(g, Not):
        g = g.operand
        polarity = not polarity
    if isinstance(g, Atom):
        return [(g.name, polarity)]
    return None


def _first_temporal(f: Ltl) -> str | None:
    cls = type(f)
    if cls is Finally or cls is Until or cls is Next:
        return cls.__name__
    if cls is Globally:
        return "Globally" if (inner := _first_temporal(f.operand)) is None else inner
    if cls is Not:
        return _first_temporal(f.operand)
    if cls is And or cls is Or or cls is Implies:
        return _first_temporal(f.left) or _first_temporal(f.right)
    return None


def classify(f: Ltl) -> ConvertibilityVerdict:
    """Convertible iff the formula is G(conjunction -> conjunction) over
    possibly-negated atoms; everything else is an inference error naming
    the offending operator or shape."""
    if not isinstance(f, Globally):
        op = _first_temporal(f)
        return InferenceError("not a globally-guarded implication" if op in (None, "Globally")
                              else op)
    body = f.operand
    if not isinstance(body, Implies):
        return InferenceError(_first_temporal(body) or "body is not an implication")
    # sides that _literals accepts hold no temporal operator, so one is named only on refusal
    antecedent = _literals(body.left)
    consequent = _literals(body.right)
    if antecedent is None or consequent is None:
        return InferenceError(_first_temporal(body) or "non-conjunctive body")

    def dedupe(lits: list[Literal]) -> tuple[Literal, ...] | None:
        seen: dict[str, bool] = {}
        for name, pol in lits:
            if name in seen and seen[name] != pol:
                return None  # contradictory literal pair
            seen[name] = pol
        return tuple(sorted(seen.items()))

    ant = dedupe(antecedent)
    con = dedupe(consequent)
    if ant is None or con is None:
        return InferenceError("contradictory literals")
    return Convertible(ant, con)


def to_json(f: Ltl) -> dict:
    cls = type(f)
    if cls is Atom:
        return {"op": "atom", "args": [f.name]}
    if cls is TrueConst:
        return {"op": "true", "args": []}
    if cls not in _OPERATORS:
        raise TypeError(f"not a formula: {f!r}")
    operands = (f.operand,) if _OPERATORS[cls][1] else (f.left, f.right)
    return {"op": cls.__name__.lower(), "args": [to_json(g) for g in operands]}
