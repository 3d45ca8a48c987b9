import copy
import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cogrules import ltl
from conftest import random_formula
import oracles
from oracles import canonical_oracle, dataclass_twin


def _positional(f, ns):
    """The class name and fields of `f`, read by a positional match on each
    node class of the namespace `ns` (`ltl`, or the dataclass twins)."""
    match f:
        case ns.TrueConst():
            return "TrueConst", ()
        case ns.Atom(name):
            return "Atom", (name,)
        case ns.Not(g):
            return "Not", (_positional(g, ns),)
        case ns.Next(g):
            return "Next", (_positional(g, ns),)
        case ns.Finally(g):
            return "Finally", (_positional(g, ns),)
        case ns.Globally(g):
            return "Globally", (_positional(g, ns),)
        case ns.And(l, r):
            return "And", (_positional(l, ns), _positional(r, ns))
        case ns.Or(l, r):
            return "Or", (_positional(l, ns), _positional(r, ns))
        case ns.Implies(l, r):
            return "Implies", (_positional(l, ns), _positional(r, ns))
        case ns.Until(l, r):
            return "Until", (_positional(l, ns), _positional(r, ns))
    raise AssertionError(f"no case matched {f!r}")


_A, _B = ltl.Atom("a"), ltl.Atom("b")
_EACH_CLASS = [  # one node of each class, with the names of its fields
    (ltl.TRUE, ()), (_A, ("name",)),
    *((cls(_A), ("operand",)) for cls in (ltl.Not, ltl.Next, ltl.Finally, ltl.Globally)),
    *((cls(_A, _B), ("left", "right")) for cls in (ltl.And, ltl.Or, ltl.Implies, ltl.Until))]


class TestNodeContract:
    """The nodes compare, hash, print, match, copy and refuse change as the
    frozen dataclasses in `oracles` do."""

    def test_nodes_agree_with_their_dataclass_twins(self):
        rng = random.Random(35)
        trees = [ltl.TRUE, ltl.parse("false"), _A, _B, ltl.Atom("ped_x")]
        trees += [random_formula(rng, 1 + i % 6) for i in range(5_000)]
        shuffled = trees[:]
        rng.shuffle(shuffled)
        rebuilt = [ltl.parse(ltl.to_string(f)) for f in trees]  # equal, mostly not identical
        for f, g in [*zip(trees, shuffled), *zip(trees, rebuilt)]:
            tf, tg = dataclass_twin(f), dataclass_twin(g)
            assert (f == g, f != g) == (tf == tg, tf != tg), (f, g)
            assert hash(f) == hash(tf)
            assert repr(f) == repr(tf)
            assert _positional(f, ltl) == _positional(tf, oracles)

    @pytest.mark.parametrize("node,fields", _EACH_CLASS,
                             ids=[type(node).__name__ for node, _ in _EACH_CLASS])
    def test_each_class_copies_pickles_and_refuses_change(self, node, fields):
        copies = [copy.copy(node), copy.deepcopy(node)]
        copies += [pickle.loads(pickle.dumps(node, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is type(node) and c == node and hash(c) == hash(node)
        for name in (*fields, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, _B)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert type(node).__match_args__ == fields
        assert node.__eq__(dataclass_twin(node)) is NotImplemented
        assert not hasattr(node, "__dict__")

    def test_equal_fields_of_two_classes_are_not_equal(self):
        assert ltl.And(_A, _B) != ltl.Or(_A, _B)
        assert ltl.Not(_A) != ltl.Next(_A)
        assert ltl.And(_A, _B) != oracles.And(_A, _B)
        assert hash(ltl.TRUE) == hash(())

    def test_a_bad_atom_name_is_refused_with_the_same_text(self):
        with pytest.raises(ValueError, match=r"^invalid atom name: '1x'$"):
            ltl.Atom("1x")
        with pytest.raises(ValueError, match=r"^invalid atom name: '1x'$"):
            oracles.Atom("1x")


class TestParse:
    def test_globally_implication(self):
        assert ltl.parse("G (a -> b)") == ltl.Globally(
            ltl.Implies(ltl.Atom("a"), ltl.Atom("b")))

    def test_until_with_conjunction(self):
        assert ltl.parse("a U (b & ! c)") == ltl.Until(
            ltl.Atom("a"), ltl.And(ltl.Atom("b"), ltl.Not(ltl.Atom("c"))))

    def test_convertible_shape(self):
        f = ltl.parse("G ((a & b) -> c)")
        assert f == ltl.Globally(ltl.Implies(
            ltl.And(ltl.Atom("a"), ltl.Atom("b")), ltl.Atom("c")))

    def test_whitespace_insensitive(self):
        assert ltl.parse("G(a->b)") == ltl.parse("  G ( a  ->  b ) ")

    def test_precedence_implies_lowest(self):
        assert ltl.parse("a & b -> c") == ltl.Implies(
            ltl.And(ltl.Atom("a"), ltl.Atom("b")), ltl.Atom("c"))

    def test_true_false_constants(self):
        assert ltl.parse("true") is ltl.TRUE
        assert ltl.parse("false") == ltl.Not(ltl.TRUE)

    @pytest.mark.parametrize("bad", ["", "   ", "G (a ->", "a &", "(a", "a b", "& a", "a -> @"])
    def test_errors_carry_offset(self, bad):
        with pytest.raises(ltl.ParseError) as exc:
            ltl.parse(bad)
        assert exc.value.offset >= 0

    @pytest.mark.parametrize("text,char,offset", [("a-b", "-", 1), ("G (a -> b-c)", "-", 9),
                                                  ("1x", "1", 0), ("ab$", "$", 2)])
    def test_an_error_names_the_first_character_that_cannot_be_in_an_atom(self, text, char,
                                                                          offset):
        with pytest.raises(ltl.ParseError) as exc:
            ltl.parse(text)
        assert f"unexpected character {char!r}" in str(exc.value)
        assert exc.value.offset == offset


def _texts(seed: int, n: int) -> list[str]:
    """Random formula-like texts; the lexer or the parser refuses about half."""
    rng = random.Random(seed)
    pieces = ["G", "F", "X", "U", "(", ")", "->", "!", "&", "|", " ", " ", "a", "b1", "c_d",
              "true", "false", "Ga", "-", "$", "é", "1x"]
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 12))) for _ in range(n)]


def _lexed_or_error(text: str):
    try:
        return ltl.tokenize(text)
    except ltl.ParseError as e:
        return str(e), e.offset


_VALID_LEXEME = re.compile(r"->|[()!&|]|[A-Za-z_][A-Za-z0-9_]*")


def _pieces(text: str) -> list[str]:
    """`text` split at whitespace and around each operator and parenthesis."""
    for op in ("->", "(", ")", "!", "&", "|"):
        text = text.replace(op, f" {op} ")
    return text.split()


def _parsed_or_error(text: str):
    try:
        return ltl.parse(text)
    except ltl.ParseError as e:
        return str(e), e.offset


def _atoms(f):
    match f:
        case ltl.Atom():
            yield f
        case ltl.Not(g) | ltl.Next(g) | ltl.Finally(g) | ltl.Globally(g):
            yield from _atoms(g)
        case ltl.And(l, r) | ltl.Or(l, r) | ltl.Implies(l, r) | ltl.Until(l, r):
            yield from _atoms(l)
            yield from _atoms(r)


class TestTables:
    """The lexer's table of lexemes and the parser's table of atoms change no
    token, tree or error, and stay within their bound."""

    def test_happy_path_tokens_equal_the_offsets_path(self):
        texts = _texts(17, 3000)
        names = [f"n{i} -> m{i}" for i in range(len(texts))]  # 6,000 distinct names
        expected = {}
        refused = 0
        for table in ("emptied", "warm", "overflowing"):
            for text, more in zip(texts, names):
                if table == "emptied":
                    ltl._LEXEMES.clear()
                for t in (more, text) if table == "overflowing" else (text,):
                    got = _lexed_or_error(t)
                    assert expected.setdefault(t, got) == got, (table, t)
                    assert len(ltl._LEXEMES) <= ltl.CACHE_LEXEMES
                    pieces = _pieces(t)
                    bad = [p for p in pieces if not _VALID_LEXEME.fullmatch(p)]
                    if isinstance(got, tuple):
                        refused += 1
                        assert bad and ltl._LEXEMES.isdisjoint(bad), t
                    else:
                        assert got == pieces and not bad, t
        assert 3 * 500 < refused < 3 * 2500
        assert ltl.tokenize("a & a") == ["a", "&", "a"]

    def test_parse_builds_equal_trees_with_one_atom_per_name(self):
        rng = random.Random(19)
        texts = _texts(19, 1500) + [ltl.to_string(random_formula(rng, 5)) for _ in range(1500)]
        texts += ["G (c_d & ! a -> b1 & ! c_d)", "G (! ! a & a -> b1)"]
        cold = []
        for text in texts:
            ltl._LEXEMES.clear()
            ltl._ATOMS.clear()
            cold.append(_parsed_or_error(text))
        warm = [_parsed_or_error(text) for text in texts]
        assert warm == cold
        trees = [f for f in warm if isinstance(f, ltl.Ltl)]
        assert 1500 < len(trees) < 2900
        canonical = [ltl.canonicalize(f) for f in trees]
        assert sum(isinstance(ltl.classify(f), ltl.Convertible) for f in trees) >= 2
        for f in trees + canonical:
            for atom in _atoms(f):
                assert atom is ltl._ATOMS[atom.name], ltl.to_string(f)
        assert ltl.parse("c_d & (c_d U b1)").left is ltl.parse("X c_d").operand
        for i in range(ltl.CACHE_LEXEMES + 100):
            assert ltl.parse(f"x{i}") == ltl.Atom(f"x{i}")
            assert len(ltl._ATOMS) <= ltl.CACHE_LEXEMES

    @pytest.mark.parametrize("name", ["1x", "é"])
    def test_a_bad_name_is_refused_by_atom_and_by_parse(self, name):
        with pytest.raises(ValueError, match="invalid atom name"):
            ltl.Atom(name)
        with pytest.raises(ltl.ParseError, match="unexpected character"):
            ltl.parse(f"G (a -> {name})")

    @pytest.mark.parametrize("name", ["true", "false", "G", "F", "X", "U"])
    def test_a_keyword_is_not_an_atom_name(self, name):
        # Atom("X") printed as "G ((a -> X))", which does not parse
        assert not ltl.is_atom_name(name)
        with pytest.raises(ValueError, match="invalid atom name"):
            ltl.Atom(name)
        assert ltl.is_atom_name(name + "1") and ltl.is_atom_name("_" + name)


_OPERAND = "(expected one of: atom, true, (, !, G, F, X)"


class TestErrors:
    """Each ParseError's exact message, offset and expected lexemes."""

    @pytest.mark.parametrize("text,message,offset,expected", [
        ("a &", f"unexpected end of input at offset 3 {_OPERAND}", 3,
         ("atom", "true", "(", "!", "G", "F", "X")),
        (")", f"unexpected token at offset 0 {_OPERAND}", 0,
         ("atom", "true", "(", "!", "G", "F", "X")),
        ("G (a -> -> b)", f"unexpected token at offset 8 {_OPERAND}", 8,
         ("atom", "true", "(", "!", "G", "F", "X")),
        ("G (a -> b", "unbalanced parenthesis at offset 9 (expected one of: ))", 9, (")",)),
        ("G (a & b -> c) d", "trailing input at offset 15 (expected one of: end of input)", 15,
         ("end of input",)),
        ("", "empty input at offset 0 (expected one of: formula)", 0, ("formula",)),
        ("x $ y", "unexpected character '$' at offset 2 "
         "(expected one of: operator, atom, parenthesis)", 2,
         ("operator", "atom", "parenthesis"))],
        ids=["end-of-input", "unexpected-token-first", "unexpected-token-inside", "unbalanced",
             "trailing", "empty", "bad-character"])
    def test_message_offset_and_expected(self, text, message, offset, expected):
        with pytest.raises(ltl.ParseError) as exc:
            ltl.parse(text)
        assert (str(exc.value), exc.value.offset, exc.value.expected) == \
            (message, offset, expected)


class TestToString:
    def test_globally_atom(self):
        assert ltl.to_string(ltl.Globally(ltl.Atom("a"))) == "G (a)"

    def test_nested_and(self):
        f = ltl.And(ltl.Atom("a"), ltl.And(ltl.Atom("b"), ltl.Atom("c")))
        assert ltl.to_string(f) == "(a & (b & c))"

    def test_until_true(self):
        assert ltl.to_string(ltl.Until(ltl.TRUE, ltl.Atom("a"))) == "(true U a)"

    def test_every_node_kind(self):
        a, b = ltl.Atom("a"), ltl.Atom("b")
        printed = [(ltl.TRUE, "true"), (a, "a"), (ltl.Not(a), "! (a)"), (ltl.Next(a), "X (a)"),
                   (ltl.Finally(a), "F (a)"), (ltl.Globally(a), "G (a)"),
                   (ltl.And(a, b), "(a & b)"), (ltl.Or(a, b), "(a | b)"),
                   (ltl.Implies(a, b), "(a -> b)"), (ltl.Until(a, b), "(a U b)")]
        assert [ltl.to_string(f) for f, _ in printed] == [text for _, text in printed]
        assert all(ltl.parse(text) == f for f, text in printed)

    @pytest.mark.parametrize("convert", [ltl.to_string, ltl.to_json])
    def test_a_non_formula_is_a_type_error(self, convert):
        for value in ("a", None, ltl.Ltl()):
            with pytest.raises(TypeError, match="not a formula"):
                convert(value)
        with pytest.raises(TypeError, match="not a formula"):
            convert(ltl.Not("a"))

    def test_round_trip_bulk(self):
        rng = random.Random(42)
        for _ in range(2000):
            f = random_formula(rng, 8)
            assert ltl.parse(ltl.to_string(f)) == f

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, seed):
        f = random_formula(random.Random(seed), 8)
        assert ltl.parse(ltl.to_string(f)) == f


class TestCanonicalize:
    def test_implies_eliminated(self):
        a, b = ltl.Atom("a"), ltl.Atom("b")
        got = ltl.canonicalize(ltl.Implies(a, b))
        assert got == ltl.canonicalize(ltl.Not(ltl.And(a, ltl.Not(b))))
        assert not _contains_ops(got, (ltl.Or, ltl.Implies))

    def test_double_negation(self):
        a = ltl.Atom("a")
        assert ltl.canonicalize(ltl.Not(ltl.Not(a))) == a

    def test_commutative_ordering(self):
        a, b = ltl.Atom("a"), ltl.Atom("b")
        assert ltl.canonicalize(ltl.And(b, a)) == ltl.canonicalize(ltl.And(a, b))

    def test_true_unit_removed(self):
        a = ltl.Atom("a")
        assert ltl.canonicalize(ltl.And(a, ltl.TRUE)) == a

    def test_finally_rewritten(self):
        a = ltl.Atom("a")
        assert ltl.canonicalize(ltl.Finally(a)) == ltl.Until(ltl.TRUE, a)

    def test_associativity_normalized(self):
        assert ltl.canonicalize(ltl.parse("(a & b) & c")) == \
            ltl.canonicalize(ltl.parse("a & (b & c)"))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, seed):
        f = random_formula(random.Random(seed), 8)
        c = ltl.canonicalize(f)
        assert ltl.canonicalize(c) == c

    @pytest.mark.parametrize("text", [
        "! ! (a & b)", "! (a | b) & c", "G (a -> b) | false", "G (! ! a -> b & ! ! c)",
        "(c & b) & (a & (b & true))", "true & ! ! true", "! ! ! a", "F (a | b) -> G c",
        "G (a & b -> X c)", "false -> a", "(a -> b) & (c | d)", "X (b & a) U ! (c & a)"])
    def test_hand_cases_match_the_reference_canonicalizer(self, text):
        f = ltl.parse(text)
        assert ltl.canonicalize(f) == canonical_oracle(f)

    def test_random_formulas_match_the_reference_canonicalizer(self):
        rng = random.Random(25)
        for i in range(10_000):
            f = random_formula(rng, 2 + i % 7)
            assert ltl.canonicalize(f) == canonical_oracle(f), ltl.to_string(f)


def _contains_ops(f, kinds):
    if isinstance(f, kinds):
        return True
    match f:
        case ltl.Not(g) | ltl.Next(g) | ltl.Finally(g) | ltl.Globally(g):
            return _contains_ops(g, kinds)
        case ltl.And(l, r) | ltl.Or(l, r) | ltl.Implies(l, r) | ltl.Until(l, r):
            return _contains_ops(l, kinds) or _contains_ops(r, kinds)
    return False


class TestClassify:
    def test_simple_convertible(self):
        v = ltl.classify(ltl.parse("G (a -> b)"))
        assert v == ltl.Convertible((("a", True),), (("b", True),))

    def test_finally_is_inference_error(self):
        v = ltl.classify(ltl.parse("F a"))
        assert v == ltl.InferenceError("Finally")

    def test_negated_literals_allowed(self):
        v = ltl.classify(ltl.parse("G ((a & ! c) -> (b & d))"))
        assert v == ltl.Convertible(
            (("a", True), ("c", False)), (("b", True), ("d", True)))

    @pytest.mark.parametrize("text,reason", [
        ("G (a -> G b)", "Globally"),
        ("G ((a | F b) -> c)", "Finally"),
        ("G a -> b", "not a globally-guarded implication"),
        ("G (a & b)", "body is not an implication"),
        ("G (true -> b)", "non-conjunctive body"),
        ("G (a -> b & !b)", "contradictory literals")])
    def test_each_refusal_names_its_reason(self, text, reason):
        assert ltl.classify(ltl.parse(text)) == ltl.InferenceError(reason)

    def test_disjunctive_body_rejected(self):
        v = ltl.classify(ltl.parse("G ((a | b) -> c)"))
        assert v == ltl.InferenceError("non-conjunctive body")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_convertible_soundness(self, seed):
        f = random_formula(random.Random(seed), 6)
        v = ltl.classify(f)
        if isinstance(v, ltl.Convertible):
            assert isinstance(f, ltl.Globally)
            assert not _contains_ops(f.operand, (ltl.Next, ltl.Until, ltl.Finally, ltl.Globally))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equal_canonicals_same_verdict(self, seed):
        rng = random.Random(seed)
        f, g = random_formula(rng, 6), random_formula(rng, 6)
        if ltl.canonicalize(f) == ltl.canonicalize(g):
            vf, vg = ltl.classify(f), ltl.classify(g)
            assert type(vf) is type(vg)
            if isinstance(vf, ltl.Convertible):
                assert vf == vg


class TestJson:
    def test_shape(self):
        obj = ltl.to_json(ltl.parse("G (a -> b)"))
        assert obj == {"op": "globally", "args": [
            {"op": "implies", "args": [{"op": "atom", "args": ["a"]},
                                       {"op": "atom", "args": ["b"]}]}]}

    def test_every_node_kind(self):
        a, b = ltl.Atom("a"), ltl.Atom("b")
        ja, jb = {"op": "atom", "args": ["a"]}, {"op": "atom", "args": ["b"]}
        assert ltl.to_json(ltl.TRUE) == {"op": "true", "args": []}
        assert ltl.to_json(a) == ja
        for ctor, op in ((ltl.Not, "not"), (ltl.Next, "next"), (ltl.Finally, "finally"),
                         (ltl.Globally, "globally")):
            assert ltl.to_json(ctor(a)) == {"op": op, "args": [ja]}
        for ctor, op in ((ltl.And, "and"), (ltl.Or, "or"), (ltl.Implies, "implies"),
                         (ltl.Until, "until")):
            assert ltl.to_json(ctor(a, b)) == {"op": op, "args": [ja, jb]}
