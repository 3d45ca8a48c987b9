"""The records built only in code compare, hash, print, copy, pickle and
refuse change as the dataclasses in `oracles` do."""

import copy
import dataclasses
import pickle
import random
import re

import pytest

from cogrules import ltl
from cogrules.compiler import OUTCOME_TAGS, Outcome
from cogrules.critic_tree import CriticVerdict
from cogrules.engine import WorldState
from cogrules.gateway import ChatMessage
from cogrules.knowledge import ActionPair, ProductionRule
from cogrules.record import Record
from cogrules.trainer import CurvePoint
import oracles

TEXTS = ("", "x", "Finally", "G (a -> b)", "中文\n", "'q\"")
ROLES = ("system", "user", "assistant")


def a_rule(rng: random.Random) -> ProductionRule:  # equal rules are mostly not identical
    return ProductionRule(rng.choice(("r", "s")), (("a", "=", rng.choice((True, 1))),),
                          ActionPair(rng.choice(("brake", None)), "keep_lane"))


def literals(rng: random.Random) -> tuple:
    return tuple((rng.choice("abc"), rng.random() < 0.5) for _ in range(rng.randint(0, 2)))


# each record class, its oracle twin and a maker of random positional fields
MAKERS = [
    (Outcome, oracles.Outcome,
     lambda rng: (rng.choice(OUTCOME_TAGS), rng.choice(TEXTS), rng.choice((None, a_rule(rng))),
                  rng.choice((None, 0.9, 1.0, 0.95)))),
    (CriticVerdict, oracles.CriticVerdict,
     lambda rng: (rng.random() < 0.5, rng.choice(TEXTS[1:]))),
    (WorldState, oracles.WorldState,
     lambda rng: (tuple(sorted({f: rng.choice((True, 1, False, "hi"))
                                for f in rng.sample("abc", rng.randint(0, 3))}.items())),
                  rng.randint(0, 2))),
    (ChatMessage, oracles.ChatMessage, lambda rng: (rng.choice(ROLES), rng.choice(TEXTS[1:]))),
    (ltl.Convertible, oracles.Convertible, lambda rng: (literals(rng), literals(rng))),
    (ltl.InferenceError, oracles.InferenceError, lambda rng: (rng.choice(TEXTS),)),
    (CurvePoint, oracles.CurvePoint,
     lambda rng: (rng.randint(0, 2), rng.choice((0.0, -0.0, 0.5, 1.0)), rng.choice((0.0, 2.5)))),
]


def hashed(obj):
    try:
        return hash(obj)
    except TypeError as e:  # a rule's provenance is a dict
        return str(e)


def test_records_agree_with_their_dataclass_twins():
    rng = random.Random(38)
    for _ in range(5_000):
        cls, twin, make = rng.choice(MAKERS)
        values = make(rng)
        other = values if rng.random() < 0.2 else make(rng)
        a, b, ta, tb = cls(*values), cls(*other), twin(*values), twin(*other)
        assert (a == b, a != b) == (ta == tb, ta != tb), (a, b)
        assert hashed(a) == hashed(ta)
        assert repr(a) == repr(ta)
        assert a.__eq__(ta) is NotImplemented


EACH_CLASS = [  # one record of each class, by keyword, with the names of its fields
    (Outcome(tag="DuplicatedContent", detail="r", similarity=1.0),
     ("tag", "detail", "rule", "similarity")),
    (CriticVerdict(approved=False, feedback="no"), ("approved", "feedback")),
    (WorldState(features=(("a", True),), t=3), ("features", "t")),
    (ChatMessage(role="user", content="hi"), ("role", "content")),
    (ltl.Convertible(antecedent=(("a", True),), consequent=(("b", False),)),
     ("antecedent", "consequent")),
    (ltl.InferenceError(reason="Finally"), ("reason",)),
    (CurvePoint(epoch=0, agreement=0.5, mean_utility=2.5), ("epoch", "agreement", "mean_utility")),
]


@pytest.mark.parametrize("record,fields", EACH_CLASS,
                         ids=[type(record).__name__ for record, _ in EACH_CLASS])
def test_each_class_copies_pickles_and_refuses_change(record, fields):
    assert type(record).__slots__ == fields
    assert type(record).__match_args__ == fields
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(record) and c == record and hash(c) == hash(record)
    for name in (*fields, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


def test_fields_are_the_slots_of_the_class_and_its_bases_base_first():
    class Base(Record):
        __slots__ = ("x",)

    class Derived(Base):
        __slots__ = ("y", "z")

    record = Derived.__new__(Derived)
    for name, value in zip(("x", "y", "z"), (1, 2, 3)):
        object.__setattr__(record, name, value)
    assert Derived.__match_args__ == ("x", "y", "z")
    assert record.__reduce__() == (Derived, (1, 2, 3))
    assert repr(record) == f"{Derived.__qualname__}(x=1, y=2, z=3)"


@pytest.mark.parametrize("cls,twin,values", [
    (ChatMessage, oracles.ChatMessage, ("tool", "x")),
    (ChatMessage, oracles.ChatMessage, ("user", "")),
    (ChatMessage, oracles.ChatMessage, ("assistant", 3)),
    (CriticVerdict, oracles.CriticVerdict, (False, "")),
], ids=["role", "empty", "not-a-string", "no-feedback"])
def test_a_refused_record_is_refused_with_the_same_text(cls, twin, values):
    with pytest.raises(ValueError) as expected:
        twin(*values)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        cls(*values)
