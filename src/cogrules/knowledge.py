"""Knowledge base (feature/action vocabularies plus atom groundings) and
the grounded production-rule type shared by the compiler, engine and
trainer.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .ltl import is_atom_name

PASS = "pass"  # a rules file's spelling of an empty effect slot
NONE = "none"  # a decision key's spelling of an empty effect slot (`engine.action_pair_key`)

LONGITUDINAL = "longitudinal"
LATERAL = "lateral"
SLOTS = (LONGITUDINAL, LATERAL)

Value = bool | int | str


def load_json(path: str | Path):
    """The JSON value in file `path`; a syntax error is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: {e}") from None


_scan_value = json.JSONDecoder().scan_once  # json.loads' own C scanner, without its wrapper


def read_jsonl(path: str | Path):
    """(line number, JSON value) for each nonblank line of file `path`, counted
    from 1; a syntax error is a ValueError naming the file and the line. Lines
    end at "\n" only: JSON strings may hold U+2028, U+2029 and U+0085 raw.
    A line that is one JSON value and nothing else is scanned once; any other
    line (blank, with whitespace, a BOM or extra data around its value, or not
    JSON) goes through `json.loads`, which takes or refuses it as it would alone."""
    for n, line in enumerate(Path(path).read_text().split("\n"), 1):
        try:
            value, end = _scan_value(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path} line {n}: {e.msg} at column {e.colno}") from None
        yield n, value


# the exact JSON types each scalar annotation takes (a bool is not an int), and its name
_SCALARS = {str: ((str,), "a string"), bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), Path: ((str,), "a string")}


@functools.cache
def _shape(tp) -> tuple:
    """Annotation `tp`, without None, as (its scalars' exact JSON types, their names), or
    as (no JSON types, its class, its arguments)."""
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    members = [m for m in typing.get_args(tp) if m is not type(None)] if union else [tp]
    if all(m in _SCALARS for m in members):
        return (frozenset(t for m in members for t in _SCALARS[m][0]),
                " or ".join(_SCALARS[m][1] for m in members), ())
    return frozenset(), typing.get_origin(members[0]) or members[0], typing.get_args(members[0])


@functools.cache
def _as_is(tp) -> frozenset:
    """The JSON types of annotation `tp`'s scalars that are taken without a `_read` call:
    all but float, which `_read` checks is finite."""
    return _shape(tp)[0] - {float}


def _refusal(name: str, key: str, value, expected: str) -> ValueError:
    return ValueError(f"section {name!r}: key {key!r}: {value!r} is not {expected}")


def _read(tp, value, name: str, key: str, path: str, parse: dict):
    """`value` read as `tp`, for key `key` of section `name`; a section in it is named `path`."""
    scalars, origin, args = _shape(tp)
    if scalars:
        if type(value) not in scalars:
            raise _refusal(name, key, value, _shape(tp)[1])
        if type(value) is float and not math.isfinite(value):  # json reads NaN and Infinity
            raise _refusal(name, key, value, "a finite number")
        return value
    if is_dataclass(origin):
        return read_section(origin, path, value, **parse)
    if type(value) is not (dict if origin is dict else list):
        raise _refusal(name, key, value, "an object" if origin is dict else "a list")
    if origin is dict:  # scalar values of their types are taken without a call each
        if not args or set(map(type, value.values())) <= _as_is(args[1]):
            return value
        return {k: _read(args[1], v, name, key, f"{path}.{k}", parse) for k, v in value.items()}
    items = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
    if len(items) != len(value):  # a tuple[A, B] of another length
        raise _refusal(name, key, value, f"a list of {len(items)} values")
    return origin(_read(a, v, name, key, path, parse) for a, v in zip(items, value))


@functools.cache
def _fields(cls) -> tuple[dict, list, set]:
    """{name: (annotation, `_as_is` JSON types)} of `cls`'s settable fields; required; nullable."""
    hints, settable = typing.get_type_hints(cls), [f for f in fields(cls) if f.init]
    return ({f.name: (hints[f.name], _as_is(hints[f.name])) for f in settable},
            [f.name for f in settable if f.default is MISSING and f.default_factory is MISSING],
            {f.name for f in settable if f.default is None})


def read_section(cls, name: str, obj, /, **parse):
    """`cls` from the JSON object `obj`, whose keys are `cls`'s fields, each value read as
    its field's annotation: a dataclass is a section named `<name>.<key>`; a list or tuple
    is a JSON list, and a dict an object, whose sections add their key to the name; `str`,
    `bool`, `int` (not a bool) and `float` (or an int) need that JSON type; a `Path` is a
    string, and `X | None` an X. Any other value, an unknown or missing key, a non-object,
    or a null where the default is not None, is a ValueError naming the section and the
    key, and a ValueError that `cls` itself raises is given the section's name.
    `parse[key]`, at any depth, converts a non-null value once read, or reads a nested
    section itself."""
    if not isinstance(obj, dict):
        raise ValueError(f"section {name!r}: not a JSON object")
    hints, required, nullable = _fields(cls)
    unknown = obj.keys() - hints.keys()
    if unknown:
        raise ValueError(f"section {name!r}: unknown key {min(unknown)!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"section {name!r}: missing key {key!r}")
    nulls = {k for k, v in obj.items() if v is None} - nullable
    if nulls:
        raise ValueError(f"section {name!r}: key {min(nulls)!r} may not be null")
    values = {}
    for key, value in obj.items():
        if value is not None:
            tp, scalars = hints[key]  # a scalar of its type needs no call
            if type(value) not in scalars and not (key in parse and is_dataclass(tp)):
                value = _read(tp, value, name, key, f"{name}.{key}", parse)
            if key in parse:
                value = parse[key](value)
        values[key] = value
    try:
        return cls(**values)
    except ValueError as e:  # refused by the class's own check
        raise ValueError(f"section {name!r}: {e}") from None


@dataclass(frozen=True)
class ActionPair:
    """One action per slot, None where the slot is empty: a rule's effects,
    a decision, or the reference behaviour it is compared with."""
    longitudinal: str | None = None
    lateral: str | None = None

    def __post_init__(self):
        for reserved in (PASS, NONE):
            if reserved in (self.longitudinal, self.lateral):
                raise ValueError(f"action name {reserved!r} is reserved for an empty effect slot")

    def slot(self, name: str) -> str | None:
        return self.longitudinal if name == LONGITUDINAL else self.lateral


NO_ACTION = ActionPair()  # both slots empty


@dataclass(frozen=True)
class FeatureDomain:
    kind: str  # bool | enum | int
    values: tuple[str, ...] = ()       # enum only
    low: int = 0                       # int only
    high: int = 0

    def __post_init__(self):
        if self.kind not in ("bool", "enum", "int"):
            raise ValueError(f"bad feature kind {self.kind!r}")
        if self.kind == "enum" and not self.values:
            raise ValueError("enum domain needs values")
        if self.kind == "int" and self.low > self.high:
            raise ValueError("empty int domain")


@dataclass(frozen=True)
class Grounding:
    feature: str
    comparator: str  # '=' or '!='
    value: Value

    def __post_init__(self):
        if self.comparator not in ("=", "!="):
            raise ValueError(f"bad comparator {self.comparator!r}")


@dataclass
class KnowledgeBase:
    features: dict[str, FeatureDomain]
    longitudinal_actions: tuple[str, ...]
    lateral_actions: tuple[str, ...]
    groundings: dict[str, Grounding] = field(default_factory=dict)

    def __post_init__(self):
        if not self.longitudinal_actions or not self.lateral_actions:
            raise ValueError("action vocabularies must be nonempty")
        if set(self.longitudinal_actions) & set(self.lateral_actions):
            raise ValueError("action vocabularies must be disjoint")
        for reserved in (PASS, NONE):
            if reserved in self.longitudinal_actions or reserved in self.lateral_actions:
                raise ValueError(f"action name {reserved!r} is reserved for an empty effect slot")
        for name in (*self.longitudinal_actions, *self.lateral_actions, *self.groundings):
            if not is_atom_name(name):  # else no formula could name it
                raise ValueError(f"{name!r} is not an atom name: an ASCII identifier other "
                                 "than true, false, G, F, X and U")
        for atom, g in self.groundings.items():
            if not self.admits(g.feature, g.value):
                raise ValueError(
                    f"grounding {atom!r}: {g.feature}={g.value!r} is not in the knowledge base")

    def admits(self, feature: str, value) -> bool:
        """Whether `feature` is known and `value` is in its domain."""
        dom = self.features.get(feature)
        if dom is None:
            return False
        if dom.kind == "bool":
            return isinstance(value, bool)
        if dom.kind == "enum":
            return value in dom.values
        return type(value) is int and dom.low <= value <= dom.high  # a bool is not an int here

    @property
    def atom_vocabulary(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.groundings)
                            | set(self.longitudinal_actions)
                            | set(self.lateral_actions)))

    def to_json(self) -> dict:
        feats = {}
        for name, dom in self.features.items():
            d: dict = {"kind": dom.kind}
            if dom.kind == "enum":
                d["values"] = list(dom.values)
            if dom.kind == "int":
                d["low"], d["high"] = dom.low, dom.high
            feats[name] = d
        return {
            "features": feats,
            "longitudinal_actions": list(self.longitudinal_actions),
            "lateral_actions": list(self.lateral_actions),
            "groundings": {a: {"feature": g.feature, "comparator": g.comparator,
                               "value": g.value}
                           for a, g in self.groundings.items()},
        }

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        return read_section(cls, str(path), load_json(path))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))


Precondition = tuple[str, str, Value]  # (feature, comparator, value)


@dataclass(frozen=True)
class ProductionRule:
    name: str
    preconditions: tuple[Precondition, ...]
    effects: ActionPair
    utility: float = 0.0  # as a rules file stores it, and what a RuleSet starts from
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        """Refuses a comparator other than '=' and '!=', and compiles the
        preconditions for `engine.match`: the (feature, value) pairs a state
        must hold and must not hold, and the features the `!=` ones need
        present. Sets compare with hash and `==`, as True == 1 does."""
        pre = self.preconditions
        for _, cmp, _ in pre:
            if cmp not in ("=", "!="):
                raise ValueError(f"comparator {cmp!r} is not '=' or '!='")
        must_not = frozenset((f, v) for f, c, v in pre if c != "=")
        object.__setattr__(self, "must", frozenset((f, v) for f, c, v in pre if c == "="))
        object.__setattr__(self, "must_not", must_not)
        object.__setattr__(self, "must_name", frozenset(f for f, _ in must_not))

    def body_key(self) -> tuple:
        """Equal for rules with the same preconditions, in any order, and
        effects. Each value carries its type's name, which also orders values
        of two types under one feature and comparator: True == 1, but a
        domain tells them apart."""
        return tuple(sorted((f, c, type(v).__name__, v)
                            for f, c, v in self.preconditions)), self.effects

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "preconditions": [list(p) for p in self.preconditions],
            "effects": {slot: PASS if (action := self.effects.slot(slot)) is None else action
                        for slot in SLOTS},
            "utility": self.utility,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProductionRule":
        def action(a):  # "pass", like a missing key or null, is an empty slot
            return None if a == PASS else a
        return read_section(cls, "rule", obj, longitudinal=action, lateral=action)


class RuleValidationError(ValueError):
    """The rule cannot be loaded by the inference engine."""


def validate_rule(rule: ProductionRule, kb: KnowledgeBase) -> None:
    """Dry-run load: the checks the engine applies before accepting a rule."""
    if not rule.preconditions:
        raise RuleValidationError("rule has no preconditions")
    asserted: dict[str, Value] = {}
    denied: dict[str, set] = {}
    for feature, cmp, value in rule.preconditions:
        if not kb.admits(feature, value):
            raise RuleValidationError(
                f"value {value!r} of {feature!r} is not in the knowledge base")
        if cmp == "=":
            if asserted.get(feature, value) != value or value in denied.get(feature, ()):
                raise RuleValidationError(f"contradictory assertions on {feature!r}")
            asserted[feature] = value
        else:
            if asserted.get(feature) == value:
                raise RuleValidationError(f"contradictory assertions on {feature!r}")
            denied.setdefault(feature, set()).add(value)
    effects = rule.effects
    if effects == NO_ACTION:
        raise RuleValidationError("rule has no effect")
    if effects.longitudinal is not None and effects.longitudinal not in kb.longitudinal_actions:
        raise RuleValidationError(f"unknown longitudinal action {effects.longitudinal!r}")
    if effects.lateral is not None and effects.lateral not in kb.lateral_actions:
        raise RuleValidationError(f"unknown lateral action {effects.lateral!r}")


def read_rules(path: str | Path, kb: KnowledgeBase | None = None) -> list[ProductionRule]:
    """The rules file `path`, a JSON list; an error names the file and the rule,
    counted from 1 (`<path> rule 2: ...`). With a `kb`, each rule must also pass
    `validate_rule`, and its error adds the rule's name (`rule 2 ('name'): ...`)."""
    objs = load_json(path)
    if not isinstance(objs, list):
        raise ValueError(f"{path}: not a JSON list of rules")
    rules = []
    for i, obj in enumerate(objs, 1):
        try:
            rule = ProductionRule.from_json(obj)
            if kb is not None:
                validate_rule(rule, kb)
        except RuleValidationError as e:
            raise RuleValidationError(f"{path} rule {i} ({rule.name!r}): {e}") from None
        except ValueError as e:
            raise ValueError(f"{path} rule {i}: {e}") from None
        rules.append(rule)
    return rules


def write_rules(rules: list[ProductionRule], path: str | Path) -> None:
    """The rules file that `read_rules` reads back to the same rules."""
    Path(path).write_text(json.dumps([r.to_json() for r in rules], indent=2, sort_keys=True))
