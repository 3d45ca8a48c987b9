"""The base of the immutable records that the package builds only in code.
They behave as frozen dataclasses without paying for a dataclass's class
creation at import, which every command-line process would pay. A record's
fields are the `__slots__` of its class and of its bases, base first."""

from dataclasses import FrozenInstanceError
from operator import attrgetter


class Record:
    """A frozen record whose fields are the `__slots__` of its class and its
    bases, base first, in order; `__match_args__` names them. `__init__`
    sets each field once, through `object.__setattr__` or its slot's
    descriptor; setting or deleting a field after that raises
    FrozenInstanceError. Two records are equal when they are of one class
    and their fields are equal, left to right; a record hashes as the tuple
    of its fields, prints as `Class(field=value, ...)`, and copies and
    pickles as its class called with its fields: as a frozen dataclass does.
    Each subclass gets these methods built over its own fields when it is
    created."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(name for klass in reversed(cls.__mro__)
                       for name in vars(klass).get("__slots__", ()))
        if len(fields) == 1:  # attrgetter of one name returns the value, not a 1-tuple
            value = attrgetter(*fields)
            values = lambda record: (value(record),)
        else:
            values = attrgetter(*fields) if fields else lambda record: ()

        def __eq__(self, other):
            # as tuples, as a dataclass compares: a field shared by both is equal by identity
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        def __repr__(self):
            shown = ", ".join([f"{name}={value!r}" for name, value in zip(fields, values(self))])
            return f"{self.__class__.__qualname__}({shown})"

        def __reduce__(self):
            return self.__class__, values(self)

        cls.__match_args__ = fields
        cls.__eq__, cls.__hash__ = __eq__, __hash__
        cls.__repr__, cls.__reduce__ = __repr__, __reduce__

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign {type(value).__name__} to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
