"""The base of the immutable records that the package builds only in code.
They behave as frozen dataclasses without paying for a dataclass's class
creation at import, which every command-line process would pay."""

from dataclasses import FrozenInstanceError


class Record:
    """A frozen record whose fields are its class's `__slots__`, in order.
    `__init__` sets each field once, through `object.__setattr__` or its
    slot's descriptor; setting or deleting a field after that raises
    FrozenInstanceError. Two records are equal when they are of one class
    and their fields are equal, left to right; a record hashes as the tuple
    of its fields, prints as `Class(field=value, ...)`, and copies and
    pickles as its class called with its fields: as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign {type(value).__name__} to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
