"""Immutable value classes: what a frozen dataclass gave, without its import.

A subclass names its fields in __slots__ and sets them in its __init__
through the slot setters that setters() returns.
"""


def setters(cls) -> tuple:
    """The slot setters of cls's fields, in field order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Value:
    """Immutable record, compared and hashed field by field."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in Value.as_dict(self).items())
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """The fields by name, in field order."""
        return {name: getattr(self, name) for name in self.__slots__}

    __getstate__ = as_dict

    def __setstate__(self, state: dict):
        for name, value in state.items():
            getattr(type(self), name).__set__(self, value)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
