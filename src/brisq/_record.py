"""Base classes of brisq's records.

A record is a class whose __init__ takes its fields, checks them and
stores them. Its fields are __init__'s parameters, positional then
keyword-only: when a class that defines __init__ is created, Record
reads their names off __init__'s code object into the class's _fields,
and a class without its own __init__ keeps its parent's. Record gives
it equality field by field, a repr of its fields and
replace(**changes), a copy built anew through __init__, so the copy is
checked as the original was. A plain record is not hashable.
FrozenRecord adds a hash of the fields and refuses assignment and
deletion with AttributeError; its __init__ stores each field with
set_field.

The records are plain classes rather than dataclasses: importing
dataclasses loads inspect, and each dataclass compiles its methods
through exec at every start-up, which every cold `brisq` process would
pay for.
"""

from __future__ import annotations

from typing import Any, TypeVar

_R = TypeVar("_R", bound="Record")

# stores a field of a frozen record past its __setattr__
set_field = object.__setattr__


class Record:
    """A record: equal to a record of its class with equal fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            # __init__'s parameters lead its local names, self first
            code = init.__code__
            cls._fields = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    # defining __eq__ leaves __hash__ None, so a plain record is unhashable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self: _R, **changes: Any) -> _R:
        """A copy with the given fields changed, checked by __init__."""
        return type(self)(**{**vars(self), **changes})


class FrozenRecord(Record):
    """A record that cannot be changed after __init__, hashed by its fields."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
