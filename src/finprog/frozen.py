"""Immutable value classes with ``__slots__``, built without dataclass machinery.

A subclass names its fields, in order, in ``__match_args__`` and keeps them
in ``__slots__``. Its ``__init__`` checks the arguments and sets each field
with ``set_field``, since ``Frozen`` refuses every other assignment. Two
objects are equal when they are of the same class with equal fields, and
equal objects hash alike; ``repr`` reads ``Name(field=value, ...)``. A
pickled or copied object is rebuilt through ``__init__``, so it is checked
again.
"""

from __future__ import annotations

#: Sets a field in ``__init__``, past ``Frozen.__setattr__``.
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
