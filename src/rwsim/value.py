"""The base of the IR's value classes: equality, hash and repr from field names.

A subclass lists its fields in ``_fields``, in constructor order, and writes
its own ``__init__``.  Its instances then compare, hash and print as a
dataclass's do: equal only to an instance of the same class whose fields
are equal in order, hashed as the tuple of those fields, and printed as
``Name(field=value, ...)``.  A :class:`Value` is mutable and unhashable,
as a dataclass without ``frozen=True``; a :class:`Frozen` value refuses
attribute assignment and deletion and is hashable.  ``__reduce__`` rebuilds
an instance by calling its class with its fields, so ``pickle`` and
``copy.deepcopy`` work on slotted frozen classes too.

Unlike ``dataclasses``, this module generates no code and imports only
``operator``, so the commands that load only the circuit layer start
without ``inspect`` and the modules it brings.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """A mutable value class, unhashable as it defines ``__eq__`` and no
    ``__hash__``; see the module docstring.  ``_fields`` holds at least two
    names, so ``_values`` returns a tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Frozen(Value):
    """An immutable, hashable value class.  Its ``__init__`` sets each field
    with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
