"""Immutable value records: the shared base of every result and spec class.

A record class lists its fields in `__slots__` and sets them in `__init__`
through `object.__setattr__`.  It gets value semantics from the base:
instances are equal only to instances of the very same class with equal
fields (so `Sphere(3) != RealProj(3)`, and a record never equals a tuple),
hash as the tuple of their fields, read as `Name(field=value, ...)`, and
refuse assignment and deletion.  Plain slotted classes cost a fraction of a
millisecond to define, where dataclasses cost the import of `inspect` and a
code generation per class.
"""

from __future__ import annotations


class Record:
    """Base of the immutable records; subclasses name fields in __slots__."""

    __slots__ = ()
    # Field names in definition order, base class fields first.
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
