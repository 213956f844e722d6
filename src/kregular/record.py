"""Immutable value records: the shared base of every result and spec class.

A record class declares its fields once, in `__slots__`, and its trailing
fields may take defaults from the class's `_defaults`.  Every record gets
its constructor generated when its class is defined, as
`collections.namedtuple` does, and a class that writes its own `__init__`
is refused.  A record that normalises and checks its input states a
`_check(self, *fields)`: it takes the constructor's arguments in field
order, raises on bad input, and returns the normalised field values as a
tuple, which the constructor stores.  A `_check` needs at least one field
to return.  The constructor sets each field through the `__set__` of its
slot's member descriptor, looked up once per class (inherited slots too),
which skips the attribute lookup that `object.__setattr__(self, name,
value)` makes per field.
Instances are equal only to instances of the very same class with equal
fields (so `Sphere(3) != RealProj(3)`, and a record never equals a tuple),
hash as the tuple of their fields, read as `Name(field=value, ...)`,
refuse assignment and deletion, and copy and pickle through their
constructor.  This is not `dataclasses`, which imports
`inspect`: `import kregular.cli` must load neither (tests/test_cli.py).
"""

from __future__ import annotations


def _constructor(cls: type):
    """An `__init__` that passes its arguments through `cls._check`, if the
    class states one, and sets `cls._fields` from them, in order."""
    fields, defaults, check = cls._fields, cls._defaults, cls._check
    tail = fields[len(fields) - len(defaults):]
    if set(tail) != set(defaults):
        raise TypeError(f"only trailing fields may have defaults: {defaults}")
    if check is not None and not fields:
        raise TypeError(f"{cls.__qualname__} has no fields to _check")
    names = ", ".join(fields)
    lines = [f"{names}, = _check(self, {names})"] if check else []
    lines += [f"_set_{name}(self, {name})" for name in fields] or ["pass"]
    namespace = {f"_set_{name}": getattr(cls, name).__set__
                 for name in fields}
    namespace["_check"] = check
    exec(f"def __init__(self, {names}):\n    " + "\n    ".join(lines),
         namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(map(defaults.get, tail))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Base of the immutable records; subclasses name fields in __slots__."""

    __slots__ = ()
    # Field names in definition order, base class fields first.
    _fields: tuple = ()
    # Defaults of trailing fields.
    _defaults: dict = {}
    # Normalises and checks the constructor's arguments; None stores them.
    _check = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} writes its own __init__; "
                            "a record states a _check instead")
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls.__init__ = _constructor(cls)

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

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor, which checks
        # the fields again; the default would restore them by setattr.
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
