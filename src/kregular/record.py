"""Immutable value records: the shared base of every result and spec class.

A record class declares its fields once, in `__slots__`, and its trailing
fields may take defaults from the class's `_defaults`.  A class that writes
no `__init__`, and inherits none or only a generated one, gets one generated
when it is defined, as `collections.namedtuple` does; a class that checks
its input writes its own.  A generated constructor sets each field through
the `__set__` of its slot's member descriptor, looked up once per class
(inherited slots too), which skips the attribute lookup that
`object.__setattr__(self, name, value)` makes per field.  A hand-written
constructor sets its fields the same way, through module-level names such
as `_set_m = Atom.m.__set__` bound right after its class.
Instances are equal only to instances of the very same class with equal
fields (so `Sphere(3) != RealProj(3)`, and a record never equals a tuple),
hash as the tuple of their fields, read as `Name(field=value, ...)`,
refuse assignment and deletion, and copy and pickle through their
constructor.  This is not `dataclasses`, which imports
`inspect`: `import kregular.cli` must load neither (tests/test_cli.py).
"""

from __future__ import annotations


# The constructors `_constructor` made, so a subclass that adds fields gets
# its own instead of inheriting one that leaves them unset.
_GENERATED: set = set()


def _constructor(cls: type):
    """An `__init__` that sets `cls._fields` from its arguments, in order."""
    fields, defaults = cls._fields, cls._defaults
    tail = fields[len(fields) - len(defaults):]
    if set(tail) != set(defaults):
        raise TypeError(f"only trailing fields may have defaults: {defaults}")
    body = "".join(f"\n    _set_{name}(self, {name})" for name in fields)
    namespace = {f"_set_{name}": getattr(cls, name).__set__
                 for name in fields}
    exec(f"def __init__(self, {', '.join(fields)}):{body or ' pass'}",
         namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(map(defaults.get, tail))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    _GENERATED.add(init)
    return init


class Record:
    """Base of the immutable records; subclasses name fields in __slots__."""

    __slots__ = ()
    # Field names in definition order, base class fields first.
    _fields: tuple = ()
    # Defaults of trailing fields, for a generated constructor.
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        if cls.__init__ is object.__init__ or cls.__init__ in _GENERATED:
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
