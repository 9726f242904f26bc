"""Record types: the one way this package declares a class of named fields.

`record` reads the fields from the class body's annotations, in order,
each with its class-level default if it has one, and gives the class
what `dataclasses.dataclass` would generate for the same declaration:

- `__init__` taking the fields by position or by keyword, then calling
  `__post_init__` if the class defines one;
- `__repr__` as `Name(field=value, ...)`;
- `__eq__` between instances of the same class, comparing the tuples of
  their fields;
- with `frozen=True`, `__hash__` of that tuple and an AttributeError on
  assigning or deleting an attribute; otherwise no hash.

The defaults stay on the class, `_fields` lists the field names and
`__match_args__` names them for positional `case` patterns.  A record is
not a dataclass: `dataclasses.replace`, `asdict` and `fields` do not
apply to it.

The methods are closures over the field names, so declaring a record
compiles and runs no generated source and needs no `inspect`.
`dataclasses` imports `inspect` and `exec`s every method of every class
in each process, bytecode cache or not: for `mofn classify`, whose
types are all records, that start-up would outweigh a small
classification.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter

_MISSING = object()


def record(cls=None, /, *, frozen: bool = False):
    """Make `cls` a record; use as `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    n = len(names)
    template = {name: cls.__dict__.get(name, _MISSING) for name in names}
    post_init = cls.__dict__.get("__post_init__")
    # a frozen record's own __setattr__ refuses; the builtin setattr is
    # the faster call where there is none
    store = object.__setattr__ if frozen else setattr
    if n > 1:
        key = attrgetter(*names)
    else:    # attrgetter of one name gives a bare value, not a 1-tuple
        def key(obj):
            return tuple(getattr(obj, name) for name in names)

    def bind(args: tuple, kwargs: dict):
        """The field values, in field order, of a call that does not pass
        every field by position."""
        values = dict(template)
        values.update(zip(names, args))
        values.update(kwargs)
        k = len(args)
        if (k > n or len(values) != n or not kwargs.keys().isdisjoint(names[:k])
                or any(value is _MISSING for value in values.values())):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields ({', '.join(names)}), those "
                f"without a default required; got {k} by position and {sorted(kwargs)} "
                "by keyword")
        return values.values()

    def __init__(self, *args, **kwargs):
        # Setting each field keeps it in the instance's inline values,
        # where writing to self.__dict__ would slow every later read.
        # any() runs the map, whose calls all return None.
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        any(map(store, repeat(self, n), names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__init__, __repr__, __eq__]
    methods += [__hash__, __setattr__, __delattr__] if frozen else []
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if not frozen:
        cls.__hash__ = None
    cls._fields = cls.__match_args__ = names
    return cls
