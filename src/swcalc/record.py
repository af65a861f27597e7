"""Frozen record classes, built without generating code.

`@record` turns a class whose annotations name its fields into an immutable
value type: it adds `__init__`, `__eq__`, `__hash__`, `__repr__` and a
`__setattr__`/`__delattr__` that refuse every assignment, each a closure over
the class's field names.  The methods behave as `dataclass(frozen=True)`
ones do (equality within one class, the hash of the tuple of compared
fields, the same repr), but no source text is generated or compiled at
import, and neither the dataclass module nor `inspect` is loaded, which
keeps a fresh `swcalc` process cheap.

A method the class defines itself is kept, so a class with its own
`__init__` sets its fields itself (through `object.__setattr__`).  A
`__post_init__` runs after the generated `__init__`.  Instances keep a
`__dict__`, so `functools.cached_property` works on them.
"""

from operator import attrgetter


class field:
    """A field's default value, and whether equality and hashing read it."""

    def __init__(self, *, default, compare=True):
        self.default = default
        self.compare = compare


def _tuple_getter(names):
    """A function from an object to the tuple of its named attributes (one C
    call for two or more names)."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def record(cls):
    """Make cls a frozen record over its annotated fields; class-level values
    (or a `field(...)`) give defaults."""
    names = tuple(cls.__annotations__)
    defaults, compared = {}, []
    for name in names:
        spec = cls.__dict__.get(name)
        if isinstance(spec, field):
            setattr(cls, name, spec.default)
            defaults[name] = spec.default
        elif name in cls.__dict__:
            defaults[name] = spec
        if not isinstance(spec, field) or spec.compare:
            compared.append(name)
    key = _tuple_getter(tuple(compared))
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) == len(names) and not kwargs:
            self.__dict__.update(zip(names, args))
        else:
            values = dict(zip(names, args))
            try:
                for name in names[len(args):]:
                    values[name] = kwargs.pop(name) if name in kwargs else defaults[name]
            except KeyError as missing:
                raise TypeError(f"{cls.__qualname__}() missing field {missing}") from None
            if len(args) > len(names) or kwargs:
                raise TypeError(f"{cls.__qualname__}() takes the fields ({', '.join(names)})")
            self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed, built by its
    constructor (so `__post_init__` checks run again)."""
    return obj.__class__(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})
