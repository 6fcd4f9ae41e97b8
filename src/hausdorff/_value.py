"""Immutable value classes, built without generated code.

`frozen` gives a class what a frozen dataclass has: a constructor, ==
and hash over its fields, a repr that lists them, and instances whose
attributes cannot be assigned or deleted. The fields are the class's own
annotations, in order. The methods are defined once here and shared by
every class, so decorating a class compiles and runs no code; a method
the class defines itself is kept. A class of one field gets an == that
reads that field alone, which is faster than comparing 1-tuples. Behaviour follows dataclasses
(PEP 557) with eq=True and frozen=True: the same repr text, == only
between instances of one class, the same hash values and the same error
texts.

A constructor writes the fields into the instance __dict__, where a
frozen dataclass's generated one puts them by object.__setattr__.
"""

from operator import attrgetter

__all__ = ["FrozenInstanceError", "asdict", "field", "fields", "frozen",
           "replace"]

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen
    instance."""


class Field:
    """One field: its name, its default or default factory, and whether
    hash reads it (== always does)."""

    __slots__ = ("name", "default", "default_factory", "hash")

    def __init__(self, default=_MISSING, default_factory=_MISSING, hash=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.hash = hash


def field(*, default_factory=_MISSING, hash=True) -> Field:
    """A field with a default factory, or one that hash leaves out."""
    return Field(default_factory=default_factory, hash=hash)


def _key(names):
    """The tuple of the named attributes, as a function of an instance."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def frozen(cls):
    """Make cls a frozen value class; see the module docstring."""
    found = []
    for name in cls.__annotations__:
        f = getattr(cls, name, _MISSING)
        if not isinstance(f, Field):
            f = Field(default=f)
        else:  # no class attribute stands in for a factory
            delattr(cls, name)
        f.name = name
        found.append(f)
    cls.__value_fields__ = tuple(found)
    names = [f.name for f in found]
    # one field is compared as itself (_eq_one), not as a 1-tuple
    cls.__value_key__ = attrgetter(*names) if len(names) == 1 else _key(names)
    cls.__value_hash_key__ = _key([f.name for f in found if f.hash])
    own = cls.__dict__
    own_hash = own.get("__hash__", _MISSING)
    # Python sets __hash__ to None in a class that defines __eq__ alone
    hashes = own_hash is _MISSING or (own_hash is None and "__eq__" in own)
    for name, method in (_ONE_FIELD if len(names) == 1 else _METHODS).items():
        if name not in own:
            setattr(cls, name, method)
    if hashes:
        cls.__hash__ = _hash
    return cls


def fields(class_or_instance) -> tuple:
    """The Field objects of a frozen class or instance, in order."""
    return class_or_instance.__value_fields__


def _init(self, *args, **kwargs):
    cls = type(self)
    known = cls.__value_fields__
    if len(args) > len(known):
        least = 1 + sum(f.default is f.default_factory is _MISSING
                        for f in known)
        takes = (f"from {least} to {len(known) + 1} positional arguments"
                 if least <= len(known) else
                 f"{least} positional argument" + "s" * (least > 1))
        raise TypeError(f"{cls.__qualname__}.__init__() takes {takes} but "
                        f"{len(args) + 1} were given")
    values = self.__dict__
    for f, v in zip(known, args):
        values[f.name] = v
    for f in known[len(args):]:
        name = f.name
        if name in kwargs:
            values[name] = kwargs.pop(name)
        elif f.default is not _MISSING:
            values[name] = f.default
        elif f.default_factory is not _MISSING:
            values[name] = f.default_factory()
        else:
            raise TypeError(f"{cls.__qualname__}.__init__() missing 1 "
                            f"required positional argument: {name!r}")
    for name in kwargs:
        what = ("got multiple values for argument" if name in values
                else "got an unexpected keyword argument")
        raise TypeError(f"{cls.__qualname__}.__init__() {what} {name!r}")
    post_init = getattr(self, "__post_init__", None)
    if post_init is not None:
        post_init()


def _repr(self):
    return self.__class__.__qualname__ + "(" + ", ".join(
        f"{f.name}={getattr(self, f.name)!r}"
        for f in self.__value_fields__) + ")"


def _eq(self, other):
    cls = self.__class__
    if other.__class__ is cls:
        key = cls.__value_key__
        return key(self) == key(other)
    return NotImplemented


def _eq_one(self, other):
    # what (a,) == (b,) answers, identity first, without the two tuples
    cls = self.__class__
    if other.__class__ is cls:
        get = cls.__value_key__
        a, b = get(self), get(other)
        return True if a is b or a == b else False
    return NotImplemented


def _hash(self):
    return hash(self.__class__.__value_hash_key__(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_METHODS = {"__init__": _init, "__repr__": _repr, "__eq__": _eq,
            "__setattr__": _setattr, "__delattr__": _delattr}
_ONE_FIELD = {**_METHODS, "__eq__": _eq_one}


def replace(obj, **changes):
    """A copy of obj with the given fields changed, built by obj's own
    constructor, so every check the constructor makes runs again."""
    for f in obj.__value_fields__:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def asdict(obj) -> dict:
    """obj's fields as a dict, recursing into frozen instances, lists,
    tuples and dicts. Other values are shared, not copied: the engine's
    values are immutable."""
    return {f.name: _plain(getattr(obj, f.name)) for f in obj.__value_fields__}


def _plain(x):
    if hasattr(type(x), "__value_fields__"):
        return asdict(x)
    if isinstance(x, (list, tuple)):
        return type(x)(map(_plain, x))
    if isinstance(x, dict):
        return type(x)((_plain(k), _plain(v)) for k, v in x.items())
    return x
