"""Immutable value classes without ``dataclasses``.

``record`` turns a class whose fields are its annotations into a frozen
value type: a constructor that takes every field positionally, in order,
and then calls ``__post_init__`` if the class has one, ``==`` and
``hash`` over the field tuple, a ``Name(field=value, ...)`` repr, and no
assignment or deletion after construction; there are no keyword arguments
and no defaults.  It installs plain closures and generates no source, so
importing the library costs neither ``dataclasses`` nor the ``inspect`` it
loads, nor an ``exec`` per class.

A method the class defines itself is kept.  A class built in a hot loop
writes out its own ``__init__``, which takes its fields positionally
only and sets each with ``object.__setattr__``: the installed one loops
over the fields, which for six fields costs about half as much again on
CPython 3.11.
"""

from operator import attrgetter


def record(cls):
    """Install the frozen-record methods on ``cls`` and return it."""
    names = tuple(cls.__annotations__)
    count = len(names)
    post_init = cls.__dict__.get("__post_init__")
    qualname = cls.__qualname__
    # past __setattr__, which refuses; writing self.__dict__ instead would
    # give every instance a dict of its own and slow each field read
    assign = object.__setattr__

    def __init__(self, *args):
        if len(args) != count:
            raise TypeError(f"{qualname}() takes {count} positional "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            assign(self, name, value)
        if post_init is not None:
            post_init(self)

    # one field reads as its value, two or more as a tuple
    get = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    # the hash of the field tuple, so hashes (and the order of a set of
    # records) stay those of the frozen dataclasses this replaced
    if count == 1:
        def __hash__(self):
            return hash((get(self),))
    else:
        def __hash__(self):
            return hash(get(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__,
                   __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{qualname}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
