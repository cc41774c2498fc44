"""Immutable records with named fields.

A subclass lists its fields, in order, as ``__slots__``.  Like a frozen
dataclass, it gets a constructor with one parameter per field, which
sets them and then calls the class's ``__post_init__``, if it has one; a
record is equal only to a record of the same class with equal fields,
hashes and prints by them, and refuses every assignment after
construction.  It does so without importing :mod:`dataclasses`, whose
import and class decoration dominated the package's import time.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        cls._values = attrgetter(*names)
        # The constructor is spelled from the field names, as a dataclass's
        # is, so that it costs no more per call than one written out.
        source = [f"def __init__(self, {', '.join(names)}):"]
        source += [f"    set_field(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            source.append("    self.__post_init__()")
        namespace = {"set_field": object.__setattr__}
        exec("\n".join(source), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
