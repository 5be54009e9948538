"""Bases for the record classes that are mutated or validated.

A record's fields are its ``__slots__``, set by the class's own ``__init__``.
Two records are equal when they have the same type and equal fields, and the
repr lists the fields by name.  ``Record`` is mutable and unhashable;
``Frozen`` refuses assignment after ``__init__`` (which sets its fields with
``object.__setattr__``) and hashes by its fields.  Reports that are built once
and never changed are ``typing.NamedTuple`` classes instead.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
