"""Value semantics for the package's small records.

A record class lists its fields in ``__slots__`` and sets them in its own
``__init__``, which also validates them.  Deriving from ``Record`` adds
equality, hashing and a repr over those fields in slot order; records that
are never compared or used as keys skip it and keep identity semantics.
Nothing assigns a field after construction, so a record's hash is stable.

Defining a record this way generates and compiles no code when its module
is imported, which keeps the start-up of every CLI process short.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, hashing and repr read from the subclass's ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C call returning the field values; not a method, so called as _fields(self)
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
