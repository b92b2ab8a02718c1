"""Plain value records: equality and repr over named fields.

The modules the CLI imports use this instead of ``dataclasses``: importing
``dataclasses`` pulls in ``inspect``, and every decoration compiles
generated methods each time the module is imported.
"""


class Record:
    """Equal to a record of the same class with equal ``_fields``, shown by
    its repr as ``Name(field=value, ...)`` without the ``_unshown`` ones,
    as a dataclass would be.  Records are mutable, so they do not hash."""

    _fields: tuple = ()
    _unshown: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields
                          if f not in self._unshown)
        return f"{self.__class__.__qualname__}({shown})"
