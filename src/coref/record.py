"""The base class of the package's mutable records."""

from __future__ import annotations


class Record:
    """A mutable record whose fields are the ``__slots__`` of its class.

    Two records are equal when they are of the same class and their fields
    are equal. A record can change, so it is unhashable.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
