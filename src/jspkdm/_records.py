"""What the package's records share, written out by hand.

Each record is a plain class whose constructor is written out, so that
importing the package generates no code. Records that are values (equal and
hashed by their fields, and never changed) derive from :class:`Value` and
write their own ``__eq__`` and ``__hash__``; the rest compare by identity
unless they say otherwise.
"""

from __future__ import annotations


def fields_repr(self) -> str:
    """``Name(field=value, ...)`` over the record's slots, or its instance
    attributes when it has no slots."""
    names = getattr(type(self), "__slots__", None) or vars(self)
    return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"


class Value:
    """Base of the immutable records. ``__init__`` sets each slot through
    ``object.__setattr__``; after that, setting or deleting any attribute
    raises ``AttributeError``. Each subclass's constructor takes its slots
    in order, which is how ``copy`` and ``pickle`` rebuild one."""

    __slots__ = ()
    __repr__ = fields_repr

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
