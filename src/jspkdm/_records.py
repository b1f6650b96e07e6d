"""What the package's records share.

Each record is a plain class whose constructor is written out, so that
importing the package generates no code. A record that is equal by value
derives from :class:`Fields` and names its fields once, in ``__slots__``:
equality (and, for a :class:`Value`, hashing, pickling and construction) is
read from them. The other records compare by identity.
"""

from __future__ import annotations

from operator import attrgetter


def fields_repr(self) -> str:
    """``Name(field=value, ...)`` over the record's slots, or its instance
    attributes when it has no slots."""
    names = getattr(type(self), "__slots__", None) or vars(self)
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names if n != "__weakref__")
    return f"{type(self).__name__}({shown})"


class Fields:
    """Base of the records equal by value: one equals another of its own
    class whose slots hold equal values, in ``__slots__`` order. A
    ``__weakref__`` slot is no field. Defining ``__eq__`` leaves a record
    unhashable unless it says otherwise, as :class:`Value` does."""

    __slots__ = ()
    __repr__ = fields_repr

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = [n for n in cls.__dict__.get("__slots__", ()) if n != "__weakref__"]
        if names:
            # The tuple of a record's field values: given several names, as
            # every record has, attrgetter returns a tuple.
            cls._values = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)


class Value(Fields):
    """Base of the immutable records, hashed by their field values.
    ``__init__`` takes the values in slot order and sets each through its
    slot's descriptor; after that, setting or deleting any attribute raises
    ``AttributeError``. Each subclass's constructor takes its slots in the
    same order, which is how ``copy`` and ``pickle`` rebuild one."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A slot's own setter skips the refusing __setattr__, as
        # object.__setattr__ does, without looking the slot up again.
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])

    def __init__(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
