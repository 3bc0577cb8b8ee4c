"""The bases of critex's value types that are not named tuples.

Most values are ``typing.NamedTuple``s.  A type whose fields are read per
competitor on the linker's path (a reading costs several times as much on
a named tuple as on a slot), one that holds state derived when it is built
or built on first read, and one that is filled in after it is built, is a
``__slots__`` class on :class:`Slotted`, which compares and prints it by
its ``_fields``; an immutable one is on :class:`FrozenSlotted`, which
adds what a named tuple has: hashing, ``_make``, ``_replace`` and
``_asdict``.
"""

from __future__ import annotations


class Slotted:
    """A ``__slots__`` class that is equal to another of its own class with
    equal ``_fields``, and unhashable, as a mutable value is.

    ``_fields`` names the public fields in order; the ``repr`` is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class FrozenSlotted(Slotted):
    """A :class:`Slotted` class whose fields are set once, by its
    ``__init__`` through :meth:`_set`; assigning or deleting an attribute
    raises ``AttributeError``.

    It hashes by its fields.  ``_make``, ``_replace`` and pickling build
    through the constructor, so whatever it checks holds on every path.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        values = [changes.pop(name, value) for name, value in zip(self._fields, self._values())]
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return self._make(values)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))
