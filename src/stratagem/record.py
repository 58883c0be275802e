"""The base of the package's value records.

A record is a ``__slots__`` class on ``Record`` whose ``__init__`` checks
its arguments and stores each field with ``setfield``. The base gives
what a frozen dataclass would, without generating and compiling methods
for every class at import:

- equality only with a record of the same type, by the field tuple;
- a hash of the field tuple;
- the repr ``Name(field=value, ...)``;
- assignment and deletion that raise ``AttributeError``;
- ``_replace(**changes)``, a copy built, and so checked, by ``__init__``;
- copying and pickling through ``__init__`` as well;
- an ``__init__`` that stores each field, by position or by name,
  unchecked, for a record that checks nothing; one with defaults calls
  it from its own ``__init__``.

``_fields`` names the fields in constructor order. It is the class's
``__slots__`` unless the class sets it, leaving out slots that hold
values derived at construction, which equality, hash and repr ignore.
"""

from __future__ import annotations

# Stores a field in ``__init__``, past the base's raising ``__setattr__``.
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            setfield(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, made by ``__init__``."""
        values = dict(zip(self._fields, self._values()))
        values.update(changes)
        return type(self)(**values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
