"""Frozen records: the package's small value classes, without `dataclasses`.

A subclass declares its fields as class annotations, in order, and a
default as a class attribute of the same name.  It gets positional and
keyword construction, a ``__post_init__`` hook run after the fields are
set, equality, hash and repr by fields, as ``@dataclass(frozen=True)``
gives them, and an AttributeError on assignment or deletion.  Importing
`dataclasses` and generating each class's methods cost more than the
arithmetic of a small command.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {k: cls.__dict__[k] for k in cls._fields if k in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in field order from positional and keyword arguments, or TypeError."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields) or not set(kwargs) <= set(fields[len(args):]):
            raise TypeError(f"{name}() takes the fields {', '.join(fields)}, each once; "
                            f"got {len(args)} positional and the keyword arguments {sorted(kwargs)}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [k for k in fields if k not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return [values[k] for k in fields]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[k] for k in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of a frozen {self.__class__.__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of a frozen {self.__class__.__qualname__}")
