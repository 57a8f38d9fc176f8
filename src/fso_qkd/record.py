"""Frozen records: the package's value classes, built without generated code.

A subclass of ``Record`` declares its fields as class annotations, in order,
and a field's default as a class attribute of the same name. Instances take
their fields positionally or by keyword, check each field that the class's
``_domain`` table bounds, run ``__post_init__`` for any other check, and refuse
assignment and deletion afterwards. ``==``, ``hash`` and ``repr``
read the type and the fields, except the ones a class names in ``_hidden``.
Field names come from ``cls.__annotations__``, which every module here keeps
as strings (``from __future__ import annotations``) and which is never
evaluated.
"""
from __future__ import annotations

from .errors import ValidationError

inf = float("inf")

# Intervals ``(lo, hi)``, closed, or ``(lo, hi, ends)`` with ``ends`` one of
# "[]", "(]", "[)" and "()". ERROR_PROBABILITY bounds a QBER or an intrinsic error.
NONNEGATIVE, POSITIVE = (0.0, inf), (0.0, inf, "(]")
UNIT, ERROR_PROBABILITY = (0.0, 1.0), (0.0, 0.5)


def check(name: str, value, domain: tuple):
    """Refuse a ``value`` outside the interval ``domain`` with a
    ``ValidationError`` "``name`` must be in [lo, hi], got value" (">= lo" or
    "> lo" where hi is inf). Each comparison is false for nan, which is refused."""
    lo, hi, ends = (*domain, "[]")[:3]
    if ((lo <= value if ends[0] == "[" else lo < value)
            and (value <= hi if ends[1] == "]" else value < hi)):
        return
    if hi == inf:
        bound = (">= " if ends[0] == "[" else "> ") + f"{lo:g}"
    else:
        bound = f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValidationError(f"{name} must be {bound}, got {value}")


class Record:
    """Base of the frozen value classes; see the module docstring."""

    field_names = ()
    _hidden = ()
    _domain = {}  # field -> interval, checked before __post_init__

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.field_names = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls.field_names
                         if name in cls.__dict__}
        cls._compared = tuple(n for n in cls.field_names if n not in cls._hidden)
        cls._checks = tuple((n, cls._domain[n]) for n in cls.field_names
                            if n in cls._domain)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.field_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            kwargs[name] = value
        unknown = [name for name in kwargs if name not in names]
        if unknown:
            raise TypeError(f"{cls.__name__}() got unexpected fields {unknown}")
        values = {**cls._defaults, **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing fields {missing}")
        for name, domain in cls._checks:
            check(name, values[name], domain)
        self.__dict__.update((name, values[name]) for name in names)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = (f"{name}={self.__dict__[name]!r}" for name in self._compared)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated again."""
        return type(self)(**{**self.__dict__, **changes})
