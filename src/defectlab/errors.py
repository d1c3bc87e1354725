"""Exception types, input bounds and the frozen value base shared across
the package.  Each kind of number, a count, a fraction or a real, has one
range check here, which words its message and returns it, or None when
the value is in range; :func:`refuse` raises the problems a site found,
all of them at once."""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

#: Largest unit, formula or issue count accepted as input: every
#: integer up to 2**53 converts to a float exactly, and the models do
#: their arithmetic in floats.
MAX_COUNT = 2**53

#: Most buckets an arrival series or an expected curve may hold; a
#: count that would need more is rejected before anything is allocated.
MAX_BUCKETS = 100_000


def count_problem(name: str, value: int, least: int = 0, most: int = MAX_COUNT) -> str | None:
    """The problem with a count outside ``least..most``, as NaN is, or None."""
    if value < least:
        return f"{name} must be >= {least}, got {show_int(value)}"
    if not value <= most:
        return f"{name} must be <= {most}, got {show_int(value)}"
    return None


def real_problem(name: str, value: float, zero: bool = False) -> str | None:
    """The problem with a real that is not positive (with ``zero``, that is
    negative), or is NaN, infinite or, as an integer, past float range, or None."""
    if not (0 <= value if zero else 0 < value) or value == math.inf:
        return f"{name} must be {'>= 0' if zero else 'positive'}, got {show_int(value)}"
    if not value <= sys.float_info.max:
        return f"{name} must be <= {sys.float_info.max}, got {show_int(value)}"
    return None


def plain_number(kind: type[int] | type[float], text: str) -> int | float:
    """``kind(text)``, for ``int`` or ``float``, of ASCII text without ``_``.
    Other text raises ``ValueError``, as text ``kind`` refuses does: both
    would read other digits, such as ``٣``, and ``_`` between digits."""
    if text.isascii() and "_" not in text:
        return kind(text)
    raise ValueError(text)


def fraction_problem(name: str, value: float) -> str | None:
    """The problem with a value outside [0, 1], as NaN is, or None."""
    if not 0.0 <= value <= 1.0:
        return f"{name} must be within [0, 1], got {show_int(value)}"
    return None


def show_int(value: int) -> str:
    """An integer as a message shows it: ``str(value)``, or its digit
    count when it has more digits than the interpreter converts to str
    (4300 by default), so that a message never raises on its value."""
    try:
        return str(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {_digit_count(abs(value))} digits"


#: Most characters of an echoed value that a message shows.
MAX_SHOWN = 100


def show_value(value: object) -> str:
    """A value as a message echoes it: its ``repr``, cut as :func:`cut` cuts.
    An integer shows as :func:`show_int` does."""
    return cut(show_int(value) if isinstance(value, int) else repr(value))


def cut(text: str) -> str:
    """``text`` cut after MAX_SHOWN characters and marked with its full
    length, so that an over-long input cannot make a message of its own size."""
    if len(text) <= MAX_SHOWN:
        return text
    return f"{text[:MAX_SHOWN]}... ({len(text)} characters)"


def _digit_count(value: int) -> int:
    """Decimal digits of a positive integer, without converting it to str."""
    digits = int(math.log10(value)) + 1
    # log10 is rounded, so settle the count against exact powers of ten.
    if 10 ** (digits - 1) > value:
        digits -= 1
    elif 10**digits <= value:
        digits += 1
    return digits


class DefectLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DefectLabError, ValueError):
    """Raised when input data or parameters fail validation.

    Parsers that can address individual rows or entries collect one
    diagnostic per problem and attach the full list, so a caller sees
    every defect in the input at once instead of fixing them one by one.
    """

    def __init__(self, message: str, diagnostics: Sequence[str] = ()) -> None:
        self.diagnostics = tuple(diagnostics)
        if self.diagnostics:
            message = message + "\n" + "\n".join(f"  {d}" for d in self.diagnostics)
        super().__init__(message)


def refuse(what: str, *problems: str | None) -> None:
    """Raise a ValidationError headed ``what`` that lists, in order, each
    of ``problems`` that is not None, if there is any."""
    if found := [problem for problem in problems if problem is not None]:
        raise ValidationError(what, found)


class DivergenceError(DefectLabError, ArithmeticError):
    """Raised when a revision forecast cannot reach sign-off.

    Happens when no defects are ever removed on net, so the expected
    defect count never drops below the sign-off threshold.
    """


class NonConvergenceError(DefectLabError, ArithmeticError):
    """Raised when an iterative fit fails to locate an interior optimum."""


class Value:
    """Base of the frozen value types, in place of ``@dataclass(frozen=True)``,
    which would cost each command the import of ``dataclasses`` and ``inspect``.

    A subclass's fields are its own annotations, in order, with its class
    attributes as defaults, held in its ``__dict__``.  Equality, hash and
    ``repr`` go by the class and the field values; ``__post_init__``
    validates, and pickle and copy rebuild a value through its constructor,
    so they validate too.  A subclass may instead declare its fields as
    ``__slots__`` and write its own ``__init__``; the rest applies unchanged.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        fields = cls.__match_args__
        given = {**dict(zip(fields, args)), **kwargs}
        if len(given) != len(args) + len(kwargs) or not given.keys() <= set(fields):
            raise TypeError(f"{cls.__name__}() takes its fields once each: {', '.join(fields)}")
        defaults = cls._defaults
        try:
            state = {name: given[name] if name in given else defaults[name] for name in fields}
        except KeyError as exc:
            raise TypeError(f"{cls.__name__}() missing field {exc.args[0]!r}") from None
        object.__setattr__(self, "__dict__", state)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        """The field values in order, from slots or ``__dict__`` alike."""
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def _asdict(self) -> dict:
        """The fields by name, in ``__match_args__`` order: a value's one dict form."""
        return dict(zip(self.__match_args__, self._values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({shown})"

    # Only misuse pays for importing dataclasses, for its error type.
    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
