"""Exact extended distances: nonnegative rationals together with infinity.

Every distance in the package is a Dist.  Arithmetic is exact (Fraction
underneath) and addition saturates at infinity, so no rounding can ever
occur.  Dist values are immutable, totally ordered, and hashable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError

_INF_MARK = object()

# Literals (strings and ints) may not have a numerator or denominator
# longer than this: far below the size at which Python refuses to print
# an int in decimal.
MAX_LITERAL_BITS = 256


class Dist:
    """A nonnegative exact rational distance, or infinity.

    Accepts int, Fraction, another Dist, or a string literal: "p/q", a
    plain integer string, or "inf".  Floats are rejected to keep all
    arithmetic exact, and literals beyond MAX_LITERAL_BITS as too large.
    """

    __slots__ = ("_frac",)

    _frac: Fraction | None  # None encodes infinity

    def __init__(self, value):
        if value is _INF_MARK:
            object.__setattr__(self, "_frac", None)
            return
        if isinstance(value, Dist):
            object.__setattr__(self, "_frac", value._frac)
            return
        if isinstance(value, bool) or isinstance(value, float):
            raise StructuralError(f"inexact distance literal {value!r}")
        if isinstance(value, str):
            text = value.strip()
            if text in ("inf", "INF", "Inf", "infinity"):
                object.__setattr__(self, "_frac", None)
                return
            if len(text.lower().partition("e")[2].lstrip("+-0")) > 5:
                raise _too_large(value)  # Fraction would build 10**exponent in full
            try:
                frac = _bounded(Fraction(text), value)
            except (ValueError, ZeroDivisionError) as exc:
                raise StructuralError(f"bad distance literal {value!r}") from exc
        elif isinstance(value, int):
            frac = _bounded(Fraction(value), value)
        elif isinstance(value, Fraction):
            frac = value
        else:
            raise StructuralError(f"unsupported distance value {value!r}")
        if frac < 0:
            raise StructuralError(f"negative distance {value!r}")
        object.__setattr__(self, "_frac", frac)

    def __setattr__(self, name, value):
        raise AttributeError("Dist is immutable")

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def is_zero(self) -> bool:
        return self._frac == 0

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise StructuralError("infinite distance has no rational value")
        return self._frac

    def __add__(self, other: "Dist") -> "Dist":
        other = _coerce(other)
        if self._frac is None or other._frac is None:
            return INF
        return Dist(self._frac + other._frac)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __lt__(self, other: "Dist") -> bool:
        other = _coerce(other)
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __le__(self, other: "Dist") -> bool:
        return not _coerce(other).__lt__(self)

    def __gt__(self, other: "Dist") -> bool:
        return _coerce(other).__lt__(self)

    def __ge__(self, other: "Dist") -> bool:
        return not self.__lt__(other)

    def __str__(self) -> str:
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return _decimal(self._frac.numerator)
        return f"{_decimal(self._frac.numerator)}/{_decimal(self._frac.denominator)}"

    def __repr__(self) -> str:
        return f"Dist({str(self)!r})"


_CHUNK_DIGITS = 500  # below 640, the least int-to-str digit limit Python allows
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(value: int) -> str:
    """The decimal digits of a nonnegative int, converted in chunks of at
    most _CHUNK_DIGITS digits, so that results of exact arithmetic print
    whatever the interpreter's int-to-str digit limit."""
    if value < _CHUNK:
        return str(value)
    chunks = []
    while value:
        value, low = divmod(value, _CHUNK)
        chunks.append(low)
    return str(chunks[-1]) + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks[:-1]))


def _too_large(value) -> StructuralError:
    return StructuralError(
        f"distance literal {value!r} is too large: numerator and denominator "
        f"are limited to {MAX_LITERAL_BITS} bits"
    )


def _bounded(frac: Fraction, value) -> Fraction:
    if max(frac.numerator.bit_length(), frac.denominator.bit_length()) > MAX_LITERAL_BITS:
        raise _too_large(value)
    return frac


def _coerce(value) -> Dist:
    return value if isinstance(value, Dist) else Dist(value)


INF = Dist(_INF_MARK)
ZERO = Dist(0)


def dist_sum(values) -> Dist:
    """Saturating sum of an iterable of Dist (empty sum is zero)."""
    total = ZERO
    for v in values:
        total = total + _coerce(v)
        if total.is_infinite:
            return INF
    return total


def dist_max(values) -> Dist:
    """Maximum of an iterable of Dist (empty maximum is zero)."""
    best = ZERO
    for v in values:
        v = _coerce(v)
        if v > best:
            best = v
        if best.is_infinite:
            return INF
    return best
