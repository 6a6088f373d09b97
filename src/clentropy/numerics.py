"""Directed-rounding interval arithmetic over IEEE-754 doubles.

Python does not expose the FPU rounding mode in a portable way, so outward
rounding is emulated: every endpoint produced by a float operation is nudged
one ulp outward with ``math.nextafter``.  Round-to-nearest error is strictly
below one ulp, hence the nudged endpoints bracket the exact result.  The cost
is up to two ulps of width per operation, which the callers' error budgets
absorb easily; the benefit is that containment never depends on platform
rounding-mode trickery.

``log``, ``log1p`` and ``exp`` go through libm, whose worst observed error
on the platforms we target is about one ulp; their endpoints are widened by
two ulps to be safe.  That is an assumption about libm, not a proof: the
tests hold it against 50-digit mpmath.  It has two consumers: the interval
functions here, and the plain-float rank chain (``measures.RankChain``),
which counts each libm result as a relative error of 4 eps in its a-priori
rounding counts.  Integer-valued helpers (``iv_from_int``, ``iv_log_int``,
``iv_recip_int``) accept arbitrary-precision integers, so callers can feed
exact group orders and automorphism counts of thousands of bits straight in.

Everything here is a pure function on immutable values and is safe to use
from multiple threads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import IntervalDomainError

_INF = math.inf
_MAX = sys.float_info.max


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


class Interval:
    """A closed interval [lo, hi] of doubles containing an exact real."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalDomainError("NaN endpoint")
        if lo > hi:
            raise IntervalDomainError(f"empty interval: lo={lo!r} > hi={hi!r}")
        self.lo = lo
        self.hi = hi

    # Trusted fast path for internal use: skips validation.
    @staticmethod
    def _make(lo: float, hi: float) -> "Interval":
        iv = Interval.__new__(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        """Exact containment test; accepts float, int, or Fraction."""
        if isinstance(x, float):
            return self.lo <= x <= self.hi
        q = Fraction(x)
        return Fraction(self.lo) <= q <= Fraction(self.hi)

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def widened(self, delta: float) -> "Interval":
        return Interval(_down(self.lo - delta), _up(self.hi + delta))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # Operator sugar delegating to the module-level functions.
    def __add__(self, other):
        return iv_add(self, other)

    def __sub__(self, other):
        return iv_sub(self, other)

    def __mul__(self, other):
        return iv_mul(self, other)

    def __truediv__(self, other):
        return iv_div(self, other)

    def __neg__(self):
        return iv_neg(self)


ONE = Interval._make(1.0, 1.0)
ZERO = Interval._make(0.0, 0.0)


def iv_point(x: float) -> Interval:
    """Degenerate interval [x, x]; the input is trusted to be exact."""
    return Interval(x, x)


def iv_add(a: Interval, b: Interval) -> Interval:
    return Interval._make(_down(a.lo + b.lo), _up(a.hi + b.hi))


def iv_sub(a: Interval, b: Interval) -> Interval:
    return Interval._make(_down(a.lo - b.hi), _up(a.hi - b.lo))


def iv_neg(a: Interval) -> Interval:
    # IEEE negation is exact; no widening.
    return Interval._make(-a.hi, -a.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    p1 = a.lo * b.lo
    p2 = a.lo * b.hi
    p3 = a.hi * b.lo
    p4 = a.hi * b.hi
    return Interval._make(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))


def iv_div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise IntervalDomainError(f"division by interval containing zero: {b!r}")
    q1 = a.lo / b.lo
    q2 = a.lo / b.hi
    q3 = a.hi / b.lo
    q4 = a.hi / b.hi
    return Interval._make(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))


def iv_log(a: Interval) -> Interval:
    if a.lo <= 0.0:
        raise IntervalDomainError(f"log of interval touching (-inf, 0]: {a!r}")
    # libm log is good to ~1 ulp; widen two to be safe.
    return Interval._make(_down(_down(math.log(a.lo))), _up(_up(math.log(a.hi))))


def iv_log1p(a: Interval) -> Interval:
    """Enclosure of log(1 + x), accurate near x = 0 where ``iv_log`` of
    1 + x is not; log(1 + x) <= x caps the upper end at a.hi."""
    if a.lo <= -1.0:
        raise IntervalDomainError(f"log1p of interval touching (-inf, -1]: {a!r}")
    return Interval._make(_down(_down(math.log1p(a.lo))),
                          min(_up(_up(math.log1p(a.hi))), a.hi))


def iv_exp(a: Interval) -> Interval:
    try:
        lo = _down(_down(math.exp(a.lo)))
    except OverflowError:
        lo = _MAX
    try:
        hi = _up(_up(math.exp(a.hi)))
    except OverflowError:
        hi = _INF
    return Interval._make(max(lo, 0.0), hi)


def iv_sqrt(a: Interval) -> Interval:
    if a.lo < 0.0:
        raise IntervalDomainError(f"sqrt of interval below zero: {a!r}")
    # sqrt is correctly rounded per IEEE-754; one ulp suffices.
    return Interval._make(max(_down(math.sqrt(a.lo)), 0.0), _up(math.sqrt(a.hi)))


def _iv_square(a: Interval) -> Interval:
    if a.lo >= 0.0:
        return Interval._make(_down(a.lo * a.lo), _up(a.hi * a.hi))
    if a.hi <= 0.0:
        return Interval._make(_down(a.hi * a.hi), _up(a.lo * a.lo))
    m = max(-a.lo, a.hi)
    return Interval._make(0.0, _up(m * m))


def iv_pow_int(a: Interval, k: int) -> Interval:
    """a**k for integer k, by interval square-and-multiply."""
    if k == 0:
        return ONE
    if k < 0:
        return iv_div(ONE, iv_pow_int(a, -k))
    result = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else iv_mul(result, base)
        k >>= 1
        if not k:
            break
        base = _iv_square(base)
    return result


def iv_from_int(m: int) -> Interval:
    """Tight interval around an arbitrary-precision integer."""
    if -9007199254740992 <= m <= 9007199254740992:  # 2**53: exact as double
        f = float(m)
        return Interval._make(f, f)
    try:
        f = float(m)  # correctly rounded
    except OverflowError:
        return Interval._make(_MAX, _INF) if m > 0 else Interval._make(-_INF, -_MAX)
    return Interval._make(_down(f), _up(f))


def iv_from_fraction(q: Fraction) -> Interval:
    """Tight interval around an exact rational (one ulp at most)."""
    try:
        f = q.numerator / q.denominator  # correctly rounded, any precision
    except OverflowError:
        return Interval._make(_MAX, _INF) if q > 0 else Interval._make(-_INF, -_MAX)
    fr = Fraction(f) if math.isfinite(f) else None
    if fr == q:
        return Interval._make(f, f)
    if fr is not None and fr > q:
        return Interval._make(_down(f), f)
    return Interval._make(f, _up(f))


def iv_log_int(m: int) -> Interval:
    """Enclosure of log(m) for a positive integer of any size.

    CPython's ``math.log`` handles big integers via frexp splitting; its
    error there is a couple of ulps at worst, so we widen by three.
    """
    if m <= 0:
        raise IntervalDomainError("log of nonpositive integer")
    if m == 1:
        return ZERO
    v = math.log(m)
    return Interval._make(_down(_down(_down(v))), _up(_up(_up(v))))


def iv_recip_int(m: int) -> Interval:
    """Enclosure of 1/m for a positive integer; handles underflow to 0."""
    if m <= 0:
        raise IntervalDomainError("reciprocal of nonpositive integer")
    f = 1 / m  # correctly rounded even for huge m
    if f == 0.0:
        return Interval._make(0.0, 5e-324)
    return Interval._make(max(_down(f), 0.0), _up(f))


def iv_mul_scalar(a: Interval, s: float) -> Interval:
    """a * s for an exact float scalar (sign-aware, one ulp per endpoint)."""
    if s >= 0.0:
        return Interval._make(_down(a.lo * s), _up(a.hi * s))
    return Interval._make(_down(a.hi * s), _up(a.lo * s))


def iv_abs(a: Interval) -> Interval:
    """Enclosure of |x| over x in a (exact: endpoint negation is exact)."""
    if a.lo >= 0.0:
        return a
    if a.hi <= 0.0:
        return Interval._make(-a.hi, -a.lo)
    return Interval._make(0.0, max(-a.lo, a.hi))


# pi * sqrt(2/3) = 2.5650996603237281910880... (used to bound partition
# counts: pi(n) < exp(c * sqrt(n)) for every n >= 1).
PARTITION_GROWTH = Interval._make(2.565099660323728, 2.565099660323729)


class Record:
    """Base of the immutable value records.  ``__init__`` validates and then
    writes the fields, named in ``_fields``, straight into ``__dict__``;
    after that no attribute can be set or deleted.  Records are equal when
    they have the same class and equal fields, and hash as their fields."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CertifiedValue(Record):
    """An interval result together with its truncation certificate.

    ``value`` encloses the quantity actually summed/computed;
    ``truncation_level`` records the depth (largest group-order exponent,
    series index, ...) that was treated exactly; ``tail_bound`` is a proven
    bound on whatever was omitted.  Whether ``value`` already folds the tail
    in is documented per producing operation.
    """

    _fields = ("value", "truncation_level", "tail_bound")

    def __init__(self, value: Interval, truncation_level: int, tail_bound: float):
        if truncation_level < 0:
            raise ValueError("truncation_level must be nonnegative")
        if not (tail_bound >= 0.0):
            raise ValueError("tail_bound must be a nonnegative float")
        self.__dict__.update(
            value=value, truncation_level=truncation_level, tail_bound=tail_bound)

    def enclosure(self, symmetric: bool = False) -> Interval:
        """The interval with the tail bound folded in.

        One-sided tails (all omitted terms nonnegative) extend only the
        upper endpoint; ``symmetric=True`` extends both.
        """
        lo = _down(self.value.lo - self.tail_bound) if symmetric else self.value.lo
        return Interval(lo, _up(self.value.hi + self.tail_bound))
