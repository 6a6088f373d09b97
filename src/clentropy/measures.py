"""Cohen-Lenstra measures on finite abelian p-groups, with certified numerics.

For a prime p and a unit-rank u, the Cohen-Lenstra measure puts mass

    nu(A) = F_u / (#A^u * #Aut A),    F_u = prod_{i>=1} (1 - p^{-u-i}),

on the isomorphism class of each finite abelian p-group A.  The classical
case has u a nonnegative integer (u = 0 weights classes by 1/#Aut alone);
the formula makes sense for any real u > -1 and that extended range is
supported, though order-theoretic statements (monotonicity and friends)
are only ever asserted for integral u.

Certification discipline:

* every real-valued result is an Interval or CertifiedValue enclosing the
  exact quantity;
* sums with no logarithm in them (Hall sums, truncated mass sums at
  integral u) are accumulated in exact rational arithmetic and converted
  to an interval once at the end;
* truncated series carry tail bounds built from two ingredients only:
  #Aut A >= #A (1 - 1/p) >= p^{n-1} for #A = p^n (so 1/#Aut <= p^{1-n}),
  and the unconditional partition-count bound pi(n) < e^{c sqrt n} with
  c = pi sqrt(2/3).  A tail is summed level-exactly over a strip past the
  truncation point and closed geometrically beyond the strip, where the
  level-to-level ratio e^{c/(2 sqrt n)} p^{-(u+1)} has dropped below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import RefusalError, TailClosureError
from .groups import aut_order_parts, is_prime
from .numerics import (
    ONE,
    PARTITION_GROWTH,
    ZERO,
    CertifiedValue,
    Interval,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_fraction,
    iv_from_int,
    iv_log_int,
    iv_mul,
    iv_mul_scalar,
    iv_neg,
    iv_point,
    iv_pow_int,
    iv_recip_int,
    iv_sqrt,
    iv_sub,
)
from .partitions import iter_partitions, partition_count

# Hard ceiling on truncation depth; past this we refuse rather than grind.
MAX_LEVEL = 600
MAX_ENUM_PARTITIONS = 2_000_000
# Levels summed exactly past the truncation point before the geometric
# closure takes over (the closure alone, started right at N, is far too
# coarse for small p and u).
TAIL_STRIP = 160


@dataclass(frozen=True)
class CLParams:
    """A prime p and a unit-rank u > -1.

    Integral u (the classical case) is normalized to int so downstream code
    can dispatch to exact rational arithmetic; any other real u > -1 selects
    the extended mode in which p^{u n} is computed by interval exp/log.
    """

    p: int
    u: float

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        u = self.u
        if isinstance(u, bool) or not isinstance(u, (int, float)):
            raise ValueError(f"unit-rank must be a real number, got {u!r}")
        if not math.isfinite(u) or not u > -1:
            raise ValueError(f"unit-rank must be > -1, got {u!r}")
        if isinstance(u, float) and u.is_integer() and u >= 0:
            object.__setattr__(self, "u", int(u))

    @property
    def integral(self) -> bool:
        return isinstance(self.u, int) and self.u >= 0

    @property
    def exponent(self):
        """u as ``pow_p_minus`` takes it: the int, or a point Interval."""
        return self.u if self.integral else iv_point(self.u)

    @property
    def rate(self):
        """The level decay exponent u + 1, as an int or an Interval."""
        return self.u + 1 if self.integral else iv_add(iv_point(self.u), ONE)


def pow_p_minus(p: int, exponent, n: int) -> Interval:
    """Enclosure of p^(-exponent*n); exponent is an int or an Interval."""
    if isinstance(exponent, int):
        return iv_recip_int(p ** (exponent * n))
    arg = iv_mul(exponent, iv_mul_scalar(iv_log_int(p), float(n)))
    return iv_exp(iv_neg(arg))


def partial_product(p: int, s, k: int) -> Interval:
    """Enclosure of prod_{i=1}^{k} (1 - p^{-s-i}): exact rational factors
    at integral s >= 0, interval exp/log otherwise."""
    prod = ONE
    if isinstance(s, int) and s >= 0:
        for i in range(1, k + 1):
            q = p ** (s + i)
            prod = iv_mul(prod, iv_from_fraction(Fraction(q - 1, q)))
    else:
        L = iv_log_int(p)
        s_iv = iv_point(s)
        for i in range(1, k + 1):
            expo = iv_mul(iv_add(s_iv, iv_from_int(i)), L)
            prod = iv_mul(prod, iv_sub(ONE, iv_exp(iv_neg(expo))))
    return prod


@lru_cache(maxsize=None)
def _normalizing_constant_cached(p: int, u, J: int) -> Interval:
    partial = partial_product(p, u, J)
    # Omitted factors: log(1-x) >= -x/(1-x) gives
    #   prod_{i>J} (1 - p^{-u-i}) >= exp(-p^{-u-J} / ((p-1)(1 - p^{-u-J-1}))),
    # and trivially the omitted product is < 1.
    if isinstance(u, int) and u >= 0:
        x = iv_recip_int(p ** (u + J + 1))
    else:
        x = iv_exp(iv_neg(iv_mul(iv_add(iv_point(u), iv_from_int(J + 1)), iv_log_int(p))))
    deficit = iv_div(
        iv_mul(x, iv_from_int(p)),
        iv_mul(iv_from_int(p - 1), iv_sub(ONE, x)),
    )
    lower = iv_mul(partial, iv_exp(iv_neg(deficit)))
    return Interval(max(lower.lo, 0.0), min(partial.hi, 1.0))


def normalizing_constant(params: CLParams, J: int = 64) -> Interval:
    """Enclosure of F_u = prod_{i>=1} (1 - p^{-u-i}).

    The partial product over i <= J is an upper bound (every omitted factor
    is < 1); the lower bound multiplies in exp of a geometric bound on the
    omitted log-sum.  J = 64 leaves a relative deficit below 2^-64 for every
    p and u >= 0, far inside the partial product's own rounding width.
    """
    if J < 1:
        raise ValueError("truncation depth J must be >= 1")
    return _normalizing_constant_cached(params.p, params.u, J)


def auto_product_depth(p: int, u, eps: float) -> int:
    """Smallest J >= 8 with p^(-u-J)/(p-1) < eps/4 (plus a safety margin).

    This is only a depth heuristic -- certification happens downstream in
    the interval arithmetic -- so plain float math is fine here.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    J = 8
    target = eps * (p - 1) / 4
    while p ** (-(u + J)) >= target and J < 4096:
        J += 1
    return J


def cl_measure(params: CLParams, A, J: int = 64) -> Interval:
    """Enclosure of nu(A) = F_u / (#A^u #Aut A).

    The denominator is an exact big integer when u is integral; in extended
    mode #A^u goes through interval exp/log.  For the trivial group the
    F_u interval is returned as-is.
    """
    if A.p != params.p:
        raise ValueError(f"group is a {A.p}-group but params.p = {params.p}")
    F = normalizing_constant(params, J)
    if A.is_trivial():
        return F
    if params.integral:
        return iv_mul(F, iv_recip_int(A.order**params.u * A.aut_order))
    n = A.order_exponent
    log_denom = iv_add(
        iv_mul(iv_point(params.u), iv_mul_scalar(iv_log_int(params.p), float(n))),
        iv_log_int(A.aut_order),
    )
    return iv_mul(F, iv_exp(iv_neg(log_denom)))


@lru_cache(maxsize=None)
def _level_data(p: int, n: int) -> tuple[Fraction, Interval, Interval]:
    # One pass over the partitions of n: the partition enumeration and the
    # automorphism counts dominate the cost (p(n) grows fast), so the exact
    # and the interval statistics are collected together.
    r_frac = Fraction(0)
    s_iv = ZERO
    for parts in iter_partitions(n):
        aut = aut_order_parts(p, parts)
        r_frac += Fraction(1, aut)
        s_iv = iv_add(s_iv, iv_mul(iv_log_int(aut), iv_recip_int(aut)))
    return r_frac, iv_from_fraction(r_frac), s_iv


def level_aut_reciprocal_sum(p: int, n: int) -> Fraction:
    """sum over partitions of n of 1/#Aut, as an exact rational.

    These per-level sums are the common currency of the Hall identity, the
    truncated mass sums, and the direct divergence sums; caching them per
    (p, n) makes every consumer a cheap weighted recombination.
    """
    return _level_data(p, n)[0]


def level_stats(p: int, n: int) -> tuple[Interval, Interval]:
    """Per-level interval statistics (R_n, S_n) over partitions of n:

    R_n = sum 1/#Aut (converted from the exact rational, so 1 ulp wide) and
    S_n = sum log(#Aut)/#Aut.  Entropy- and divergence-type sums at level n
    are affine combinations of these two for any unit-rank.
    """
    _, r_iv, s_iv = _level_data(p, n)
    return r_iv, s_iv


def check_enumeration_budget(N: int) -> None:
    """Refuse truncation levels whose partition enumeration is infeasible.

    Levels through N cost sum_{n<=N} pi(n) tuples; pi grows like
    e^{c sqrt n}, so a slowly decaying series can demand a level whose
    enumeration would not finish.  Refusing keeps every accepted call
    certifiably cheap.
    """
    work = sum(partition_count(n) for n in range(N + 1))
    if work > MAX_ENUM_PARTITIONS:
        raise RefusalError(
            f"level {N} needs {work} partition tuples, over the "
            f"{MAX_ENUM_PARTITIONS} enumeration budget; the required "
            f"truncation level is out of certified reach"
        )


def truncation_level(
    tail_at, N: int | None, target: float = 0.0, start: int = 1,
    series: str = "series", where: str = "",
) -> tuple[int, Interval]:
    """The truncation level of a level series and its certified tail.

    ``tail_at(n)`` bounds everything past level n.  An explicit N must be
    >= 1 and within the enumeration budget, and its tail is returned as is.
    Otherwise N is the first level in start..MAX_LEVEL whose tail is below
    ``target``; past the cap the series refuses, naming itself and the
    parameters it was asked about.
    """
    if N is not None:
        if N < 1:
            raise ValueError("N must be >= 1")
        check_enumeration_budget(N)
        return N, tail_at(N)
    for n in range(start, MAX_LEVEL + 1):
        tail = tail_at(n)
        if tail.hi < target:
            check_enumeration_budget(n)
            return n, tail
    raise RefusalError(
        f"{series} tail cannot be pushed below {target:g} by level "
        f"{MAX_LEVEL} at {where}"
    )


def hall_sum_partial(p: int, N: int) -> tuple[Fraction, Fraction]:
    """Exact partial sums of Hall's identity up to order p^N.

    Returns (S_aut, S_ord) with S_aut = sum over all A with #A <= p^N of
    1/#Aut A and S_ord = sum_{n<=N} pi(n)/p^n.  Both increase to the common
    limit prod_{i>=1}(1-p^{-i})^{-1} = 1/F_0, along different routes.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 0:
        raise ValueError("N must be >= 0")
    check_enumeration_budget(N)
    s_aut = sum((level_aut_reciprocal_sum(p, n) for n in range(N + 1)), Fraction(0))
    s_ord = sum(
        (Fraction(partition_count(n), p**n) for n in range(N + 1)), Fraction(0)
    )
    return s_aut, s_ord


def bound_series_tail(
    p: int,
    rate,
    N: int,
    coeffs: list[Interval],
    scale: Interval,
    strip: int = TAIL_STRIP,
) -> Interval:
    """Certified upper bound for sum_{n>N} pi(n) p^(-rate*n) P(n).

    P is the polynomial with the given nonnegative Interval coefficients
    (constant term first) and ``rate`` is an int or an Interval.  The result
    is multiplied by ``scale``.  Levels N+1..N+strip are summed with exact
    partition counts; beyond the strip, pi(n) < e^{c sqrt n} turns the
    series into one dominated by a geometric sequence with ratio

        rho = e^{c/(2 sqrt(M+1))} * p^(-rate) * ((M+2)/(M+1))^deg(P)

    (each factor bounds the corresponding level-to-level growth for
    n > M = N + strip).  rho >= 1 means the closure fails at this depth and
    a TailClosureError is raised.
    """
    M = N + strip
    acc = ZERO
    for n in range(N + 1, M + 1):
        term = iv_mul(iv_from_int(partition_count(n)), pow_p_minus(p, rate, n))
        acc = iv_add(acc, iv_mul(term, _poly_eval(coeffs, n)))

    up_coeffs = [Interval(max(c.lo, 0.0), max(c.hi, 0.0)) for c in coeffs]
    degree = 0
    for d in range(len(up_coeffs) - 1, -1, -1):
        if up_coeffs[d].hi > 0.0:
            degree = d
            break
    ratio = iv_exp(
        iv_div(PARTITION_GROWTH, iv_mul_scalar(iv_sqrt(iv_from_int(M + 1)), 2.0))
    )
    ratio = iv_mul(ratio, pow_p_minus(p, rate, 1))
    if degree:
        ratio = iv_mul(
            ratio, iv_pow_int(iv_div(iv_from_int(M + 2), iv_from_int(M + 1)), degree)
        )
    if ratio.hi >= 1.0:
        raise TailClosureError(
            f"geometric tail closure failed at level {N} (strip to {M}): "
            f"level ratio bound {ratio.hi:.6f} >= 1; the truncation level is "
            f"too small for this decay rate"
        )
    lead = iv_mul(
        iv_exp(iv_mul(PARTITION_GROWTH, iv_sqrt(iv_from_int(M + 1)))),
        iv_mul(pow_p_minus(p, rate, M + 1), _poly_eval(up_coeffs, M + 1)),
    )
    closure = iv_div(lead, iv_sub(ONE, Interval(ratio.hi, ratio.hi)))
    total = iv_mul(scale, iv_add(acc, closure))
    return Interval(max(total.lo, 0.0), total.hi)


def _poly_eval(coeffs: list[Interval], n: int) -> Interval:
    acc = ZERO
    x = iv_from_int(n)
    for c in reversed(coeffs):
        acc = iv_add(iv_mul(acc, x), c)
    return acc


def hall_tail_bounds(p: int, N: int) -> tuple[Interval, Interval]:
    """Certified bounds on the two Hall-sum remainders past level N.

    ord route: sum_{n>N} pi(n)/p^n directly; aut route: the level sum of
    1/#Aut is at most pi(n) p^{1-n}, one factor of p worse.
    """
    ord_tail = bound_series_tail(p, 1, N, [ONE], ONE)
    aut_tail = bound_series_tail(p, 1, N, [ONE], iv_from_int(p))
    return aut_tail, ord_tail


def total_mass(
    params: CLParams,
    N: int | None = None,
    J: int | None = None,
    eps: float = 1e-6,
) -> CertifiedValue:
    """Certified truncation of sum_A nu(A) (which is exactly 1).

    ``value`` encloses the partial sum over #A <= p^N and ``tail_bound``
    dominates the omitted mass: level n > N carries at most
    F_u pi(n) p^{1-(u+1)n}.  Depths default to the auto rule: J minimal with
    p^{-u-J}/(p-1) < eps/4, N minimal with tail < eps/2.  The enclosure
    value + [0, tail] must straddle 1; tests hold it to that.
    """
    if J is None:
        J = auto_product_depth(params.p, params.u, eps)
    F = normalizing_constant(params, J)
    p = params.p
    rate = params.rate
    scale = iv_mul(F, iv_from_int(p))
    N, tail = truncation_level(
        lambda n: bound_series_tail(p, rate, n, [ONE], scale),
        N, eps / 2, 1, "total mass", f"p={p}, u={params.u}",
    )

    if params.integral:
        inner = sum(
            (
                Fraction(1, p ** (params.u * n)) * level_aut_reciprocal_sum(p, n)
                for n in range(1, N + 1)
            ),
            Fraction(1),  # trivial group
        )
        value = iv_mul(F, iv_from_fraction(inner))
    else:
        inner = ONE
        for n in range(1, N + 1):
            r_iv, _ = level_stats(p, n)
            inner = iv_add(inner, iv_mul(pow_p_minus(p, params.exponent, n), r_iv))
        value = iv_mul(F, inner)
    return CertifiedValue(value=value, truncation_level=N, tail_bound=tail.hi)
