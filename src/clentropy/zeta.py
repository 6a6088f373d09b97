"""Rank-truncated zeta function of abelian p-groups and KL divergences.

The weights  w_k(A) = (1/#Aut A) prod_{i=k-r+1}^{k} (1 - p^{-i})  (r the
rank of A, weight 0 when r > k) interpolate between counting measures: they
are nondecreasing in k with limit 1/#Aut A.  The associated zeta function

    zeta_k(s) = sum_A w_k(A) / #A^s = prod_{i=1}^{k} (1 - p^{-s-i})^{-1}

converges for s > -1; both representations are implemented, the group sum
with a certified truncation tail and the product exactly.  k may be an
integer or None (the k -> infinity limit, where the product becomes the
reciprocal normalizing constant 1/F_s).

The divergence between two measures in the family has the closed form

    D(nu_1 || nu_2) = log(F_{u1}/F_{u2})
                      + (u2 - u1) sum_{i>=1} log(p)/(p^{u1+i} - 1),

derived from -d/ds log zeta at s = u1.  Both this and the direct sum
sum nu_1 log(nu_1/nu_2) are implemented, each independently certified, so
their agreement is a nontrivial machine check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .groups import is_prime
from .measures import (
    CLParams,
    auto_product_depth,
    check_level_budget,
    level_aut_reciprocal_sum,
    level_rank_sums,
    level_stats,
    normalizing_constant,
    partial_product,
    pow_p_minus,
    series_tail,
    truncation_level,
)
from .numerics import (
    ONE,
    ZERO,
    CertifiedValue,
    Interval,
    iv_abs,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_fraction,
    iv_from_int,
    iv_log,
    iv_log_int,
    iv_mul,
    iv_mul_scalar,
    iv_neg,
    iv_point,
    iv_recip_int,
    iv_sub,
)


@dataclass(frozen=True)
class ZetaParams:
    """A prime p, a level k (positive int, or None for the limit), and a
    real evaluation point s > -1."""

    p: int
    k: int | None
    s: float

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        k = self.k
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
            raise ValueError(f"level must be a positive integer or None, got {k!r}")
        s = self.s
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ValueError(f"evaluation point must be real, got {s!r}")
        if not math.isfinite(s) or not s > -1:
            raise ValueError(f"evaluation point must be finite and > -1, got {s!r}")
        if isinstance(s, float) and s.is_integer():
            object.__setattr__(self, "s", int(s))

    @property
    def integral_s(self) -> bool:
        return isinstance(self.s, int) and self.s >= 0


def w_k_weight(A, k: int) -> Fraction:
    """Exact rank-truncated weight w_k(A); zero when rank(A) > k.

    The trivial group has weight 1 at every level (empty product over an
    automorphism group of size one).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"level must be a positive integer, got {k!r}")
    r = A.rank
    if r > k:
        return Fraction(0)
    p = A.p
    num = 1
    expo = 0
    for i in range(k - r + 1, k + 1):
        num *= p**i - 1
        expo += i
    return Fraction(num, p**expo * A.aut_order)


@lru_cache(maxsize=None)
def _level_weight_sum(p: int, n: int, k: int) -> Fraction:
    """sum of w_k over the partitions of n (exact): the rank-resolved sums
    R_{n,r} of 1/#Aut, each weighted by prod_{i=k-r+1}^{k} (1 - p^{-i})."""
    total = Fraction(0)
    weight = Fraction(1)
    for r, mass in enumerate(level_rank_sums(p, n)[: k + 1]):
        if r:
            weight *= 1 - Fraction(1, p ** (k - r + 1))
        total += mass * weight
    return total


def zeta_product(params: ZetaParams, J: int = 64) -> Interval:
    """Enclosure of prod_{i=1}^{k} (1 - p^{-s-i})^{-1} (k = None takes the
    infinite product, i.e. the reciprocal of the normalizing constant at
    unit-rank s)."""
    p, k, s = params.p, params.k, params.s
    if k is None:
        return iv_div(ONE, normalizing_constant(CLParams(p, s), J))
    return iv_div(ONE, partial_product(p, s, k))


def zeta_sum(params: ZetaParams, N: int = 30) -> CertifiedValue:
    """Truncated group-sum route: sum over #A <= p^N of w_k(A)/#A^s, plus a
    certified one-sided tail.

    The tail uses w_k(A) <= 1/#Aut A <= p^{1-n}, so the omitted levels are
    dominated by pi(n) p^{1-(s+1)n} and close geometrically.  At integral s
    the truncated sum itself is a single exact rational.
    """
    p, k, s = params.p, params.k, params.s
    if k is None:
        raise ValueError("the group-sum route needs a finite level k")
    N, tail = truncation_level(
        series_tail(p, CLParams(p, s).rate, [ONE], iv_from_int(p)), N,
        budget=partial(check_level_budget, p),
    )
    if params.integral_s:
        exact = sum(
            (_level_weight_sum(p, n, k) / Fraction(p ** (s * n)) for n in range(N + 1)),
            Fraction(0),
        )
        value = iv_from_fraction(exact)
    else:
        value = ZERO
        s_iv = iv_point(float(s))
        for n in range(N + 1):
            w = iv_from_fraction(_level_weight_sum(p, n, k))
            value = iv_add(value, iv_mul(w, pow_p_minus(p, s_iv, n)))
    return CertifiedValue(value=value, truncation_level=N, tail_bound=tail.hi)


def _log_ratio_sum(p: int, s, k: int) -> Interval:
    """Enclosure of the partial sum sum_{i=1}^{k} log(p)/(p^{s+i} - 1)."""
    L = iv_log_int(p)
    acc = ZERO
    if isinstance(s, int) and s >= 0:
        for i in range(1, k + 1):
            acc = iv_add(acc, iv_mul(L, iv_recip_int(p ** (s + i) - 1)))
    else:
        s_iv = iv_point(float(s))
        for i in range(1, k + 1):
            expo = iv_mul(iv_add(s_iv, iv_from_int(i)), L)
            acc = iv_add(acc, iv_div(L, iv_sub(iv_exp(expo), ONE)))
    return acc


def _reciprocal_power_sum(p: int, base, I: int) -> Interval:
    """Enclosure of sum_{i=1..I} log(p)/(p^{base+i} - 1) plus its tail:
    the full series lies in [partial, partial + bound]."""
    L = iv_log_int(p)
    acc = _log_ratio_sum(p, base, I)
    if isinstance(base, int) and base >= 0:
        x = iv_recip_int(p ** (base + I + 1))
    else:
        x = iv_exp(iv_neg(iv_mul(iv_add(iv_point(float(base)), iv_from_int(I + 1)), L)))
    # sum_{i>I} log(p)/(p^{base+i}-1) <= log(p) p^{-base-I} / ((p-1)(1-x))
    tail = iv_div(
        iv_mul(L, iv_mul(x, iv_from_int(p))),
        iv_mul(iv_from_int(p - 1), iv_sub(ONE, x)),
    )
    return iv_add(acc, Interval(0.0, tail.hi))


def zeta_log_derivative(params: ZetaParams) -> Interval:
    """Enclosure of d/ds zeta_k(s) via the closed form

        zeta_k(s) * (-sum_{i=1}^{k} log(p) / (p^{s+i} - 1)),

    which is negative for all admissible parameters."""
    p, k, s = params.p, params.k, params.s
    if k is None:
        raise ValueError("the derivative formula needs a finite level k")
    return iv_neg(iv_mul(zeta_product(params), _log_ratio_sum(p, s, k)))


def kl_closed(p: int, u1, u2, tol: float = 1e-9) -> CertifiedValue:
    """Closed-form divergence D(nu_1 || nu_2), tail folded into the value:

        log(F_{u1}/F_{u2}) + (u2 - u1) sum_{i>=1} log(p)/(p^{u1+i} - 1).

    The series is truncated where its geometric tail bound drops below
    tol/4 and the bound is folded in before the (u2-u1) factor, so the
    returned interval always contains the exact divergence.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params1, params2 = CLParams(p, u1), CLParams(p, u2)
    J = auto_product_depth(p, min(params1.u, params2.u), tol / 8)
    F1 = normalizing_constant(params1, J)
    F2 = normalizing_constant(params2, J)
    c = iv_sub(iv_log(F1), iv_log(F2))

    L = math.log(p)
    I = 8
    while L * p ** (-(params1.u + I)) / (p - 1) >= tol / 4 and I < 4096:
        I += 1
    series = _reciprocal_power_sum(p, params1.u, I)
    delta = iv_sub(iv_point(float(params2.u)), iv_point(float(params1.u)))
    value = iv_add(c, iv_mul(delta, series))
    return CertifiedValue(value=value, truncation_level=I, tail_bound=0.0)


def kl_direct(p: int, u1, u2, N: int | None = None, tol: float = 1e-6) -> CertifiedValue:
    """Direct-sum divergence with a certified symmetric tail.

    Since nu_1/nu_2 = (F_{u1}/F_{u2}) #A^{u2-u1}, the summand is
    nu_1(A) (C + (u2-u1) n log p) with C = log(F_{u1}/F_{u2}), so the
    truncated sum recombines the cached level masses; the omitted terms are
    bounded in absolute value by pi(n) b_n (|C| + |u2-u1| n log p), hence
    ``tail_bound`` here is two-sided -- use enclosure(symmetric=True).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params1, params2 = CLParams(p, u1), CLParams(p, u2)
    J = auto_product_depth(p, min(params1.u, params2.u), min(tol, 1e-9) / 8)
    F1 = normalizing_constant(params1, J)
    F2 = normalizing_constant(params2, J)
    c = iv_sub(iv_log(F1), iv_log(F2))
    L = iv_log_int(p)
    delta = iv_sub(iv_point(float(params2.u)), iv_point(float(params1.u)))

    rate = params1.rate
    scale = iv_mul(F1, iv_from_int(p))
    coeffs = [iv_abs(c), iv_mul(iv_abs(delta), L)]
    N, tail = truncation_level(
        series_tail(p, rate, coeffs, scale), N, tol / 2, 2,
        "divergence", f"p={p}, u1={u1}, u2={u2}", partial(check_level_budget, p),
    )

    # M1 = sum nu_1(A), M2 = sum n(A) nu_1(A) over #A <= p^N.
    if params1.integral:
        m1_inner = Fraction(1)
        m2_inner = Fraction(0)
        for n in range(1, N + 1):
            r = level_aut_reciprocal_sum(p, n) / Fraction(p ** (params1.u * n))
            m1_inner += r
            m2_inner += n * r
        m1 = iv_mul(F1, iv_from_fraction(m1_inner))
        m2 = iv_mul(F1, iv_from_fraction(m2_inner))
    else:
        m1_acc, m2_acc = ONE, ZERO
        for n in range(1, N + 1):
            r_iv, _ = level_stats(p, n)
            lv = iv_mul(pow_p_minus(p, params1.exponent, n), r_iv)
            m1_acc = iv_add(m1_acc, lv)
            m2_acc = iv_add(m2_acc, iv_mul_scalar(lv, float(n)))
        m1 = iv_mul(F1, m1_acc)
        m2 = iv_mul(F1, m2_acc)
    value = iv_add(iv_mul(c, m1), iv_mul(iv_mul(delta, L), m2))
    return CertifiedValue(value=value, truncation_level=N, tail_bound=tail.hi)


def limit_derivative_identity(p: int, u1, tol: float, k_max: int = 200) -> bool:
    """Check  lim_k -zeta_k'(u1) = (1/F_{u1}) sum_{i>=1} log(p)/(p^{u1+i}-1).

    Walks k upward until the finite-k derivative interval lands inside the
    right-hand side's interval widened by tol; returns False if that never
    happens by k_max.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params = CLParams(p, u1)
    F = normalizing_constant(params, 64)
    L = math.log(p)
    I = 8
    while L * p ** (-(params.u + I)) / (p - 1) >= tol / 20 and I < 4096:
        I += 1
    rhs = iv_mul(iv_div(ONE, F), _reciprocal_power_sum(p, params.u, I))
    target = rhs.widened(tol)
    for k in range(1, k_max + 1):
        lhs = iv_neg(zeta_log_derivative(ZetaParams(p, k, float(params.u))))
        if target.lo <= lhs.lo and lhs.hi <= target.hi:
            return True
    return False


def cross_entropy_direct(
    p: int, u1, u2, N: int | None = None, tol: float = 1e-5
) -> CertifiedValue:
    """Truncated cross entropy -sum nu_1(A) log nu_2(A), one-sided tail.

    The summand expands to nu_1 (-log F_{u2} + u2 n log p + log #Aut A); the
    level sums recombine cached statistics, and the tail majorizes
    log #Aut A by n^2 log p (since #Aut A <= #Hom(A,A) <= p^{n^2}), giving a
    quadratic polynomial against the usual geometric decay.  All summands
    are nonnegative (every class measure is < 1), so the tail is one-sided.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params1, params2 = CLParams(p, u1), CLParams(p, u2)
    J = auto_product_depth(p, min(params1.u, params2.u), min(tol, 1e-9) / 8)
    F1 = normalizing_constant(params1, J)
    F2 = normalizing_constant(params2, J)
    mlf2 = iv_neg(iv_log(F2))
    L = iv_log_int(p)

    rate = params1.rate
    scale = iv_mul(F1, iv_from_int(p))
    coeffs = [mlf2, iv_mul(iv_abs(iv_point(float(params2.u))), L), L]
    N, tail = truncation_level(
        series_tail(p, rate, coeffs, scale), N, tol / 2, 2,
        "cross-entropy", f"p={p}, u1={u1}, u2={u2}", partial(check_level_budget, p),
    )

    u2_iv = iv_point(float(params2.u))
    acc = mlf2  # trivial group: nu_1(1) (-log nu_2(1)) = F1 mlf2; F1 folds below
    for n in range(1, N + 1):
        r_iv, s_iv = level_stats(p, n)
        pw = pow_p_minus(p, params1.exponent, n)
        u2n_log = iv_mul(u2_iv, iv_mul_scalar(L, float(n)))
        acc = iv_add(acc, iv_mul(pw, iv_add(iv_mul(u2n_log, r_iv), s_iv)))
        acc = iv_add(acc, iv_mul(mlf2, iv_mul(pw, r_iv)))
    value = iv_mul(F1, acc)
    return CertifiedValue(value=value, truncation_level=N, tail_bound=tail.hi)
