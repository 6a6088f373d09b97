"""Rank-truncated zeta function of abelian p-groups and KL divergences.

The weights  w_k(A) = (1/#Aut A) prod_{i=k-r+1}^{k} (1 - p^{-i})  (r the
rank of A, weight 0 when r > k) interpolate between counting measures: they
are nondecreasing in k with limit 1/#Aut A.  The associated zeta function

    zeta_k(s) = sum_A w_k(A) / #A^s = prod_{i=1}^{k} (1 - p^{-s-i})^{-1}

converges for s > -1; both representations are implemented.  The group
sum is summed by rank: w_k vanishes past rank k, so it is a finite sum of
the rank sums of ``measures.RankChain`` at unit-rank s, with no tail.  k
may be an integer or None (the k -> infinity limit, where the product
becomes the reciprocal normalizing constant 1/F_s).

The divergence between two measures in the family has the closed form

    D(nu_1 || nu_2) = log(F_{u1}/F_{u2})
                      + (u2 - u1) sum_{i>=1} log(p)/(p^{u1+i} - 1),

derived from -d/ds log zeta at s = u1.  Both this and the direct sum
sum nu_1 log(nu_1/nu_2), summed by rank over the chain, are implemented,
each independently certified, so their agreement is a nontrivial machine
check of the closed form.
"""

from __future__ import annotations

import math

from .errors import too_close_to_minus_one
from .groups import is_prime
from .measures import (
    CLParams,
    auto_product_depth,
    normalizing_constant,
    partial_product,
    rank_chain,
    rank_series,
)
from .numerics import (
    ONE,
    ZERO,
    CertifiedValue,
    Interval,
    Record,
    iv_add,
    iv_div,
    iv_exp,
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


class ZetaParams(Record):
    """A prime p, a level k (positive int, or None for the limit), and a
    real evaluation point s > -1."""

    _fields = ("p", "k", "s")

    def __init__(self, p: int, k: int | None, s: float):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
            raise ValueError(f"level must be a positive integer or None, got {k!r}")
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ValueError(f"evaluation point must be real, got {s!r}")
        if not math.isfinite(s) or not s > -1:
            raise ValueError(f"evaluation point must be finite and > -1, got {s!r}")
        if isinstance(s, float) and s.is_integer():
            s = int(s)
        self.__dict__.update(p=p, k=k, s=s)


def zeta_product(params: ZetaParams) -> Interval:
    """Enclosure of prod_{i=1}^{k} (1 - p^{-s-i})^{-1} (k = None takes the
    infinite product, i.e. the reciprocal of the normalizing constant at
    unit-rank s)."""
    p, k, s = params.p, params.k, params.s
    if k is None:
        return iv_div(ONE, normalizing_constant(CLParams(p, s)))
    return iv_div(ONE, partial_product(p, s, k))


def zeta_sum(params: ZetaParams, N: int | None = None) -> CertifiedValue:
    """Group-sum route, summed by rank: a finite sum with no tail.

    w_k(A) vanishes past rank k and is the same multiple of 1/#Aut A on
    every group of rank r, so

        zeta_k(s) = sum_{r<=k} prod_{i=k-r+1}^{k} (1 - p^{-i}) Z_s(r),

    where Z_s(r) is the sum of 1/(#A^s #Aut A) over the groups of rank r,
    from ``RankChain`` at unit-rank s.  ``truncation_level`` is k and
    ``tail_bound`` is 0.  ``N`` is accepted and ignored: it was the level
    cutoff of the former level-by-level sum and no longer changes the value.
    """
    p, k, s = params.p, params.k, params.s
    if k is None:
        raise ValueError("the group-sum route needs a finite level k")
    chain = rank_chain(CLParams(p, s))
    weight = ONE
    total = ONE  # the trivial group
    for r in range(1, k + 1):
        weight = iv_mul(weight, iv_sub(ONE, iv_recip_int(p ** (k - r + 1))))
        total = iv_add(total, iv_mul(weight, chain.state(r)[0]))
    return CertifiedValue(value=total, truncation_level=k, tail_bound=0.0)


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
            denom = iv_sub(iv_exp(expo), ONE)
            if not denom.lo > 0.0:  # p^(s+1) - 1 within rounding of 0
                raise too_close_to_minus_one(p)
            acc = iv_add(acc, iv_div(L, denom))
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


def kl_closed(p: int, u1, u2) -> CertifiedValue:
    """Closed-form divergence D(nu_1 || nu_2), tail folded into the value:

        log(F_{u1}/F_{u2}) + (u2 - u1) sum_{i>=1} log(p)/(p^{u1+i} - 1).

    The depths of F_u and of the series are chosen for a tolerance of 1e-9,
    and the series' geometric tail bound is folded in before the (u2-u1)
    factor, so the returned interval always contains the exact divergence.
    """
    tol = 1e-9
    params1, params2 = CLParams(p, u1), CLParams(p, u2)
    J = auto_product_depth(p, min(params1.u, params2.u), tol / 8)
    F1 = normalizing_constant(params1, J)
    F2 = normalizing_constant(params2, J)
    c = iv_sub(iv_log(F1), iv_log(F2))

    I = auto_product_depth(p, params1.u, tol / math.log(p))
    series = _reciprocal_power_sum(p, params1.u, I)
    delta = iv_sub(iv_point(float(params2.u)), iv_point(float(params1.u)))
    value = iv_add(c, iv_mul(delta, series))
    return CertifiedValue(value=value, truncation_level=I, tail_bound=0.0)


def kl_direct(p: int, u1, u2, tol: float = 1e-6) -> CertifiedValue:
    """Direct-sum divergence, summed by rank, with a certified symmetric tail.

    Since nu_1/nu_2 = (F_{u1}/F_{u2}) #A^{u2-u1}, the summand is
    nu_1(A) (C + (u2-u1) n log p) with C = log(F_{u1}/F_{u2}), so the sum over
    the ranks <= R is F_{u1} (C sum Z(a) + (u2-u1) log p sum N(a)) over the
    chain at u1.  The rest past R is bounded in absolute value by
    F_{u1} (|C| T_Z + |u2-u1| log p T_N) (``rank_series``), hence
    ``tail_bound`` here is two-sided -- use enclosure(symmetric=True).
    ``truncation_level`` is the rank cutoff R.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params1, params2 = CLParams(p, u1), CLParams(p, u2)
    J = auto_product_depth(p, min(params1.u, params2.u), min(tol, 1e-9) / 8)
    F1 = normalizing_constant(params1, J)
    F2 = normalizing_constant(params2, J)
    c = iv_sub(iv_log(F1), iv_log(F2))
    delta = iv_sub(iv_point(float(params2.u)), iv_point(float(params1.u)))
    R, value, rest = rank_series(
        rank_chain(params1), F1, (c, iv_mul(delta, iv_log_int(p)), ZERO), tol / 2,
        "divergence", f"p={p}, u1={u1}, u2={u2}",
    )
    return CertifiedValue(value=value, truncation_level=R, tail_bound=rest)


def cross_entropy_direct(p: int, u1, u2, tol: float = 1e-5) -> CertifiedValue:
    """Truncated cross entropy -sum nu_1(A) log nu_2(A), summed by rank,
    with a one-sided tail.

    The summand expands to nu_1 (-log F_{u2} + u2 n log p + log #Aut A), so
    the sum over the ranks <= R is F_{u1} (-log F_{u2} sum Z(a)
    + u2 log p sum N(a) + sum G(a)) over the chain at u1, and the rest is at
    most F_{u1} (-log F_{u2} T_Z + |u2| log p T_N + T_G).  All summands are
    nonnegative (every class measure is < 1), so the tail is one-sided.
    ``truncation_level`` is the rank cutoff R.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params1, params2 = CLParams(p, u1), CLParams(p, u2)
    J = auto_product_depth(p, min(params1.u, params2.u), min(tol, 1e-9) / 8)
    F1 = normalizing_constant(params1, J)
    F2 = normalizing_constant(params2, J)
    mlf2 = iv_neg(iv_log(F2))
    weights = (mlf2, iv_mul_scalar(iv_log_int(p), float(params2.u)), ONE)
    R, value, rest = rank_series(
        rank_chain(params1), F1, weights, tol / 2, "cross-entropy", f"p={p}, u1={u1}, u2={u2}"
    )
    return CertifiedValue(value=value, truncation_level=R, tail_bound=rest)
