"""Level-k zeta values, their logarithmic derivatives, and divergences."""

from fractions import Fraction

import mpmath
import pytest

from clentropy import (
    AbelianPGroup,
    CLParams,
    ZetaParams,
    cross_entropy_direct,
    entropy,
    enumerate_partitions,
    kl_closed,
    kl_direct,
    normalizing_constant,
    zeta_log_derivative,
    zeta_product,
    zeta_sum,
)
from clentropy.numerics import ONE, Interval, iv_add, iv_div, iv_neg


def contains_fraction(iv, x: Fraction) -> bool:
    return Fraction(iv.lo) <= x <= Fraction(iv.hi)


# ------------------------------------------------------------------- weights


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


def test_weight_examples_exact():
    assert w_k_weight(AbelianPGroup(2, ()), 1) == 1
    assert w_k_weight(AbelianPGroup(2, (1,)), 1) == Fraction(1, 2)
    assert w_k_weight(AbelianPGroup(3, (1,)), 1) == Fraction(1, 3)
    assert w_k_weight(AbelianPGroup(2, (1,)), 2) == Fraction(3, 4)
    # rank above the level contributes nothing
    assert w_k_weight(AbelianPGroup(2, (1, 1)), 1) == 0
    assert w_k_weight(AbelianPGroup(2, (1, 1, 1)), 2) == 0


def test_weight_monotone_in_k_up_to_aut_reciprocal():
    for p in (2, 3):
        for n in range(7):
            for lam in enumerate_partitions(n):
                a = AbelianPGroup(p, lam)
                limit = Fraction(1, a.aut_order)
                prev = Fraction(0)
                for k in list(range(1, 13)) + [25, 50]:
                    w = w_k_weight(a, k)
                    assert prev <= w <= limit, (p, lam, k)
                    prev = w


def test_weight_validation():
    with pytest.raises(ValueError):
        w_k_weight(AbelianPGroup(2, (1,)), 0)


# ------------------------------------------------------------ product route


def test_product_route_exact_rational_value():
    # zeta_3(1) at p = 2 is 4/3 * 8/7 * 16/15 = 512/315
    value = zeta_product(ZetaParams(2, 3, 1))
    assert contains_fraction(value, Fraction(512, 315))
    assert value.width < 1e-13


def test_product_route_at_infinite_level_is_reciprocal_normalizer():
    for p, s in [(2, 0), (3, 1), (2, -0.5)]:
        infinite = zeta_product(ZetaParams(p, None, s))
        reciprocal = iv_div(ONE, normalizing_constant(CLParams(p, s), J=64))
        assert infinite.overlaps(reciprocal)


def test_zeta_params_validation():
    with pytest.raises(ValueError):
        ZetaParams(4, 1, 0)
    with pytest.raises(ValueError):
        ZetaParams(2, 0, 0)
    with pytest.raises(ValueError):
        ZetaParams(2, 1, -1.0)
    with pytest.raises(ValueError, match=r"finite and > -1, got inf"):
        ZetaParams(2, 1, float("inf"))
    assert ZetaParams(2, 1, 2.0).s == 2  # integral floats normalize
    assert ZetaParams(2, None, 0).k is None


# ------------------------------------------------------------ sum-route check


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("s", [-0.5, 0, 2])
def test_sum_route_overlaps_product_route(p, k, s):
    params = ZetaParams(p, k, s)
    total = zeta_sum(params, N=25)
    assert zeta_product(params).overlaps(total.enclosure())


def test_sum_route_needs_finite_level():
    with pytest.raises(ValueError):
        zeta_sum(ZetaParams(2, None, 0))


def test_sum_route_is_a_finite_sum_with_no_tail():
    # summed by rank, the group sum stops at rank k; N no longer matters
    params = ZetaParams(2, 2, 0)
    total = zeta_sum(params)
    assert total.value.overlaps(zeta_product(params))
    assert (total.truncation_level, total.tail_bound) == (2, 0.0)
    assert zeta_sum(params, N=12) == total


# ------------------------------------------------------------- derivatives


def test_log_derivative_known_value():
    # zeta_1 at p = 2, s = 0: the derivative is -2 log 2
    import math

    value = zeta_log_derivative(ZetaParams(2, 1, 0))
    assert value.contains(-2 * math.log(2))
    assert value.width < 1e-13


@pytest.mark.parametrize("p, k, s", [(2, 2, 0.0), (3, 1, 1.0), (2, 4, 0.5)])
def test_log_derivative_matches_finite_differences(p, k, s):
    h = 1e-6
    upper = zeta_product(ZetaParams(p, k, s + h))
    lower = zeta_product(ZetaParams(p, k, s - h))
    fd = (upper.mid - lower.mid) / (2 * h)
    assert zeta_log_derivative(ZetaParams(p, k, s)).widened(1e-4).contains(fd)


def test_log_derivative_needs_finite_level():
    with pytest.raises(ValueError):
        zeta_log_derivative(ZetaParams(2, None, 0))


def limit_derivative_identity(p: int, u1, tol: float) -> bool:
    """Check  lim_k -zeta_k'(u1) = (1/F_{u1}) sum_{i>=1} log(p)/(p^{u1+i}-1).

    The right side is evaluated with 40-digit mpmath, independently of the
    library's series.  Walks k upward until the finite-k derivative
    interval lands inside the right side widened by tol; returns False if
    that never happens by k = 200.
    """
    with mpmath.workdps(40):
        fu = mpmath.qp(mpmath.mpf(p) ** -(u1 + 1), mpmath.mpf(1) / p)
        series = mpmath.nsum(lambda i: mpmath.log(p) / (mpmath.mpf(p) ** (u1 + i) - 1),
                             [1, mpmath.inf])
        rhs = series / fu
        target = Interval(float(rhs - tol), float(rhs + tol))
    for k in range(1, 201):
        lhs = iv_neg(zeta_log_derivative(ZetaParams(p, k, u1)))
        if target.lo <= lhs.lo and lhs.hi <= target.hi:
            return True
    return False


def test_limit_derivative_identity_holds():
    # -zeta_k'(u) converges (in k) onto the certified series enclosure
    assert limit_derivative_identity(2, 0, tol=1e-8)
    assert limit_derivative_identity(5, 3, tol=1e-10)
    assert limit_derivative_identity(2, -0.5, tol=1e-6)


# -------------------------------------------------------------- divergences

# 15-digit reference from a 60-digit evaluation of the closed form
KL_2_FROM_0_TO_1 = "0.420529034356046"


def test_kl_closed_reference_value(decimal_interval):
    result = kl_closed(2, 0, 1)
    assert result.value.overlaps(decimal_interval(KL_2_FROM_0_TO_1))
    assert result.value.width < 1e-9
    assert result.tail_bound == 0.0


def test_kl_direct_overlaps_closed():
    for p, u1, u2 in [(2, 0, 1), (2, 1, 0), (3, 0, 2), (5, 2, 1)]:
        closed = kl_closed(p, u1, u2)
        direct = kl_direct(p, u1, u2)
        assert closed.value.overlaps(direct.enclosure(symmetric=True)), (p, u1, u2)


def test_kl_vanishes_on_the_diagonal():
    for p, u in [(2, 0), (3, 3), (5, 1)]:
        closed = kl_closed(p, u, u)
        assert closed.value.contains(0.0)
        assert max(abs(closed.value.lo), abs(closed.value.hi)) < 1e-9
        direct = kl_direct(p, u, u).enclosure(symmetric=True)
        assert direct.contains(0.0)
        assert max(abs(direct.lo), abs(direct.hi)) < 1e-9


def test_kl_is_nonnegative_and_asymmetric():
    forward = kl_closed(2, 0, 2).value
    backward = kl_closed(2, 2, 0).value
    assert forward.lo > 0.0 and backward.lo > 0.0
    assert not forward.overlaps(backward)


def test_kl_gibbs_inequality_on_grid():
    for u1 in range(4):
        for u2 in range(4):
            value = kl_closed(3, u1, u2).value
            assert value.hi >= 0.0
            if u1 != u2:
                assert value.lo > 0.0


def test_kl_extended_parameters():
    result = kl_closed(2, 0.5, 1.5)
    assert result.value.lo > 0.0
    direct = kl_direct(2, 0.5, 1.5, tol=1e-5)
    assert result.value.overlaps(direct.enclosure(symmetric=True))


def test_kl_direct_answers_slow_decay():
    # refused while the direct sum was summed by level; by rank it answers
    for u1 in (-0.5, -0.999):
        direct = kl_direct(2, u1, 0).enclosure(symmetric=True)
        assert direct.overlaps(kl_closed(2, u1, 0).value), u1


# ------------------------------------------------------------- cross entropy


@pytest.mark.parametrize("p, u1, u2", [(2, 0, 1), (2, 1, 0), (3, 0, 2)])
def test_cross_entropy_is_entropy_plus_divergence(p, u1, u2):
    cross = cross_entropy_direct(p, u1, u2, tol=1e-6)
    h = entropy(CLParams(p, u1), eps=1e-7)
    kl = kl_closed(p, u1, u2)
    rhs = iv_add(h.H.value, kl.value)
    assert cross.enclosure().widened(1e-5).overlaps(rhs)


def test_cross_entropy_diagonal_is_entropy():
    cross = cross_entropy_direct(2, 1, 1, tol=1e-6)
    h = entropy(CLParams(2, 1), eps=1e-7)
    assert cross.enclosure().overlaps(h.H.value.widened(1e-6))
