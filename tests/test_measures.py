"""Measures on abelian p-groups: normalizing products, Hall sums, total mass."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clentropy import (
    AbelianPGroup,
    CLParams,
    RefusalError,
    TailClosureError,
    auto_product_depth,
    bound_series_tail,
    cl_measure,
    enumerate_partitions,
    hall_sum_partial,
    hall_tail_bounds,
    iv_div,
    iv_mul,
    normalizing_constant,
    partition_count,
    total_mass,
)
from clentropy import ZetaParams, cross_entropy_direct, entropy, entropy_by_definition
from clentropy import kl_closed, kl_direct, zeta_product, zeta_sum
from clentropy import measures
from clentropy.groups import aut_order_parts, is_prime
from clentropy.measures import (
    MAX_LEVEL_WORK,
    TAIL_STRIP,
    check_enumeration_budget,
    check_level_budget,
    level_aut_reciprocal_sum,
    level_rank_sums,
    level_stats,
    level_stats_by_enumeration,
    level_work,
    series_tail,
    truncation_level,
)
from clentropy.numerics import (
    ONE,
    Interval,
    iv_from_fraction,
    iv_from_int,
    iv_log_int,
    iv_neg,
    iv_point,
)
from clentropy.partitions import iter_partitions

# ------------------------------------------------------------------ CLParams


def test_params_validation():
    with pytest.raises(ValueError):
        CLParams(6, 0)
    with pytest.raises(ValueError):
        CLParams(2, -1)
    with pytest.raises(ValueError):
        CLParams(2, -1.5)
    with pytest.raises(ValueError, match=r"finite and > -1, got inf"):
        CLParams(2, float("inf"))
    with pytest.raises(ValueError):
        CLParams(2, True)


def test_params_normalize_integral_floats():
    params = CLParams(2, 3.0)
    assert params.u == 3 and isinstance(params.u, int)
    assert params.integral
    assert not CLParams(2, 0.5).integral
    assert CLParams(3, -0.25).u == -0.25


# ------------------------------------------------------- normalizing constant

# 30-digit evaluation of prod_{i>=1}(1 - 2^-i): 0.288788095086602421278899721929...
F0_AT_2 = 0.288788095086602421278899721929


def test_normalizing_constant_at_p2_u0():
    F = normalizing_constant(CLParams(2, 0), J=64)
    assert F.contains(F0_AT_2)
    assert F.width < 1e-14


def test_normalizing_constant_increases_with_u():
    for p in (2, 5):
        values = [normalizing_constant(CLParams(p, u), J=64) for u in range(6)]
        for lower, upper in zip(values, values[1:]):
            assert lower.hi < upper.lo


def test_normalizing_constant_classical_bracket():
    # (1 - p^{-(u+1)})^{p/(p-1)} <= F_u <= 1 - p^{-(u+1)}
    for p, u in [(2, 0), (2, 3), (3, 0), (5, 2), (2, -0.5), (3, 1.75)]:
        F = normalizing_constant(CLParams(p, u), J=80)
        first_factor = 1.0 - float(p) ** -(u + 1)
        assert F.hi <= first_factor * (1 + 1e-12)
        assert F.lo >= first_factor ** (p / (p - 1)) * (1 - 1e-12)


def test_normalizing_constant_deepening_never_contradicts():
    shallow = normalizing_constant(CLParams(2, 0), J=12)
    deep = normalizing_constant(CLParams(2, 0), J=96)
    assert shallow.lo <= deep.lo and deep.hi <= shallow.hi


def test_normalizing_constant_depth_validation():
    with pytest.raises(ValueError):
        normalizing_constant(CLParams(2, 0), J=0)


def test_auto_product_depth_satisfies_its_contract():
    for p, u, eps in [(2, 0, 1e-6), (3, 2, 1e-9), (2, -0.5, 1e-4)]:
        J = auto_product_depth(p, u, eps)
        assert J >= 8
        assert float(p) ** -(u + J) / (p - 1) < eps / 4


# ------------------------------------------------------------------- measure


def test_trivial_class_carries_exactly_the_normalizing_constant():
    for p, u in [(2, 0), (3, 2), (2, 1.5)]:
        params = CLParams(p, u)
        measure = cl_measure(params, AbelianPGroup(p, ()))
        F = normalizing_constant(params)
        assert measure.lo == F.lo and measure.hi == F.hi


def test_measure_is_normalizing_constant_over_weight():
    # nu(A) * #A^u * #Aut A must enclose F_u again (exact weights)
    for p, u in [(2, 0), (2, 3), (3, 1), (5, 2)]:
        params = CLParams(p, u)
        F = normalizing_constant(params)
        for lam in [(1,), (2, 1), (1, 1, 1), (3, 2)]:
            a = AbelianPGroup(p, lam)
            weight = a.order**u * a.aut_order
            recon = iv_mul(cl_measure(params, a), iv_from_int(weight))
            assert recon.overlaps(F)
            assert recon.width < 1e-12 * float(F.hi)


def test_measure_known_ratios_at_u0():
    # at u = 0 the measure is F_0 / #Aut; check against exact Aut counts
    params = CLParams(2, 0)
    F = normalizing_constant(params)
    klein = cl_measure(params, AbelianPGroup(2, (1, 1)))
    assert iv_mul(klein, iv_from_int(6)).overlaps(F)
    cyclic4 = cl_measure(params, AbelianPGroup(2, (2,)))
    assert iv_mul(cyclic4, iv_from_int(2)).overlaps(F)


def test_measure_extended_mode_matches_integral_at_integer():
    # u = 2 through the integral route vs u = 2.0 forced through CLParams
    # normalization: both must agree (the float is normalized to the int)
    a = AbelianPGroup(2, (2, 1))
    m_int = cl_measure(CLParams(2, 2), a)
    m_float = cl_measure(CLParams(2, 2.0), a)
    assert m_int.lo == m_float.lo and m_int.hi == m_float.hi


def test_measure_extended_mode_interpolates():
    # for a rank-2 class the measure strictly decreases in u, so the
    # half-integral value separates the two integral neighbours
    a = AbelianPGroup(2, (1, 1))
    lo = cl_measure(CLParams(2, 1), a)
    mid = cl_measure(CLParams(2, 0.5), a)
    hi = cl_measure(CLParams(2, 0), a)
    assert lo.hi < mid.lo and mid.hi < hi.lo


def test_measure_of_smallest_cyclic_class_ratio_from_u0_to_u1():
    # F_1 = F_0 p/(p-1) gives nu_1(Z/p) = nu_0(Z/p)/(p-1) exactly; at p = 2
    # the two measures coincide
    for p in (2, 3, 5):
        a = AbelianPGroup(p, (1,))
        first = cl_measure(CLParams(p, 0), a)
        second = cl_measure(CLParams(p, 1), a)
        scaled = iv_mul(second, iv_from_int(p - 1))
        assert scaled.overlaps(first)
    m0 = cl_measure(CLParams(2, 0), AbelianPGroup(2, (1,)))
    m1 = cl_measure(CLParams(2, 1), AbelianPGroup(2, (1,)))
    assert m0.overlaps(m1) and abs(m0.mid - m1.mid) < 1e-13


def test_measure_rejects_prime_mismatch():
    with pytest.raises(ValueError):
        cl_measure(CLParams(2, 0), AbelianPGroup(3, (1,)))


# ------------------------------------------------------------------ Hall sums


def test_hall_partial_sums_small_exact_values():
    assert hall_sum_partial(2, 0) == (Fraction(1), Fraction(1))
    assert hall_sum_partial(2, 1) == (Fraction(2), Fraction(3, 2))
    # level 2 at p=2: types (2) and (1,1) with Aut orders 2 and 6
    s_aut, s_ord = hall_sum_partial(2, 2)
    assert s_aut == 2 + Fraction(1, 2) + Fraction(1, 6)
    assert s_ord == Fraction(3, 2) + Fraction(2, 4)


def test_hall_partial_sums_increase():
    prev_aut, prev_ord = Fraction(0), Fraction(0)
    for N in range(8):
        s_aut, s_ord = hall_sum_partial(3, N)
        assert s_aut > prev_aut and s_ord > prev_ord
        prev_aut, prev_ord = s_aut, s_ord


def test_hall_routes_converge_to_reciprocal_normalizing_constant():
    for p in (2, 3):
        s_aut, s_ord = hall_sum_partial(p, 25)
        aut_tail, ord_tail = hall_tail_bounds(p, 25)
        limit = iv_div(ONE, normalizing_constant(CLParams(p, 0), J=96))
        for partial, tail in ((s_aut, aut_tail), (s_ord, ord_tail)):
            gap_hi = limit.hi - iv_from_fraction(partial).lo
            gap_lo = limit.lo - iv_from_fraction(partial).hi
            assert gap_hi >= 0.0, (p, "partial sum exceeds the limit")
            assert gap_lo <= tail.hi, (p, "certified tail too small")


def test_hall_ord_tail_at_25_is_below_1e4():
    for p in (2, 3):
        _, ord_tail = hall_tail_bounds(p, 25)
        assert ord_tail.hi < 1e-4


def test_level_aut_reciprocal_sum_equals_ord_route_levelwise():
    # Hall: sum over types of n of 1/#Aut = pi(n)/p^n ... is false levelwise;
    # the identity only holds after summing.  What is exact levelwise:
    # the sums are positive rationals bounded by pi(n) p^{1-n}.
    for p in (2, 3):
        for n in range(1, 10):
            r = level_aut_reciprocal_sum(p, n)
            assert 0 < r <= Fraction(partition_count(n) * p, p**n)


# ------------------------------------- level statistics: DP against enumeration


def _rank_sums_by_enumeration(p, n):
    sums = [Fraction(0)] * (n + 1)
    for parts in iter_partitions(n):
        sums[len(parts)] += Fraction(1, aut_order_parts(p, parts))
    return tuple(sums)


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_dp_level_sums_equal_enumeration_exactly(p):
    for n in range(17):
        r_exact, r_iv, _ = level_stats_by_enumeration(p, n)
        assert level_aut_reciprocal_sum(p, n) == r_exact, (p, n)
        assert level_stats(p, n)[0] == r_iv, (p, n)
        assert level_rank_sums(p, n) == _rank_sums_by_enumeration(p, n), (p, n)


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_dp_log_sums_overlap_enumeration_and_are_no_wider(p):
    for n in range(17):
        _, _, s_enum = level_stats_by_enumeration(p, n)
        _, s_dp = level_stats(p, n)
        assert s_dp.overlaps(s_enum), (p, n)
        assert s_dp.width <= s_enum.width, (p, n)


def _hall_level(p, n):
    """Hall: the sum over the groups of order p^n of 1/#Aut is
    p^-n / prod_{i<=n} (1 - p^-i)."""
    closed = Fraction(1, p**n)
    for i in range(1, n + 1):
        closed /= 1 - Fraction(1, p**i)
    return closed


@pytest.mark.parametrize("p, n_max", [(2, 68), (3, 39)])
def test_dp_level_sums_equal_halls_closed_form(p, n_max):
    for n in range(n_max + 1):
        assert level_aut_reciprocal_sum(p, n) == _hall_level(p, n), (p, n)


def test_dp_level_zero_is_the_trivial_group():
    for p in (2, 3, 97):
        assert level_aut_reciprocal_sum(p, 0) == 1
        assert level_stats(p, 0) == (Interval(1.0, 1.0), Interval(0.0, 0.0))
        assert level_rank_sums(p, 0) == (1,)


def test_definition_and_hall_routes_do_not_use_the_dp(monkeypatch):
    def broken(*args):
        raise AssertionError("transfer DP used")

    monkeypatch.setattr(measures._TransferDP, "level", broken)
    monkeypatch.setattr(measures._TransferDP, "rank_sums", broken)
    with pytest.raises(AssertionError):
        level_stats(2, 3)
    result = entropy_by_definition(CLParams(2, 1), N=17)
    assert result.value.contains(1.13581634645)
    s_aut, _ = hall_sum_partial(3, 12)
    assert s_aut == sum(_hall_level(3, n) for n in range(13))


def test_dp_routes_do_not_enumerate_partitions(monkeypatch):
    def broken(n):
        raise AssertionError("partitions enumerated")

    for name in ("clentropy", "clentropy.partitions", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "iter_partitions", broken)
    # empty every cache an enumeration could have filled
    level_stats_by_enumeration.cache_clear()
    importlib.import_module("clentropy.zeta")._level_weight_sum.cache_clear()
    with pytest.raises(AssertionError):
        level_stats_by_enumeration(2, 3)
    assert entropy(CLParams(11, 0.5), eps=1e-8).H.value.width <= 1e-8
    kl = kl_direct(11, 0, 1).enclosure(symmetric=True)
    assert kl.overlaps(kl_closed(11, 0, 1).value)
    assert cross_entropy_direct(11, 1, 0).value.lo > 0
    assert total_mass(CLParams(11, 1), eps=1e-8).enclosure().contains(1)
    params = ZetaParams(11, 3, 0.5)
    assert zeta_sum(params, 8).enclosure().overlaps(zeta_product(params))


# ------------------------------------------------------------- tail machinery


def test_series_tail_dominates_true_remainder():
    # rate 2, p = 2: compare against a long partial sum of the true series
    bound = bound_series_tail(2, 2, 5, [ONE], ONE)
    true_partial = sum(
        partition_count(n) * Fraction(1, 2 ** (2 * n)) for n in range(6, 400)
    )
    assert Fraction(bound.hi) >= true_partial
    # and it is not absurdly loose: within a factor 50 of the truth
    assert Fraction(bound.hi) <= 50 * true_partial


def test_series_tail_closure_failure_raises():
    # a walker raises at the same N, with the same text, as a single call
    tail_at = series_tail(2, iv_point(0.01), [ONE], ONE)
    for N in (5, 40):
        with pytest.raises(TailClosureError) as single:
            bound_series_tail(2, iv_point(0.01), N, [ONE], ONE)
        with pytest.raises(TailClosureError) as walked:
            tail_at(N)
        assert f"at level {N} " in str(walked.value)
        assert str(walked.value) == str(single.value)


def test_series_tail_decreases_in_level():
    tails = [bound_series_tail(2, 1, N, [ONE], ONE).hi for N in (5, 10, 20, 30)]
    assert tails == sorted(tails, reverse=True)
    assert tails[-1] < 1e-5


TAIL_CASES = {
    "integral-rate": (2, 1, [ONE], ONE),
    "interval-rate": (3, iv_point(1.5), [ONE, iv_point(0.25)], iv_from_int(3)),
    # entropy-shaped: alpha = -log F - log p < 0, beta = (u+1) log p
    "negative-constant": (2, 1, [iv_neg(iv_log_int(2)), iv_log_int(2)], iv_point(0.5)),
}


@pytest.mark.parametrize("case", TAIL_CASES.values(), ids=TAIL_CASES.keys())
def test_series_tail_walker_is_order_independent(case):
    p, rate, coeffs, scale = case
    tail_at = series_tail(p, rate, coeffs, scale)
    levels = list(range(1, 31))
    shuffled = random.Random(5).choices(levels, k=40)
    for N in levels + levels[::-1] + shuffled:
        assert tail_at(N) == bound_series_tail(p, rate, N, coeffs, scale), N


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.integers(0, 30),
    st.lists(st.fractions(min_value=0, max_value=10, max_denominator=64), min_size=1, max_size=3),
)
def test_series_tail_contains_the_exact_strip_sum(p, rate, N, coeffs):
    # sum_{n=N+1}^{M} pi(n) p^(-rate n) P(n) over the common denominator
    # p^(rate M) * den, exactly
    M = N + 400
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    num = sum(
        partition_count(n) * p ** (rate * (M - n)) * sum(a * n**i for i, a in enumerate(ints))
        for n in range(N + 1, M + 1)
    )
    bound = bound_series_tail(p, rate, N, [iv_from_fraction(c) for c in coeffs], ONE)
    assert Fraction(bound.hi) >= Fraction(num, p ** (rate * M) * den)


@pytest.mark.parametrize(
    "call, start, level",
    [
        (lambda: entropy(CLParams(2, 0), 1e-6).H, 3, 42),
        (lambda: kl_direct(2, 0, 1, tol=1e-6), 2, 42),
        (lambda: total_mass(CLParams(3, 0.5), eps=1e-8), 1, 15),
    ],
    ids=["entropy", "kl_direct", "total_mass"],
)
def test_truncation_walk_computes_each_strip_level_once(monkeypatch, call, start, level):
    # A walk over start..N asks N - start + 1 tails; re-summing each strip
    # would evaluate TAIL_STRIP levels per candidate.
    asked = []

    def counted(n):
        asked.append(n)
        return partition_count(n)

    monkeypatch.setattr(measures, "partition_count", counted)
    N = call().truncation_level
    assert N == level
    assert len(asked) <= N + TAIL_STRIP
    assert sorted(asked) == list(range(start + 1, N + TAIL_STRIP + 1))


def test_enumeration_budget_guard():
    check_enumeration_budget(40)  # fine
    with pytest.raises(RefusalError):
        check_enumeration_budget(120)


def test_level_budget_guard():
    check_level_budget(2, 80)  # fine
    check_level_budget(97, 40)
    assert level_work(97, 60) > 10 * level_work(2, 60)  # big-integer size grows with p
    with pytest.raises(RefusalError) as excinfo:
        check_level_budget(2, 334)
    assert str(excinfo.value) == (
        f"level 334 needs {level_work(2, 334)} DP bit-operations, over the "
        f"{MAX_LEVEL_WORK} enumeration budget; the required truncation level "
        f"is out of certified reach"
    )


# ----------------------------------------------------------------- total mass


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("u", [0, 2, 6])
def test_total_mass_brackets_one(p, u):
    result = total_mass(CLParams(p, u), eps=1e-6)
    enclosure = result.enclosure()
    assert enclosure.lo <= 1.0 <= enclosure.hi
    assert result.tail_bound < 1e-6


def test_total_mass_partial_is_strictly_below_one():
    result = total_mass(CLParams(2, 0), N=10)
    assert result.value.hi < 1.0
    assert result.value.hi + result.tail_bound >= 1.0


def test_total_mass_explicit_level_matches_exact_rational():
    # at integral u the truncated sum is F_u * (exact rational); recompute it
    p, u, N = 3, 1, 6
    inner = Fraction(1)
    for n in range(1, N + 1):
        inner += Fraction(1, p ** (u * n)) * level_aut_reciprocal_sum(p, n)
    expected = iv_mul(normalizing_constant(CLParams(p, u)), iv_from_fraction(inner))
    got = total_mass(CLParams(p, u), N=N)
    assert got.value.overlaps(expected)
    assert got.truncation_level == N


def test_total_mass_extended_mode():
    result = total_mass(CLParams(2, 0.5), N=16)
    enclosure = result.enclosure()
    assert enclosure.lo <= 1.0 <= enclosure.hi


def test_total_mass_refuses_impossible_tail():
    with pytest.raises(RefusalError):
        total_mass(CLParams(2, -0.5), eps=1e-6)


def test_total_mass_validation():
    with pytest.raises(ValueError):
        total_mass(CLParams(2, 0), N=0)


# ------------------------------------------------------ truncation-level engine


def _tails(log):
    """tail_at with tail 1/n at level n, recording the levels it is asked."""

    def tail_at(n):
        log.append(n)
        return Interval(0.0, 1.0 / n)

    return tail_at


def test_engine_walk_stops_at_first_level_strictly_below_target():
    asked = []
    N, tail = truncation_level(_tails(asked), None, 0.25, 2, "test", "here")
    assert (N, tail.hi) == (5, 0.2)  # 1/4 ties the target and does not stop
    assert asked == [2, 3, 4, 5]


def test_engine_explicit_level_checks_level_then_budget_then_tail():
    asked = []
    assert truncation_level(_tails(asked), 8) == (8, Interval(0.0, 0.125))
    assert asked == [8]
    with pytest.raises(ValueError, match="N must be >= 1"):
        truncation_level(_tails(asked), 0)
    with pytest.raises(RefusalError, match="enumeration budget"):
        truncation_level(_tails(asked), 120)
    assert asked == [8]


def test_engine_refuses_past_the_level_cap(monkeypatch):
    monkeypatch.setattr(measures, "MAX_LEVEL", 6)
    asked = []
    with pytest.raises(RefusalError) as excinfo:
        truncation_level(_tails(asked), None, 0.01, 2, "test", "p=2")
    assert str(excinfo.value) == "test tail cannot be pushed below 0.01 by level 6 at p=2"
    assert asked == [2, 3, 4, 5, 6]


def test_entropy_start_level_above_the_cap_refuses():
    # the 1/e floor at u = -0.999 is level 1002, past MAX_LEVEL = 600
    with pytest.raises(RefusalError) as excinfo:
        entropy(CLParams(2, -0.999))
    assert str(excinfo.value) == (
        "entropy tail cannot be pushed below 5e-07 by level 600 at p=2, u=-0.999"
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: total_mass(CLParams(2, 0), eps=1e-6),
            "total mass tail cannot be pushed below 5e-07 by level 3 at p=2, u=0",
        ),
        (
            lambda: kl_direct(2, 0, 1),
            "divergence tail cannot be pushed below 5e-07 by level 3 at p=2, u1=0, u2=1",
        ),
        (
            lambda: cross_entropy_direct(2, 0, 1),
            "cross-entropy tail cannot be pushed below 5e-06 by level 3 at p=2, u1=0, u2=1",
        ),
    ],
    ids=["total_mass", "kl_direct", "cross_entropy_direct"],
)
def test_level_cap_refusal_names_the_series(monkeypatch, call, message):
    monkeypatch.setattr(measures, "MAX_LEVEL", 3)
    with pytest.raises(RefusalError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("direct", [kl_direct, cross_entropy_direct])
def test_direct_sums_reject_level_zero(direct):
    with pytest.raises(ValueError, match="N must be >= 1"):
        direct(2, 0, 1, N=0)


def test_definition_route_refuses_uncertified_class_measure_bound(monkeypatch):
    # At the validity floor b_{N+1} <= F_u p^{-3(u+1)} < 0.11 for every
    # admissible (p, u), so lower the ceiling to see the refusal.
    entropy_module = importlib.import_module("clentropy.entropy")
    monkeypatch.setattr(entropy_module, "_H_ARG_CEILING", 1e-300)
    with pytest.raises(RefusalError) as excinfo:
        entropy_by_definition(CLParams(2, 0), N=5)
    assert str(excinfo.value) == (
        "class-measure bound at level 6 is not below 1/e; increase the truncation level"
    )


def test_class_measure_bound_at_the_validity_floor_is_below_0_11(monkeypatch):
    # b_{N+1} = F_u p^{1-(u+1)(N+1)} <= (1 - x) x^3 with x = p^-(u+1) at
    # N = _level_floor(u), so the 1/e guard in _entropy_tail holds with room
    # at every level the entropy routes ask.  Checked through the guard
    # itself, with the ceiling lowered to 0.11, the walk stubbed out, and
    # F_u at J = 1, the widest upper bound any product depth gives.
    entropy_module = importlib.import_module("clentropy.entropy")
    monkeypatch.setattr(entropy_module, "_H_ARG_CEILING", 0.11)
    monkeypatch.setattr(entropy_module, "series_tail", lambda *args: lambda N: ONE)
    grid = [-0.999, -0.9, -0.75, -2 / 3, -0.585, -0.5, -0.25, 0, 0.5, 1, 1.5, 2, 3]
    for p in (q for q in range(2, 98) if is_prime(q)):
        for u in grid:
            params = CLParams(p, u)
            tail_at = entropy_module._entropy_tail(params, normalizing_constant(params, 1))
            assert tail_at(entropy_module._level_floor(params.u)) == ONE, (p, u)
