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
from clentropy.measures import (
    MAX_ENUM_PARTITIONS,
    RankChain,
    check_enumeration_budget,
    level_stats,
    level_stats_by_enumeration,
    rank_series,
)
from clentropy.numerics import (
    ONE,
    Interval,
    iv_from_fraction,
    iv_from_int,
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

# 30-digit evaluation of prod_{i>=1}(1 - 2^-i)
F0_AT_2 = "0.288788095086602421278899721929"


def test_normalizing_constant_at_p2_u0(decimal_interval):
    F = normalizing_constant(CLParams(2, 0), J=64)
    assert F.overlaps(decimal_interval(F0_AT_2))
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


def _dp_level_sum(p, n):
    """The transfer DP's exact sum of 1/#Aut over the groups of order p^n."""
    return measures._transfer(p).level(n)[0]


def test_level_aut_reciprocal_sum_equals_ord_route_levelwise():
    # Hall: sum over types of n of 1/#Aut = pi(n)/p^n ... is false levelwise;
    # the identity only holds after summing.  What is exact levelwise:
    # the sums are positive rationals bounded by pi(n) p^{1-n}.
    for p in (2, 3):
        for n in range(1, 10):
            r = _dp_level_sum(p, n)
            assert 0 < r <= Fraction(partition_count(n) * p, p**n)


# ------------------------------------- level statistics: DP against enumeration


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_dp_level_sums_equal_enumeration_exactly(p):
    for n in range(17):
        r_exact, r_iv, _ = level_stats_by_enumeration(p, n)
        assert _dp_level_sum(p, n) == r_exact, (p, n)
        assert level_stats(p, n)[0] == r_iv, (p, n)


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
        assert _dp_level_sum(p, n) == _hall_level(p, n), (p, n)


def test_dp_level_zero_is_the_trivial_group():
    for p in (2, 3, 97):
        assert _dp_level_sum(p, 0) == 1
        assert level_stats(p, 0) == (Interval(1.0, 1.0), Interval(0.0, 0.0))


def test_definition_and_hall_routes_do_not_use_the_dp(monkeypatch, decimal_interval):
    def broken(*args):
        raise AssertionError("transfer DP used")

    monkeypatch.setattr(measures._TransferDP, "level", broken)
    with pytest.raises(AssertionError):
        level_stats(2, 3)
    result = entropy_by_definition(CLParams(2, 1), N=17)
    assert result.value.overlaps(decimal_interval("1.13581634645"))
    s_aut, _ = hall_sum_partial(3, 12)
    assert s_aut == sum(_hall_level(3, n) for n in range(13))


def test_dp_routes_do_not_enumerate_partitions(monkeypatch):
    def broken(n):
        raise AssertionError("partitions enumerated")

    for name in ("clentropy", "clentropy.partitions", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "iter_partitions", broken)
    # empty every cache an enumeration could have filled
    level_stats_by_enumeration.cache_clear()
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
    for N in (5, 40):
        with pytest.raises(TailClosureError) as excinfo:
            bound_series_tail(2, iv_point(0.01), N, [ONE], ONE)
        assert f"at level {N} " in str(excinfo.value)


def test_series_tail_decreases_in_level():
    tails = [bound_series_tail(2, 1, N, [ONE], ONE).hi for N in (5, 10, 20, 30)]
    assert tails == sorted(tails, reverse=True)
    assert tails[-1] < 1e-5


# The rank walk keeps one chain per call and extends it one rank at a time;
# the cases are an integral unit-rank, a non-integral one (an interval
# rate u + 1) and a negative one (a negative u log p in the entropy sum).
TAIL_CASES = {
    "integral-rate": CLParams(2, 1),
    "interval-rate": CLParams(3, 1.5),
    "negative-constant": CLParams(2, -0.5),
}


@pytest.mark.parametrize("params", TAIL_CASES.values(), ids=TAIL_CASES.keys())
def test_series_tail_walker_is_order_independent(params):
    # a chain asked in any order gives the bits of a fresh chain at each R
    chain = RankChain(params)
    ranks = list(range(1, 13))
    shuffled = random.Random(5).choices(ranks, k=20)
    for R in ranks[::-1] + shuffled + ranks:
        fresh = RankChain(params)
        assert chain.through(R) == fresh.through(R), R
        assert chain.rests(R) == fresh.rests(R), R


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
    "call, rank",
    [
        (lambda: entropy(CLParams(2, 0), 1e-6).H, 5),
        (lambda: kl_direct(2, 0, 1, tol=1e-6), 6),
        (lambda: total_mass(CLParams(3, 0.5), eps=1e-8), 4),
    ],
    ids=["entropy", "kl_direct", "total_mass"],
)
def test_truncation_walk_computes_each_strip_level_once(monkeypatch, call, rank):
    # The rank walk asks the sums and rests at R = 1, 2, ...; the chain
    # builds each rank's state once, not once per candidate cutoff.
    built = []
    grow = RankChain._grow

    def counted(chain):
        built.append(len(chain.states))
        grow(chain)

    monkeypatch.setattr(RankChain, "_grow", counted)
    assert call().truncation_level == rank
    assert built == list(range(1, rank + 1))


def test_enumeration_budget_guard():
    check_enumeration_budget(40)  # fine
    with pytest.raises(RefusalError):
        check_enumeration_budget(120)


def test_level_budget_guard():
    # the enumeration budget is the only level budget left; its refusal
    # names the level, the work and the budget
    work = sum(partition_count(n) for n in range(121))
    with pytest.raises(RefusalError) as excinfo:
        check_enumeration_budget(120)
    assert str(excinfo.value) == (
        f"level 120 needs {work} partition tuples, over the {MAX_ENUM_PARTITIONS} "
        f"enumeration budget; the required truncation level is out of certified reach"
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
    # the mass of the groups of rank <= 2 is below 1, and its rest closes the gap
    F = normalizing_constant(CLParams(2, 0))
    chain = RankChain(CLParams(2, 0))
    partial = iv_mul(F, chain.through(2)[0])
    assert partial.hi < 1.0
    assert partial.hi + iv_mul(F, chain.rests(2)[0]).hi >= 1.0


def _rank_law(p, u, r):
    """Cohen-Lenstra: the sum of 1/(#A^u #Aut A) over the groups of rank r
    is p^(-r(r+u)) / (prod_{i<=r} (1 - p^-i) prod_{i=u+1}^{u+r} (1 - p^-i))
    at integral u >= 0."""
    value = Fraction(1, p ** (r * (r + u)))
    for i in list(range(1, r + 1)) + list(range(u + 1, u + r + 1)):
        value /= 1 - Fraction(1, p**i)
    return value


def test_total_mass_explicit_level_matches_exact_rational():
    # at integral u the partial mass is F_u times the exact rank law summed
    # over the ranks <= R; recompute it
    p, u = 3, 1
    got = total_mass(CLParams(p, u), eps=1e-8)
    inner = sum((_rank_law(p, u, r) for r in range(got.truncation_level + 1)), Fraction(0))
    expected = iv_mul(normalizing_constant(CLParams(p, u), J=64), iv_from_fraction(inner))
    assert got.value.overlaps(expected)


def test_total_mass_extended_mode():
    result = total_mass(CLParams(2, 0.5), eps=1e-6)
    enclosure = result.enclosure()
    assert enclosure.lo <= 1.0 <= enclosure.hi


def test_total_mass_answers_where_the_level_walk_refused():
    # (2, -0.5) at eps 1e-6 needed a level over the DP budget; by rank it
    # answers, and the mass still straddles 1
    for p, u in [(2, -0.5), (2, -0.999), (97, -0.9)]:
        result = total_mass(CLParams(p, u), eps=1e-6)
        enclosure = result.enclosure()
        assert enclosure.lo <= 1.0 <= enclosure.hi, (p, u)
        assert result.tail_bound < 5e-7, (p, u)


def test_chain_refuses_a_unit_rank_within_rounding_of_minus_one():
    # 1 - p^-(u+1) rounds to an interval containing 0: refuse, as the level
    # walk did (by its tail closure), rather than divide by it
    with pytest.raises(RefusalError, match="too close to -1"):
        total_mass(CLParams(2, -0.9999999999999999))


def test_total_mass_validation():
    with pytest.raises(ValueError):
        total_mass(CLParams(2, 0), eps=0.0)


# ------------------------------------------------------------ rank-cutoff walk


class _FakeChain:
    """Sums (partial, 1, 1) through every R and rests (1/R, 1, 1), recording
    each R asked."""

    def __init__(self, log, partial):
        self.log, self.partial = log, partial

    def through(self, R):
        return self.partial, ONE, ONE

    def rests(self, R):
        self.log.append(R)
        return Interval(0.0, 1.0 / R), ONE, ONE


Z_ONLY = (ONE, Interval(0.0, 0.0), Interval(0.0, 0.0))


def test_engine_walk_stops_at_first_level_strictly_below_target():
    asked = []
    chain = _FakeChain(asked, Interval(1.0, 1.25))
    R, value, rest = rank_series(chain, ONE, Z_ONLY, 0.25, "test", "here")
    assert (R, rest) == (5, pytest.approx(0.2))  # 1/4 ties the target and does not stop
    assert value.lo <= 1.0 and 1.25 <= value.hi and value.width < 0.25 + 1e-14
    assert asked == [1, 2, 3, 4, 5]
    # a rest below the target but wider than the partial sum walks on
    chain = _FakeChain([], Interval(1.0, 1.4))
    assert rank_series(chain, ONE, Z_ONLY, 0.6, "test", "")[::2] == (3, pytest.approx(1 / 3))
    # the rest counts every weight in absolute value
    weights = (Interval(-2.0, 1.0), Interval(0.0, 0.0), Interval(-0.5, -0.5))
    assert rank_series(chain, ONE, weights, 1.0, "test", "")[::2] == (5, pytest.approx(0.9))


def test_engine_explicit_level_checks_level_then_budget_then_tail(monkeypatch):
    # the explicit level of the definition route: its sign, then the
    # enumeration budget, then the tail
    entropy_module = importlib.import_module("clentropy.entropy")
    asked = []
    tail = entropy_module._entropy_tail

    def recorded(params, F, N):
        asked.append(N)
        return tail(params, F, N)

    monkeypatch.setattr(entropy_module, "_entropy_tail", recorded)
    with pytest.raises(ValueError, match="N must be >= 0"):
        entropy_by_definition(CLParams(2, 0), N=-1)
    with pytest.raises(RefusalError, match="enumeration budget"):
        entropy_by_definition(CLParams(2, 0), N=120)
    assert asked == []
    assert entropy_by_definition(CLParams(2, 0), N=8).truncation_level == 8
    assert asked == [8]


def test_engine_refuses_past_the_level_cap(monkeypatch):
    monkeypatch.setattr(measures, "MAX_RANK", 6)
    asked = []
    with pytest.raises(RefusalError) as excinfo:
        rank_series(_FakeChain(asked, Interval(1.0, 1.25)), ONE, Z_ONLY, 0.01, "test", "p=2")
    assert str(excinfo.value) == "test tail cannot be pushed below 0.01 by rank 6 at p=2"
    assert asked == [1, 2, 3, 4, 5, 6]


def test_entropy_start_level_above_the_cap_refuses():
    # level 1002 is past the enumeration budget of the definition route
    # (the identity route answers u = -0.999, by rank)
    with pytest.raises(RefusalError) as excinfo:
        entropy_by_definition(CLParams(2, -0.999), N=1002)
    assert "enumeration budget" in str(excinfo.value)
    assert entropy(CLParams(2, -0.999)).H.value.width <= 1e-6


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: total_mass(CLParams(2, 0), eps=1e-6),
            "total mass tail cannot be pushed below 5e-07 by rank 3 at p=2, u=0",
        ),
        (
            lambda: kl_direct(2, 0, 1),
            "divergence tail cannot be pushed below 5e-07 by rank 3 at p=2, u1=0, u2=1",
        ),
        (
            lambda: cross_entropy_direct(2, 0, 1),
            "cross-entropy tail cannot be pushed below 5e-06 by rank 3 at p=2, u1=0, u2=1",
        ),
    ],
    ids=["total_mass", "kl_direct", "cross_entropy_direct"],
)
def test_level_cap_refusal_names_the_series(monkeypatch, call, message):
    monkeypatch.setattr(measures, "MAX_RANK", 3)
    with pytest.raises(RefusalError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("direct", [kl_direct, cross_entropy_direct])
def test_direct_sums_reject_level_zero(direct):
    # the level argument is gone: the rank walk picks its own cutoff
    with pytest.raises(TypeError, match="'N'"):
        direct(2, 0, 1, N=0)


# ---------------------------------------------------------------- rank chain

# 40-digit mpmath values of H at p = 2, cut to 18 digits
H_REFERENCE = {0: 2.00303634924887742, -0.5: 2.87835136829425533, -0.999: 9.40923526314551168}


@pytest.mark.parametrize("p, u", [(2, 0), (3, 1), (5, 2)])
def test_chain_rank_sums_contain_the_cohen_lenstra_rank_law(p, u):
    chain = RankChain(CLParams(p, u))
    for r in range(7):
        assert chain.state(r)[0].contains(_rank_law(p, u, r)), (p, u, r)


def test_chain_mean_order_exponent_is_the_closed_kl_sum(decimal_interval):
    # at (2, 0) the expected n is sum_i 1/(2^i - 1) = 1.6066951524152917...
    chain = RankChain(CLParams(2, 0))
    F = normalizing_constant(CLParams(2, 0))
    for R in (3, 6):
        n_sum, n_rest = chain.through(R)[1], chain.rests(R)[1]
        box = iv_mul(F, n_sum + n_rest)
        assert box.overlaps(decimal_interval("1.6066951524152917")), R
    assert iv_mul(F, chain.through(6)[1] + chain.rests(6)[1]).width < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 97]),
    st.floats(min_value=-0.99, max_value=3.0),
    st.integers(1, 8),
)
def test_chain_rests_dominate_the_next_six_ranks(p, u, R):
    chain = RankChain(CLParams(p, u))
    rests = chain.rests(R)
    for i in range(3):  # Z, N, G
        ahead = sum(chain.state(a)[i].lo for a in range(R + 1, R + 7))
        assert ahead <= rests[i].hi, (i, ahead, rests[i].hi)


@pytest.mark.parametrize("u, eps", [(0, 1e-12), (-0.5, 1e-12), (-0.999, 1e-6)])
def test_entropy_contains_the_40_digit_values(u, eps):
    # the references are cut to 18 digits, inside 1e-15 of the true values
    value = entropy(CLParams(2, u), eps=eps).H.value
    assert value.widened(1e-15).contains(H_REFERENCE[u])


def test_zeta_sum_overlaps_product_at_non_integral_s():
    for params in (ZetaParams(5, 2, 0.3), ZetaParams(2, 6, -0.7), ZetaParams(97, 3, 1.25)):
        total = zeta_sum(params)
        assert total.enclosure().overlaps(zeta_product(params)), params
        assert total.tail_bound == 0.0 and total.truncation_level == params.k


# ------------------------------------------------------- route independence


def _broken(*args, **kwargs):
    raise AssertionError("route crossed")


def test_chain_consumers_answer_without_the_dp_or_enumeration(monkeypatch):
    monkeypatch.setattr(measures._TransferDP, "level", _broken)
    for name in ("clentropy", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "level_stats", _broken)
    for name in ("clentropy", "clentropy.partitions", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "iter_partitions", _broken)
    level_stats_by_enumeration.cache_clear()
    assert entropy(CLParams(3, 0.5), eps=1e-8).H.value.width <= 1e-8
    kl = kl_direct(3, 0, 1).enclosure(symmetric=True)
    assert kl.overlaps(kl_closed(3, 0, 1).value)
    assert cross_entropy_direct(3, 1, 0).value.lo > 0
    assert total_mass(CLParams(3, 1), eps=1e-8).enclosure().contains(1)
    params = ZetaParams(3, 3, 0.5)
    assert zeta_sum(params).enclosure().overlaps(zeta_product(params))


def test_independent_routes_answer_without_the_chain(monkeypatch, decimal_interval):
    monkeypatch.setattr(RankChain, "__init__", _broken)
    monkeypatch.setattr(RankChain, "_grow", _broken)
    with pytest.raises(AssertionError):
        entropy(CLParams(2, 1))
    result = entropy_by_definition(CLParams(2, 1), N=17)
    assert result.value.overlaps(decimal_interval("1.13581634645"))
    s_aut, _ = hall_sum_partial(3, 12)
    assert s_aut == sum(_hall_level(3, n) for n in range(13))
    assert kl_closed(2, 0, 1).value.overlaps(decimal_interval("0.420529034356046"))
    assert zeta_product(ZetaParams(2, 3, 1)).contains(Fraction(512, 315))
