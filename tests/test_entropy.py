"""Shannon entropy of the measures: three routes, monotonicity, margins."""

import importlib
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clentropy import (
    AbelianPGroup,
    CLParams,
    Interval,
    RefusalError,
    check_decreasing_inequality,
    entropy,
    entropy_bounds,
    entropy_by_definition,
    exceptional_margins,
    is_prime,
    iv_div,
    iv_log,
    iv_mul,
    normalizing_constant,
    pow_le,
    scan_exceptions,
    weighted_log_term,
)
from clentropy import aut_order_parts, bound_series_tail, iter_partitions, partition_count
from clentropy import cli
from clentropy.measures import check_enumeration_budget, level_stats_by_enumeration, pow_p_minus
from clentropy.numerics import iv_from_int, iv_log_int, iv_point, iv_recip_int

ENTROPY_MODULE = importlib.import_module("clentropy.entropy")

# High-precision reference values (60-digit product/series evaluations,
# rounded here to 12 significant digits), checked as the intervals their
# rounding stands for (``decimal_interval``).
ENTROPY_REFERENCE = {
    (2, 0): "2.00303634925",
    (2, 1): "1.13581634645",
    (2, 2): "0.680744966989",
    (3, 0): "1.19043751882",
    (5, 0): "0.712625884886",
}

KNOWN_EXCEPTIONS = [(2, 0, (1,)), (2, 0, (2,)), (2, 1, (1,)), (3, 0, (1,))]


# ------------------------------------------------------------- entropy values


def test_reference_decimals_stand_for_their_rounding(decimal_interval):
    # a correct enclosure of H(2, 0) narrower than the reference's rounding
    narrow = Interval(2.003036349248842, 2.0030363492489136)
    reference = decimal_interval(ENTROPY_REFERENCE[(2, 0)])
    assert reference.contains(Fraction("2.003036349245")) and reference.overlaps(narrow)
    assert not reference.contains(Fraction("2.0030363492449"))
    assert not narrow.contains(float(ENTROPY_REFERENCE[(2, 0)]))


@pytest.mark.parametrize("p, u", sorted(ENTROPY_REFERENCE))
def test_entropy_contains_reference_values(p, u, decimal_interval):
    result = entropy(CLParams(p, u), eps=1e-6)
    assert result.H.value.overlaps(decimal_interval(ENTROPY_REFERENCE[(p, u)]))
    assert result.H.value.width <= 1e-6
    assert result.H.tail_bound == 0.0  # tail already folded into the value


def test_entropy_decomposition_reassembles():
    result = entropy(CLParams(2, 1), eps=1e-6)
    mlf, weighted = result.decomposition
    recombined = mlf + weighted.enclosure()
    assert recombined.lo == result.H.value.lo
    assert recombined.hi == result.H.value.hi
    # -log F_u is itself certified
    F = normalizing_constant(CLParams(2, 1))
    assert iv_log(F).overlaps(-mlf)


def test_entropy_width_tracks_requested_eps():
    for eps in (1e-3, 1e-6, 1e-9):
        result = entropy(CLParams(3, 2), eps=eps)
        assert result.H.value.width <= eps


def test_entropy_at_large_u_is_tiny(decimal_interval):
    result = entropy(CLParams(2, 30), eps=1e-12)
    assert result.H.value.overlaps(decimal_interval("2.02976310849e-08"))
    assert result.H.value.hi < 1e-6
    assert result.H.value.lo >= 0.0


def test_entropy_input_validation():
    with pytest.raises(ValueError):
        entropy(CLParams(2, 0), eps=0.0)


def test_entropy_refuses_slow_decay():
    # near u = -1 the cancellation in 1 - p^-(u+1) leaves the enclosure
    # about 1e-10 wide, so eps = 1e-12 is out of reach and must be refused
    with pytest.raises(RefusalError, match="cannot certify entropy width <= 1e-12"):
        entropy(CLParams(2, -0.99), eps=1e-12)


def test_entropy_refusal_names_the_level_budget():
    # eps below the rounding floor: the rank walk stops, the width check refuses
    with pytest.raises(RefusalError) as excinfo:
        entropy(CLParams(2, 0), eps=1e-17)
    message = str(excinfo.value)
    assert message.startswith("cannot certify entropy width <= 1e-17 at p=2, u=0: achieved ")
    assert 1e-15 < float(message.rsplit(" ", 1)[1]) < 1e-12


# level: the truncation level each request needed while entropy was summed
# by level, past the enumeration budget; it now answers at rank cutoff R
RANK_CUTOFF = {59: 7, 68: 7, 80: 5}


@pytest.mark.parametrize(
    "u, eps, level", [(0, 1e-10, 59), (0, 1e-12, 68), (-0.5, 1e-3, 80)]
)
def test_entropy_answers_levels_past_the_enumeration_budget(u, eps, level, decimal_interval):
    with pytest.raises(RefusalError, match="enumeration budget"):
        check_enumeration_budget(level)
    result = entropy(CLParams(2, u), eps=eps)
    assert result.H.truncation_level == RANK_CUTOFF[level]
    assert result.H.value.width <= eps
    if u == 0:
        assert result.H.value.overlaps(decimal_interval(ENTROPY_REFERENCE[(2, 0)]))


def test_entropy_answers_across_the_advertised_range():
    for p in (q for q in range(2, 98) if is_prime(q)):
        for u in (0, 1, 2, 3):
            for eps in (1e-6, 1e-8, 1e-10, 1e-12):
                assert entropy(CLParams(p, u), eps=eps).H.value.width <= eps


# ----------------------------------------------------------- two-route check


# Levels that put the definition route's tail below 5e-7 (1e-5 / 2 at
# u = 1.5), the target the identity route had when it was summed by level.
DEFINITION_LEVEL = {(2, 0): 42, (2, 1): 17, (2, 2): 10, (3, 0): 23, (3, 1): 10, (5, 0): 15}


@pytest.mark.parametrize("p, u", sorted(DEFINITION_LEVEL))
def test_identity_route_overlaps_definition_route(p, u):
    params = CLParams(p, u)
    via_identity = entropy(params, eps=1e-6)
    via_definition = entropy_by_definition(params, N=DEFINITION_LEVEL[(p, u)])
    assert via_identity.H.value.overlaps(via_definition.enclosure())
    assert via_definition.value.width < 1e-6


def test_definition_route_at_extended_u():
    params = CLParams(2, 1.5)
    via_identity = entropy(params, eps=1e-5)
    via_definition = entropy_by_definition(params, N=11)
    assert via_identity.H.value.overlaps(via_definition.enclosure())


def test_definition_route_answers_from_level_zero():
    # the Hall tail converges at every level, so no floor on N is needed
    via_identity = entropy(CLParams(2, 0), eps=1e-6)
    for N in (0, 1):
        via_definition = entropy_by_definition(CLParams(2, 0), N=N)
        assert via_identity.H.value.overlaps(via_definition.enclosure()), N


# ------------------------------------------------------- definition tail


def _level_entropy(params, F, n):
    """The exact sum of -nu log nu over the groups of order p^n, enclosed
    group by group from the listed partitions (-log nu in logs, since nu
    itself can underflow)."""
    p = params.p
    u_n_log = iv_mul(iv_point(float(params.u * n)), iv_log_int(p))
    total = iv_from_int(0)
    for parts in iter_partitions(n):
        aut = aut_order_parts(p, parts)
        nu = iv_mul(F, iv_mul(pow_p_minus(p, params.exponent, n), iv_recip_int(aut)))
        total = total + iv_mul(nu, -iv_log(F) + u_n_log + iv_log_int(aut))
    return total


@pytest.mark.parametrize(
    "p, u, N", [(2, 0, 8), (2, 1, 6), (3, 0, 5), (2, -0.5, 8), (2, 1.5, 5), (5, 0, 4)]
)
def test_definition_tail_dominates_the_next_18_levels(p, u, N):
    params = CLParams(p, u)
    F = normalizing_constant(params)
    omitted = sum(_level_entropy(params, F, n).hi for n in range(N + 1, N + 19))
    assert omitted <= ENTROPY_MODULE._entropy_tail(params, F, N).hi


@pytest.mark.parametrize("p, u, N", [(2, 0, 0), (2, 0, 42), (3, 1, 10), (2, -0.5, 8), (97, 2.5, 3)])
def test_definition_tail_is_the_closed_form_of_its_series(p, u, N):
    # T(N) = (F_u / F_0) sum_{n>N} x^n (-log F_u + u L n + L n^2), summed
    # term by term in floats until the terms vanish
    params = CLParams(p, u)
    F = normalizing_constant(params)
    L, x, f = math.log(p), float(p) ** -(u + 1), F.mid
    ratio = f / normalizing_constant(CLParams(p, 0)).mid
    terms = [x**n * (-math.log(f) + u * L * n + L * n * n) for n in range(N + 1, N + 3000)]
    tail = ENTROPY_MODULE._entropy_tail(params, F, N)
    assert tail.lo == 0.0
    assert tail.hi == pytest.approx(ratio * math.fsum(terms), rel=1e-12)


def _strip_tail(params, F, N):
    """The tail bound the definition route used before the Hall tail:
    sum_{n>N} pi(n) h(F_u p^{1-(u+1)n}) through ``bound_series_tail``."""
    p, rate = params.p, params.rate
    L = iv_log(iv_from_int(p))
    alpha = -iv_log(F) - L
    beta = iv_mul(iv_from_int(rate), L) if params.integral else iv_mul(rate, L)
    return bound_series_tail(p, rate, N, [alpha, beta], iv_mul(F, iv_from_int(p)))


@pytest.mark.parametrize(
    "p, u, N, new, old",
    [(2, 0, 42, 3.06e-10, 3.20e-7), (2, -0.5, 42, 7.36e-4, 0.598)]
    + [(p, u, N, None, None) for (p, u), N in sorted(DEFINITION_LEVEL.items())]
    + [(2, 1.5, 11, None, None), (3, 0, 10, None, None), (2, -0.5, 10, None, None)],
)
def test_definition_tail_is_below_the_strip_bound(p, u, N, new, old):
    params = CLParams(p, u)
    F = normalizing_constant(params)
    hall = ENTROPY_MODULE._entropy_tail(params, F, N).hi
    strip = _strip_tail(params, F, N).hi
    assert hall <= strip
    if new is not None:
        assert hall == pytest.approx(new, rel=0.01)
        assert strip == pytest.approx(old, rel=0.01)


def _raising(name):
    def fail(*args):
        raise AssertionError(f"{name} read")
    return fail


def test_definition_tail_reads_no_partition_count_and_no_strip(monkeypatch, decimal_interval):
    # the budget check counts the partitions through level N; none past it
    # may be read, and the strip tail not at all
    def counts_through(N):
        def count(n):
            if n > N:
                raise AssertionError(f"partition count of level {n} read")
            return partition_count(n)
        return count

    for name in ("clentropy", "clentropy.partitions", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "partition_count", counts_through(17))
    for name in ("clentropy", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "bound_series_tail",
                            _raising("bound_series_tail"))
    result = entropy_by_definition(CLParams(2, 1), N=17)
    assert result.value.overlaps(decimal_interval(ENTROPY_REFERENCE[(2, 1)]))


def test_definition_route_lists_partitions(monkeypatch):
    for name in ("clentropy", "clentropy.partitions", "clentropy.measures"):
        monkeypatch.setattr(importlib.import_module(name), "iter_partitions",
                            _raising("iter_partitions"))
    level_stats_by_enumeration.cache_clear()
    with pytest.raises(AssertionError, match="iter_partitions read"):
        entropy_by_definition(CLParams(2, 1), N=17)


# -------------------------------------------------------------- monotonicity


def test_entropy_strictly_decreases_in_u_small_grid():
    for p in (2, 3):
        values = [entropy(CLParams(p, u), eps=1e-6).H.value for u in range(5)]
        for above, below in zip(values, values[1:]):
            assert above.lo > below.hi, p


def test_per_class_term_decreases_outside_exceptions():
    for p in (2, 3):
        for u in (0, 1, 2):
            for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]:
                if (p, u, lam) in KNOWN_EXCEPTIONS:
                    continue
                a = AbelianPGroup(p, lam)
                now = weighted_log_term(CLParams(p, u), a)
                nxt = weighted_log_term(CLParams(p, u + 1), a)
                assert nxt.lo <= now.hi + 1e-15, (p, u, lam)


def test_weighted_log_term_examples():
    # trivial class contributes nothing; Z/4 at u=0 contributes F_0 log2 / 2
    assert weighted_log_term(CLParams(2, 0), AbelianPGroup(2, ())) .hi == 0.0
    F = normalizing_constant(CLParams(2, 0))
    expected = iv_mul(F, iv_div(iv_log(iv_from_int(2)), iv_from_int(2)))
    got = weighted_log_term(CLParams(2, 0), AbelianPGroup(2, (2,)))
    assert got.overlaps(expected)


# ------------------------------------------------------- per-term inequality


def test_known_exception_list_is_exact():
    assert scan_exceptions(3, 8, 5) == KNOWN_EXCEPTIONS


def test_scan_is_stable_under_enlargement():
    assert scan_exceptions(7, 6, 4) == KNOWN_EXCEPTIONS
    assert scan_exceptions(2, 1, 0) == [(2, 0, (1,))]


def test_decreasing_inequality_spot_checks():
    assert not check_decreasing_inequality(2, 0, AbelianPGroup(2, (1,)))
    assert not check_decreasing_inequality(2, 0, AbelianPGroup(2, (2,)))
    assert not check_decreasing_inequality(2, 1, AbelianPGroup(2, (1,)))
    assert not check_decreasing_inequality(3, 0, AbelianPGroup(3, (1,)))
    assert check_decreasing_inequality(2, 0, AbelianPGroup(2, (1, 1)))
    assert check_decreasing_inequality(2, 2, AbelianPGroup(2, (1,)))
    assert check_decreasing_inequality(3, 1, AbelianPGroup(3, (1,)))
    assert check_decreasing_inequality(5, 0, AbelianPGroup(5, (1,)))


def test_decreasing_inequality_validation():
    with pytest.raises(ValueError):
        check_decreasing_inequality(2, 0.5, AbelianPGroup(2, (1,)))
    with pytest.raises(ValueError):
        check_decreasing_inequality(2, 0, AbelianPGroup(3, (1,)))
    with pytest.raises(ValueError):
        check_decreasing_inequality(2, 0, AbelianPGroup(2, ()))


def check_reduced_inequality_rank1(p: int, m: int) -> bool:
    """Exact test of the cyclic-case reduction  #A <= (#Aut A)^{#A-1-#A/p}
    at u = 0 for A = Z/p^m (clearing by p:  a^p <= aut^{a(p-1)-p}).

    For cyclic A this is algebraically the u = 0 instance of the decreasing
    inequality divided through by #Aut^{#A}, so the two checks must agree.
    """
    a = p**m
    aut = p ** (m - 1) * (p - 1)
    return pow_le(a, p, aut, a * (p - 1) - p)


def test_reduced_rank1_form_agrees_with_full_inequality():
    for p in (2, 3, 5, 7):
        for m in range(1, 7):
            reduced = check_reduced_inequality_rank1(p, m)
            full = check_decreasing_inequality(p, 0, AbelianPGroup(p, (m,)))
            assert reduced == full, (p, m)


# -------------------------------------------------------- exceptional margins


def test_exceptional_margins_are_certified_positive():
    first, second, third = exceptional_margins()
    assert first.lo >= 0.44
    assert second.lo >= 0.21
    assert third.lo >= 0.34
    for margin in (first, second, third):
        assert margin.width < 1e-12


def test_exceptional_margins_reference_values(decimal_interval):
    # 13-digit decimals from a high-precision evaluation of the same
    # two-term expressions
    first, second, third = exceptional_margins()
    assert first.overlaps(decimal_interval("0.4429313631992"))
    assert second.overlaps(decimal_interval("0.2209578544889"))
    assert third.overlaps(decimal_interval("0.3486872129228"))


# ------------------------------------------------------------ closed sandwich
# entropy_bounds is a third route, [H(n), B(u)] from closed series.  Meeting
# the other routes is a mathematical check (different sums of the same law);
# the 50-digit test below is the one rounding-only check.

SANDWICH_PRIMES = (2, 3, 5, 7, 97)
SANDWICH_RANKS = (-0.9, -0.5, 0, 0.5, 1, 2, 5, 10, 40)
PRIMES_TO_97 = [q for q in range(2, cli.MAX_PRIME + 1) if is_prime(q)]


def test_upper_bound_values():
    at_10 = entropy_bounds(CLParams(2, 10))
    assert 0.0077 < at_10.lo and at_10.hi < 0.0085
    assert entropy_bounds(CLParams(2, 20)).hi < 1e-4
    assert entropy_bounds(CLParams(2, 30)).hi < 1e-6
    # relative accuracy where the identity route answers [7.1e-21, 2.1e-15]
    far = entropy_bounds(CLParams(97, 10))
    assert 7.2e-21 < far.lo and far.hi < 7.25e-21


def test_lower_end_certifies_positive_entropy():
    for p in PRIMES_TO_97:
        for u in (0, 1, 10, 40, 100):
            assert entropy_bounds(CLParams(p, u)).lo > 0.0, (p, u)


def test_upper_bound_dominates_certified_entropy():
    for p, u in [(2, 2), (2, 5), (3, 3)]:
        bound = entropy_bounds(CLParams(p, u))
        value = entropy(CLParams(p, u), eps=1e-8)
        assert bound.lo <= value.H.value.lo and value.H.value.hi <= bound.hi, (p, u)


def test_sandwich_meets_both_routes():
    for p in SANDWICH_PRIMES:
        for u in SANDWICH_RANKS:
            bound = entropy_bounds(CLParams(p, u))
            assert bound.overlaps(entropy(CLParams(p, u), eps=1e-9).H.value), (p, u)
    for u in (0, -0.5):
        by_definition = entropy_by_definition(CLParams(2, u), 8).value
        assert entropy_bounds(CLParams(2, u)).overlaps(by_definition), u


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PRIMES_TO_97),
    st.one_of(
        st.floats(-1.0, float(cli.MAX_UNIT_RANK), exclude_min=True),
        st.floats(-1.0, 3.0, exclude_min=True),
        st.integers(0, cli.MAX_UNIT_RANK),
    ),
    st.floats(cli.EPS_MIN, cli.EPS_MAX),
)
@example(2, math.nextafter(-1.0, 0.0), 1e-12)
@example(97, -1 + 1e-12, 1e-12)
def test_sandwich_meets_identity_route_over_the_cli_box(p, u, eps):
    params = CLParams(p, u)
    try:
        value = entropy(params, eps=eps).H.value
    except RefusalError:
        value = None
    try:
        bound = entropy_bounds(params)
    except RefusalError as refusal:
        # the one refusal is the identity route's own, next to -1
        assert "too close to -1" in str(refusal) and value is None
        return
    assert value is None or bound.overlaps(value), (p, u, eps)


def test_sandwich_ends_match_their_series_at_50_digits():
    # rounding-only: the same two series evaluated in mpmath, so a slip in
    # either formula shows even where the sandwich still holds
    for p, u in [(2, 10), (3, 0.5), (97, 10), (2, -0.9), (5, 0)]:
        bound = entropy_bounds(CLParams(p, u))
        with mpmath.workdps(50):
            L, r = mpmath.log(p), mpmath.mpf(u)
            x = [mpmath.mpf(p) ** -(r + i) for i in range(1, 400)]
            mlf = -mpmath.fsum(mpmath.log1p(-t) for t in x)
            mean = mpmath.fsum(t / (1 - t) for t in x)
            var = mpmath.fsum(t / (1 - t) ** 2 for t in x)
            upper = mlf + r * L * mean + L * (var + mean**2)
            lower, log_eta = mlf * mpmath.exp(-mlf), 0
            for n in range(1, ENTROPY_MODULE.BOUNDS_DEPTH + 1):
                log_eta += mpmath.log1p(-mpmath.mpf(p) ** -n)
                minus_log_P = mlf + (r + 1) * n * L + log_eta
                lower += minus_log_P * mpmath.exp(-minus_log_P)
            assert upper <= bound.hi <= upper * (1 + 1e-9), (p, u)
            assert lower * (1 - 1e-9) <= bound.lo <= lower, (p, u)


def test_upper_bound_decreases_in_u():
    bounds = [entropy_bounds(CLParams(2, u)).hi for u in range(12)]
    assert bounds == sorted(bounds, reverse=True)


def test_bounds_answer_below_two_and_refuse_only_next_to_minus_one():
    for u in (1, 0, -0.5, -0.99, -1 + 1e-12):
        bound = entropy_bounds(CLParams(2, u))
        assert 0.0 < bound.lo <= bound.hi < math.inf, u
    with pytest.raises(RefusalError, match="too close to -1"):
        entropy_bounds(CLParams(2, math.nextafter(-1.0, 0.0)))
