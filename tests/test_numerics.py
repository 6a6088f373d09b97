"""Directed-rounding interval arithmetic: containment, domains, exactness."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clentropy import Interval, IntervalDomainError
from clentropy.numerics import (
    ONE,
    ZERO,
    CertifiedValue,
    PARTITION_GROWTH,
    iv_abs,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_fraction,
    iv_from_int,
    iv_log,
    iv_log1p,
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


def contains_fraction(iv: Interval, x: Fraction) -> bool:
    return Fraction(iv.lo) <= x <= Fraction(iv.hi)


# ---------------------------------------------------------------- construction


def test_interval_orientation_is_validated():
    with pytest.raises(IntervalDomainError):
        Interval(1.0, 0.0)


def test_interval_rejects_nan():
    with pytest.raises(IntervalDomainError):
        Interval(math.nan, 1.0)
    with pytest.raises(IntervalDomainError):
        Interval(0.0, math.nan)


def test_point_interval_properties():
    iv = iv_point(1.5)
    assert iv.lo == iv.hi == 1.5
    assert iv.width == 0.0
    assert iv.mid == 1.5
    assert iv.contains(1.5)
    assert not iv.contains(1.5000000001)


def test_widened_and_overlaps():
    a = Interval(1.0, 2.0)
    assert a.widened(0.5).lo == pytest.approx(0.5)
    assert a.widened(0.5).hi == pytest.approx(2.5)
    assert a.overlaps(Interval(2.0, 3.0))
    assert not a.overlaps(Interval(2.0000001, 3.0))


# ------------------------------------------------------- rational containment

# Exact rational arithmetic is the oracle: every interval op applied to point
# intervals must bracket the Fraction result computed independently.


def _random_fractions(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = rng.uniform(-50.0, 50.0) * 10.0 ** rng.randint(-8, 8)
        out.append(Fraction(x))  # exact binary rational
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_field_ops_contain_exact_results(seed):
    xs = _random_fractions(seed, 60)
    ys = _random_fractions(seed + 100, 60)
    for x, y in zip(xs, ys):
        ix, iy = iv_point(float(x)), iv_point(float(y))
        assert contains_fraction(iv_add(ix, iy), x + y)
        assert contains_fraction(iv_sub(ix, iy), x - y)
        assert contains_fraction(iv_mul(ix, iy), x * y)
        if y != 0:
            assert contains_fraction(iv_div(ix, iy), x / y)


def test_mul_handles_all_sign_patterns():
    for alo, ahi in [(-3, -1), (-2, 2), (1, 4)]:
        for blo, bhi in [(-5, -2), (-1, 3), (2, 6)]:
            a = Interval(float(alo), float(ahi))
            b = Interval(float(blo), float(bhi))
            prod = iv_mul(a, b)
            products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
            assert prod.lo <= min(products) and max(products) <= prod.hi


def test_div_by_zero_straddling_interval_raises():
    with pytest.raises(IntervalDomainError):
        iv_div(ONE, Interval(-1.0, 1.0))
    with pytest.raises(IntervalDomainError):
        iv_div(ONE, Interval(0.0, 1.0))


def test_neg_and_abs():
    a = Interval(-3.0, 2.0)
    assert iv_neg(a).lo == -2.0 and iv_neg(a).hi == 3.0
    assert iv_abs(a).lo == 0.0 and iv_abs(a).hi == 3.0
    assert iv_abs(Interval(1.0, 2.0)) == Interval(1.0, 2.0)
    assert iv_abs(Interval(-2.0, -1.0)) == Interval(1.0, 2.0)


# -------------------------------------------------------- transcendental ops

mpmath.mp.prec = 120


def _mp_contains(iv: Interval, value: mpmath.mpf) -> bool:
    return mpmath.mpf(iv.lo) <= value <= mpmath.mpf(iv.hi)


@pytest.mark.parametrize("seed", [7, 8])
def test_log_exp_contain_high_precision_values(seed):
    rng = random.Random(seed)
    for _ in range(80):
        x = rng.uniform(1e-12, 1e6)
        assert _mp_contains(iv_log(iv_point(x)), mpmath.log(x))
        y = rng.uniform(-40.0, 40.0)
        assert _mp_contains(iv_exp(iv_point(y)), mpmath.exp(y))


def test_log_rejects_nonpositive_lower_end():
    with pytest.raises(IntervalDomainError):
        iv_log(Interval(0.0, 1.0))
    with pytest.raises(IntervalDomainError):
        iv_log(Interval(-1.0, 1.0))


def test_exp_of_log_roundtrip_contains_identity():
    for x in [1e-9, 0.1, 1.0, 3.7, 1e8]:
        roundtrip = iv_exp(iv_log(iv_point(x)))
        assert roundtrip.contains(x)
        # |log x| up to ~20 here, so the 2-ulp log slack becomes ~40 ulps of x
        assert roundtrip.width <= 100 * math.ulp(x)


def test_exp_clamps_lower_end_nonnegative():
    assert iv_exp(iv_point(-800.0)).lo >= 0.0


def test_sqrt_contains_exact_square_roots():
    for x in [2.0, 3.0, 10.0, 12345.678]:
        iv = iv_sqrt(iv_point(x))
        assert Fraction(iv.lo) ** 2 <= Fraction(x) <= Fraction(iv.hi) ** 2


def test_pow_int_matches_exact_rational_powers():
    rng = random.Random(42)
    for _ in range(60):
        x = Fraction(rng.uniform(-4.0, 4.0))
        k = rng.randint(0, 12)
        assert contains_fraction(iv_pow_int(iv_point(float(x)), k), x**k)


def test_log_int_matches_high_precision():
    for m in [1, 2, 3, 97, 10**12, 2**200]:
        iv = iv_log_int(m)
        assert _mp_contains(iv, mpmath.log(m))
    assert iv_log_int(1) == ZERO


def test_log1p_keeps_relative_accuracy_near_zero():
    tiny = iv_log1p(iv_point(-1e-30))
    assert tiny.hi == -1e-30  # log1p(x) <= x
    assert tiny.width <= 2 * math.ulp(1e-30)  # iv_log(1 + x) would span 4e-16
    assert iv_log1p(ZERO).hi == 0.0
    with pytest.raises(IntervalDomainError):
        iv_log1p(Interval(-1.0, 0.0))


# ------------------------------------------------ the libm assumption, audited
# log, log1p and exp are trusted to within two ulps of the exact value (see
# the numerics docstring); these draws hold each against 50-digit mpmath,
# with arguments near the point where the function vanishes.

near_zero = st.floats(min_value=-1e-6, max_value=1e-6)
above_minus_one = st.one_of(st.floats(min_value=-1.0, max_value=1e300, exclude_min=True),
                            near_zero)


def _encloses_at_50_digits(iv: Interval, function, lo, hi) -> bool:
    with mpmath.workdps(50):
        return mpmath.mpf(iv.lo) <= function(lo) and function(hi) <= mpmath.mpf(iv.hi)


@settings(max_examples=300, deadline=None)
@given(above_minus_one, above_minus_one)
def test_log1p_encloses_mpmath(x, y):
    lo, hi = sorted((x, y))
    assert _encloses_at_50_digits(iv_log1p(Interval(lo, hi)), mpmath.log1p, lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(min_value=5e-324, max_value=1e308), st.floats(1 - 1e-9, 1 + 1e-9)))
def test_log_encloses_mpmath(x):
    assert _encloses_at_50_digits(iv_log(iv_point(x)), mpmath.log, x, x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(min_value=-745.0, max_value=709.0), near_zero))
def test_exp_encloses_mpmath(x):
    assert _encloses_at_50_digits(iv_exp(iv_point(x)), mpmath.exp, x, x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 2**64), st.integers(1, 2**5000), st.integers(-3, 3).map(lambda k: 2**1024 + k)))
def test_log_int_encloses_mpmath(m):
    assert _encloses_at_50_digits(iv_log_int(m), mpmath.log, m, m)


# ------------------------------------------------------- exact constructions


def test_iv_from_int_is_exact_below_2_53():
    assert iv_from_int(2**53) == iv_point(float(2**53))
    big = 2**80 + 1
    iv = iv_from_int(big)
    assert iv.width > 0 and contains_fraction(iv, Fraction(big))


def test_iv_from_fraction_is_correctly_rounded():
    third = Fraction(1, 3)
    iv = iv_from_fraction(third)
    assert contains_fraction(iv, third)
    assert iv.width <= math.ulp(1 / 3)
    # dyadic rationals come out exact
    assert iv_from_fraction(Fraction(3, 8)).width == 0.0


def test_iv_recip_int_contains_reciprocal():
    for n in [1, 2, 3, 7, 10**15]:
        assert contains_fraction(iv_recip_int(n), Fraction(1, n))
    # reciprocals below the subnormal range collapse to [0, smallest subnormal]
    tiny = iv_recip_int(2**1200)
    assert tiny.lo == 0.0 and tiny.hi == 5e-324


def test_iv_mul_scalar_sign_handling():
    a = Interval(1.0, 2.0)
    neg = iv_mul_scalar(a, -3.0)
    assert neg.contains(-6.0) and neg.contains(-3.0)
    assert neg.lo <= -6.0 <= -3.0 <= neg.hi and neg.width <= 3.0 + 1e-14
    half = iv_mul_scalar(a, 0.5)
    assert half.contains(0.5) and half.contains(1.0) and half.width <= 0.5 + 1e-15
    zero = iv_mul_scalar(a, 0.0)
    assert zero.contains(0.0) and zero.width <= 1e-323


def test_partition_growth_constant_encloses_pi_sqrt_two_thirds():
    exact = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
    assert _mp_contains(PARTITION_GROWTH, exact)
    assert PARTITION_GROWTH.width <= 2e-15


# ------------------------------------------------------------ CertifiedValue


def test_certified_value_enclosures():
    cv = CertifiedValue(value=Interval(1.0, 1.5), truncation_level=3, tail_bound=0.25)
    one_sided = cv.enclosure()
    assert one_sided.lo == 1.0 and one_sided.hi == pytest.approx(1.75)
    symmetric = cv.enclosure(symmetric=True)
    assert symmetric.lo == pytest.approx(0.75) and symmetric.hi == pytest.approx(1.75)


def test_symmetric_enclosure_rounds_its_lower_endpoint_outward():
    # 1 - 1e-17 rounds to nearest as 1.0, which would drop the exact bound.
    box = CertifiedValue(Interval(1.0, 1.0), 0, 1e-17).enclosure(symmetric=True)
    assert box.lo < 1.0
    assert Fraction(box.lo) <= 1 - Fraction(1e-17)
    assert Fraction(box.hi) >= 1 + Fraction(1e-17)


def test_widened_rounds_both_endpoints_outward():
    box = Interval(1.0, 1.0).widened(1e-17)
    assert Fraction(box.lo) <= 1 - Fraction(1e-17)
    assert Fraction(box.hi) >= 1 + Fraction(1e-17)


def test_certified_value_validation():
    with pytest.raises(ValueError):
        CertifiedValue(value=ONE, truncation_level=-1, tail_bound=0.0)
    with pytest.raises(ValueError):
        CertifiedValue(value=ONE, truncation_level=0, tail_bound=-1e-9)


# ------------------------------------------------------- property-based laws

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite)
def test_add_mul_containment_property(x, y, z):
    fx, fy, fz = Fraction(x), Fraction(y), Fraction(z)
    result = iv_mul(iv_add(iv_point(x), iv_point(y)), iv_point(z))
    assert contains_fraction(result, (fx + fy) * fz)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300), st.integers(2, 10**9))
def test_div_then_mul_contains_original(x, n):
    quotient = iv_div(iv_point(x), iv_from_int(n))
    assert contains_fraction(iv_mul(quotient, iv_from_int(n)), Fraction(x))


@settings(max_examples=200, deadline=None)
@given(finite, st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=0.0, max_value=1e12))
def test_widened_contains_the_exact_widening(x, span, delta):
    a = Interval(x, x + span)
    box = a.widened(delta)
    assert Fraction(box.lo) <= Fraction(a.lo) - Fraction(delta)
    assert Fraction(box.hi) >= Fraction(a.hi) + Fraction(delta)
