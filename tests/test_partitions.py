"""Integer partitions: enumeration order, counting, conjugation."""

import math
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clentropy import (
    dual_partition,
    enumerate_partitions,
    is_partition,
    iter_partitions,
    partition_count,
)


def test_is_partition_accepts_weakly_decreasing_positive_tuples():
    assert is_partition(())
    assert is_partition((5,))
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 3))
    assert not is_partition((0,))
    assert not is_partition((2, -1))
    assert not is_partition((2.0, 1.0))
    assert not is_partition((True,))


def test_reverse_lexicographic_order_n4():
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_empty_partition_of_zero():
    assert enumerate_partitions(0) == [()]
    assert list(iter_partitions(0)) == [()]


def test_enumeration_is_strictly_reverse_lex_and_complete():
    for n in range(11):
        parts = enumerate_partitions(n)
        assert len(parts) == partition_count(n)
        assert len(set(parts)) == len(parts)
        assert all(is_partition(lam) and sum(lam) == n for lam in parts)
        assert parts == sorted(parts, reverse=True)


# p(n) for small n, p(20), p(50), p(100) are classical table values.
@pytest.mark.parametrize(
    "n, expected",
    [
        (0, 1),
        (1, 1),
        (5, 7),
        (10, 42),
        (20, 627),
        (50, 204226),
        (100, 190569292),
    ],
)
def test_partition_count_table_values(n, expected):
    assert partition_count(n) == expected


def test_partition_count_matches_generating_function():
    # multiply out prod_{k>=1} 1/(1-x^k) as a truncated power series
    bound = 60
    series = [1] + [0] * bound
    for k in range(1, bound + 1):
        for n in range(k, bound + 1):
            series[n] += series[n - k]
    assert series == [partition_count(n) for n in range(bound + 1)]


def test_partition_count_growth_bound():
    # pi(n) < e^{c sqrt n} with c = pi sqrt(2/3), for every n >= 1
    c = math.pi * math.sqrt(2.0 / 3.0)
    for n in range(1, 401):
        assert partition_count(n) < math.exp(c * math.sqrt(n))


def test_partition_count_rejects_negative():
    with pytest.raises(ValueError):
        partition_count(-1)


def test_dual_examples():
    assert dual_partition(()) == ()
    assert dual_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert dual_partition((5,)) == (1, 1, 1, 1, 1)
    assert dual_partition((2, 2, 2)) == (3, 3)


def test_dual_is_an_involution_preserving_size():
    for n in range(15):
        for lam in enumerate_partitions(n):
            mu = dual_partition(lam)
            assert is_partition(mu) and sum(mu) == n
            assert dual_partition(mu) == lam


def n_lambda(parts):
    """The statistic n(lambda) = sum_i (i-1) * parts[i], cross-checked on
    every call against sum_j binomial(mu_j, 2) over the conjugate mu."""
    direct = sum(i * x for i, x in enumerate(parts))
    assert direct == sum(comb(m, 2) for m in dual_partition(parts)), parts
    return direct


def test_n_lambda_examples():
    # n(lambda) = sum (i-1) lambda_i
    assert n_lambda(()) == 0
    assert n_lambda((3,)) == 0
    assert n_lambda((2, 2)) == 2
    assert n_lambda((3, 2, 1)) == 4


def test_n_lambda_conjugate_identity():
    # n(lambda') = sum_i binom(lambda_i, 2)
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert n_lambda(dual_partition(lam)) == sum(comb(x, 2) for x in lam)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 22), st.randoms(use_true_random=False))
def test_random_partition_dual_properties(n, rng):
    parts = enumerate_partitions(n)
    lam = parts[rng.randrange(len(parts))]
    mu = dual_partition(lam)
    assert sum(mu) == n
    # parts of the dual count boxes per column
    if lam:
        assert mu[0] == len(lam)
        assert len(mu) == lam[0]
