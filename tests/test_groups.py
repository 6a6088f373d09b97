"""Finite abelian p-groups: automorphism counts by three independent routes."""

import itertools
import random

import pytest

from clentropy import (
    AbelianPGroup,
    RefusalError,
    aut_order_block_formula,
    aut_order_bruteforce,
    aut_order_generating_tuples,
    aut_order_parts,
    check_aut_lower_bound,
    dual_partition,
    enumerate_partitions,
    is_prime,
    pow_le,
)
from clentropy.groups import (
    BRUTEFORCE_MAX_ORDER,
    bruteforce_hom_count,
    span_table,
)

# ------------------------------------------------------------------ primality


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97}
    for n in range(-3, 100):
        assert is_prime(n) == (n in primes)


def test_is_prime_composites_with_no_small_witness():
    assert not is_prime(561)  # 3 * 11 * 17
    assert not is_prime(97 * 101)
    assert is_prime(10007)


# ------------------------------------------------------------- known orders

# Frozen values: cross-checked against general-linear-group orders
# (#GL_r(F_p) for elementary abelian cases) and the block formula below.
KNOWN_AUT_ORDERS = [
    (2, (), 1),
    (2, (1,), 1),
    (2, (2,), 2),
    (2, (3,), 4),
    (2, (1, 1), 6),
    (2, (2, 1), 8),
    (2, (1, 1, 1), 168),
    (2, (2, 2), 96),
    (2, (2, 1, 1), 192),
    (2, (1, 1, 1, 1), 20160),
    (2, (3, 2, 1), 2048),
    (3, (1,), 2),
    (3, (1, 1), 48),
    (3, (2, 1), 108),
    (3, (2, 2), 3888),  # = 3^4 #GL_2(F_3), brute-force confirmed
    (5, (1, 1), 480),
    (5, (2,), 20),
]


@pytest.mark.parametrize("p, lam, expected", KNOWN_AUT_ORDERS)
def test_aut_order_known_values(p, lam, expected):
    assert aut_order_parts(p, lam) == expected
    assert AbelianPGroup(p, lam).aut_order == expected


def test_elementary_abelian_aut_is_general_linear_order():
    for p in (2, 3, 5):
        for r in range(1, 6):
            gl = 1
            for i in range(r):
                gl *= p**r - p**i
            assert aut_order_parts(p, (1,) * r) == gl


def test_cyclic_aut_is_euler_phi():
    for p in (2, 3, 5, 7):
        for m in range(1, 8):
            assert aut_order_parts(p, (m,)) == p ** (m - 1) * (p - 1)


# -------------------------------------------- agreement of independent routes


def test_multiplicity_formula_agrees_with_block_formula():
    for p in (2, 3, 5):
        for n in range(9):
            for lam in enumerate_partitions(n):
                a = AbelianPGroup(p, lam)
                assert a.aut_order == aut_order_block_formula(a), (p, lam)


def tractable_groups():
    """Groups small enough for a quick endomorphism enumeration."""
    for p, n_max in ((2, 6), (3, 4), (5, 3)):
        for n in range(1, n_max + 1):
            for lam in enumerate_partitions(n):
                a = AbelianPGroup(p, lam)
                if a.order > BRUTEFORCE_MAX_ORDER:
                    continue
                if bruteforce_hom_count(a) * a.order > 20_000_000:
                    continue  # larger sweeps live in the acceptance suite
                yield a


def test_bruteforce_matches_formula_on_tractable_groups():
    checked = 0
    for a in tractable_groups():
        assert aut_order_bruteforce(a) == a.aut_order, (a.p, a.lambda_prime)
        checked += 1
    assert checked >= 25


def test_generating_tuples_match_bruteforce_on_tractable_groups():
    # two exhaustive routes against each other, no closed form involved
    for a in tractable_groups():
        assert aut_order_generating_tuples(a) == aut_order_bruteforce(a), (a.p, a.lambda_prime)


@pytest.mark.parametrize("p, lam, expected", [
    (2, (), 1),
    (2, (1, 1), 6),
    (2, (2, 1), 8),
    (2, (2,), 2),
    (3, (1, 1), 48),
])
def test_generating_tuples_hand_values(p, lam, expected):
    assert aut_order_generating_tuples(AbelianPGroup(p, lam)) == expected


def test_generating_tuples_refuse_oversized_order():
    with pytest.raises(RefusalError):
        aut_order_generating_tuples(AbelianPGroup(2, (9,)))  # order 512


def test_generating_tuples_use_no_closed_form(monkeypatch):
    import clentropy.groups as groups

    def closed_form(*args):
        raise AssertionError("closed form called")

    monkeypatch.setattr(groups, "aut_order_parts", closed_form)
    monkeypatch.setattr(groups, "aut_order_block_formula", closed_form)
    # #GL_3(F_3) = 26 * 24 * 18; the others are frozen in KNOWN_AUT_ORDERS
    for p, lam, expected in [
        (2, (1, 1, 1), 168),
        (2, (2, 1, 1), 192),
        (2, (3, 2, 1), 2048),
        (2, (1, 1, 1, 1), 20160),
        (3, (1, 1, 1), 11232),
    ]:
        assert aut_order_generating_tuples(AbelianPGroup(p, lam)) == expected


def whole_group_permutation_count(a):
    """#Aut by applying every endomorphism to every element (pure Python).

    The reference for the socle test of ``aut_order_bruteforce``: a
    candidate counts iff its images of all #A elements are distinct.
    """
    p, exps = a.p, a.lambda_prime
    mods = [p**e for e in exps]
    r = len(mods)
    elements = list(itertools.product(*(range(m) for m in mods)))
    entries = [
        range(0, mods[j], p ** max(0, exps[j] - exps[i])) for i in range(r) for j in range(r)
    ]
    count = 0
    for flat in itertools.product(*entries):
        images = {
            tuple(sum(x[i] * flat[i * r + j] for i in range(r)) % mods[j] for j in range(r))
            for x in elements
        }
        count += len(images) == len(elements)
    return count


def test_socle_test_matches_whole_group_permutation_test():
    checked = []
    for p in (2, 3, 5):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                a = AbelianPGroup(p, lam)
                if a.order > BRUTEFORCE_MAX_ORDER or bruteforce_hom_count(a) * a.order > 200_000:
                    continue
                assert aut_order_bruteforce(a) == whole_group_permutation_count(a), (p, lam)
                checked.append((p, lam))
    assert len(checked) == 32
    # groups whose socle is a proper subgroup
    assert {(2, (2, 1)), (2, (3, 1, 1)), (2, (4, 2)), (3, (3, 1))} <= set(checked)


def test_bruteforce_uses_no_closed_form(monkeypatch):
    import clentropy.groups as groups

    def closed_form(*args):
        raise AssertionError("closed form called")

    monkeypatch.setattr(groups, "aut_order_parts", closed_form)
    monkeypatch.setattr(groups, "aut_order_block_formula", closed_form)
    monkeypatch.setattr(groups, "aut_order_generating_tuples", closed_form)
    for p, lam, expected in [
        (2, (1, 1, 1), 168),
        (2, (2, 1, 1), 192),
        (2, (3, 2, 1), 2048),
        (3, (1, 1, 1), 11232),
        # proper socles, at p = 3 and at rank 3 (Macdonald's formula)
        (3, (2, 1, 1), 23328),
        (2, (3, 2, 2), 98304),
    ]:
        assert aut_order_bruteforce(AbelianPGroup(p, lam)) == expected


# Number of subspaces of F_p^r, {0} and the whole space included (sums of
# Gaussian binomials).
SUBSPACE_COUNTS = [
    (2, 1, 2), (2, 2, 5), (2, 3, 16), (2, 4, 67), (2, 5, 374),
    (3, 1, 2), (3, 2, 6), (3, 3, 28),
    (5, 2, 8),
]


@pytest.mark.parametrize("p, r, subspaces", SUBSPACE_COUNTS)
def test_span_table_reaches_every_subspace_once(p, r, subspaces):
    vectors = list(itertools.product(range(p), repeat=r))  # code -> digits
    code = {v: i for i, v in enumerate(vectors)}

    def span(members, w):
        return frozenset(
            code[tuple((x + c * y) % p for x, y in zip(vectors[m], vectors[w]))]
            for m in members
            for c in range(p)
        )

    table = span_table(p, r, range(p**r))
    assert table.shape == (1 + subspaces, p**r)
    assert not table[0].any()  # "dependent" absorbs
    # states are numbered as found, so each is met from a lower one first
    members = {1: frozenset([0])}
    for s in range(1, len(table)):
        for w in range(p**r):
            t = int(table[s, w])
            assert (t == 0) == (w in members[s]), (s, w)
            if t:
                spanned = span(members[s], w)
                assert members.setdefault(t, spanned) == spanned, (s, w)
    assert len(members) == subspaces
    assert len(set(members.values())) == subspaces


def test_span_table_reaches_only_spans_of_the_given_codes():
    # in F_2^3, codes 1 and 2 span {0}, <1>, <2> and <1, 2>; column 4 is unused
    table = span_table(2, 3, [1, 2])
    assert table.shape == (5, 8)
    assert not table[:, 4].any()
    assert sorted({int(table[1, 1]), int(table[1, 2]), int(table[table[1, 1], 2])}) == [2, 3, 4]


def test_bruteforce_refuses_oversized_order():
    with pytest.raises(RefusalError):
        aut_order_bruteforce(AbelianPGroup(2, (9,)))  # order 512


def test_bruteforce_refuses_oversized_endomorphism_count():
    # (Z/2)^8 has 2^64 endomorphisms: within the order cap, out of any budget
    with pytest.raises(RefusalError):
        aut_order_bruteforce(AbelianPGroup(2, (1,) * 8))
    with pytest.raises(RefusalError) as excinfo:
        aut_order_bruteforce(AbelianPGroup(2, (2, 1, 1, 1, 1)))
    assert str(excinfo.value) == (
        "brute-force automorphism count refused: 67108864 endomorphisms "
        "x 64 elements exceeds the work budget 150000000"
    )


def test_bruteforce_budget_is_adjustable():
    a = AbelianPGroup(2, (1, 1))
    with pytest.raises(RefusalError):
        aut_order_bruteforce(a, work_budget=10)
    assert aut_order_bruteforce(a, work_budget=10**6) == 6
    # the budget counts #Hom * #A: 32 * 8 = 256 for Z/4 x Z/2, though the
    # oracle only looks up the 2 socle rows of each of the 32 candidates
    b = AbelianPGroup(2, (2, 1))
    with pytest.raises(RefusalError):
        aut_order_bruteforce(b, work_budget=255)
    assert aut_order_bruteforce(b, work_budget=256) == 8


def test_hom_count_formula():
    # #Hom(A, A) = p^{sum_{i,j} min(lambda_i, lambda_j)} with lambda = dual type
    a = AbelianPGroup(2, (2, 1))  # Z/4 x Z/2
    assert bruteforce_hom_count(a) == 2 ** (2 + 1 + 1 + 1)
    b = AbelianPGroup(3, (1, 1))
    assert bruteforce_hom_count(b) == 3**4


# --------------------------------------------------------------- group class


def test_group_basic_attributes():
    a = AbelianPGroup(2, (3, 1))
    assert a.order == 16
    assert a.order_exponent == 4
    assert a.rank == 2
    assert dual_partition(a.lambda_prime) == (2, 1, 1)
    assert not a.is_trivial()
    assert AbelianPGroup(5, ()).is_trivial()


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianPGroup(4, (1,))
    with pytest.raises(ValueError):
        AbelianPGroup(2, (1, 2))


# ------------------------------------------------------------- lower bounds


def test_aut_lower_bound_holds_everywhere_small():
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                a = AbelianPGroup(p, lam)
                assert a.order == p**n
                report = check_aut_lower_bound(a)
                assert report.lower_bound_ok
                assert report.rank2_bound_ok in (True, None)


def test_aut_lower_bound_is_tight_for_cyclic_groups():
    # p #Aut = #A (p-1) exactly when A is cyclic
    for p in (2, 3, 5):
        for m in range(1, 7):
            a = AbelianPGroup(p, (m,))
            assert p * a.aut_order == a.order * (p - 1)
            assert check_aut_lower_bound(a).rank2_bound_ok is None


def test_aut_lower_bound_refuses_trivial_group():
    with pytest.raises(RefusalError):
        check_aut_lower_bound(AbelianPGroup(2, ()))


# ------------------------------------------------------- certified comparator


def test_pow_le_agrees_with_exact_comparison_small():
    rng = random.Random(2024)
    for _ in range(300):
        b1, b2 = rng.randint(2, 50), rng.randint(2, 50)
        e1, e2 = rng.randint(1, 200), rng.randint(1, 200)
        assert pow_le(b1, e1, b2, e2) == (b1**e1 <= b2**e2)


def test_pow_le_handles_exact_ties():
    assert pow_le(2, 10, 32, 2)
    assert pow_le(32, 2, 2, 10)
    assert pow_le(4, 500000, 2, 1000000)
    assert pow_le(2, 1000000, 4, 500000)


def test_pow_le_giant_exponents():
    # far beyond exact integer range; resolved through certified logarithms
    assert pow_le(2, 10**14, 3, 10**14)
    assert not pow_le(3, 10**14, 2, 10**14)
    # 2^485 vs 3^306: natural logs differ by ~1e-3, a near-tie at this scale
    assert pow_le(3, 306, 2, 485) == (3**306 <= 2**485)


def test_pow_le_validation_and_degenerate_inputs():
    with pytest.raises(ValueError):
        pow_le(0, 5, 2, 5)
    with pytest.raises(ValueError):
        pow_le(2, -1, 2, 5)
    assert pow_le(1, 5, 2, 5)  # 1 <= 2^5
    assert not pow_le(2, 5, 1, 7)  # 32 > 1
    assert pow_le(7, 0, 2, 0)  # 1 <= 1
