"""Finite abelian p-groups and exact automorphism counting.

A finite abelian p-group is determined by a prime p and a partition
lambda' = (lambda'_1 >= lambda'_2 >= ...): the group is the product of
cyclic factors Z/p^{lambda'_i}.  Its automorphism count has the classical
closed form (Macdonald, "Symmetric Functions and Hall Polynomials", ch. II)

    #Aut = p^(|lambda'| + 2 n(lambda')) * prod_j prod_{k=1..m_j} (1 - p^-k)

where the product runs over the conjugate partition lambda and
m_j = lambda_j - lambda_{j+1}.  Conveniently, m_j is just the multiplicity
of the part value j inside lambda', so no explicit conjugation is needed.
Everything here is exact big-integer arithmetic.

Three independent cross-checks are provided:

- the block-matrix formula of Hillar & Rhea (Amer. Math. Monthly 114,
  2007), whose derivation is unrelated to the partition formula above;
- a literal brute force that enumerates every endomorphism and tests
  injectivity on the p^r - 1 nonzero elements of the socle A[p] (a
  nontrivial kernel meets A[p]).  Its budget counts #Hom(A,A) * #A, which
  outgrows any budget quickly: (Z/2)^8 has 2^64 endomorphisms, so at order
  <= 2^8 and <= 3^5 it reaches 64 of the 84 groups within 1.2e9;
- an exhaustive count of generating tuples of images by a DP over the
  subgroup generated so far.  It lists no endomorphism, so it reaches every
  group of order <= BRUTEFORCE_MAX_ORDER, all 84 of the groups above
  included.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import RefusalError
from .numerics import Record
from .partitions import Partition, dual_partition, is_partition

BRUTEFORCE_MAX_ORDER = 256
# Elementary numpy operations we are willing to spend per brute-force call
# (#endomorphisms * #elements).  Beyond this the oracle refuses.
BRUTEFORCE_WORK_BUDGET = 150_000_000


def is_prime(p: int) -> bool:
    """Trial-division primality test; fine for the small primes used here."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def _q_factor(p: int, m: int) -> int:
    """prod_{k=1..m} (p^k - 1), the p-free part contributed by a
    multiplicity-m run of equal cyclic factors."""
    if m == 0:
        return 1
    return _q_factor(p, m - 1) * (p**m - 1)


def aut_order_parts(p: int, parts: Partition) -> int:
    """#Aut of the abelian p-group of type ``parts`` (exact integer).

    Integerized Macdonald formula: with n = |parts|,
    n(parts) = sum_i (i-1)*parts[i], and the part-value multiplicities m_j,

        #Aut = p^(n + 2 n(parts) - sum_j m_j(m_j+1)/2)
               * prod_j prod_{k=1..m_j} (p^k - 1).

    >>> aut_order_parts(2, (1,))
    1
    >>> aut_order_parts(2, (1, 1))
    6
    >>> aut_order_parts(2, (2,))
    2
    >>> aut_order_parts(2, (2, 1))
    8
    """
    n = 0
    n_lam = 0
    for i, x in enumerate(parts):
        n += x
        n_lam += i * x
    exponent = n + 2 * n_lam
    q_part = 1
    for m in Counter(parts).values():
        exponent -= m * (m + 1) // 2
        q_part *= _q_factor(p, m)
    return p**exponent * q_part


class AbelianPGroup(Record):
    """The group prod_i Z/p^{lambda_prime[i]} for a prime p.

    ``lambda_prime = ()`` is the trivial group.
    """

    _fields = ("p", "lambda_prime")

    def __init__(self, p: int, lambda_prime: Partition):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not is_partition(lambda_prime):
            raise ValueError(f"not a partition: {lambda_prime!r}")
        self.__dict__.update(p=p, lambda_prime=lambda_prime)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.lambda_prime) == (other.p, other.lambda_prime)

    def __hash__(self) -> int:
        return hash((self.p, self.lambda_prime))

    @cached_property
    def order(self) -> int:
        return self.p ** sum(self.lambda_prime)

    @property
    def order_exponent(self) -> int:
        return sum(self.lambda_prime)

    @property
    def rank(self) -> int:
        """Minimal number of generators (= number of parts)."""
        return len(self.lambda_prime)

    @cached_property
    def aut_order(self) -> int:
        return aut_order_parts(self.p, self.lambda_prime)

    def dual_type(self) -> Partition:
        return dual_partition(self.lambda_prime)

    def is_trivial(self) -> bool:
        return not self.lambda_prime


def group_order(a: AbelianPGroup) -> int:
    return a.order


def rank(a: AbelianPGroup) -> int:
    return a.rank


def aut_order(a: AbelianPGroup) -> int:
    return a.aut_order


def aut_order_block_formula(a: AbelianPGroup) -> int:
    """#Aut via Hillar-Rhea block counting (independent cross-check).

    With exponents e_1 <= ... <= e_n, d_k = max{l : e_l = e_k} and
    c_k = min{l : e_l = e_k}:

        #Aut = prod_k (p^d_k - p^(k-1))
             * prod_j p^(e_j (n - d_j))
             * prod_i p^((e_i - 1)(n - c_i + 1))
    """
    p = a.p
    e = sorted(a.lambda_prime)
    n = len(e)
    if n == 0:
        return 1
    d = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    c = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    total = 1
    for k in range(n):
        total *= p ** d[k] - p**k
    for j in range(n):
        total *= p ** (e[j] * (n - d[j]))
    for i in range(n):
        total *= p ** ((e[i] - 1) * (n - c[i] + 1))
    return total


def bruteforce_hom_count(a: AbelianPGroup) -> int:
    """#Hom(A, A) = prod_{i,j} p^min(lambda'_i, lambda'_j)."""
    parts = a.lambda_prime
    exponent = sum(min(x, y) for x in parts for y in parts)
    return a.p**exponent


def aut_order_bruteforce(a: AbelianPGroup, work_budget: int = BRUTEFORCE_WORK_BUDGET) -> int:
    """Count automorphisms by exhaustive endomorphism enumeration.

    Endomorphisms are r x r generator-image matrices; entry (i, j) ranges
    over the multiples of p^max(0, e_j - e_i) modulo p^{e_j}.  Every one of
    them is enumerated and applied, by the group law, to the p^r - 1 nonzero
    elements of the socle A[p] = {sum_j c_j p^(e_j - 1) x_j : 0 <= c_j < p}.
    A candidate is accepted iff no such element maps to zero: a nontrivial
    kernel is a nontrivial p-group and so meets A[p], and an injective
    self-map of a finite set is bijective.

    Refuses when the order exceeds BRUTEFORCE_MAX_ORDER or when
    #Hom * #A, the work of a check on every element, exceeds
    ``work_budget``.  The budget keeps that unit although only p^r - 1
    elements are evaluated, so which groups it refuses does not depend on
    their socle (already #Aut((Z/2)^8) ~ 5e18 exceeds any conceivable
    budget).
    """
    import numpy as np

    if a.order > BRUTEFORCE_MAX_ORDER:
        raise RefusalError(
            f"brute-force automorphism count refused: order {a.order} exceeds "
            f"{BRUTEFORCE_MAX_ORDER}"
        )
    if a.is_trivial():
        return 1
    p = a.p
    exps = list(a.lambda_prime)
    r = len(exps)
    mods = [p**e for e in exps]
    order = a.order
    hom_count = bruteforce_hom_count(a)
    if hom_count * order > work_budget:
        raise RefusalError(
            f"brute-force automorphism count refused: {hom_count} endomorphisms "
            f"x {order} elements exceeds the work budget {work_budget}"
        )

    # Nonzero socle elements as coordinate rows, and an injective encoding
    # of reduced images (only the zero element has code 0).
    digits = np.indices((p,) * r).reshape(r, -1).T[1:]
    socle = (digits * np.array([p ** (e - 1) for e in exps])).astype(np.float32)
    n = len(socle)  # p^r - 1
    enc_weights = np.empty(r, dtype=np.float32)
    acc = 1
    for j in range(r - 1, -1, -1):
        enc_weights[j] = acc
        acc *= mods[j]

    # Entry (i, j) = step_ij * t with t < p^min(e_i, e_j).
    steps = np.array(
        [[p ** max(0, exps[j] - exps[i]) for j in range(r)] for i in range(r)],
        dtype=np.int64,
    )
    radii = np.array(
        [[p ** min(exps[i], exps[j]) for j in range(r)] for i in range(r)],
        dtype=np.int64,
    ).ravel()
    mods_col = np.array(mods, dtype=np.float32)[None, :, None]

    # Images are computed through float32 matrix products so the heavy inner
    # loop runs in BLAS; every intermediate is an exact small integer
    # (at most r * 255^2 < 2^24, within float32's exact range), so nothing
    # is lost to rounding.  Reduction mod m takes floor(y / m): y / m is
    # correctly rounded, and with y + m <= 2^24 it cannot round up to the
    # next integer, so floor(y / m) * m and y - floor(y / m) * m are exact.
    assert r * (max(mods) - 1) ** 2 + max(mods) <= 1 << 24
    # Bytes held per candidate: the int64 index and divmod temporaries, the
    # int64 entries and their scaled copy (r^2 each), the float32 matrix and
    # its transposed copy, then images and quotients (n * r each) and codes.
    per_candidate = 24 + 24 * r * r + 8 * n * r + 5 * n
    chunk = max(1, min(hom_count, (1 << 22) // per_candidate))
    count = 0
    start = 0
    while start < hom_count:
        stop = min(start + chunk, hom_count)
        b = stop - start
        rem = np.arange(start, stop, dtype=np.int64)
        # Mixed-radix decode of the endomorphism index into matrix entries.
        entries = np.empty((b, r * r), dtype=np.int64)
        for pos in range(r * r - 1, -1, -1):
            rem, entries[:, pos] = np.divmod(rem, radii[pos])
        mats = (entries.reshape(b, r, r) * steps[None, :, :]).astype(np.float32)
        # one product per chunk: (n, r) @ (r, r*b), column j*b + k holding
        # coordinate j of candidate k, so each reduction runs along b
        stacked = mats.transpose(1, 2, 0).reshape(r, r * b)
        images = (socle @ stacked).reshape(n, r, b)
        quotients = images / mods_col
        np.floor(quotients, out=quotients)
        quotients *= mods_col
        images -= quotients
        codes = enc_weights @ images  # (n, b): socle element -> image code
        count += int(np.count_nonzero(codes.all(axis=0)))
        start = stop
    return count


def aut_order_generating_tuples(a: AbelianPGroup) -> int:
    """Count automorphisms exhaustively as generating tuples of images.

    With A = prod_i Z/p^{e_i} (e = lambda'), an endomorphism is a tuple
    (g_1..g_r) of generator images with p^{e_i} g_i = 0, and it is an
    automorphism iff the g_i generate A (a surjective self-map of a finite
    set is bijective).  Such tuples are counted by a DP over the subgroup
    H = <g_1..g_k> generated so far; no closed form for #Aut is used.

    - A state is a subgroup H, keyed by the bytes of its sorted element
      codes, with the number of tuples that reach it.
    - H + <g> depends only on the coset g + H, so each new subgroup is built
      once: the phi(p^e) cosets that generate the same cyclic quotient
      H'/H, times the |H[p^e]| admissible elements in each, weight the edge.
    - A generating tuple forces |<g_1..g_k>| = prod_{i<=k} p^{e_i}: it is at
      most that, and the remaining r - k images must fill the quotient.  A
      coset whose order in A/H is not p^{e_{k+1}} is therefore dropped.

    Refuses when the order exceeds BRUTEFORCE_MAX_ORDER, which also keeps
    every element code within one byte.

    >>> aut_order_generating_tuples(AbelianPGroup(2, (2, 1)))
    8
    """
    if a.order > BRUTEFORCE_MAX_ORDER:
        raise RefusalError(
            f"generating-tuple automorphism count refused: order {a.order} exceeds "
            f"{BRUTEFORCE_MAX_ORDER}"
        )
    p = a.p
    mods = [p**e for e in a.lambda_prime]
    # Elements in mixed radix; code = position in this list.
    elements = [()]
    for m in mods:
        elements = [x + (c,) for x in elements for c in range(m)]
    code = {x: i for i, x in enumerate(elements)}
    add = [
        [code[tuple((s + t) % m for s, t, m in zip(x, y, mods))] for y in elements]
        for x in elements
    ]

    states = {bytes([0]): 1}
    for q in mods:
        admissible = {
            i for i, x in enumerate(elements) if all(c * q % m == 0 for c, m in zip(x, mods))
        }
        generators = q - q // p
        following = {}
        for key, reached in states.items():
            weight = reached * generators * len(admissible.intersection(key))
            remaining = admissible.difference(key)
            while remaining:
                g = remaining.pop()
                step = add[g]
                multiple, coset_order = g, 1
                while multiple not in key:
                    multiple = step[multiple]
                    coset_order += 1
                if coset_order != q:
                    continue
                spanned = list(key)
                multiple = g
                for _ in range(q - 1):
                    spanned.extend(map(add[multiple].__getitem__, key))
                    multiple = step[multiple]
                # Every other coset inside H + <g> spans it again or spans
                # too little.
                remaining.difference_update(spanned)
                new_key = bytes(sorted(spanned))
                following[new_key] = following.get(new_key, 0) + weight
        states = following
    return sum(states.values())


class AutBoundReport(Record):
    """Outcome of the automorphism lower-bound checks for one group.

    ``rank2_bound_ok`` is None when the group is cyclic (bound not
    applicable).
    """

    _fields = ("lower_bound_ok", "rank2_bound_ok")

    def __init__(self, lower_bound_ok: bool, rank2_bound_ok: bool | None):
        self.__dict__.update(lower_bound_ok=lower_bound_ok, rank2_bound_ok=rank2_bound_ok)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lower_bound_ok, self.rank2_bound_ok) == (
            other.lower_bound_ok, other.rank2_bound_ok)

    def __hash__(self) -> int:
        return hash((self.lower_bound_ok, self.rank2_bound_ok))


def check_aut_lower_bound(a: AbelianPGroup) -> AutBoundReport:
    """Verify #Aut(A) >= #A (1 - 1/p), and #Aut(A) >= #A when rank >= 2.

    Both comparisons are exact (the first is cleared to
    p * #Aut >= #A * (p - 1)).  Cyclic groups attain equality in the first
    bound.  Refuses the trivial group, for which the bounds say nothing.
    """
    if a.is_trivial():
        raise RefusalError("automorphism bounds are about nontrivial groups")
    order = a.order
    aut = a.aut_order
    lower_ok = a.p * aut >= order * (a.p - 1)
    rank2_ok = (aut >= order) if a.rank >= 2 else None
    return AutBoundReport(lower_bound_ok=lower_ok, rank2_bound_ok=rank2_ok)


def aut_exponent_forms(lam: Partition) -> tuple[Fraction, Fraction]:
    """Two closed forms of the p-exponent in the aut-count lower bound.

    For a partition lam (the conjugate type) with gaps m_j = lam_j - lam_{j+1}:

      form A = lam_1^2/2 - 3 lam_1/2 + ((|lam^2| - lam_1^2) - (|lam| - lam_1))
               + sum_j m_j lam_{j+1}
      form B = sum_j (lam_j^2 - lam_j) - m_j^2/2 - m_j/2

    They are equal as rationals; returning both lets tests confirm the
    algebra over the full range exactly.
    """
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    if not lam:
        return Fraction(0), Fraction(0)
    ext = list(lam) + [0]
    m = [ext[j] - ext[j + 1] for j in range(len(lam))]
    l1 = lam[0]
    sq = sum(x * x for x in lam)
    form_a = (
        Fraction(l1 * l1, 2)
        - Fraction(3 * l1, 2)
        + (sq - l1 * l1)
        - (sum(lam) - l1)
        + sum(m[j] * ext[j + 1] for j in range(len(lam)))
    )
    form_b = sum(
        Fraction(lam[j] * lam[j] - lam[j], 1)
        - Fraction(m[j] * m[j], 2)
        - Fraction(m[j], 2)
        for j in range(len(lam))
    )
    return Fraction(form_a), Fraction(form_b)


def groups_of_order_exponent(p: int, n: int) -> list[AbelianPGroup]:
    """All abelian p-groups of order p^n, in canonical (reverse-lex) order."""
    from .partitions import enumerate_partitions

    return [AbelianPGroup(p, parts) for parts in enumerate_partitions(n)]


def _log_comparison_bits(b1: int, e1: int, b2: int, e2: int) -> int:
    return max(b1.bit_length() * e1, b2.bit_length() * e2)


def pow_le(b1: int, e1: int, b2: int, e2: int) -> bool:
    """Decide b1**e1 <= b2**e2 exactly for positive big integers.

    The exponents can be so large (10^11 and beyond) that materializing the
    powers is out of the question, so the comparison runs through certified
    stages: float interval logs, then arbitrary-precision interval logs, and
    only as a last resort exact integer powers.  Every stage is rigorous; a
    stage that cannot separate the sides defers to the next.
    """
    if b1 <= 0 or b2 <= 0 or e1 < 0 or e2 < 0:
        raise ValueError("positive bases and nonnegative exponents required")
    if b1 == 1 or e1 == 0:
        return True if (b2 >= 1) else False
    if b2 == 1 or e2 == 0:
        return False  # b1**e1 > 1 here

    g = math.gcd(e1, e2)
    e1 //= g
    e2 //= g

    from .numerics import iv_from_int, iv_log_int, iv_mul

    lhs = iv_mul(iv_log_int(b1), iv_from_int(e1))
    rhs = iv_mul(iv_log_int(b2), iv_from_int(e2))
    if lhs.hi <= rhs.lo:
        return True
    if lhs.lo > rhs.hi:
        return False

    # Escalate precision with mpmath's rigorous interval context.
    import mpmath

    for prec in (120, 400, 2000):
        ctx = mpmath.iv
        old = ctx.prec
        try:
            ctx.prec = prec
            left = ctx.log(ctx.mpf(b1)) * e1
            right = ctx.log(ctx.mpf(b2)) * e2
            if left.b <= right.a:
                return True
            if left.a > right.b:
                return False
        finally:
            ctx.prec = old

    if _log_comparison_bits(b1, e1, b2, e2) <= 50_000_000:
        return b1**e1 <= b2**e2
    raise RefusalError(
        "power comparison undecided at 2000 bits and too large for exact "
        f"arithmetic: {b1}^{e1} vs {b2}^{e2}"
    )
