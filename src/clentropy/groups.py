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
- a literal brute force that enumerates every endomorphism and accepts it
  iff the socle images of its generator rows are linearly independent (a
  nontrivial kernel meets the socle A[p]), by one table lookup per row.
  Its refusal rule bounds #Hom(A,A) * #A, which outgrows any budget
  quickly: (Z/2)^8 has 2^64 endomorphisms, so at order <= 2^8 and <= 3^5
  it reaches 64 of the 84 groups within 1.2e9;
- an exhaustive count of generating tuples of images by a DP over the
  subgroup generated so far.  It lists no endomorphism, so it reaches every
  group of order <= BRUTEFORCE_MAX_ORDER, all 84 of the groups above
  included.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, lru_cache

from .errors import RefusalError
from .numerics import Record
from .partitions import Partition, is_partition

BRUTEFORCE_MAX_ORDER = 256
# The brute-force oracle refuses when #endomorphisms * #elements exceeds
# this: a kept refusal contract, not a cost model (a call costs about one
# table lookup per endomorphism).
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

    def is_trivial(self) -> bool:
        return not self.lambda_prime


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


def span_table(p: int, r: int, codes):
    """T[s, w] = the state of span(s, w), over the subspaces s of F_p^r.

    A vector is a code below p^r, its base-p digits (most significant
    first) its coordinates.  State 1 is {0}; state 0 absorbs ("dependent"):
    T[s, w] = 0 iff s = 0 or w lies in s.  Only the subspaces reached from
    {0} by adding ``codes`` get a state; other columns are 0.  A span is
    keyed by the bitmask of its elements, and fills T[s, w'] for every w'
    it adds to s, since each of them spans it.
    """
    import numpy as np

    digits = np.indices((p,) * r).reshape(r, -1)
    add = np.tensordot(p ** np.arange(r - 1, -1, -1),
                       (digits[:, :, None] + digits[:, None, :]) % p, 1).tolist()
    codes = sorted(set(codes))
    state_of = {1: 1}  # bitmask of a span -> its state; 1 is {0}
    members = [[], [0]]
    table = [[0] * p**r]
    while len(table) < len(members):
        here = members[len(table)]
        inside = set(here)
        row = [0] * p**r
        for w in codes:
            if row[w] or w in inside:
                continue
            spanned, multiple = list(here), w
            for _ in range(p - 1):  # the cosets c*w + s, 0 < c < p
                spanned += [add[multiple][x] for x in here]
                multiple = add[multiple][w]
            state = state_of.setdefault(sum(1 << x for x in spanned), len(members))
            if state == len(members):
                members.append(spanned)
            for x in spanned[len(here):]:
                row[x] = state
        table.append(row)
    return np.array(table, dtype=np.int32)


def aut_order_bruteforce(a: AbelianPGroup, work_budget: int = BRUTEFORCE_WORK_BUDGET) -> int:
    """Count automorphisms by exhaustive endomorphism enumeration.

    Endomorphisms are r x r generator-image matrices; entry (i, j) ranges
    over the multiples of p^max(0, e_j - e_i) modulo p^{e_j}.  Each is
    enumerated and decided on its own by its socle rows w_i =
    p^(e_i - 1) phi(x_i) in A[p] = F_p^r, digit j (p^(e_i - 1) entry_ij mod
    p^e_j) / p^(e_j - 1).  The socle element sum_i c_i p^(e_i - 1) x_i maps
    to sum_i c_i w_i, and a nontrivial kernel meets A[p], so phi is
    bijective iff w_1..w_r are linearly independent.  Candidates are the
    Cartesian product of the admissible rows, each listed once with its
    code, walked with one ``span_table`` lookup per row; a candidate counts
    iff its final state is not "dependent".

    Refuses when the order exceeds BRUTEFORCE_MAX_ORDER or when
    #Hom * #A exceeds ``work_budget``: a kept refusal contract, not a cost
    model (the work is about #Hom lookups), so which groups are refused
    does not depend on their socle.  #Hom((Z/2)^8) = 2^64 is out of reach.
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
    exps = a.lambda_prime
    hom_count = bruteforce_hom_count(a)
    if hom_count * a.order > work_budget:
        raise RefusalError(
            f"brute-force automorphism count refused: {hom_count} endomorphisms "
            f"x {a.order} elements exceeds the work budget {work_budget}"
        )
    # Row i in mixed radix over j, entry (i, j) = p^max(0, e_j - e_i) * t
    # with t < p^min(e_i, e_j), recorded as its socle code w_i.
    rows = []
    for ei in exps:
        codes = [0]
        for ej in exps:
            digits = [p ** (ei - 1) * p ** max(0, ej - ei) * t % p**ej // p ** (ej - 1)
                      for t in range(p ** min(ei, ej))]
            codes = [c * p + d for c in codes for d in digits]
        rows.append(codes)
    table = span_table(p, len(exps), {w for codes in rows for w in codes})
    rows = [np.array(codes) for codes in rows]
    chunk = 1 << 18  # states per gather (1 MB); depth first, one held per row

    def accepted(states, k):
        if k == len(rows):
            return int(np.count_nonzero(states))
        step = max(1, chunk // len(rows[k]))
        return sum(accepted(table[states[lo:lo + step, None], rows[k][None, :]].ravel(), k + 1)
                   for lo in range(0, len(states), step))

    return accepted(np.ones(1, dtype=np.int32), 0)


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
