"""Cohen-Lenstra measures on finite abelian p-groups, with certified numerics.

For a prime p and a unit-rank u, the Cohen-Lenstra measure puts mass

    nu(A) = F_u / (#A^u * #Aut A),    F_u = prod_{i>=1} (1 - p^{-u-i}),

on the isomorphism class of each finite abelian p-group A.  The classical
case has u a nonnegative integer (u = 0 weights classes by 1/#Aut alone);
the formula makes sense for any real u > -1 and that extended range is
supported, though order-theoretic statements (monotonicity and friends)
are only ever asserted for integral u.

Certification discipline:

* every real-valued result is an Interval or CertifiedValue enclosing the
  exact quantity;
* sums with no logarithm in them (Hall sums, truncated mass sums at
  integral u) are accumulated in exact rational arithmetic and converted
  to an interval once at the end;
* truncated series carry tail bounds built from two ingredients only:
  #Aut A >= #A (1 - 1/p) >= p^{n-1} for #A = p^n (so 1/#Aut <= p^{1-n}),
  and the unconditional partition-count bound pi(n) < e^{c sqrt n} with
  c = pi sqrt(2/3).  A tail is summed level-exactly over a strip past the
  truncation point and closed geometrically beyond the strip, where the
  level-to-level ratio e^{c/(2 sqrt n)} p^{-(u+1)} has dropped below 1.
  A walk over candidate truncation levels (``truncation_level`` fed by
  ``series_tail``) computes each level's strip term once, not once per
  candidate whose strip contains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import RefusalError, TailClosureError
from .groups import aut_order_parts, is_prime
from .numerics import (
    ONE,
    PARTITION_GROWTH,
    ZERO,
    CertifiedValue,
    Interval,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_fraction,
    iv_from_int,
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
from .partitions import iter_partitions, partition_count

# Hard ceiling on truncation depth; past this we refuse rather than grind.
MAX_LEVEL = 600
MAX_ENUM_PARTITIONS = 2_000_000
# Budget of the transfer DP behind the level statistics, in the units of
# ``level_work``: about 3 s of fill and +9 MB of peak RSS at p = 2, N = 90
# (work 9.1e10) on a 2-core Xeon VM with Python 3.11.
MAX_LEVEL_WORK = 10**11
# Levels summed exactly past the truncation point before the geometric
# closure takes over (the closure alone, started right at N, is far too
# coarse for small p and u).
TAIL_STRIP = 160


@dataclass(frozen=True)
class CLParams:
    """A prime p and a unit-rank u > -1.

    Integral u (the classical case) is normalized to int so downstream code
    can dispatch to exact rational arithmetic; any other real u > -1 selects
    the extended mode in which p^{u n} is computed by interval exp/log.
    """

    p: int
    u: float

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        u = self.u
        if isinstance(u, bool) or not isinstance(u, (int, float)):
            raise ValueError(f"unit-rank must be a real number, got {u!r}")
        if not math.isfinite(u) or not u > -1:
            raise ValueError(f"unit-rank must be finite and > -1, got {u!r}")
        if isinstance(u, float) and u.is_integer() and u >= 0:
            object.__setattr__(self, "u", int(u))

    @property
    def integral(self) -> bool:
        return isinstance(self.u, int) and self.u >= 0

    @property
    def exponent(self):
        """u as ``pow_p_minus`` takes it: the int, or a point Interval."""
        return self.u if self.integral else iv_point(self.u)

    @property
    def rate(self):
        """The level decay exponent u + 1, as an int or an Interval."""
        return self.u + 1 if self.integral else iv_add(iv_point(self.u), ONE)


def pow_p_minus(p: int, exponent, n: int) -> Interval:
    """Enclosure of p^(-exponent*n); exponent is an int or an Interval."""
    if isinstance(exponent, int):
        return iv_recip_int(p ** (exponent * n))
    arg = iv_mul(exponent, iv_mul_scalar(iv_log_int(p), float(n)))
    return iv_exp(iv_neg(arg))


def partial_product(p: int, s, k: int) -> Interval:
    """Enclosure of prod_{i=1}^{k} (1 - p^{-s-i}): exact rational factors
    at integral s >= 0, interval exp/log otherwise."""
    prod = ONE
    if isinstance(s, int) and s >= 0:
        for i in range(1, k + 1):
            q = p ** (s + i)
            prod = iv_mul(prod, iv_from_fraction(Fraction(q - 1, q)))
    else:
        L = iv_log_int(p)
        s_iv = iv_point(s)
        for i in range(1, k + 1):
            expo = iv_mul(iv_add(s_iv, iv_from_int(i)), L)
            prod = iv_mul(prod, iv_sub(ONE, iv_exp(iv_neg(expo))))
    return prod


@lru_cache(maxsize=None)
def _normalizing_constant_cached(p: int, u, J: int) -> Interval:
    partial = partial_product(p, u, J)
    # Omitted factors: log(1-x) >= -x/(1-x) gives
    #   prod_{i>J} (1 - p^{-u-i}) >= exp(-p^{-u-J} / ((p-1)(1 - p^{-u-J-1}))),
    # and trivially the omitted product is < 1.
    if isinstance(u, int) and u >= 0:
        x = iv_recip_int(p ** (u + J + 1))
    else:
        x = iv_exp(iv_neg(iv_mul(iv_add(iv_point(u), iv_from_int(J + 1)), iv_log_int(p))))
    deficit = iv_div(
        iv_mul(x, iv_from_int(p)),
        iv_mul(iv_from_int(p - 1), iv_sub(ONE, x)),
    )
    lower = iv_mul(partial, iv_exp(iv_neg(deficit)))
    return Interval(max(lower.lo, 0.0), min(partial.hi, 1.0))


def normalizing_constant(params: CLParams, J: int = 64) -> Interval:
    """Enclosure of F_u = prod_{i>=1} (1 - p^{-u-i}).

    The partial product over i <= J is an upper bound (every omitted factor
    is < 1); the lower bound multiplies in exp of a geometric bound on the
    omitted log-sum.  J = 64 leaves a relative deficit below 2^-64 for every
    p and u >= 0, far inside the partial product's own rounding width.
    """
    if J < 1:
        raise ValueError("truncation depth J must be >= 1")
    return _normalizing_constant_cached(params.p, params.u, J)


def auto_product_depth(p: int, u, eps: float) -> int:
    """Smallest J >= 8 with p^(-u-J)/(p-1) < eps/4 (plus a safety margin).

    This is only a depth heuristic -- certification happens downstream in
    the interval arithmetic -- so plain float math is fine here.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    J = 8
    target = eps * (p - 1) / 4
    while p ** (-(u + J)) >= target and J < 4096:
        J += 1
    return J


def cl_measure(params: CLParams, A, J: int = 64) -> Interval:
    """Enclosure of nu(A) = F_u / (#A^u #Aut A).

    The denominator is an exact big integer when u is integral; in extended
    mode #A^u goes through interval exp/log.  For the trivial group the
    F_u interval is returned as-is.
    """
    if A.p != params.p:
        raise ValueError(f"group is a {A.p}-group but params.p = {params.p}")
    F = normalizing_constant(params, J)
    if A.is_trivial():
        return F
    if params.integral:
        return iv_mul(F, iv_recip_int(A.order**params.u * A.aut_order))
    n = A.order_exponent
    log_denom = iv_add(
        iv_mul(iv_point(params.u), iv_mul_scalar(iv_log_int(params.p), float(n))),
        iv_log_int(A.aut_order),
    )
    return iv_mul(F, iv_exp(iv_neg(log_denom)))


class _TransferDP:
    """Exact per-level statistics at one prime, by a transfer DP over the
    conjugate partition: no partition is listed.

    Write mu_1 >= ... >= mu_L for the conjugate of a group type (its column
    lengths; mu_1 is the rank), mu_{L+1} = 0 and m_j = mu_j - mu_{j+1}.
    Macdonald's count factors over consecutive columns:

        1/#Aut = prod_j f(mu_j, mu_{j+1}),
        f(c, d) = p^-(c^2 - m(m+1)/2) / q_m,   m = c - d,
        q_m = prod_{k<=m} (p^k - 1).

    The level statistics run the columns largest first.  State (w, c) sums,
    over the column prefixes mu_1 >= ... >= mu_j = c of weight w, the
    product of f over the pairs inside the prefix.  Expectation-semiring
    companions (Li & Eisner, EMNLP 2009) carry the same sum weighted by the
    prefix's exponent of p and by its number of pairs with each m, so that

        S_n = a_n log p + sum_m g_{n,m} log q_m

    with exact rationals a_n and g_{n,m}, each log enclosed once.  A state
    (w, c) feeds only levels <= w + c and is freed once they are built.
    Values are integers over p^(s^2) q_s, s = w - c the weight above column
    c: the prefix exponent is at most s^2, and prod q_{m_i} divides q_s
    because the q-multinomial is an integer.

    The rank-resolved sums run the columns smallest first, so that the last
    column is the rank: state (w, c) is the sum of 1/#Aut over the types of
    weight w and rank c, an integer over p^(cw) q_c.  Every such state feeds
    all higher levels, so this table has no expectation part and is built
    only when asked for.  Both tables are filled level by level and pulled
    on demand; a level already built is a list lookup.
    """

    def __init__(self, p: int):
        self.p = p
        self.q = [1]
        self.log_q = [ZERO]
        self.prefix = {}  # weight -> {last column: (value, p-exponent sum, {m: count sum})}
        self.levels = []  # n -> (R_n, R_n enclosure, S_n enclosure)
        self.rank_states = [{0: 1}]  # weight -> {rank: value}
        self.ranks = []  # n -> (R_{n,0}, ..., R_{n,n})

    def _extend_q(self, n: int) -> None:
        q = self.q
        while len(q) <= n:
            q.append(q[-1] * (self.p ** len(q) - 1))
            self.log_q.append(iv_log_int(q[-1]))

    def level(self, n: int) -> tuple[Fraction, Interval, Interval]:
        if n < 0:
            raise ValueError("level must be >= 0")
        while len(self.levels) <= n:
            self._build_level(len(self.levels))
        return self.levels[n]

    def rank_sums(self, n: int) -> tuple[Fraction, ...]:
        if n < 0:
            raise ValueError("level must be >= 0")
        while len(self.ranks) <= n:
            self._build_ranks(len(self.ranks))
        return self.ranks[n]

    def _extend(self, acc: list, state: tuple, scale: int, c: int, m: int) -> None:
        """acc += state * scale, with the column pair (c, c - m) appended:
        its exponent of p is c^2 - m(m+1)/2 and it counts one q_m."""
        value, expo, counts = state
        term = value * scale
        acc[0] += term
        acc[1] += expo * scale + term * (c * c - m * (m + 1) // 2)
        into = acc[2]
        for k, v in counts.items():
            into[k] = into.get(k, 0) + v * scale
        if self.q[m] > 1:
            into[m] = into.get(m, 0) + term

    def _build_level(self, n: int) -> None:
        p, q = self.p, self.q
        self._extend_q(n)
        row = {n: (1, 0, {})} if n else {}  # a single column: no pair yet
        for c in range(1, n // 2 + 1):  # the columns above c are >= c long
            s = n - c
            sources = self.prefix[s]
            acc = [0, 0, {}]
            # the column above c is c1, with s1 = s - c1 above it and
            # m = c1 - c; ratio = q_s / (q_s1 q_m) is stepped along c1
            ratio = q[s] // q[s - c]
            for c1 in range(c, s + 1):
                s1, m = s - c1, c1 - c
                if m:
                    ratio = ratio * (p ** (s1 + 1) - 1) // (p**m - 1)
                if c1 in sources:
                    scale = p ** (2 * s1 * c1 + m * (m + 1) // 2) * ratio
                    self._extend(acc, sources[c1], scale, c1, m)
            row[c] = tuple(acc)
        self.prefix[n] = row

        # Close each prefix with its last pair (c, 0), over p^(n^2) q_n.
        acc = [0 if n else 1, 0, {}]
        binom = 1  # the q-binomial [n, c]
        for c in range(1, n + 1):
            binom = binom * (p ** (n - c + 1) - 1) // (p**c - 1)
            if c in row:
                self._extend(acc, row[c], p ** (2 * (n - c) * c + c * (c + 1) // 2) * binom, c, c)
        total, expo, counts = acc
        den = p ** (n * n) * q[n]
        terms = [(expo, iv_log_int(p))] + [(counts[m], self.log_q[m]) for m in counts]
        # Coefficients and logs are >= 0: each endpoint of S_n is summed
        # exactly from the log enclosures' endpoints and rounded once.
        s_lo = sum((c * Fraction(log.lo) for c, log in terms), Fraction(0)) / den
        s_hi = sum((c * Fraction(log.hi) for c, log in terms), Fraction(0)) / den
        s_iv = Interval(iv_from_fraction(s_lo).lo, iv_from_fraction(s_hi).hi)
        r_frac = Fraction(total, den)
        self.levels.append((r_frac, iv_from_fraction(r_frac), s_iv))

        for w in range((n + 1) // 2, n):  # states (w, n - w) fed their last level
            self.prefix[w].pop(n - w, None)
            if not self.prefix[w]:
                del self.prefix[w]

    def _build_ranks(self, n: int) -> None:
        p, q = self.p, self.q
        self._extend_q(n)
        if n == 0:
            self.ranks.append((Fraction(1),))
            return
        row = {}
        for c in range(1, n + 1):
            w = n - c
            value = 0
            for c0, v0 in self.rank_states[w].items():
                if c0 <= c:
                    m = c - c0
                    scale = p ** (m * w + m * (m + 1) // 2) * (q[c] // (q[c0] * q[m]))
                    value += v0 * scale
            row[c] = value
        self.rank_states.append(row)
        self.ranks.append(
            (Fraction(0),) + tuple(Fraction(row[c], p ** (c * n) * q[c]) for c in range(1, n + 1))
        )


@lru_cache(maxsize=None)
def _transfer(p: int) -> _TransferDP:
    return _TransferDP(p)


def level_aut_reciprocal_sum(p: int, n: int) -> Fraction:
    """sum over partitions of n of 1/#Aut, as an exact rational.

    These per-level sums are the common currency of the truncated mass sums
    and the direct divergence sums; the transfer DP caches them per (p, n),
    so every consumer is a cheap weighted recombination.
    """
    return _transfer(p).level(n)[0]


def level_stats(p: int, n: int) -> tuple[Interval, Interval]:
    """Per-level interval statistics (R_n, S_n) over partitions of n:

    R_n = sum 1/#Aut (converted from the exact rational, so 1 ulp wide) and
    S_n = sum log(#Aut)/#Aut, an exact rational combination of log p and
    the log q_m.  Entropy- and divergence-type sums at level n are affine
    combinations of these two for any unit-rank.
    """
    _, r_iv, s_iv = _transfer(p).level(n)
    return r_iv, s_iv


def level_rank_sums(p: int, n: int) -> tuple[Fraction, ...]:
    """(R_{n,0}, ..., R_{n,n}): the exact sums of 1/#Aut over the groups of
    order p^n and each rank r."""
    return _transfer(p).rank_sums(n)


@lru_cache(maxsize=None)
def level_stats_by_enumeration(p: int, n: int) -> tuple[Fraction, Interval, Interval]:
    """(R_n exact, R_n, S_n) by listing every partition of n.

    The independent oracle for the transfer DP, and the source of the routes
    that must not share it (the definition-route entropy, the Hall sums).
    The partition enumeration and the automorphism counts dominate the cost
    (p(n) grows fast), so the exact and the interval statistics are
    collected in one pass.
    """
    r_frac = Fraction(0)
    s_iv = ZERO
    for parts in iter_partitions(n):
        aut = aut_order_parts(p, parts)
        r_frac += Fraction(1, aut)
        s_iv = iv_add(s_iv, iv_mul(iv_log_int(aut), iv_recip_int(aut)))
    return r_frac, iv_from_fraction(r_frac), s_iv


def level_work(p: int, N: int) -> int:
    """Cost model of the level statistics through level N: sum_{n<=N} n^5
    (log2 p)^1.5.  Level n makes O(n^3) big-integer updates of numbers
    about n^2 log2 p bits long; this form fits measured fill times within a
    factor 1.5 for p in {2, 3, 5, 97} and N up to 100."""
    return round(math.log2(p) ** 1.5 * sum(n**5 for n in range(1, N + 1)))


def check_level_budget(p: int, N: int) -> None:
    """Refuse truncation levels whose level statistics are out of reach.

    The transfer DP's cost grows like N^6 (log p)^1.5 (``level_work``), so a
    slowly decaying series can still ask for a level whose statistics would
    not finish; refusing keeps every accepted call cheap.
    """
    _check_budget(N, level_work(p, N), "DP bit-operations", MAX_LEVEL_WORK)


def check_enumeration_budget(N: int) -> None:
    """Refuse truncation levels whose partition enumeration is infeasible.

    Levels through N cost sum_{n<=N} pi(n) tuples; pi grows like
    e^{c sqrt n}, so a slowly decaying series can demand a level whose
    enumeration would not finish.  Refusing keeps every accepted call
    certifiably cheap.
    """
    work = sum(partition_count(n) for n in range(N + 1))
    _check_budget(N, work, "partition tuples", MAX_ENUM_PARTITIONS)


def _check_budget(N: int, work: int, unit: str, budget: int) -> None:
    if work > budget:
        raise RefusalError(
            f"level {N} needs {work} {unit}, over the {budget} enumeration "
            f"budget; the required truncation level is out of certified reach"
        )


def truncation_level(
    tail_at, N: int | None, target: float = 0.0, start: int = 1,
    series: str = "series", where: str = "", budget=check_enumeration_budget,
) -> tuple[int, Interval]:
    """The truncation level of a level series and its certified tail.

    ``tail_at(n)`` bounds everything past level n.  An explicit N must be
    >= 1 and pass ``budget`` (which refuses levels out of reach: the
    enumeration budget by default, ``check_level_budget`` for the series
    fed by the transfer DP), and its tail is returned as is.  Otherwise N
    is the first level in start..MAX_LEVEL whose tail is below ``target``,
    then checked against the budget; past the cap the series refuses,
    naming itself and the parameters it was asked about.
    """
    if N is not None:
        if N < 1:
            raise ValueError("N must be >= 1")
        budget(N)
        return N, tail_at(N)
    for n in range(start, MAX_LEVEL + 1):
        tail = tail_at(n)
        if tail.hi < target:
            budget(n)
            return n, tail
    raise RefusalError(
        f"{series} tail cannot be pushed below {target:g} by level "
        f"{MAX_LEVEL} at {where}"
    )


def hall_sum_partial(p: int, N: int) -> tuple[Fraction, Fraction]:
    """Exact partial sums of Hall's identity up to order p^N.

    Returns (S_aut, S_ord) with S_aut = sum over all A with #A <= p^N of
    1/#Aut A and S_ord = sum_{n<=N} pi(n)/p^n.  Both increase to the common
    limit prod_{i>=1}(1-p^{-i})^{-1} = 1/F_0, along different routes.
    S_aut lists the partitions (``level_stats_by_enumeration``), so this
    check does not rest on the transfer DP.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 0:
        raise ValueError("N must be >= 0")
    check_enumeration_budget(N)
    s_aut = sum((level_stats_by_enumeration(p, n)[0] for n in range(N + 1)), Fraction(0))
    s_ord = sum(
        (Fraction(partition_count(n), p**n) for n in range(N + 1)), Fraction(0)
    )
    return s_aut, s_ord


def series_tail(
    p: int,
    rate,
    coeffs: list[Interval],
    scale: Interval,
    strip: int = TAIL_STRIP,
):
    """The tail bound of ``bound_series_tail`` as a function of N, for one
    truncation walk.

    ``tail_at(N)`` returns exactly ``bound_series_tail(p, rate, N, coeffs,
    scale, strip)``, at any N and in any order.  The strip term
    pi(n) p^(-rate*n) P(n) of each level is computed once and kept for the
    walk, so consecutive candidates, whose strips share all but one level,
    pay for one new term each; the fold over the strip, the geometric
    closure and the scaling are redone per N in the same order, so every
    bound is bit-identical.  The memo lives as long as the returned
    function.
    """
    up_coeffs = [Interval(max(c.lo, 0.0), max(c.hi, 0.0)) for c in coeffs]
    degree = 0
    for d in range(len(up_coeffs) - 1, -1, -1):
        if up_coeffs[d].hi > 0.0:
            degree = d
            break
    step = pow_p_minus(p, rate, 1)
    terms = {}  # level n -> its strip term, for this walk only

    def tail_at(N: int) -> Interval:
        M = N + strip
        acc = ZERO
        for n in range(N + 1, M + 1):
            term = terms.get(n)
            if term is None:
                term = iv_mul(iv_from_int(partition_count(n)), pow_p_minus(p, rate, n))
                term = terms[n] = iv_mul(term, _poly_eval(coeffs, n))
            acc = iv_add(acc, term)
        ratio = iv_exp(
            iv_div(PARTITION_GROWTH, iv_mul_scalar(iv_sqrt(iv_from_int(M + 1)), 2.0))
        )
        ratio = iv_mul(ratio, step)
        if degree:
            ratio = iv_mul(
                ratio, iv_pow_int(iv_div(iv_from_int(M + 2), iv_from_int(M + 1)), degree)
            )
        if ratio.hi >= 1.0:
            raise TailClosureError(
                f"geometric tail closure failed at level {N} (strip to {M}): "
                f"level ratio bound {ratio.hi:.6f} >= 1; the truncation level is "
                f"too small for this decay rate"
            )
        lead = iv_mul(
            iv_exp(iv_mul(PARTITION_GROWTH, iv_sqrt(iv_from_int(M + 1)))),
            iv_mul(pow_p_minus(p, rate, M + 1), _poly_eval(up_coeffs, M + 1)),
        )
        closure = iv_div(lead, iv_sub(ONE, Interval(ratio.hi, ratio.hi)))
        total = iv_mul(scale, iv_add(acc, closure))
        return Interval(max(total.lo, 0.0), total.hi)

    return tail_at


def bound_series_tail(
    p: int,
    rate,
    N: int,
    coeffs: list[Interval],
    scale: Interval,
    strip: int = TAIL_STRIP,
) -> Interval:
    """Certified upper bound for sum_{n>N} pi(n) p^(-rate*n) P(n).

    P is the polynomial with the given nonnegative Interval coefficients
    (constant term first) and ``rate`` is an int or an Interval.  The result
    is multiplied by ``scale``.  Levels N+1..N+strip are summed with exact
    partition counts; beyond the strip, pi(n) < e^{c sqrt n} turns the
    series into one dominated by a geometric sequence with ratio

        rho = e^{c/(2 sqrt(M+1))} * p^(-rate) * ((M+2)/(M+1))^deg(P)

    (each factor bounds the corresponding level-to-level growth for
    n > M = N + strip).  rho >= 1 means the closure fails at this depth and
    a TailClosureError is raised.  This is one evaluation of
    ``series_tail``; a truncation walk asks ``series_tail`` directly, so
    that each strip term is computed once per walk, not once per candidate
    level.
    """
    return series_tail(p, rate, coeffs, scale, strip)(N)


def _poly_eval(coeffs: list[Interval], n: int) -> Interval:
    acc = ZERO
    x = iv_from_int(n)
    for c in reversed(coeffs):
        acc = iv_add(iv_mul(acc, x), c)
    return acc


def hall_tail_bounds(p: int, N: int) -> tuple[Interval, Interval]:
    """Certified bounds on the two Hall-sum remainders past level N.

    ord route: sum_{n>N} pi(n)/p^n directly; aut route: the level sum of
    1/#Aut is at most pi(n) p^{1-n}, one factor of p worse.
    """
    ord_tail = bound_series_tail(p, 1, N, [ONE], ONE)
    aut_tail = bound_series_tail(p, 1, N, [ONE], iv_from_int(p))
    return aut_tail, ord_tail


def total_mass(
    params: CLParams,
    N: int | None = None,
    J: int | None = None,
    eps: float = 1e-6,
) -> CertifiedValue:
    """Certified truncation of sum_A nu(A) (which is exactly 1).

    ``value`` encloses the partial sum over #A <= p^N and ``tail_bound``
    dominates the omitted mass: level n > N carries at most
    F_u pi(n) p^{1-(u+1)n}.  Depths default to the auto rule: J minimal with
    p^{-u-J}/(p-1) < eps/4, N minimal with tail < eps/2.  The enclosure
    value + [0, tail] must straddle 1; tests hold it to that.
    """
    if J is None:
        J = auto_product_depth(params.p, params.u, eps)
    F = normalizing_constant(params, J)
    p = params.p
    rate = params.rate
    scale = iv_mul(F, iv_from_int(p))
    N, tail = truncation_level(
        series_tail(p, rate, [ONE], scale), N, eps / 2, 1,
        "total mass", f"p={p}, u={params.u}", partial(check_level_budget, p),
    )

    if params.integral:
        inner = sum(
            (
                Fraction(1, p ** (params.u * n)) * level_aut_reciprocal_sum(p, n)
                for n in range(1, N + 1)
            ),
            Fraction(1),  # trivial group
        )
        value = iv_mul(F, iv_from_fraction(inner))
    else:
        inner = ONE
        for n in range(1, N + 1):
            r_iv, _ = level_stats(p, n)
            inner = iv_add(inner, iv_mul(pow_p_minus(p, params.exponent, n), r_iv))
        value = iv_mul(F, inner)
    return CertifiedValue(value=value, truncation_level=N, tail_bound=tail.hi)
