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
* Hall sums are accumulated in exact rational arithmetic and converted to
  an interval once at the end;
* series over all groups are summed by rank (``RankChain``, walked by
  ``rank_series``), with a proven tail past rank R that falls like p^(-R^2);
  the series at one (p, u) share a chain (``rank_chain``, an LRU memo of
  ``RANK_CHAIN_MEMO``), built once per process under a per-chain lock; a
  chain holds states and rests, never an answer;
* the Hall sums, which list partitions level by level, carry tail bounds
  built from two ingredients only:
  #Aut A >= #A (1 - 1/p) >= p^{n-1} for #A = p^n (so 1/#Aut <= p^{1-n}),
  and the unconditional partition-count bound pi(n) < e^{c sqrt n} with
  c = pi sqrt(2/3).  A tail is summed level-exactly over a strip past the
  truncation point and closed geometrically beyond the strip, where the
  level-to-level ratio e^{c/(2 sqrt n)} p^{-(u+1)} has dropped below 1
  (``bound_series_tail``).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .errors import RefusalError, TailClosureError, too_close_to_minus_one
from .groups import aut_order_parts, is_prime
from .numerics import (
    ONE,
    PARTITION_GROWTH,
    ZERO,
    CertifiedValue,
    Interval,
    Record,
    iv_abs,
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

MAX_ENUM_PARTITIONS = 2_000_000
# Chains kept by ``rank_chain``: ten times the 24 distinct (p, u) of the
# benchmark's warm sweep; a chain is about a hundred intervals.
RANK_CHAIN_MEMO = 256
# Ceiling on the rank cutoff of a chain series: its rest falls like p^(-R^2),
# so R <= 8 reaches eps = 1e-12 for every p and u, and R = 20 is past 2^-400.
MAX_RANK = 20
# Levels summed exactly past the truncation point before the geometric
# closure takes over (the closure alone, started right at N, is far too
# coarse for small p and u).
TAIL_STRIP = 160


class CLParams(Record):
    """A prime p and a unit-rank u > -1.

    Integral u (the classical case) is normalized to int so downstream code
    can dispatch to exact rational arithmetic; any other real u > -1 selects
    the extended mode in which p^{u n} is computed by interval exp/log.
    """

    _fields = ("p", "u")

    def __init__(self, p: int, u: float):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if isinstance(u, bool) or not isinstance(u, (int, float)):
            raise ValueError(f"unit-rank must be a real number, got {u!r}")
        if not math.isfinite(u) or not u > -1:
            raise ValueError(f"unit-rank must be finite and > -1, got {u!r}")
        if isinstance(u, float) and u.is_integer() and u >= 0:
            u = int(u)
        self.__dict__.update(p=p, u=u)

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
    at integral s >= 0, interval exp/log otherwise.  Refuses when rounding
    leaves the product not certified positive (s within rounding of -1)."""
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
    if not prod.lo > 0.0:  # 1 - p^-(s+1) within rounding of 0
        raise too_close_to_minus_one(p)
    return prod


@lru_cache(maxsize=1024)
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
    Enclosures are kept in an LRU memo of 1024, keyed by (p, u, J).
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


def cl_measure(params: CLParams, A) -> Interval:
    """Enclosure of nu(A) = F_u / (#A^u #Aut A).

    The denominator is an exact big integer when u is integral; in extended
    mode #A^u goes through interval exp/log.  For the trivial group the
    F_u interval is returned as-is.
    """
    if A.p != params.p:
        raise ValueError(f"group is a {A.p}-group but params.p = {params.p}")
    F = normalizing_constant(params)
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

    The table is filled level by level and pulled on demand; a level
    already built is a list lookup.  Threads may share a DP (``_transfer``),
    so levels are built under a per-instance lock.
    """

    def __init__(self, p: int):
        self.p = p
        self.q = [1]
        self.log_q = [ZERO]
        self.prefix = {}  # weight -> {last column: (value, p-exponent sum, {m: count sum})}
        self.levels = []  # n -> (R_n, R_n enclosure, S_n enclosure)
        self.lock = threading.Lock()

    def _extend_q(self, n: int) -> None:
        q = self.q
        while len(q) <= n:
            q.append(q[-1] * (self.p ** len(q) - 1))
            self.log_q.append(iv_log_int(q[-1]))

    def level(self, n: int) -> tuple[Fraction, Interval, Interval]:
        if n < 0:
            raise ValueError("level must be >= 0")
        with self.lock:
            while len(self.levels) <= n:
                self._build_level(len(self.levels))
        return self.levels[n]

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


@lru_cache(maxsize=None)
def _transfer(p: int) -> _TransferDP:
    return _TransferDP(p)


def level_stats(p: int, n: int) -> tuple[Interval, Interval]:
    """Per-level interval statistics (R_n, S_n) over partitions of n:

    R_n = sum 1/#Aut (converted from the exact rational, so 1 ulp wide) and
    S_n = sum log(#Aut)/#Aut, an exact rational combination of log p and
    the log q_m.  Entropy- and divergence-type sums at level n are affine
    combinations of these two for any unit-rank.  No series reads them any
    more (they are summed by rank); the warm-sweep benchmark fills them.
    """
    _, r_iv, s_iv = _transfer(p).level(n)
    return r_iv, s_iv


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


def check_enumeration_budget(N: int) -> None:
    """Refuse truncation levels whose partition enumeration is infeasible.

    Levels through N cost sum_{n<=N} pi(n) tuples; pi grows like
    e^{c sqrt n}, so a slowly decaying series can demand a level whose
    enumeration would not finish.  Refusing keeps every accepted call
    certifiably cheap.
    """
    work = sum(partition_count(n) for n in range(N + 1))
    if work > MAX_ENUM_PARTITIONS:
        raise RefusalError(
            f"level {N} needs {work} partition tuples, over the {MAX_ENUM_PARTITIONS} "
            f"enumeration budget; the required truncation level is out of certified reach"
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
    a TailClosureError is raised.
    """
    up_coeffs = [Interval(max(c.lo, 0.0), max(c.hi, 0.0)) for c in coeffs]
    degree = 0
    for d in range(len(up_coeffs) - 1, -1, -1):
        if up_coeffs[d].hi > 0.0:
            degree = d
            break
    M = N + strip
    acc = ZERO
    for n in range(N + 1, M + 1):
        term = iv_mul(iv_from_int(partition_count(n)), pow_p_minus(p, rate, n))
        acc = iv_add(acc, iv_mul(term, _poly_eval(coeffs, n)))
    ratio = iv_exp(
        iv_div(PARTITION_GROWTH, iv_mul_scalar(iv_sqrt(iv_from_int(M + 1)), 2.0))
    )
    ratio = iv_mul(ratio, pow_p_minus(p, rate, 1))
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


# Plain-float rounding of the rank chain (``RankChain``): the unit roundoff,
# libm's count (log, log1p and exp within 2 ulps, the assumption of
# ``numerics``: a relative 4 eps), and the largest count of c_a the chain
# accepts (gamma_k below 2^-5; a state's count is at most about twice the
# largest c_a count plus a few per rank, so its gamma stays below 1/4).
_EPS = 2.0**-53
_LIBM = 4
_MAX_COUNT = 2**48
# A rest replaces a c_{R+1} below this by twice it: an upper bound that
# keeps every factor of the rest a normal float.
_REST_FLOOR = 2.0**-999


def _units(rho: float) -> int:
    """The least k with gamma_k >= rho; rho comes from a few float
    operations, so it gets 2^-40 of relative slack."""
    return math.ceil(rho * (1.0 + 2.0**-40) / _EPS)


def _gamma(k: int) -> float:
    """gamma_k = k eps / (1 - k eps), to rounding (callers leave slack)."""
    return k * _EPS / (1.0 - k * _EPS)


@lru_cache(maxsize=1024)
def _spread(k: int) -> float:
    """An upper bound of gamma_k / (1 - gamma_k) = k eps / (1 - 2 k eps)."""
    return math.nextafter(k * _EPS / (1.0 - 2 * k * _EPS), math.inf)


@lru_cache(maxsize=1024)
def _factor(k: int) -> float:
    """An upper bound of 1 / (1 - gamma_k)."""
    return math.nextafter(1.0 + _spread(k), math.inf)


def _inflate(t: float, k: int) -> float:
    """An upper bound of t / (1 - gamma_k), for t >= 0 within gamma_k of a
    positive value: that value is below it."""
    return math.nextafter(t * _factor(k), math.inf)


def _rank_step(a, c, f, log_p, inv_eta, log_eta, floats):
    """One rank of the float chain: (Z(a), N(a), G(a), S_G(a)) from the
    ranks below, with w = c_a / eta_{a-b} and f = 1 + c_a = 1/(1 - x_a).
    S_G is G's recursion on absolute values.  Only +, -, * and unary minus
    are used, so a test can run it on numbers that count roundings."""
    w = c * inv_eta[a]
    z = w
    g = w * log_eta[a]
    s = -g
    n = 0.0
    for b in range(1, a):
        zb, nb, gb, sb = floats[b]
        w = c * inv_eta[a - b]
        t = log_eta[a - b] * zb
        z = z + w * zb
        n = n + w * nb
        g = g + w * (gb + t)
        s = s + w * (sb - t)
    a2lf = a * a * f * log_p
    return z, a * f * z + n, a2lf * z + g, a2lf * z + s


class RankChain:
    """Sums over the groups of each rank at one (p, u), by a chain over
    column lengths: no partition is listed and no closed form is read.

    Write mu_1 >= mu_2 >= ... > 0 for the conjugate of a group type (mu_1 is
    the rank, #A = p^n with n = sum mu_j), m_j = mu_j - mu_{j+1} and
    eta_m = prod_{k<=m} (1 - p^-k).  Macdonald's #Aut A = p^(sum mu_j^2)
    prod_j eta_{m_j} factors over consecutive columns, so

        p^(-u n) / #Aut A = prod_j w(mu_j, mu_{j+1}),
        w(a, b) = x_a / eta_{a-b},   x_a = p^(-a(a+u)):

    a chain that starts at the rank, steps down, has self-loops w(a, a) = x_a
    and is absorbed at 0.  Over the groups of rank a let Z(a), N(a), G(a) sum
    p^(-u n)/#Aut times 1, n and log #Aut.  With L = log p, Z(0) = 1,
    N(0) = G(0) = 0, and each self-loop closed geometrically (the
    expectation semiring of Li & Eisner, EMNLP 2009, per start state), with
    c_a = x_a / (1 - x_a) and f_a = 1 + c_a = 1 / (1 - x_a):

        Z(a) = sum_{b<a} (c_a / eta_{a-b}) Z(b),
        N(a) = a f_a Z(a) + sum_{0<b<a} (c_a / eta_{a-b}) N(b),
        G(a) = a^2 L f_a Z(a) + sum_{b<a} (c_a / eta_{a-b}) (G(b) + log(eta_{a-b}) Z(b)).

    Only x_a depends on u: one code path serves integral and non-integral u.

    Rounding.  The recursion runs in plain floats (``_rank_step``) and
    each state is enclosed once.  With eps = 2^-53 and
    gamma_k = k eps / (1 - k eps) (Higham 2002, §3.1), every rounded +, -,
    * or / multiplies the exact result by 1 + delta, |delta| <= eps, and
    such factors combine: (1 + theta_j)(1 + theta_k) = 1 + theta_{j+k},
    |theta_k| <= gamma_k.  A value formed along paths of at most k rounded
    operations from inputs is the sum of the terms of its expansion, each
    times its own 1 + theta_k; an input within gamma_j of exact, relatively,
    counts j.  So the value is within gamma_k S of exact, S the sum of the
    absolute values of the terms.  The inputs, each rounded once from an
    exact rational or from libm (its results within 2 ulps, the assumption
    of ``numerics``: a relative 4 eps, count 4):

    * 1/eta_m = p^(m(m+1)/2) / q_m, q_m = prod_{k<=m} (p^k - 1): one
      correctly rounded quotient of integers, count 1.
    * log eta_m = log1p(y), y = eta_m - 1 rounded once from the rational:
      log1p's condition number |y / ((1 + y) log1p(y))| is below 2 on
      y >= eta_inf - 1 > -0.72, so count 2 + 4 = 6.
    * L = log p: count 4.
    * c_a.  At integral u, c_a = 1 / (p^(a(a+u)) - 1): count 1, and
      f_a = 1 + c_a counts 2 (c_a <= 1).  Otherwise, with j = floor(u),
      x_a = p^(-a(a+j)) exp(-a (u - j) L).  The argument is rounded along
      3 operations (u - j is exact unless -1 < u < 0) and L, so it is
      within gamma_7 of exact and exp turns that into a relative e^(|arg| gamma_7 / (1 - gamma_7))
      - 1; with libm's 4 and, where a + j > 0, the power's quotient and the
      product, x_a counts j_a.
      1 - x_a is formed by subtraction, which amplifies x_a's own error by
      r = x_a / (1 - x_a) (cancellation near u = -1, where r is large):
      c_a = x_a / (1 - x_a) is within gamma_j (1 + r) / (1 - gamma_j r) of
      exact before its two roundings, and counts that over eps, rounded up,
      plus 2.  Where 1 - x_a is not certified positive, gamma_j r >= 1/2 or
      that count passes 2^48, the unit-rank is too close to -1 and the chain
      refuses.  f_a = 1 + c_a errs by c_a's error times c_a / (1 + c_a)
      and one rounding: it counts kf = gamma_kc c_a / (1 + c_a) over eps,
      rounded up, plus 1.

    The step counts one per operation along each path.  With kc the count
    of c_a and kw = kc + 2 that of w = c_a / eta_m, the sums over b run
    upward and their last term dominates (every count rises by at least 1
    per rank), so

        k_Z(a) = kw (a = 1),  kw + k_Z(a-1) + 2 (a > 1),
        k_N(a) = max(kf + 2 + k_Z(a), kw + k_N(a-1) + 2) + 1,
        k_G(a) = max(kf + 7 + k_Z(a), kw + max(k_G(a-1), k_Z(a-1) + 7) + 3) + 1,

    where at a = 1 the second entry of k_N is 0 (no term) and that of k_G is
    kw + 7 (the b = 0 term w log eta_1).  Z and N sum nonnegative terms, so
    their S is the value itself; G mixes signs through log eta_m < 0, so the
    step carries S_G, the same recursion on absolute values.  A computed S
    is at least 1 - gamma_k times the exact one, so each state is enclosed
    as v +- S gamma_k / (1 - gamma_k), rounded outward.

    Underflow.  Past rank 32 at p = 2 (sooner for larger p or u), x_a and
    the products are subnormal or 0, and a product or quotient then errs by
    up to 2^-1075 absolutely rather than relatively (sums of subnormals are
    exact).  An absolute term E_a, carried in units of 2^-1074, bounds that
    error in Z(a), N(a), G(a) and S_G(a) at once: c_a errs by at most 8 f_a
    units (1 at integral u), so w by 30 f_a; each b adds w's error times the
    largest multiplicand B (2.5 times the largest earlier |state|), one unit
    for log(eta) Z(b) times the largest w, W = 4 c_a, and one for its own
    product; the E_b below enter times 2.25 W; the closing products add
    a f_a or a^2 L f_a times that and one unit; all of it is doubled for
    the 1 + theta factors on those terms.  Each state widens by 2 E_a.

    Rests past rank R >= 1 (``rests``).  With c'_a = x_a / (eta_inf (1 - x_a))
    and s_a = sum_{b<=a} b / (1 - x_b):

    * Z(a) <= c'_a sum_{b<a} Z(b), since eta_{a-b} >= eta_inf;
    * N(a) <= s_a Z(a): the chain visits state b a geometric number of
      times, of mean at most 1/(1 - x_b), and each visit adds b to n;
    * G(a) <= a L N(a), since log #Aut <= L sum mu_j^2 <= L a n.

    Every partial sum of Z is below B = M_R exp(sum_{a>R} c'_a), M_R the sum
    over a <= R (rank a multiplies it by at most 1 + c'_a), and x_b falls in
    b, so s_a <= P(a) = s_R + a(a+1) / (2 (1 - x_{R+1})) for a > R.  For
    a > R, c'_{a+1}/c'_a <= p^-(2a+1+u) and a polynomial with nonnegative
    coefficients and degree <= 3 grows by at most ((a+1)/a)^3 per step, so
    each rest is dominated by a geometric series of ratio

        rho = p^-(2R+3+u) ((R+2)/(R+1))^3 < 2^-4 (3/2)^3 < 0.22

    (2R + 3 + u > 4, and both factors fall as R grows): the closure cannot
    fail.  So with T = B c'_{R+1} / (1 - rho), sum_{a>R} c'_a <= c'_{R+1} /
    (1 - rho) inside B and eta_inf >= eta_{R+1} (1 - p^-(R+1) / (p-1)):

        sum_{a>R} Z(a) <= T,  sum_{a>R} N(a) <= T P(R+1),
        sum_{a>R} G(a) <= T P(R+1) (R+1) L.

    Each rest is a product of positive factors, formed in floats and
    counted like a state: M_R is the upper end of the enclosed mass (exact,
    count 0), 1/(eta_{R+1} (1 - p^-(R+1) / (p-1))) one quotient of
    integers (count 1), rho = x_1 p^-(2R+2) ((R+2)/(R+1))^3 counts k_1 + 4
    (k_1 that of x_1), and 1 - rho counts gamma_{k_1+4} rho / (1 - rho)
    over eps, rounded up, plus 1 (k_free), with rho replaced by an upper
    bound.  Then C = sum c'_a <= c_{R+1} / (eta_inf (1 - rho)) counts
    k_C = kc + 2 k_free + 3; exp(C) adds libm's 4 and the relative
    e^(C gamma / (1 - gamma)) - 1 that C's own error becomes (C replaced by
    an upper bound), and T = M_R exp(C) C counts k_T = that + k_C + 2.
    P(R+1) = s_R + (R+1)(R+2)/2 f_{R+1} counts max(k_s, kf + 1) + 1, k_s
    that of the float s_R, so T P(R+1) counts k_T + max(k_s, kf + 1) + 2,
    and the G rest 2 more products and L's 4.  Each computed rest t is
    within gamma_m of its exact value T, so T <= t / (1 - gamma_m): it is
    inflated once and rounded up.  A c_{R+1} below 2^-999 (in floats) is
    replaced by 2^-998, above the exact c_{R+1} with every error included,
    with kc = 0 and kf = 1, so every factor is a normal float and each
    count holds.

    A chain keeps every state and rest it builds: asking again is a lookup
    with the same bits.  Threads may share a chain (``rank_chain``), so its
    growth runs under a per-chain lock and no rank is appended twice.
    """

    def __init__(self, params: CLParams):
        self.p = params.p
        self.u = params.u
        self.integral = params.integral
        self.log_p = math.log(params.p)
        self.x1 = self._power(1)
        self.loops = {}  # a -> _loop(a)
        self.q = [1]  # q_m
        self.inv_eta = [1.0]  # 1/eta_m
        self.log_eta = [0.0]  # log eta_m
        self.floats = [(1.0, 0.0, 0.0, 0.0)]  # a -> computed (Z, N, G, S_G)
        self.counts = [(0, 0, 0)]  # a -> (k_Z, k_N, k_G)
        self.slack = [0.0]  # a -> E_a, in units of 2^-1074
        self.states = [(ONE, ZERO, ZERO)]  # a -> enclosed (Z(a), N(a), G(a))
        self.sums = [(ONE, ZERO, ZERO)]  # R -> their sums over the ranks <= R
        self.visits = [(0.0, 0)]  # R -> computed s_R and its count
        self.peak = 1.0  # the largest computed Z, N or S_G so far
        self.rest_bounds = {}  # R -> rests(R)
        self.lock = threading.Lock()

    def _power(self, a: int) -> tuple[float, int]:
        """x_a = p^(-a(a+u)), rounded, and its count."""
        p, u = self.p, self.u
        if self.integral:
            return 1 / p ** (a * (a + u)), 1
        j = math.floor(u)  # x_a = p^(-a(a+j)) exp(-a (u - j) L), 0 <= u - j < 1
        arg = a * (u - j) * self.log_p
        x = math.exp(-arg)
        k = _LIBM + _units(math.expm1(arg * _spread(7)))
        if a + j:
            x *= 1 / p ** (a * (a + j))
            k += 2
        return x, k

    def _loop(self, a: int) -> tuple[float, int, int]:
        """c_a = x_a / (1 - x_a), rounded, its count, and the count of
        1 + c_a; refuses where 1 - x_a is not certified positive."""
        if a in self.loops:
            return self.loops[a]
        if self.integral:  # c_a <= 1, so 1 + c_a is within gamma_1 / 2 + eps
            self.loops[a] = 1 / (self.p ** (a * (a + self.u)) - 1), 1, 2
            return self.loops[a]
        x, k = self._power(a)
        x_up = _inflate(x, k) + 2.0**-1000
        if not x_up < 1.0:
            raise too_close_to_minus_one(self.p)
        r = x_up / (1.0 - x_up)
        gamma = _gamma(k)
        if not gamma * r < 0.5:
            raise too_close_to_minus_one(self.p)
        c, kc = x / (1.0 - x), _units(gamma * (1.0 + r) / (1.0 - gamma * r)) + 2
        if kc > _MAX_COUNT:
            raise too_close_to_minus_one(self.p)
        c_up = _inflate(c, kc)
        self.loops[a] = c, kc, _units(_gamma(kc) * c_up / (1.0 + c_up)) + 1
        return self.loops[a]

    def _grow(self) -> None:
        a = len(self.states)
        c, kc, kf = self._loop(a)  # refuses before anything is appended
        f = 1.0 + c
        p = self.p
        q = self.q[-1] * (p**a - 1)
        top = p ** (a * (a + 1) // 2)
        self.q.append(q)
        self.inv_eta.append(top / q)
        self.log_eta.append(math.log1p((q - top) / top))
        z, n, g, s = _rank_step(a, c, f, self.log_p, self.inv_eta, self.log_eta, self.floats)

        kw = kc + 2
        if a == 1:
            kz, kn, kg = kw, 0, kw + 7
        else:
            kz0, kn0, kg0 = self.counts[-1]
            kz, kn, kg = kw + kz0 + 2, kw + kn0 + 2, kw + max(kg0, kz0 + 7) + 3
        kn, kg = max(kf + 2 + kz, kn) + 1, max(kf + 7 + kz, kg) + 1

        a2lf = a * a * f * self.log_p
        width = 2.5 * self.peak
        w_top = 4.0 * c + 2.0**-1000
        drift = a * (30.0 * f * width + w_top + 1.0) + 2.25 * w_top * sum(self.slack)
        slack = 2.0 * ((max(a * f, a2lf) + 1.0) * drift + 1.0)
        absolute = 2.0 * math.nextafter(math.ldexp(slack, -1074), math.inf)

        self.floats.append((z, n, g, s))
        self.counts.append((kz, kn, kg))
        self.slack.append(slack)
        self.peak = max(self.peak, z, n, s)
        self.states.append(tuple(_enclose(v, k, t, absolute)
                                 for v, k, t in ((z, kz, z), (n, kn, n), (g, kg, s))))
        self.sums.append(tuple(iv_add(s, t) for s, t in zip(self.sums[-1], self.states[-1])))
        v, kv = self.visits[-1]
        self.visits.append((v + a * f, max(kv, kf + 1) + 1))

    def state(self, a: int) -> tuple[Interval, Interval, Interval]:
        """(Z(a), N(a), G(a))."""
        with self.lock:
            while len(self.states) <= a:
                self._grow()
        return self.states[a]

    def through(self, R: int) -> tuple[Interval, Interval, Interval]:
        """The sums of Z, N and G over the ranks a <= R."""
        self.state(R)
        return self.sums[R]

    def rests(self, R: int) -> tuple[Interval, Interval, Interval]:
        """[0, bound] for the sums of Z, N and G over the ranks a > R >= 1."""
        if R < 1:
            raise ValueError("rank cutoff must be >= 1")
        if R in self.rest_bounds:
            return self.rest_bounds[R]
        p, q = self.p, R + 1
        mass = self.through(R)[0].hi
        c, kc, kf = self._loop(q)
        if c < _REST_FLOOR:  # 2^-998 is above c_{R+1}, rounding included
            c, kc, kf = 2.0 * _REST_FLOOR, 0, 1
        pq = p**q
        inv_eta_inf = (p ** (q * (q + 1) // 2) * pq * (p - 1)
                       / (self.q[R] * (pq - 1) * (pq * (p - 1) - 1)))
        x1, k1 = self.x1
        rho = x1 * (1 / p ** (2 * R + 2)) * ((R + 2) ** 3 / q**3)
        rho_up = _inflate(rho, k1 + 4)
        k_free = _units(_gamma(k1 + 4) * rho_up / (1.0 - rho_up)) + 1
        c_sum = c * inv_eta_inf / (1.0 - rho)
        k_sum = kc + 2 * k_free + 3
        k_z = _LIBM + _units(math.expm1(_inflate(c_sum, k_sum) * _spread(k_sum))) + k_sum + 2
        v, kv = self.visits[R]
        k_n = k_z + max(kv, kf + 1) + 2
        t_z = mass * math.exp(c_sum) * c_sum
        t_n = t_z * (v + q * (q + 1) // 2 * (1.0 + c))
        t_g = t_n * q * self.log_p
        self.rest_bounds[R] = tuple(
            Interval(0.0, _inflate(t, m)) for t, m in ((t_z, k_z), (t_n, k_n), (t_g, k_n + 6)))
        return self.rest_bounds[R]


def _enclose(value: float, k: int, size: float, absolute: float) -> Interval:
    """value +- (size gamma_k / (1 - gamma_k) + absolute), rounded outward and
    cut at 0 (every chain state is a sum of nonnegative terms)."""
    radius = math.nextafter(math.nextafter(_spread(k) * size, math.inf) + absolute, math.inf)
    return Interval(max(math.nextafter(value - radius, -math.inf), 0.0),
                    math.nextafter(value + radius, math.inf))


@lru_cache(maxsize=RANK_CHAIN_MEMO)
def rank_chain(params: CLParams) -> RankChain:
    """The ``RankChain`` every series at ``params`` reads: an LRU memo keyed
    by the normalised ``CLParams`` (u = 1.0 and u = 1 share a chain).  It
    keeps chains, not answers: each caller brings its own F_u, weights and
    target, and gets the bits a fresh chain gives."""
    return RankChain(params)


def rank_series(
    chain: RankChain, F: Interval, weights: tuple, target: float, series: str, where: str
) -> tuple[int, Interval, float]:
    """The rank cutoff R of a chain series, its partial sum and its rest.

    The series is F sum_a (w_Z Z(a) + w_N N(a) + w_G G(a)) for the interval
    ``weights`` (w_Z, w_N, w_G).  Z, N and G are nonnegative, so everything
    past rank R is at most F (|w_Z| T_Z + |w_N| T_N + |w_G| T_G) in absolute
    value (``RankChain.rests``).  R is the first cutoff in 1..MAX_RANK whose
    rest is below ``target`` and no wider than the partial sum, so that
    rounding, not truncation, sets the width.  Past the cap the series
    refuses, naming itself and ``where``.  The rest is formed first at each
    R, and the partial sum only where the rest is below ``target``: that
    test alone decides the cutoffs it skips.

    The rest is formed in floats.  F, |w| and the rests are all >= 0, so
    the upper end of each interval product or sum is the float product or
    sum of upper ends, rounded up once; the loop makes the roundings of
    ``iv_mul(F, _weighted(|w|, rests)).hi`` in its order, from 0.0 as
    ``iv_add(ZERO, .)`` starts, so the two agree bit for bit.
    """
    sizes = [iv_abs(w).hi for w in weights]
    up = math.inf
    for R in range(1, MAX_RANK + 1):
        rest = 0.0
        for size, total in zip(sizes, chain.rests(R)):
            rest = math.nextafter(rest + math.nextafter(size * total.hi, up), up)
        rest = math.nextafter(F.hi * rest, up)
        if rest < target:
            value = iv_mul(F, _weighted(weights, chain.through(R)))
            if rest <= value.width:
                return R, value, rest
    raise RefusalError(
        f"{series} tail cannot be pushed below {target:g} by rank {MAX_RANK} at {where}"
    )


def _weighted(weights, sums) -> Interval:
    acc = ZERO
    for w, total in zip(weights, sums):
        acc = iv_add(acc, iv_mul(w, total))
    return acc


def total_mass(params: CLParams, eps: float = 1e-6) -> CertifiedValue:
    """Certified truncation of sum_A nu(A) (which is exactly 1), by rank.

    ``value`` encloses F_u sum_{a<=R} Z(a), the mass of the groups of rank
    at most R, and ``tail_bound`` dominates the rest F_u sum_{a>R} Z(a)
    (``RankChain.rests``); ``truncation_level`` is R.  F_u is taken at the
    product depth of ``auto_product_depth`` for eps and R is the
    ``rank_series`` cutoff for eps/2.  The enclosure value + [0, tail] must
    straddle 1; tests hold it to that.  The chain and its rest read no
    closed form of the rank law, so this is a real check of the
    normalization.
    """
    F = normalizing_constant(params, auto_product_depth(params.p, params.u, eps))
    R, value, rest = rank_series(
        rank_chain(params), F, (ONE, ZERO, ZERO), eps / 2, "total mass",
        f"p={params.p}, u={params.u}",
    )
    return CertifiedValue(value=value, truncation_level=R, tail_bound=rest)
