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
    iv_log,
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
    already built is a list lookup.
    """

    def __init__(self, p: int):
        self.p = p
        self.q = [1]
        self.log_q = [ZERO]
        self.prefix = {}  # weight -> {last column: (value, p-exponent sum, {m: count sum})}
        self.levels = []  # n -> (R_n, R_n enclosure, S_n enclosure)

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
    expectation semiring of Li & Eisner, EMNLP 2009, per start state):

        Z(a) = sum_{b<a} w(a,b) Z(b) / (1 - x_a),
        N(a) = (a Z(a) + sum_{b<a} w(a,b) N(b)) / (1 - x_a),
        G(a) = (a^2 L Z(a) + sum_{b<a} w(a,b) (G(b) + log(eta_{a-b}) Z(b))) / (1 - x_a).

    Only x_a depends on u: one code path serves integral and non-integral u.

    Rests past rank R >= 1 (``rests``).  With c_a = x_a / (eta_inf (1 - x_a))
    and s_a = sum_{b<=a} b / (1 - x_b):

    * Z(a) <= c_a sum_{b<a} Z(b), since eta_{a-b} >= eta_inf;
    * N(a) <= s_a Z(a): the chain visits state b a geometric number of
      times, of mean at most 1/(1 - x_b), and each visit adds b to n;
    * G(a) <= a L N(a), since log #Aut <= L sum mu_j^2 <= L a n.

    Every partial sum of Z is below B = M_R exp(sum_{a>R} c_a), M_R the sum
    over a <= R (rank a multiplies it by at most 1 + c_a), and x_b falls in
    b, so s_a <= P(a) = s_R + a(a+1) / (2 (1 - x_{R+1})) for a > R.  For
    a > R, c_{a+1}/c_a <= p^-(2a+1+u) and a polynomial with nonnegative
    coefficients and degree <= 3 grows by at most ((a+1)/a)^3 per step, so
    each rest is dominated by a geometric series of ratio

        rho = p^-(2R+3+u) ((R+2)/(R+1))^3 < 2^-4 (3/2)^3 < 0.22

    (2R + 3 + u > 4, and both factors fall as R grows): the closure cannot
    fail.  So with T = B c_{R+1} / (1 - rho), sum_{a>R} c_a <= c_{R+1} /
    (1 - rho) inside B and eta_inf >= eta_{R+1} (1 - p^-(R+1) / (p-1)):

        sum_{a>R} Z(a) <= T,  sum_{a>R} N(a) <= T P(R+1),
        sum_{a>R} G(a) <= T P(R+1) (R+1) L.
    """

    def __init__(self, params: CLParams):
        self.p = params.p
        self.exponent = params.exponent
        self.L = iv_log_int(params.p)
        self.eta = [ONE]  # eta_m
        self.log_eta = [ZERO]
        self.states = [(ONE, ZERO, ZERO)]  # a -> (Z(a), N(a), G(a))
        self.sums = [(ONE, ZERO, ZERO)]  # R -> their sums over the ranks <= R
        self.visits = [ZERO]  # R -> s_R

    def _loop(self, a: int) -> Interval:
        """x_a = p^(-a(a+u)), the self-loop weight of state a."""
        return iv_mul(iv_recip_int(self.p ** (a * a)), pow_p_minus(self.p, self.exponent, a))

    def _grow(self) -> None:
        a = len(self.states)
        x = self._loop(a)
        self.eta.append(iv_mul(self.eta[-1], iv_sub(ONE, iv_recip_int(self.p**a))))
        self.log_eta.append(iv_log(self.eta[-1]))
        z = n = g = ZERO
        for b, (zb, nb, gb) in enumerate(self.states):
            w = iv_div(x, self.eta[a - b])
            z = iv_add(z, iv_mul(w, zb))
            n = iv_add(n, iv_mul(w, nb))
            g = iv_add(g, iv_mul(w, iv_add(gb, iv_mul(self.log_eta[a - b], zb))))
        free = iv_sub(ONE, x)
        if not free.lo > 0.0:  # rank 1 at a u within rounding of -1
            raise too_close_to_minus_one(self.p)
        z = iv_div(z, free)
        n = iv_div(iv_add(iv_mul_scalar(z, float(a)), n), free)
        g = iv_div(iv_add(iv_mul(iv_mul_scalar(self.L, float(a * a)), z), g), free)
        self.states.append((z, n, g))
        self.sums.append(tuple(iv_add(s, t) for s, t in zip(self.sums[-1], (z, n, g))))
        self.visits.append(iv_add(self.visits[-1], iv_div(iv_from_int(a), free)))

    def state(self, a: int) -> tuple[Interval, Interval, Interval]:
        """(Z(a), N(a), G(a))."""
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
        p, q = self.p, R + 1
        mass = self.through(R)[0]
        x = self._loop(q)
        free = iv_sub(ONE, x)
        eta = iv_mul(self.eta[R], iv_sub(ONE, iv_recip_int(p**q)))
        eta_inf = iv_mul(eta, iv_sub(ONE, iv_recip_int(p**q * (p - 1))))
        rho = iv_mul(
            iv_mul(iv_recip_int(p ** (2 * R + 3)), pow_p_minus(p, self.exponent, 1)),
            iv_pow_int(iv_div(iv_from_int(R + 2), iv_from_int(q)), 3),
        )
        c_sum = iv_div(iv_div(x, iv_mul(eta_inf, free)), iv_sub(ONE, Interval(rho.hi, rho.hi)))
        t_z = iv_mul(iv_mul(mass, iv_exp(c_sum)), c_sum)
        poly = iv_add(self.visits[R], iv_div(iv_from_int(q * (q + 1) // 2), free))
        t_n = iv_mul(t_z, poly)
        t_g = iv_mul(iv_mul_scalar(t_n, float(q)), self.L)
        return tuple(Interval(0.0, t.hi) for t in (t_z, t_n, t_g))


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
    refuses, naming itself and ``where``.
    """
    for R in range(1, MAX_RANK + 1):
        value = rest = ZERO
        for w, total, tail in zip(weights, chain.through(R), chain.rests(R)):
            value = iv_add(value, iv_mul(w, total))
            rest = iv_add(rest, iv_mul(iv_abs(w), tail))
        value, rest = iv_mul(F, value), iv_mul(F, rest).hi
        if rest < target and rest <= value.width:
            return R, value, rest
    raise RefusalError(
        f"{series} tail cannot be pushed below {target:g} by rank {MAX_RANK} at {where}"
    )


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
        RankChain(params), F, (ONE, ZERO, ZERO), eps / 2, "total mass",
        f"p={params.p}, u={params.u}",
    )
    return CertifiedValue(value=value, truncation_level=R, tail_bound=rest)
