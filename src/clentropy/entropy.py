"""Certified Shannon entropy of Cohen-Lenstra measures.

Writing nu(A) = F_u / x_A with x_A = #A^u #Aut A, the entropy
H = -sum nu log nu rearranges (using sum nu = 1) to

    H(nu) = -log F_u + F_u * sum_{A != 1} log(x_A) / x_A,

which is the form computed here, by rank: log x_A = u n log p + log #Aut
sums to u log p N(a) + G(a) over rank a (``measures.RankChain``).  The rest
past rank R >= 1 is one-sided: a group of rank >= 2 has #Aut A >= #A, so
x_A >= #A^(u+1) > 1.  The direct-definition route, an independent
cross-check, sums h(nu(A)) = -nu(A) log nu(A) level by level over listed
partitions; its remainder past level N lies in [0, T(N)] with

    T(N) = (F_u / F_0) sum_{n>N} x^n (-log F_u + u L n + L n^2),

x = p^-(u+1), L = log p.  Each omitted class has -log nu(A) <= -log F_u
+ u L n + L n^2 because #Aut A <= #End A <= p^(n^2), and Hall's level sum
sum_{|A|=p^n} 1/#Aut A = p^-n / eta_n (Macdonald ch. II) is at most
p^-n / F_0, since eta_n >= eta_inf = F_0.  The sum is a geometric series
times a quadratic, closed exactly, so it converges for every u > -1.  The
route's partial sum lists partitions and only its tail reads Hall's closed
form; the rank chain reads neither.  A third route, ``entropy_bounds``,
brackets H between closed series and reads neither the chain nor a listing.

The family is strictly entropy-decreasing in integral u.  The engine of
that fact is the per-term inequality

    #A^{u+1} #Aut A <= (#A^u #Aut A)^{(1-p^{-(u+1)}) #A},

which holds for every nontrivial A and integral u >= 0 except exactly
four small cases; ``scan_exceptions`` recovers the exception list by
exhaustive certified comparison, and ``exceptional_margins`` certifies
that the entropy differences survive the exceptions with room to spare.
"""

from __future__ import annotations

from .errors import RefusalError
from .groups import AbelianPGroup, is_prime, pow_le
from .measures import (
    CLParams,
    RankChain,
    auto_product_depth,
    check_enumeration_budget,
    level_stats_by_enumeration,
    normalizing_constant,
    pow_p_minus,
    rank_series,
)
from .numerics import (
    ONE,
    ZERO,
    CertifiedValue,
    Interval,
    Record,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_int,
    iv_log,
    iv_log1p,
    iv_log_int,
    iv_mul,
    iv_mul_scalar,
    iv_neg,
    iv_point,
    iv_recip_int,
    iv_sub,
)
from .partitions import Partition, enumerate_partitions

# Levels of the order entropy, and terms of each closed series, that
# ``entropy_bounds`` sums; past them each series closes geometrically.
BOUNDS_DEPTH = 64


class EntropyResult(Record):
    """Certified entropy with its two-part decomposition.

    ``H.value`` already folds the truncation tail into its upper endpoint
    (so ``H.tail_bound`` is 0); ``weighted_sum`` keeps the tail separate.
    By construction H.value equals minus_log_fu + weighted_sum.enclosure().
    """

    _fields = ("params", "H", "minus_log_fu", "weighted_sum")

    def __init__(self, params: CLParams, H: CertifiedValue, minus_log_fu: Interval,
                 weighted_sum: CertifiedValue):
        self.__dict__.update(
            params=params, H=H, minus_log_fu=minus_log_fu, weighted_sum=weighted_sum)

    @property
    def decomposition(self) -> tuple[Interval, CertifiedValue]:
        return self.minus_log_fu, self.weighted_sum


def _entropy_tail(params: CLParams, F: Interval, N: int) -> Interval:
    """[0, T(N)].  With M = N + 1 and y = 1 - x, the quadratic
    -log F_u + L n (u + n) at n = M + j is P(M) + L (u + 2M) j + L j^2, and
    sum_{j>=0} x^j (1, j, j^2) = (1/y, x/y^2, x (1 + x)/y^3)."""
    p, M = params.p, N + 1
    L = iv_log_int(p)
    u = iv_point(float(params.u))
    x = pow_p_minus(p, params.rate, 1)
    y = iv_sub(ONE, x)
    lead = iv_add(iv_neg(iv_log(F)),
                  iv_mul(iv_mul_scalar(L, float(M)), iv_add(u, iv_from_int(M))))
    slope = iv_mul(iv_add(u, iv_from_int(2 * M)), L)
    bend = iv_div(iv_mul(L, iv_add(ONE, x)), y)
    inner = iv_add(lead, iv_div(iv_mul(x, iv_add(slope, bend)), y))
    ratio = iv_div(F, normalizing_constant(CLParams(p, 0)))
    total = iv_mul(iv_mul(ratio, pow_p_minus(p, params.rate, M)), iv_div(inner, y))
    return Interval(0.0, total.hi)


def entropy(params: CLParams, eps: float = 1e-6) -> EntropyResult:
    """Certified H(nu) with H.value.width <= eps.

    The rank cutoff R (reported as the truncation level) is the first one
    whose rest is below eps/2 and no wider than the partial sum; refuses if
    no R up to ``MAX_RANK`` gets there, or if rounding leaves the final
    interval wider than eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    p = params.p
    J = auto_product_depth(p, params.u, eps / 16)
    F = normalizing_constant(params, J)
    mlf = iv_neg(iv_log(F))
    weights = (ZERO, iv_mul_scalar(iv_log_int(p), float(params.u)), ONE)
    R, ws_value, rest = rank_series(
        RankChain(params), F, weights, eps / 2, "entropy", f"p={p}, u={params.u}"
    )
    weighted_sum = CertifiedValue(ws_value, R, rest)
    h_value = iv_add(mlf, weighted_sum.enclosure())
    if h_value.width > eps:
        raise RefusalError(
            f"cannot certify entropy width <= {eps:g} at p={p}, u={params.u}: "
            f"achieved {h_value.width:g}"
        )
    return EntropyResult(
        params=params,
        H=CertifiedValue(h_value, R, 0.0),
        minus_log_fu=mlf,
        weighted_sum=weighted_sum,
    )


def entropy_by_definition(params: CLParams, N: int) -> CertifiedValue:
    """Independent entropy route: truncated -sum nu log nu, tail folded in.

    Sums h(nu(A)) = nu(A)(-log nu(A)) levelwise through level N >= 0, then
    adds [0, T(N)].  Used to cross-check the identity route: its per-level
    statistics come from listing every partition
    (``level_stats_by_enumeration``, under the enumeration budget), not
    from the rank chain that the identity route reads; its tail reads
    Hall's closed level sum, which the chain does not.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    p = params.p
    F = normalizing_constant(params)
    check_enumeration_budget(N)
    mlf = iv_neg(iv_log(F))
    u_log = iv_mul(iv_point(float(params.u)), iv_log_int(p))
    acc = mlf  # trivial group: h(F_u) = F_u (-log F_u), the F_u folds below
    for n in range(1, N + 1):
        _, r_iv, s_iv = level_stats_by_enumeration(p, n)
        minus_log = iv_add(mlf, iv_mul_scalar(u_log, float(n)))
        level = iv_add(iv_mul(minus_log, r_iv), s_iv)
        acc = iv_add(acc, iv_mul(pow_p_minus(p, params.exponent, n), level))
    tail = _entropy_tail(params, F, N)
    return CertifiedValue(iv_add(iv_mul(F, acc), tail), N, 0.0)


def entropy_bounds(params: CLParams) -> Interval:
    """Certified [H(n), B(u)] around H(nu), from closed series alone.

    A third entropy route, kept as a check: it reads neither the rank chain
    nor any listed partition.  Write n = log_p #A, L = log p and
    x_i = p^-(u+i), so F_u = prod_{i>=1} (1 - x_i).  Hall's law
    P(n) = F_u p^(-(u+1) n) / eta_n, eta_n = prod_{i<=n} (1 - p^-i), has
    generating function prod_i (1 - x_i)/(1 - x_i t) (Euler), so n is a sum
    of independent geometric variables: E[n] = sum_i x_i/(1 - x_i) and
    Var[n] = sum_i x_i/(1 - x_i)^2.

    * Lower end.  n is a function of A, so H(nu) >= H(n) = sum_n
      P(n) (-log P(n)).  Every term is >= 0, so the levels n <= BOUNDS_DEPTH
      up to the first whose P(n) underflows bound it from below.  -log P(n)
      is formed as -log F_u + (u+1) n L + log eta_n, keeping the relative
      accuracy that log of P(n) would lose as P(n) nears 1.
    * Upper end.  -log nu(A) = -log F_u + u n L + log #Aut A and
      #Aut A <= #End A = p^(sum_{i,j} min(lambda_i, lambda_j)) <= p^(n^2),
      so H(nu) <= B(u) = -log F_u + u L E[n] + L (Var[n] + E[n]^2).
    * Tails.  -log F_u, E[n] and Var[n] sum a(x_i) for a(x) = -log(1 - x),
      x/(1 - x) and x/(1 - x)^2: power series with nonnegative coefficients
      and no constant term, so a(x/p) <= a(x)/p.  As x_{i+1} = x_i/p, the
      terms past i = D = BOUNDS_DEPTH sum to at most a(x_{D+1}) p/(p - 1)
      <= 2 a(x_{D+1}).

    -log F_u is summed through log1p, so both ends keep relative accuracy
    at large u.  Refuses, as ``normalizing_constant`` does, a unit-rank
    within rounding of -1.
    """
    p, u = params.p, params.u
    F = normalizing_constant(params)
    L = iv_log_int(p)
    u_iv = iv_from_int(u) if params.integral else iv_point(u)
    mlf = mean = var = ZERO  # -log F_u, E[n], Var[n]
    for i in range(1, BOUNDS_DEPTH + 2):
        # x as partial_product forms it, so F's refusal covers 1 - x here too
        if params.integral:
            x = iv_recip_int(p ** (u + i))
        else:
            x = iv_exp(iv_neg(iv_mul(iv_add(u_iv, iv_from_int(i)), L)))
        odds = iv_div(x, iv_sub(ONE, x))
        terms = (iv_neg(iv_log1p(iv_neg(x))), odds, iv_div(odds, iv_sub(ONE, x)))
        if i > BOUNDS_DEPTH:
            terms = tuple(Interval(0.0, iv_mul_scalar(t, 2.0).hi) for t in terms)
        mlf, mean, var = (iv_add(s, t) for s, t in zip((mlf, mean, var), terms))
    upper = iv_add(iv_add(mlf, iv_mul(iv_mul(u_iv, L), mean)),
                   iv_mul(L, iv_add(var, iv_mul(mean, mean))))

    step, z = iv_mul(iv_add(u_iv, ONE), L), pow_p_minus(p, params.rate, 1)
    P, log_eta, lower = F, ZERO, iv_mul(F, mlf)
    for n in range(1, BOUNDS_DEPTH + 1):
        q = iv_recip_int(p**n)
        P = iv_div(iv_mul(P, z), iv_sub(ONE, q))
        if not P.lo > 0.0:
            break
        log_eta = iv_add(log_eta, iv_log1p(iv_neg(q)))
        minus_log_P = iv_add(iv_add(mlf, iv_mul_scalar(step, float(n))), log_eta)
        lower = iv_add(lower, iv_mul(P, minus_log_P))
    return Interval(max(lower.lo, 0.0), upper.hi)  # entropy is nonnegative


def check_decreasing_inequality(p: int, u: int, A: AbelianPGroup) -> bool:
    """Exact test of  #A^{u+1} #Aut A <= (#A^u #Aut A)^{(1-p^{-(u+1)}) #A}.

    With x = #A^u #Aut A, a = #A, P = p^{u+1}, raising both sides to the
    P-th power clears the rational exponent:  (a x)^P <= x^{a (P-1)}.
    The comparison is exact (certified log separation, escalating to exact
    integer powers when needed); no floating tolerance is involved.
    """
    if not isinstance(u, int) or isinstance(u, bool) or u < 0:
        raise ValueError("integral u >= 0 required")
    if A.p != p:
        raise ValueError(f"group is a {A.p}-group but p = {p}")
    if A.is_trivial():
        raise ValueError("the inequality concerns nontrivial groups")
    a = A.order
    x = a**u * A.aut_order
    P = p ** (u + 1)
    return pow_le(a * x, P, x, a * (P - 1))


def scan_exceptions(
    p_max: int, n_max: int, u_max: int
) -> list[tuple[int, int, Partition]]:
    """All (p, u, lambda') with p <= p_max, #A <= p^{n_max}, u <= u_max
    violating the decreasing inequality, in canonical order (p, then u,
    then order, then reverse-lexicographic within an order).

    The full scan over p <= 7, n <= 8, u <= 5 returns exactly four hits:
    (2,0,(1,)), (2,0,(2,)), (2,1,(1,)), (3,0,(1,)).
    """
    hits: list[tuple[int, int, Partition]] = []
    for p in (q for q in range(2, p_max + 1) if is_prime(q)):
        for u in range(u_max + 1):
            for n in range(1, n_max + 1):
                for parts in enumerate_partitions(n):
                    A = AbelianPGroup(p, parts)
                    if not check_decreasing_inequality(p, u, A):
                        hits.append((p, u, parts))
    return hits


def weighted_log_term(params: CLParams, A: AbelianPGroup) -> Interval:
    """The per-class entropy contribution F_u log(x_A)/x_A, x_A = #A^u #Aut A.

    Zero for the trivial group.  For every non-exceptional (A, u) this is
    monotone nonincreasing in u, which is what drives entropy monotonicity.
    """
    if A.p != params.p:
        raise ValueError(f"group is a {A.p}-group but params.p = {params.p}")
    F = normalizing_constant(params)
    if A.is_trivial():
        return ZERO
    if params.integral:
        x = A.order**params.u * A.aut_order
        return iv_mul(F, iv_mul(iv_log_int(x), iv_recip_int(x)))
    n = A.order_exponent
    log_x = iv_add(
        iv_mul(iv_point(params.u), iv_mul_scalar(iv_log_int(params.p), float(n))),
        iv_log_int(A.aut_order),
    )
    return iv_mul(F, iv_mul(log_x, iv_exp(iv_neg(log_x))))


def exceptional_margins() -> tuple[Interval, Interval, Interval]:
    """Certified margins showing the entropy drop survives the exceptions.

    Each margin is an entropy difference restricted to the -log F_u part
    plus the exceptional classes' terms (all other terms decrease
    pointwise, so these finitely many must carry the day):

      1. u = 0 -> 1 at p = 2, exceptional classes Z/2 and Z/4;
      2. u = 1 -> 2 at p = 2, exceptional class Z/2;
      3. u = 0 -> 1 at p = 3, exceptional class Z/3.

    All three are certified positive, with lower bounds at least
    0.44, 0.21 and 0.34 respectively.
    """
    out = []
    for p, u, classes in (
        (2, 0, ((1,), (2,))),
        (2, 1, ((1,),)),
        (3, 0, ((1,),)),
    ):
        lo_params = CLParams(p, u)
        hi_params = CLParams(p, u + 1)
        lhs = iv_neg(iv_log(normalizing_constant(lo_params)))
        rhs = iv_neg(iv_log(normalizing_constant(hi_params)))
        for parts in classes:
            A = AbelianPGroup(p, parts)
            lhs = iv_add(lhs, weighted_log_term(lo_params, A))
            rhs = iv_add(rhs, weighted_log_term(hi_params, A))
        out.append(iv_sub(lhs, rhs))
    return tuple(out)
