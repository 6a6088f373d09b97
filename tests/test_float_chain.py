"""The float rank chain against its oracles.

``RankChain`` runs its recursion in plain floats and encloses each state
once, by an a-priori rounding count (its docstring has the proof).  Here:

* the interval chain it replaced, kept as an oracle (``IntervalChain``):
  every float state overlaps it, and every float rest is at least the
  lower end of the oracle's enclosure of the same rest;
* an exact chain at integral u (``exact_chain``): Z and N as rationals, G as
  rational coefficients of log p and the log eta_m, which every float
  enclosure contains; the rests are held against the exact rest formula;
* the counts, recounted by running the chain's own step on numbers that
  count their roundings (``Counted``), and the inputs, held against
  50-digit mpmath within their counts;
* underflow, past the first rank whose self-loop weight is subnormal;
* the rest test of ``rank_series``, which runs in floats, against the
  interval form it replaced, bit for bit.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clentropy import CLParams, ZetaParams, zeta_product, zeta_sum
from clentropy import measures
from clentropy.measures import RankChain, normalizing_constant, pow_p_minus, rank_chain
from clentropy.numerics import (
    ONE,
    ZERO,
    Interval,
    iv_abs,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_int,
    iv_log,
    iv_log_int,
    iv_mul,
    iv_mul_scalar,
    iv_pow_int,
    iv_recip_int,
    iv_sub,
)

EPS = 2.0**-53


def gamma(k):
    return k * EPS / (1 - k * EPS)


# ------------------------------------------------------------ interval oracle


class IntervalChain:
    """The same chain with every operation an outward-rounded Interval op:
    the rank chain as it was before it ran in floats."""

    def __init__(self, params):
        self.p = params.p
        self.exponent = params.exponent
        self.L = iv_log_int(params.p)
        self.eta = [ONE]
        self.log_eta = [ZERO]
        self.states = [(ONE, ZERO, ZERO)]
        self.sums = [(ONE, ZERO, ZERO)]
        self.visits = [ZERO]

    def _loop(self, a):
        return iv_mul(iv_recip_int(self.p ** (a * a)), pow_p_minus(self.p, self.exponent, a))

    def state(self, a):
        while len(self.states) <= a:
            self._grow()
        return self.states[a]

    def _grow(self):
        a = len(self.states)
        x = self._loop(a)
        free = iv_sub(ONE, x)
        assert free.lo > 0.0
        self.eta.append(iv_mul(self.eta[-1], iv_sub(ONE, iv_recip_int(self.p**a))))
        self.log_eta.append(iv_log(self.eta[-1]))
        z = n = g = ZERO
        for b, (zb, nb, gb) in enumerate(self.states):
            w = iv_div(x, self.eta[a - b])
            z = iv_add(z, iv_mul(w, zb))
            n = iv_add(n, iv_mul(w, nb))
            g = iv_add(g, iv_mul(w, iv_add(gb, iv_mul(self.log_eta[a - b], zb))))
        z = iv_div(z, free)
        n = iv_div(iv_add(iv_mul_scalar(z, float(a)), n), free)
        g = iv_div(iv_add(iv_mul(iv_mul_scalar(self.L, float(a * a)), z), g), free)
        self.states.append((z, n, g))
        self.sums.append(tuple(iv_add(s, t) for s, t in zip(self.sums[-1], (z, n, g))))
        self.visits.append(iv_add(self.visits[-1], iv_div(iv_from_int(a), free)))

    def rests(self, R):
        """Enclosures of T_Z, T_N and T_G (not cut to [0, hi])."""
        self.state(R)
        p, q = self.p, R + 1
        mass = self.sums[R][0]
        x = self._loop(q)
        free = iv_sub(ONE, x)
        eta = iv_mul(self.eta[R], iv_sub(ONE, iv_recip_int(p**q)))
        eta_inf = iv_mul(eta, iv_sub(ONE, iv_recip_int(p**q * (p - 1))))
        rho = iv_mul(
            iv_mul(iv_recip_int(p ** (2 * R + 3)), pow_p_minus(p, self.exponent, 1)),
            iv_pow_int(iv_div(iv_from_int(R + 2), iv_from_int(q)), 3),
        )
        c_sum = iv_div(iv_div(x, iv_mul(eta_inf, free)), iv_sub(ONE, rho))
        t_z = iv_mul(iv_mul(mass, iv_exp(c_sum)), c_sum)
        t_n = iv_mul(t_z, iv_add(self.visits[R], iv_div(iv_from_int(q * (q + 1) // 2), free)))
        return t_z, t_n, iv_mul(iv_mul_scalar(t_n, float(q)), self.L)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 97]),
    st.one_of(
        st.floats(min_value=-0.99, max_value=10.0),
        st.floats(min_value=-1 + 1e-12, max_value=-0.99),
        st.floats(min_value=10.0, max_value=60.0),
        st.integers(0, 12),
    ),
    st.integers(1, 12),
)
def test_float_states_and_rests_meet_the_interval_oracle(p, u, R):
    params = CLParams(p, u)
    chain, oracle = RankChain(params), IntervalChain(params)
    rests = chain.rests(R)
    for a in range(R + 2):
        for got, want in zip(chain.state(a), oracle.state(a)):
            assert got.overlaps(want), (a, got, want)
    for got, want in zip(rests, oracle.rests(R)):
        assert got.lo == 0.0 and got.hi >= want.lo, (got, want)


# ------------------------------------------------------------- exact oracle


def exact_chain(p, u, R):
    """Z(a) and N(a) as Fractions and G(a) as {key: Fraction}, with key
    'L' for log p and m for log eta_m, for a <= R at integral u >= 0."""
    eta = [Fraction(1)]
    for m in range(1, R + 1):
        eta.append(eta[-1] * (1 - Fraction(1, p**m)))
    states = [(Fraction(1), Fraction(0), {})]
    for a in range(1, R + 1):
        x = Fraction(1, p ** (a * (a + u)))
        f = 1 / (1 - x)
        z, n, g = Fraction(0), Fraction(0), {}
        for b, (zb, nb, gb) in enumerate(states):
            w = x / eta[a - b]
            z += w * zb
            n += w * nb
            for key, coef in gb.items():
                g[key] = g.get(key, 0) + w * coef
            g[a - b] = g.get(a - b, 0) + w * zb
        z *= f
        n = (a * z + n) * f
        g["L"] = g.get("L", 0) + a * a * z
        states.append((z, n, {key: coef * f for key, coef in g.items()}))
    return states, eta


def mp_value(g, p, eta):
    """A 50-digit value of an exact G."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for key, coef in g.items():
            log = mpmath.log(p) if key == "L" else mpmath.log(
                mpmath.mpf(eta[key].numerator) / eta[key].denominator)
            total += mpmath.mpf(coef.numerator) / coef.denominator * log
        return total


EXACT_CASES = [(2, 0), (2, 1), (3, 0), (3, 2), (5, 1), (97, 0), (7, 4)]


@pytest.mark.parametrize("p, u", EXACT_CASES)
def test_exact_chain_lies_inside_every_float_enclosure(p, u):
    R = 6
    states, eta = exact_chain(p, u, R)
    chain = RankChain(CLParams(p, u))
    for a, (z, n, g) in enumerate(states):
        Z, N, G = chain.state(a)
        assert Z.contains(z) and N.contains(n), a
        with mpmath.workdps(50):
            assert mpmath.mpf(G.lo) <= mp_value(g, p, eta) <= mpmath.mpf(G.hi), a


def exp_below(x):
    """A Fraction below e^x, x >= 0: a partial sum of its series."""
    term = total = Fraction(1)
    for k in range(1, 40):
        term = term * x / k
        total += term
    return total


@pytest.mark.parametrize("p, u", EXACT_CASES)
def test_float_rests_dominate_the_exact_rest_formula(p, u):
    # T_Z = M exp(C) C, T_N = T_Z P, T_G = T_N (R+1) log p, each factor
    # exact, with the chain's own enclosed mass for M
    with mpmath.workdps(60):
        log_p = Fraction(mpmath.nstr(mpmath.log(p), 55)) - Fraction(1, 10**50)
    chain = RankChain(CLParams(p, u))
    for R in range(1, 9):
        q = R + 1
        eta_q = math.prod((1 - Fraction(1, p**m) for m in range(1, q + 1)), start=Fraction(1))
        x = Fraction(1, p ** (q * (q + u)))
        rho = Fraction(1, p ** (2 * R + 3 + u)) * Fraction(R + 2, q) ** 3
        c_sum = x / (eta_q * (1 - Fraction(1, p**q * (p - 1))) * (1 - x)) / (1 - rho)
        t_z = Fraction(chain.through(R)[0].hi) * exp_below(c_sum) * c_sum
        visits = sum((b / (1 - Fraction(1, p ** (b * (b + u)))) for b in range(1, q)), Fraction(0))
        t_n = t_z * (visits + Fraction(q * (q + 1), 2) / (1 - x))
        for got, want in zip(chain.rests(R), (t_z, t_n, t_n * q * log_p)):
            assert Fraction(got.hi) >= want, (R, got, want)


# ----------------------------------------------------------- rounding counts


class Counted:
    """A float with the count k of rounded operations on its longest path
    from the inputs, and the sum of the absolute values of its expansion's
    terms (size).  Plain numbers are exact constants."""

    __slots__ = ("value", "k", "size")

    def __init__(self, value, k=0, size=None):
        self.value, self.k = value, k
        self.size = abs(value) if size is None else size

    @staticmethod
    def lift(x):
        return x if isinstance(x, Counted) else Counted(x)

    def __add__(self, other):
        o = Counted.lift(other)
        return Counted(self.value + o.value, max(self.k, o.k) + 1, self.size + o.size)

    __radd__ = __add__

    def __sub__(self, other):
        o = Counted.lift(other)
        return Counted(self.value - o.value, max(self.k, o.k) + 1, self.size + o.size)

    def __mul__(self, other):
        o = Counted.lift(other)
        return Counted(self.value * o.value, self.k + o.k + 1, self.size * o.size)

    __rmul__ = __mul__

    def __neg__(self):
        return Counted(-self.value, self.k, self.size)


COUNT_CASES = [(2, 0), (3, 0.5), (3, -0.5), (5, 3), (97, 10), (2, -0.99), (7, 2.25), (2, 1e-9)]


@pytest.mark.parametrize("p, u", COUNT_CASES)
def test_counts_recounted_from_the_step(p, u):
    # the chain's step run on counting numbers gives the chain's own counts
    # and values, and each enclosure reaches gamma_k times the size
    chain = RankChain(CLParams(p, u))
    R = 10
    chain.state(R)
    log_p = Counted(chain.log_p, 4)
    inv_eta = [Counted(v, 1) for v in chain.inv_eta]
    log_eta = [Counted(v, 6) for v in chain.log_eta]
    floats = [tuple(Counted(v) for v in chain.floats[0])]
    for a in range(1, R + 1):
        c, kc, kf = chain._loop(a)
        step = measures._rank_step(a, Counted(c, kc), Counted(1.0 + c, kf), log_p,
                                   inv_eta, log_eta, floats)
        z, n, g, s = step
        assert (z.k, n.k, g.k) == chain.counts[a] and s.k == g.k, a
        assert tuple(v.value for v in step) == chain.floats[a], a
        assert s.value == pytest.approx(g.size, rel=1e-12)
        for enclosure, v in zip(chain.state(a), (z, n, g)):
            assert enclosure.hi - v.value >= gamma(v.k) * v.size, (a, enclosure, v.k)
        floats.append(step)


def test_counts_follow_the_docstring_recursion():
    # k_Z rises by kw + 2 per rank, k_N and k_G as the docstring states
    chain = RankChain(CLParams(2, 0))
    chain.state(8)
    kc, kf = 1, 2
    kw = kc + 2
    kz, kn, kg = kw, 0, kw + 7
    for a in range(1, 9):
        if a > 1:
            kz0, kn0, kg0 = chain.counts[a - 1]
            kz, kn, kg = kw + kz0 + 2, kw + kn0 + 2, kw + max(kg0, kz0 + 7) + 3
        expected = (kz, max(kf + 2 + kz, kn) + 1, max(kf + 7 + kz, kg) + 1)
        assert chain._loop(a)[1:] == (kc, kf)
        assert chain.counts[a] == expected, a


def mp_of(value):
    return mpmath.mpf(value.numerator) / value.denominator if isinstance(value, Fraction) else value


@pytest.mark.parametrize("p, u", COUNT_CASES + [(2, -1 + 1e-9), (97, -0.9), (5, 40.5)])
def test_inputs_lie_within_their_counts(p, u):
    chain = RankChain(CLParams(p, u))
    chain.state(8)

    def within(got, exact, k):
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(got) - exact) <= gamma(k) * abs(exact), (got, exact, k)

    with mpmath.workdps(50):
        L = mpmath.log(p)
        within(chain.log_p, L, 4)
        x1 = mpmath.power(p, -(1 + mpmath.mpf(u)))
        within(chain.x1[0], x1, chain.x1[1])
        for a in range(1, 9):
            eta = math.prod((1 - Fraction(1, p**m) for m in range(1, a + 1)), start=Fraction(1))
            within(chain.inv_eta[a], mp_of(1 / eta), 1)
            within(chain.log_eta[a], mpmath.log(mp_of(eta)), 6)
            x = mpmath.power(p, -a * (a + mpmath.mpf(u)))
            c, kc, kf = chain._loop(a)
            if x > mpmath.mpf(2) ** -1000:
                within(c, x / (1 - x), kc)
                within(1.0 + c, 1 / (1 - x), kf)


# ------------------------------------------------------------------ underflow


@pytest.mark.parametrize("k", [40, 200])
def test_zeta_sum_overlaps_the_product_past_underflow(k):
    params = ZetaParams(2, k, 0.5)
    assert zeta_sum(params).enclosure().overlaps(zeta_product(params))


@pytest.mark.parametrize("p, u", [(2, 0.5), (2, 0), (97, 3), (3, -0.5)])
def test_states_past_the_first_subnormal_rank(p, u):
    chain, oracle = RankChain(CLParams(p, u)), IntervalChain(CLParams(p, u))
    first = next(a for a in range(1, 60) if chain._power(a)[0] < 2.0**-1022)
    for a in range(first, first + 4):
        for got, want in zip(chain.state(a), oracle.state(a)):
            assert got.hi > 0.0 and got.overlaps(want), (a, got, want)
    assert chain.through(first + 3)[0].overlaps(oracle.sums[first + 3][0])


# ------------------------------------------------------------ the rest test


class FixedRests:
    """A chain with the same rests at every cutoff and sums so wide that the
    partial sum never holds ``rank_series`` back: with an infinite target it
    stops at R = 1 and returns its rest test's value."""

    def __init__(self, rests):
        self.fixed = tuple(rests)

    def rests(self, R):
        return self.fixed

    def through(self, R):
        return tuple(Interval(-(2.0**64) * max(1.0, t.hi), 2.0**64 * max(1.0, t.hi))
                     for t in self.fixed)


def signed(magnitude, negative):
    return -magnitude if negative else magnitude


MAGNITUDES = st.one_of(st.floats(min_value=2.0**-1000, max_value=2.0**500),
                       st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0]))
SIGNED = st.builds(signed, MAGNITUDES, st.booleans())
WEIGHTS = st.one_of(
    st.just(ZERO),
    st.builds(lambda x: Interval(x, x), SIGNED),
    st.builds(lambda a, b: Interval(min(a, b), max(a, b)), SIGNED, SIGNED),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 97]),
    st.one_of(st.floats(min_value=-0.99, max_value=10.0), st.integers(0, 10)),
    st.integers(1, 40),
    st.booleans(),
    st.tuples(WEIGHTS, WEIGHTS, WEIGHTS),
    st.integers(8, 64),
)
@example(2, 0, 33, False, (ONE, ZERO, ZERO), 64)  # c_34 < 2^-999: the floor's rests
@example(2, 0.5, 40, False, (Interval(-1.0, 2.0), ZERO, Interval(-3.0, -3.0)), 20)
@example(3, 1, 5, True, (ONE, ZERO, ZERO), 30)  # the shapes of test_measures' _FakeChain
def test_float_rest_test_is_the_interval_rest_bit_for_bit(p, u, R, fake, weights, J):
    params = CLParams(p, u)
    F = normalizing_constant(params, J)
    rests = (Interval(0.0, 1.0 / R), ONE, ONE) if fake else rank_chain(params).rests(R)
    oracle = iv_mul(F, measures._weighted([iv_abs(w) for w in weights], rests)).hi
    assert math.isfinite(oracle)
    got = measures.rank_series(FixedRests(rests), F, weights, math.inf, "test", "")
    assert got[0] == 1 and got[2].hex() == oracle.hex(), (got[2], oracle)
