import ast
import importlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmvport import (
    DimensionMismatch,
    DiscreteLaw,
    RandomVariable,
    ValidationError,
    expected_quadratic_utility,
    expected_truncated_utility,
    mean,
    mean_variance_value,
    moments,
    monotone_mean_variance_value,
    second_moment,
    sharpe_ratio,
    variance,
)
from mmvport import cli, probability
from mmvport.cli import _certified_texts
from mmvport.fcfs import _sig_texts
from mmvport.monotone_sharpe import alpha_root_bisection, monotone_sharpe, solve_alpha_hat
from mmvport.probability import (
    _FSUM_ROWS_FROM,
    _capped_sharpe_bounds,
    _capped_sharpe_ratios,
    _fsum,
    _fsum_rows,
    _kink_walk,
    cash_level_bisection,
)

from oracles import _line_maximum, reference_sharpe_ratio, zoom_fmmv


def rv(values, probs=None):
    values = np.asarray(values, dtype=float)
    law = DiscreteLaw(probs) if probs is not None else DiscreteLaw.uniform(values.size)
    return RandomVariable(law, values)


class TestDiscreteLaw:
    def test_rejects_bad_vectors(self):
        with pytest.raises(ValidationError):
            DiscreteLaw(np.array([]))
        with pytest.raises(ValidationError):
            DiscreteLaw(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValidationError):
            DiscreteLaw(np.array([0.7, -0.1, 0.4]))
        with pytest.raises(ValidationError):
            DiscreteLaw(np.array([0.5, 0.6]))
        with pytest.raises(ValidationError):
            DiscreteLaw(np.array([0.5, np.nan]))

    def test_uniform_and_weights(self):
        assert np.allclose(DiscreteLaw.uniform(4).probabilities, 0.25)
        law = DiscreteLaw.from_weights([2.0, 6.0])
        assert np.allclose(law.probabilities, [0.25, 0.75])
        with pytest.raises(ValidationError):
            DiscreteLaw.from_weights([1.0, 0.0])
        with pytest.raises(ValidationError):
            DiscreteLaw.uniform(0)

    def test_probabilities_read_only(self):
        law = DiscreteLaw.uniform(3)
        with pytest.raises(ValueError):
            law.probabilities[0] = 0.9


class TestRandomVariable:
    def test_shape_and_finiteness(self):
        law = DiscreteLaw.uniform(2)
        with pytest.raises(DimensionMismatch):
            RandomVariable(law, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValidationError):
            RandomVariable(law, np.array([1.0, np.inf]))

    def test_arithmetic(self):
        X = rv([1.0, -2.0])
        Y = rv([0.5, 0.5])
        assert np.allclose((X + Y).values, [1.5, -1.5])
        assert np.allclose((X - 1.0).values, [0.0, -3.0])
        assert np.allclose((2.0 - X).values, [1.0, 4.0])
        assert np.allclose((3.0 * X).values, [3.0, -6.0])
        assert np.allclose((-X).values, [-1.0, 2.0])
        assert np.allclose(X.cap(0.25).values, [0.25, -2.0])
        assert X.min() == -2.0 and X.max() == 1.0

    def test_cross_law_arithmetic_rejected(self):
        X = rv([1.0, 2.0])
        Z = rv([1.0, 2.0], probs=np.array([0.3, 0.7]))
        with pytest.raises(DimensionMismatch):
            X + Z


class TestMoments:
    def test_exact_against_fractions(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            num = rng.integers(-50, 51, size=n)
            wts = rng.integers(1, 9, size=n)
            values = num / 16.0
            law = DiscreteLaw.from_weights(wts.astype(float))
            X = RandomVariable(law, values)
            p = [Fraction(int(w), int(wts.sum())) for w in wts]
            x = [Fraction(int(v), 16) for v in num]
            m = sum(pi * xi for pi, xi in zip(p, x))
            m2 = sum(pi * xi * xi for pi, xi in zip(p, x))
            assert mean(X) == pytest.approx(float(m), abs=1e-14)
            assert second_moment(X) == pytest.approx(float(m2), abs=1e-13)
            assert variance(X) == pytest.approx(float(m2 - m * m), abs=1e-13)
            got = moments(X)
            assert got[0] == mean(X) and got[1] == second_moment(X)

    def test_variance_of_constant_is_zero(self):
        X = rv([3.7, 3.7, 3.7])
        assert variance(X) == 0.0


class TestSharpeRatio:
    def test_constant_conventions(self):
        assert sharpe_ratio(rv([2.0, 2.0])) == math.inf
        assert sharpe_ratio(rv([-1.0, -1.0])) == -math.inf
        assert sharpe_ratio(rv([0.0, 0.0])) == 0.0

    def test_matches_moments(self, trinomial_law):
        m, _, v = moments(trinomial_law)
        assert sharpe_ratio(trinomial_law) == pytest.approx(m / math.sqrt(v), abs=1e-15)
        assert sharpe_ratio(trinomial_law) == pytest.approx(
            math.sqrt(289.0 / 801.0), abs=1e-14
        )

    def test_scale_and_shift(self):
        X = rv([1.0, -0.5, 2.0], probs=np.array([0.2, 0.5, 0.3]))
        assert sharpe_ratio(4.0 * X) == pytest.approx(sharpe_ratio(X), abs=1e-13)


class TestUtilityFunctionals:
    def test_expected_values(self):
        X = rv([0.5, 2.0])
        # U(0.5) = 0.375, U(2) = 0; truncated caps the second atom at 1
        assert expected_quadratic_utility(X) == pytest.approx(0.1875, abs=1e-15)
        assert expected_truncated_utility(X) == pytest.approx(
            0.5 * 0.375 + 0.5 * 0.5, abs=1e-15
        )

    def test_mean_variance_value(self):
        X = rv([1.0, -1.0])
        assert mean_variance_value(X) == pytest.approx(-0.5, abs=1e-15)

    def test_values_past_the_float_range_are_minus_infinity(self):
        # the squares overflow; the functionals are truly below -1e308 and
        # return -inf without a RuntimeWarning (which pytest turns into an
        # error here)
        X = rv([1e200, -1e200, 3e200])
        assert mean_variance_value(X) == -math.inf
        assert expected_quadratic_utility(X) == -math.inf
        assert expected_truncated_utility(X) == -math.inf


class TestMonotoneMeanVarianceValue:
    def test_foc_holds_at_reported_cash(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            X = rv(rng.uniform(-3.0, 4.0, size=n),
                   probs=DiscreteLaw.from_weights(rng.uniform(0.1, 1.0, n)).probabilities)
            got = monotone_mean_variance_value(X)
            shortfall = np.maximum(1.0 - X.values + got.cash_level, 0.0)
            residual = float(X.law.probabilities @ shortfall) - 1.0
            assert abs(residual) < 1e-12

    def test_against_zoom_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            X = rv(rng.uniform(-3.0, 4.0, size=n),
                   probs=DiscreteLaw.from_weights(rng.uniform(0.1, 1.0, n)).probabilities)
            got = monotone_mean_variance_value(X)
            ref_value, ref_cash = zoom_fmmv(X)
            assert got.value == pytest.approx(ref_value, abs=1e-9)
            assert got.cash_level == pytest.approx(ref_cash, abs=1e-5)

    def test_against_bisection_root(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            X = rv(rng.uniform(-3.0, 4.0, size=n),
                   probs=DiscreteLaw.from_weights(rng.uniform(0.1, 1.0, n)).probabilities)
            got = monotone_mean_variance_value(X)
            assert got.cash_level == pytest.approx(cash_level_bisection(X), abs=1e-10)

    def test_cash_invariance_and_dominance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            X = rv(rng.uniform(-3.0, 4.0, size=n))
            base = monotone_mean_variance_value(X)
            for c in (-2.0, 0.7, 5.0):
                shifted = monotone_mean_variance_value(X + c)
                assert shifted.value == pytest.approx(base.value + c, abs=1e-11)
                assert shifted.cash_level == pytest.approx(
                    base.cash_level + c, abs=1e-9
                )
            assert base.value >= mean_variance_value(X) - 1e-12

    def test_monotone_in_the_payoff(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            values = rng.uniform(-3.0, 4.0, size=n)
            bump = rng.uniform(0.0, 1.0, size=n)
            X = rv(values)
            Y = RandomVariable(X.law, values + bump)
            assert (
                monotone_mean_variance_value(Y).value
                >= monotone_mean_variance_value(X).value - 1e-12
            )

    def test_constant_law(self):
        got = monotone_mean_variance_value(rv([3.0, 3.0]))
        # the hull of a constant is the constant itself, attained at c = 3
        assert got.value == pytest.approx(3.0, abs=1e-12)
        assert got.cash_level == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the kink walk: argmin over [lo, hi] of sum w ((r - t g)^+)^2 - 2 h t

# a coarse grid, so draws tie kinks and hit zero increments
GRID = st.integers(-8, 8).map(lambda k: k / 4.0)
PAYOFFS = st.integers(-4, 12).map(lambda k: k / 4.0)
WEIGHTS = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


def walk_value(r, g, w, h, t):
    gap = np.maximum(r - t * g, 0.0)
    return math.fsum((w * gap * gap).tolist()) - 2.0 * h * t


def walk_scale(r, g, w, h, t):
    """Size of the terms of f at t, for tolerances."""
    size = np.abs(r) + abs(t) * np.abs(g)
    return 1.0 + math.fsum((w * size * size).tolist()) + 2.0 * abs(h * t)


def walk_slope(r, g, w, h, t):
    """-f'(t) / 2, nonincreasing in t."""
    return math.fsum((w * g * np.maximum(r - t * g, 0.0)).tolist()) + h


@st.composite
def walk_rows(draw):
    """A batch of rows padded with zero weight, and one (h, lo, hi)."""
    h = draw(st.sampled_from([0.0, 1.0]))
    lo = draw(st.sampled_from([-math.inf, -1.0, 0.0]))
    hi = draw(st.sampled_from([math.inf, 1.0, 2.5]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 7))
        r = draw(st.lists(GRID, min_size=m, max_size=m))
        g = draw(st.lists(GRID, min_size=m, max_size=m))
        w = draw(st.lists(WEIGHTS, min_size=m, max_size=m))
        # an unbounded side needs a term that grows there, or f has no
        # minimizer on it
        if lo == -math.inf:
            r.append(draw(GRID))
            g.append(draw(st.floats(0.25, 2.0)))
            w.append(draw(st.floats(0.05, 3.0)))
        if hi == math.inf:
            r.append(draw(GRID))
            g.append(-draw(st.floats(0.25, 2.0)))
            w.append(draw(st.floats(0.05, 3.0)))
        rows.append((r, g, w))
    width = max(len(r) for r, _, _ in rows)
    r, g, w = np.zeros((3, len(rows), width))
    r[:] = 1.0
    for k, (rk, gk, wk) in enumerate(rows):
        r[k, : len(rk)], g[k, : len(gk)], w[k, : len(wk)] = rk, gk, wk
    return r, g, w, h, lo, hi


def random_law(draw, m):
    weights = draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m))
    return DiscreteLaw.from_weights(weights).probabilities


def sweep_law(draw, m):
    """Probabilities of m atoms: equal, equal but for one atom, or drawn."""
    kind = draw(st.sampled_from(["equal", "all but one", "drawn"]))
    if kind == "equal":
        return DiscreteLaw.uniform(m).probabilities
    if kind == "all but one":
        weights = np.ones(m)
        weights[draw(st.integers(0, m - 1))] = draw(st.floats(0.05, 3.0))
        return DiscreteLaw.from_weights(weights).probabilities
    return random_law(draw, m)


class TestKinkWalk:
    @given(walk_rows())
    def test_first_order_conditions(self, case):
        r, g, w, h, lo, hi = case
        got = _kink_walk(r, g, w, h=h, lo=lo, hi=hi)
        assert got.shape == (r.shape[0],)
        for k, t in enumerate(got):
            args = (r[k], g[k], w[k], h)
            assert math.isfinite(t) and lo <= t <= hi
            slope = walk_slope(*args, t)
            tol = 1e-12 * walk_scale(*args, t)
            # -f'/2 vanishes inside, and points out of [lo, hi] at a bound
            if t > lo:
                assert slope >= -tol
            if t < hi:
                assert slope <= tol

    @given(st.data())
    def test_monotone_sharpe_cap_against_bisection(self, data):
        m = data.draw(st.integers(2, 8))
        x = np.array(data.draw(st.lists(PAYOFFS, min_size=m, max_size=m)))
        x[0] = -abs(x[0]) - 0.25
        X = RandomVariable(DiscreteLaw(random_law(data.draw, m)), x)
        assume(mean(X) > 1e-9)
        args = (1.0, X.values, X.law.probabilities, 0.0)
        t, ref = solve_alpha_hat(X), alpha_root_bisection(X)
        assert walk_value(*args, t) <= walk_value(*args, ref) + 1e-12 * walk_scale(
            *args, ref
        )

    @given(st.data())
    def test_hull_cash_level_against_bisection(self, data):
        m = data.draw(st.integers(1, 8))
        x = np.array(data.draw(st.lists(GRID, min_size=m, max_size=m)))
        X = RandomVariable(DiscreteLaw(random_law(data.draw, m)), x)
        args = (1.0 - X.values, -1.0, X.law.probabilities, 1.0)
        t = monotone_mean_variance_value(X).cash_level
        ref = cash_level_bisection(X)
        assert walk_value(*args, t) <= walk_value(*args, ref) + 1e-12 * walk_scale(
            *args, ref
        )

    @given(st.data())
    def test_line_search_against_the_crossing_walk(self, data):
        m = data.draw(st.integers(1, 8))
        p = random_law(data.draw, m)
        W = np.array(data.draw(st.lists(GRID, min_size=m, max_size=m)))
        g = np.array(data.draw(st.lists(GRID, min_size=m, max_size=m)))
        args = (1.0 - W, g, p, 0.0)
        t = float(_kink_walk(1.0 - W, g, p, lo=0.0, hi=1.0)[0])
        ref = _line_maximum(p, W, g)
        assert 0.0 <= t <= 1.0
        assert walk_value(*args, t) <= walk_value(*args, ref) + 1e-12 * walk_scale(
            *args, ref
        )

    @pytest.mark.parametrize("family", ["uniform", "heavy"])
    def test_large_laws(self, family):
        rng = np.random.default_rng(8000)
        n = 8000
        if family == "uniform":
            law, x = DiscreteLaw.uniform(n), rng.uniform(-2.0, 5.0, n)
        else:
            # normal body with a rare Pareto tail
            tail = rng.random(n) < 0.01
            x = np.where(tail, 20.0 * rng.pareto(1.2, n), rng.normal(0.3, 1.0, n))
            law = DiscreteLaw.from_weights(rng.uniform(0.5, 1.5, n))
        X = RandomVariable(law, x)
        alpha = solve_alpha_hat(X)
        assert alpha == pytest.approx(alpha_root_bisection(X), rel=1e-9)
        p = law.probabilities
        capped = np.minimum(alpha * x, 1.0)
        residual = math.fsum((p * capped).tolist()) - math.fsum((p * capped**2).tolist())
        assert abs(residual) <= 1e-10


# ---------------------------------------------------------------------------
# exact batched summation and the cap sweep built on it


def bits(values):
    """IEEE bit patterns: equal exactly when the floats are, sign of zero too."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def batched_fsum(rows):
    """_fsum_rows over the rows of a matrix, and the rows it handed back to
    math.fsum.

    Each row is padded with -0.0 terms, which leave its math.fsum alone, so
    that the matrix holds at least ``_FSUM_ROWS_FROM`` terms and the
    extraction sums it.
    """
    terms = np.array(rows, dtype=float)
    k, n = terms.shape
    padded = np.full((k, max(n, -(-_FSUM_ROWS_FROM // k))), -0.0)
    padded[:, :n] = terms
    with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
        sums = _fsum_rows(padded)
    return sums, [call.args[0][:n] for call in fsum.call_args_list]


def outcome(sums):
    """Bit patterns of the sums, or the type of the exception raised."""
    try:
        return bits(sums())
    except (ValueError, OverflowError) as exc:
        return type(exc)


def adversarial_rows(rng, count, width=8):
    """Rows built from ties, cancelling pairs, extreme and subnormal terms."""
    rows = []
    for _ in range(count):
        row = []
        while len(row) < width:
            kind = int(rng.integers(5))
            sign = float(rng.choice([-1.0, 1.0]))
            big = sign * math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-997, 997)))
            if kind == 0:  # a term and half its ulp, either way: a rounding tie
                row += [big, sign * float(rng.choice([-1.0, 1.0])) * math.ulp(big) / 2]
            elif kind == 1:  # exact cancellation
                row += [big, -big]
            elif kind == 2:  # magnitudes from about 1e-300 to 1e300
                row.append(big)
            elif kind == 3:  # subnormal
                row.append(sign * math.ldexp(float(rng.integers(1, 1 << 20)), -1074))
            else:
                row.append(sign * 0.0)
        row = row[:width]
        rng.shuffle(row)
        rows.append(row)
    return rows


# terms whose sums tie, cancel, underflow or pass the float range
POOL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 0.1, 0.2, 0.3, 1.0, -1.0,
        3.0, 1e16, -1e16, 1e308, -1e308, 1.7e308)


@st.composite
def sum_rows(draw):
    """A (k, n) array of terms for ``_fsum_rows``.

    Either one long row of n terms, n just below, at or well above the
    crossover ``_FSUM_ROWS_FROM``, or rows of 1, 2, 3 or 8 terms, a few of
    them or enough to fill the array just below, at or just past the
    crossover, or well past it.  The terms mix magnitudes with what the sum
    must hand on to math.fsum: ties, exact cancellation to 0, -0.0,
    subnormals, products past the float range, and up to two infinities,
    NaNs or other specials placed at random.
    """
    C = _FSUM_ROWS_FROM
    if draw(st.booleans()):
        k, n = 1, draw(st.sampled_from((C - 1, C, 4 * C)))
    else:
        n = draw(st.sampled_from((1, 2, 3, 8)))
        few = draw(st.integers(1, 100))
        k = draw(st.sampled_from((few, (C - 1) // n, -(-C // n), 4 * C // n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ("normal", "wide", "subnormal", "cancel", "zeros", "products", "pool")
    ))
    if kind == "normal":  # terms p x of a law, as a mean sums them
        t = rng.uniform(-2.0, 5.0, (k, n)) / n
    elif kind == "wide":  # magnitudes from about 1e-300 to 1e300
        t = np.ldexp(rng.uniform(-1.0, 1.0, (k, n)), rng.integers(-997, 997, (k, n)))
    elif kind == "subnormal":
        t = rng.integers(-(2**20), 2**20, (k, n)) * 5e-324
    elif kind == "cancel":  # rows of pairs that cancel exactly, sum 0
        half = np.ldexp(rng.uniform(-1.0, 1.0, (k, n // 2)),
                        rng.integers(-60, 60, (k, n // 2)))
        t = rng.permuted(np.concatenate([half, -half, np.zeros((k, n % 2))], axis=1),
                         axis=1)
    elif kind == "zeros":  # -0.0 terms, alone or among 0.0
        t = np.where(rng.random((k, n)) < draw(st.sampled_from((1.0, 0.5))), -0.0, 0.0)
    elif kind == "products":  # products p x, some past the float range
        with np.errstate(over="ignore"):
            t = rng.uniform(0.5, 4.0, (k, n)) * np.ldexp(rng.uniform(-1.0, 1.0, (k, n)),
                                                         1023)
    else:
        t = rng.choice(POOL, (k, n))
    for _ in range(draw(st.integers(0, 2))):
        special = draw(st.sampled_from((math.inf, -math.inf, math.nan, -0.0, 5e-324,
                                        1.7976931348623157e308)))
        t[draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))] = special
    return t


def fsum_outcome(sums, rows):
    """The bits of the sums, or the class and text of the exception."""
    try:
        return bits(sums(rows))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestFsumRows:
    def test_adversarial_rows_match_fsum(self):
        rows = adversarial_rows(np.random.default_rng(53), 20000)
        got, again = batched_fsum(rows)
        assert bits(got) == bits([math.fsum(r) for r in rows])
        assert 0 < len(again) < len(rows)

    def test_ties_zeros_and_subnormals(self):
        rows = [
            [1.0, 2.0**-53, 0.0],  # half-way between 1 and its successor
            [1.0, -(2.0**-54), 0.0],  # half-way between 1 and its predecessor
            [1.0, 2.0**-53, 2.0**-105],  # just above that tie
            [1e300, 1.0, -1e300],
            [1e300, 1e-300, -1e300],
            [-0.0, -0.0, -0.0],
            [0.0, -0.0, 0.0],
            [5e-324, 5e-324, -5e-324],
            [2.2250738585072014e-308, -5e-324, 0.0],
        ]
        got, again = batched_fsum(rows)
        assert bits(got) == bits([math.fsum(r) for r in rows])
        assert rows[0] in again and rows[1] in again

    def test_near_ties_round_below_a_power_of_two(self):
        # s + e rounds to 1.0 while the exact sums lie just below the
        # midpoint under 1: the gap toward zero and the error bound decide
        tie = [1.0, -(2.0**-54), -(2.0**-200)]
        near = [1.0, -(2.0**-54) + 2.0**-105] + [-0.99 * 2.0**-108] * 20
        rows = [tie + [0.0] * 19, near]
        got, again = batched_fsum(rows)
        assert bits(got) == bits([1.0 - 2.0**-53] * 2)
        assert again == rows

    def test_certifies_mean_like_rows(self):
        # terms p x of a uniform law: none is a near-tie, so none is summed
        # again (s + e can be an exact tie when the terms' last bits are
        # coarse next to the sum's, and math.fsum then decides)
        rows = np.random.default_rng(54).uniform(-2.0, 5.0, size=(500, 200)) / 200
        got, again = batched_fsum(rows)
        assert bits(got) == bits([math.fsum(r) for r in rows.tolist()])
        assert again == []

    @pytest.mark.parametrize(
        "row",
        [
            [math.inf, 1.0],
            [1.0, -math.inf],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [1e308, 1e308, -1e308],
            [1e308, -1e308, 1e308],
            [1.7976931348623157e308, 9.979201547673599e291],
        ],
    )
    def test_non_finite_rows_behave_as_fsum(self, row):
        assert outcome(lambda: batched_fsum([row])[0]) == outcome(
            lambda: [math.fsum(row)]
        )

    @given(
        st.integers(1, 8).flatmap(
            lambda width: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=width, max_size=width),
                min_size=1, max_size=6,
            )
        )
    )
    def test_any_finite_rows(self, rows):
        assert outcome(lambda: batched_fsum(rows)[0]) == outcome(
            lambda: [math.fsum(r) for r in rows]
        )

    def test_the_exact_sum_rule_has_one_home(self):
        # math.fsum is called where _fsum_rows decides how each sum is taken,
        # and by the bisection reference, which keeps its own sum; the
        # crossover is a constant of probability.py alone
        calls, constants = set(), []
        for path in sorted(Path(probability.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if (isinstance(node, ast.Attribute) and ast.unparse(node) == "math.fsum"
                            or isinstance(node, ast.alias) and node.name == "fsum"):
                        calls.add((path.name, getattr(top, "name", None)))
                    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                            and node.id.startswith("_FSUM")):
                        constants.append((path.name, node.id))
        assert sorted(calls) == [("probability.py", "_fsum_rows"),
                                 ("probability.py", "cash_level_bisection")]
        assert constants == [("probability.py", "_FSUM_ROWS_FROM")]


class TestFsum:
    @settings(max_examples=300)
    @given(sum_rows())
    def test_returns_the_bits_of_math_fsum(self, rows):
        want = fsum_outcome(lambda rows: [math.fsum(r) for r in rows.tolist()], rows)
        assert fsum_outcome(_fsum_rows, rows) == want
        if len(rows) == 1:  # and through the one-row sum
            assert fsum_outcome(lambda rows: [_fsum(rows[0])], rows) == want


def rows_summed_again(monkeypatch):
    """Make ``probability._fsum_rows`` record each row it hands back to
    math.fsum, by its index in the array it was given; return the record."""
    again = []

    def counted(rows):
        listed = rows.tolist()
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            sums = _fsum_rows(rows)
        again.extend(listed.index(call.args[0]) for call in fsum.call_args_list)
        return sums

    monkeypatch.setattr(probability, "_fsum_rows", counted)
    return again


class TestCappedSharpeRatios:
    @given(st.data())
    def test_matches_the_per_level_loop(self, data):
        pool = data.draw(st.lists(PAYOFFS, min_size=1, max_size=4))
        # a chunk of the exact pass holds 16384 // atoms levels: from 42
        # atoms on (22 with 769 grid points) the levels span several chunks
        m = data.draw(st.integers(1, 193))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        # far from 1 the squares of the unscaled atoms leave the float range
        shift = data.draw(st.sampled_from([0, 0, -600, 600, 1000, -1040]))
        x = np.ldexp(np.array(values), shift)
        X = RandomVariable(DiscreteLaw(sweep_law(data.draw, m)), x)
        top = max(float(x.max()), 0.0) or 1.0
        extra = data.draw(st.lists(st.sampled_from(pool + [0.0, -0.0]), max_size=4))
        grid = data.draw(st.sampled_from([400, 400, 769]))
        ranked = np.sort(x)
        levels = np.concatenate(
            [np.unique(x[x > 0.0]), np.linspace(top / grid, top, grid),
             np.ldexp(np.array(extra, dtype=float), shift),
             # atoms at a stride of 64, and their neighbours
             ranked[::64], ranked[63::64],
             np.nextafter(ranked[::64], -math.inf), np.nextafter(ranked[63::64], math.inf)]
        )
        want = [reference_sharpe_ratio(X.cap(level)) for level in levels]
        assert bits(_capped_sharpe_ratios(X, levels)) == bits(want)
        assert bits([sharpe_ratio(X)]) == bits([reference_sharpe_ratio(X)])

    @given(st.data())
    def test_order_of_atoms_and_levels_does_not_matter(self, data):
        m = data.draw(st.integers(1, 320))
        ties = data.draw(st.lists(PAYOFFS, min_size=1, max_size=3))
        cell = st.sampled_from(ties) | st.floats(-5.0, 5.0)
        shift = data.draw(st.sampled_from([0, 0, -600, 600, -1040]))
        x = np.ldexp(np.array(data.draw(st.lists(cell, min_size=m, max_size=m))), shift)
        p = sweep_law(data.draw, m)
        X = RandomVariable(DiscreteLaw(p), x)
        lo, hi = float(x.min()), float(x.max())
        top = max(hi, 0.0) or 1.0
        levels = np.concatenate([
            x, x[: data.draw(st.integers(0, m))],  # every atom, some twice
            np.linspace(top / 40, top, 40),
            [0.0, -0.0, 0.0, lo, hi, lo - abs(lo) - 1.0, hi + abs(hi) + 1.0,
             np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)],
        ])
        want = _capped_sharpe_ratios(X, levels)
        assert bits(want) == bits([reference_sharpe_ratio(X.cap(level)) for level in levels])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        atoms, order = rng.permutation(m), rng.permutation(levels.size)
        Y = RandomVariable(DiscreteLaw(p[atoms]), x[atoms])
        assert bits(_capped_sharpe_ratios(Y, levels[order])) == bits(want[order])

    def test_levels_far_below_the_largest_atom(self):
        # capped at 2^-995, the payoff's squares underflow unless it is
        # scaled by its own largest value, level by level
        x = np.array([2.0**-1000, 3 * 2.0**-998, 2.0**-990, 0.75, 1.0])
        X = RandomVariable(DiscreteLaw.from_weights([1.0, 2.0, 1.0, 3.0, 1.0]), x)
        levels = np.concatenate([x, np.ldexp(1.0, np.arange(-1001, 1, 7))])
        want = [reference_sharpe_ratio(X.cap(level)) for level in levels]
        assert bits(_capped_sharpe_ratios(X, levels)) == bits(want)

    def test_a_mean_crossing_zero_is_summed_again(self, monkeypatch):
        # min(X, K) has mean (K - 2) / 3 on [1, 5]: zero at the level 2, where
        # no error bound separates the sum from 0, so math.fsum decides
        X = RandomVariable(DiscreteLaw.uniform(3), np.array([-3.0, 1.0, 5.0]))
        # sorted, as the sweep sums them: row i is levels[i]
        levels = np.unique(np.concatenate([np.linspace(5 / 400, 5.0, 400), [2.0]]))
        want = [reference_sharpe_ratio(X.cap(level)) for level in levels]
        again = rows_summed_again(monkeypatch)
        assert bits(_capped_sharpe_ratios(X, levels)) == bits(want)
        assert 2.0 in levels[again]

    @pytest.mark.parametrize("family", ["uniform", "heavy"])
    def test_memory_is_that_of_a_block(self, family):
        # an atoms x levels matrix of these laws would take about 100 MB
        rng = np.random.default_rng(55)
        if family == "uniform":  # equal probabilities
            x = rng.uniform(-2.0, 5.0, 4000)
            law, top = DiscreteLaw.uniform(x.size), 5.0
        else:  # a normal body with a 1% Pareto tail, unequal probabilities
            tail = rng.random(4000) < 0.01
            x = np.where(tail, 20.0 * rng.pareto(1.2, 4000), rng.normal(0.3, 1.0, 4000))
            law, top = DiscreteLaw.from_weights(rng.uniform(0.5, 1.5, 4000)), float(x.max())
        X = RandomVariable(law, x)
        levels = np.unique(np.concatenate([x[x > 0.0], np.linspace(top / 400, top, 400)]))
        assert levels.size > (3000 if family == "uniform" else 2800)
        tracemalloc.start()
        try:
            _capped_sharpe_ratios(X, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_memory_stays_below_a_megabyte(self):
        # 2 000 levels x 8 000 atoms is 128 MB of terms; a chunk is 128 KB
        rng = np.random.default_rng(56)
        x = rng.uniform(-2.0, 5.0, 8000)
        X = RandomVariable(DiscreteLaw.from_weights(rng.uniform(0.5, 1.5, x.size)), x)
        levels = np.linspace(-2.0, 5.0, 2000)
        tracemalloc.start()
        try:
            _capped_sharpe_ratios(X, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("atoms, levels", [
        # a chunk holds 16384 // atoms levels: 128, 127 and 129 here, and one
        # level, wider than a chunk, from 16 385 atoms on
        (128, 127), (128, 128), (128, 129), (128, 257), (129, 254), (127, 130),
        (16385, 3),
    ])
    def test_levels_straddling_chunk_boundaries(self, atoms, levels):
        rng = np.random.default_rng(atoms + levels)
        x = rng.uniform(-2.0, 5.0, atoms)
        for law in (DiscreteLaw.uniform(atoms), DiscreteLaw.from_weights(rng.uniform(0.5, 1.5, atoms))):
            X = RandomVariable(law, x)
            grid = rng.permutation(np.concatenate([x, np.linspace(-3.0, 6.0, levels)]))[:levels]
            want = [reference_sharpe_ratio(X.cap(level)) for level in grid]
            assert bits(_capped_sharpe_ratios(X, grid)) == bits(want)

    @pytest.mark.parametrize("equal", [True, False])
    def test_a_large_offset_is_summed_without_fsum(self, monkeypatch, equal):
        # the variance of min(X, K) is 1e-17 of its second moment; each row
        # is bounded by its own largest term, so math.fsum sums almost none
        rng = np.random.default_rng(9)
        x = 1e8 + rng.uniform(0.0, 1.0, 2000)
        law = DiscreteLaw.uniform(x.size) if equal else DiscreteLaw.from_weights(
            rng.uniform(0.5, 1.5, x.size))
        X = RandomVariable(law, x)
        levels = sweep_levels(x)
        levels = levels[np.isnan(_capped_sharpe_bounds(X, levels)[0])]
        assert levels.size > 1900  # the levels the bounds leave to this pass
        want = [reference_sharpe_ratio(X.cap(level)) for level in levels]
        again = rows_summed_again(monkeypatch)
        assert bits(_capped_sharpe_ratios(X, levels)) == bits(want)
        assert len(again) <= 0.01 * 2 * levels.size  # a mean and a variance row each

    def test_the_sharpe_ratio_has_one_home(self, monkeypatch, tmp_path):
        # every Sharpe ratio of the package is a row of the dense pass
        calls = []

        def counted(X, levels):
            calls.append(len(levels))
            return kernel(X, levels)

        kernel = probability._capped_sharpe_ratios
        monkeypatch.setattr(probability, "_capped_sharpe_ratios", counted)
        monkeypatch.setattr(importlib.import_module("mmvport.monotone_sharpe"),
                            "_capped_sharpe_ratios", counted)
        X = rv([-1.0, 0.5, 2.0, 4.0])
        sharpe_ratio(X)
        assert calls == [1]
        calls.clear()
        monotone_sharpe(X)
        assert calls == [1]
        calls.clear()
        monotone_sharpe(rv([0.0, 1.0, 2.0]))  # no downside: no ratio to take
        assert calls == []
        law = tmp_path / "law.csv"
        law.write_text("-1\n0.5\n2\n4\n", encoding="utf-8")
        assert cli.main(["msharpe", str(law)]) == 0
        assert calls == [1, 1]
        gone = {"_scaled_sharpe_ratio", "_with_sharpe_ratio", "_monotone_sharpe",
                "_variance_about"}
        for path in Path(probability.__file__).parent.glob("*.py"):
            name = "mmvport" if path.stem == "__init__" else f"mmvport.{path.stem}"
            assert not gone & set(vars(importlib.import_module(name))), name


def certified_against_the_kernel(X, levels):
    """Check the bounds of every level against the kernel; return the levels
    left to it.

    Every decided level's bounds hold the kernel's float, and every text
    the bounds certify is the kernel's text.
    """
    levels = np.asarray(levels, dtype=float)
    lo, hi = _capped_sharpe_bounds(X, levels)
    want = _capped_sharpe_ratios(X, levels)
    decided = ~np.isnan(lo)
    assert np.array_equal(decided, ~np.isnan(hi))
    assert np.all(lo[decided] <= want[decided]) and np.all(want[decided] <= hi[decided])
    texts, exact = _certified_texts(lo, hi)
    kept = sorted(set(range(levels.size)) - set(exact))
    want = _sig_texts(want.tolist())
    assert [texts[i] for i in kept] == [want[i] for i in kept]
    return exact


def sweep_levels(x):
    """The CLI's levels: the positive atoms and a 400-point grid up to max X."""
    top = max(float(x.max()), 0.0) or 1.0
    grid = np.linspace(top / 400, top, 400)
    return np.unique(np.concatenate([x[x > 0.0], grid[grid > 0.0]]))


class TestCappedSharpeBounds:
    @given(st.data())
    def test_certified_texts_are_the_kernels(self, data):
        # the draws of TestCappedSharpeRatios, with float-valued payoffs too
        pool = data.draw(st.lists(PAYOFFS, min_size=1, max_size=4))
        cell = st.sampled_from(pool) | st.floats(-5.0, 5.0)
        m = data.draw(st.integers(1, 193))
        values = data.draw(st.lists(cell, min_size=m, max_size=m))
        shift = data.draw(st.sampled_from([0, 0, -600, 600, 1000, -1040]))
        x = np.ldexp(np.array(values), shift)
        X = RandomVariable(DiscreteLaw(sweep_law(data.draw, m)), x)
        extra = data.draw(st.lists(st.sampled_from(pool + [0.0, -0.0]), max_size=4))
        ranked = np.sort(x)
        levels = np.concatenate(
            [sweep_levels(x), np.ldexp(np.array(extra, dtype=float), shift),
             ranked[::64], ranked[63::64],
             np.nextafter(ranked[::64], -math.inf), np.nextafter(ranked[63::64], math.inf)]
        )
        certified_against_the_kernel(X, levels)

    def test_levels_far_below_the_largest_atom(self):
        x = np.array([2.0**-1000, 3 * 2.0**-998, 2.0**-990, 0.75, 1.0])
        X = RandomVariable(DiscreteLaw.from_weights([1.0, 2.0, 1.0, 3.0, 1.0]), x)
        levels = np.concatenate([x, np.ldexp(1.0, np.arange(-1001, 1, 7))])
        certified_against_the_kernel(X, levels)

    def test_a_mean_crossing_zero_is_left_to_the_kernel(self):
        X = RandomVariable(DiscreteLaw.uniform(3), np.array([-3.0, 1.0, 5.0]))
        levels = np.unique(np.concatenate([np.linspace(5 / 400, 5.0, 400), [2.0]]))
        exact = certified_against_the_kernel(X, levels)
        assert np.flatnonzero(levels == 2.0).tolist()[0] in exact

    @pytest.mark.parametrize("value", [3.0, -2.5, 0.0, 1e300])
    def test_a_constant_law_is_decided_exactly(self, value):
        X = rv(np.full(5, value))
        levels = np.concatenate([sweep_levels(X.values), [-1.0, value, 2 * value + 1.0]])
        assert certified_against_the_kernel(X, levels) == []

    def test_two_atoms(self):
        X = RandomVariable(DiscreteLaw.from_weights([1.0, 3.0]), np.array([-1.0, 2.0]))
        levels = np.concatenate([sweep_levels(X.values), [-1.0, np.nextafter(-1.0, 0.0)]])
        assert len(certified_against_the_kernel(X, levels)) < levels.size // 20

    def test_grid_levels_just_above_the_smallest_atom(self):
        # min(X, K) for K a little above 100 varies by little: small variances
        x = 100.0 + np.random.default_rng(8).uniform(0.0, 1.0, 300)
        X = rv(x)
        levels = np.concatenate([
            sweep_levels(x), np.nextafter(x.min(), math.inf) + np.ldexp(1.0, -np.arange(0, 40)),
        ])
        certified_against_the_kernel(X, levels)

    def test_a_large_offset_leaves_most_levels_to_the_kernel(self):
        # the variance is 1e-17 of the second moment: the bounds cannot see it
        x = 1e8 + np.random.default_rng(9).uniform(0.0, 1.0, 500)
        X = rv(x)
        levels = sweep_levels(x)
        exact = certified_against_the_kernel(X, levels)
        assert len(exact) > (levels > x.min()).sum() // 2
