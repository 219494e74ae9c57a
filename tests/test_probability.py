import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
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
from mmvport.monotone_sharpe import alpha_root_bisection, solve_alpha_hat
from mmvport.probability import _kink_walk, cash_level_bisection

from oracles import _line_maximum, zoom_fmmv


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
