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
from mmvport.probability import (
    _capped_sharpe_ratios,
    _fsum_rows,
    _kink_walk,
    cash_level_bisection,
)

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


# ---------------------------------------------------------------------------
# exact batched summation and the cap sweep built on it


def bits(values):
    """IEEE bit patterns: equal exactly when the floats are, sign of zero too."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def batched_fsum(rows):
    """_fsum_rows over the rows of a matrix, and the rows it summed again."""
    terms = np.array(rows, dtype=float)
    again = []

    def row_terms(i):
        again.append(i)
        return terms[i].tolist()

    return _fsum_rows(iter(terms.T), terms.shape[0], row_terms), again


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
        assert 0 in again and 1 in again

    def test_near_ties_round_below_a_power_of_two(self):
        # s + e rounds to 1.0 while the exact sums lie just below the
        # midpoint under 1: the gap toward zero and the error bound decide
        tie = [1.0, -(2.0**-54), -(2.0**-200)]
        near = [1.0, -(2.0**-54) + 2.0**-105] + [-0.99 * 2.0**-108] * 20
        got, again = batched_fsum([tie + [0.0] * 19, near])
        assert bits(got) == bits([1.0 - 2.0**-53] * 2)
        assert again == [0, 1]

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


class TestCappedSharpeRatios:
    @given(st.data())
    def test_matches_the_per_level_loop(self, data):
        pool = data.draw(st.lists(PAYOFFS, min_size=1, max_size=4))
        m = data.draw(st.integers(1, 12))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        # far from 1 the squares of the unscaled atoms leave the float range
        shift = data.draw(st.sampled_from([0, 0, -600, 600, 1000, -1040]))
        x = np.ldexp(np.array(values), shift)
        X = RandomVariable(DiscreteLaw(random_law(data.draw, m)), x)
        top = max(float(x.max()), 0.0) or 1.0
        extra = data.draw(st.lists(st.sampled_from(pool + [0.0, -0.0]), max_size=4))
        levels = np.concatenate(
            [np.unique(x[x > 0.0]), np.linspace(top / 400, top, 400),
             np.ldexp(np.array(extra, dtype=float), shift)]
        )
        want = [sharpe_ratio(X.cap(level)) for level in levels]
        assert bits(_capped_sharpe_ratios(X, levels)) == bits(want)

    def test_levels_far_below_the_largest_atom(self):
        # capped at 2^-995, the payoff's squares underflow unless it is
        # scaled by its own largest value, level by level
        x = np.array([2.0**-1000, 3 * 2.0**-998, 2.0**-990, 0.75, 1.0])
        X = RandomVariable(DiscreteLaw.from_weights([1.0, 2.0, 1.0, 3.0, 1.0]), x)
        levels = np.concatenate([x, np.ldexp(1.0, np.arange(-1001, 1, 7))])
        want = [sharpe_ratio(X.cap(level)) for level in levels]
        assert bits(_capped_sharpe_ratios(X, levels)) == bits(want)
