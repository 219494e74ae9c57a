import hashlib
import math

import numpy as np
import pytest

from mmvport import (
    DiscreteLaw,
    DomainError,
    NoDownside,
    NonpositiveMean,
    RandomVariable,
    monotone_sharpe,
    oracle_grid_sr,
    sharpe_ratio,
    solve_alpha_hat,
    sr_to_value,
    value_to_sr,
)
from mmvport.monotone_sharpe import (
    CASE_NO_DOWNSIDE,
    CASE_STANDARD,
    alpha_root_bisection,
)


def rv(values, probs=None):
    values = np.asarray(values, dtype=float)
    law = DiscreteLaw(probs) if probs is not None else DiscreteLaw.uniform(values.size)
    return RandomVariable(law, values)


def random_standard_law(rng):
    while True:
        n = int(rng.integers(2, 9))
        values = rng.uniform(-2.0, 5.0, size=n)
        values[0] = -abs(values[0]) - 0.05
        probs = rng.uniform(0.05, 1.0, size=n)
        probs /= probs.sum()
        if float(probs @ values) > 1e-6:
            return RandomVariable(DiscreteLaw(probs), values)


class TestAlphaHat:
    def test_trinomial_exact(self, trinomial_law):
        assert solve_alpha_hat(trinomial_law) == pytest.approx(7.0 / 9.0, abs=1e-15)

    def test_first_order_condition_at_root(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            X = random_standard_law(rng)
            alpha = solve_alpha_hat(X)
            capped = np.minimum(alpha * X.values, 1.0)
            p = X.law.probabilities
            assert abs(float(p @ capped) - float(p @ capped**2)) < 1e-12

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            X = random_standard_law(rng)
            assert solve_alpha_hat(X) == pytest.approx(
                alpha_root_bisection(X), abs=1e-9
            )

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(NonpositiveMean):
            solve_alpha_hat(rv([-1.0, 0.5]))


class TestMonotoneSharpe:
    @pytest.mark.parametrize("shift", [-600, 600])
    def test_power_of_two_scaling_is_exact(self, shift):
        # squares of the scaled atoms leave the float range; the results
        # must not notice
        rng = np.random.default_rng(24)
        for _ in range(20):
            X = random_standard_law(rng)
            Y = RandomVariable(X.law, np.ldexp(X.values, shift))
            want, got = monotone_sharpe(X), monotone_sharpe(Y)
            assert sharpe_ratio(Y) == sharpe_ratio(X)
            assert got.sr_m == want.sr_m
            assert got.alpha_hat == math.ldexp(want.alpha_hat, -shift)
            assert got.truncation_level == math.ldexp(want.truncation_level, shift)
            assert solve_alpha_hat(Y) == got.alpha_hat

    def test_trinomial_golden(self, trinomial_law):
        res = monotone_sharpe(trinomial_law)
        assert res.case_tag == CASE_STANDARD
        assert res.alpha_hat == pytest.approx(7.0 / 9.0, abs=1e-14)
        assert res.truncation_level == pytest.approx(9.0 / 7.0, abs=1e-14)
        assert res.sr_m == pytest.approx(math.sqrt(29.0) / 4.0, abs=1e-14)

    def test_equals_capped_sharpe(self, trinomial_law):
        res = monotone_sharpe(trinomial_law)
        assert res.sr_m == pytest.approx(
            sharpe_ratio(trinomial_law.cap(res.truncation_level)), abs=1e-15
        )

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            X = random_standard_law(rng)
            res = monotone_sharpe(X)
            assert res.sr_m == pytest.approx(oracle_grid_sr(X), abs=2e-3)

    def test_grid_oracle_without_a_positive_atom_is_the_sharpe_ratio(self):
        # no cap below max X <= 0 changes the payoff
        for values in ([-1.0, 0.0], [-3.0, -0.5, -2.0]):
            X = rv(values)
            assert oracle_grid_sr(X) == sharpe_ratio(X)

    def test_dominates_plain_sharpe(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            X = random_standard_law(rng)
            assert monotone_sharpe(X).sr_m >= sharpe_ratio(X) - 1e-12

    def test_scale_invariant(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            X = random_standard_law(rng)
            base = monotone_sharpe(X)
            for scale in (0.25, 8.0):
                scaled = monotone_sharpe(scale * X)
                assert scaled.sr_m == pytest.approx(base.sr_m, abs=1e-10)
                assert scaled.alpha_hat == pytest.approx(
                    base.alpha_hat / scale, rel=1e-10
                )

    def test_no_downside_conventions(self):
        res = monotone_sharpe(rv([2.0, 3.0]))
        assert res.sr_m == math.inf and res.case_tag == CASE_NO_DOWNSIDE
        assert res.alpha_hat is None and res.truncation_level is None

        res = monotone_sharpe(rv([0.0, 1.0, 4.0], probs=np.array([0.25, 0.5, 0.25])))
        assert res.sr_m == pytest.approx(math.sqrt(0.75 / 0.25), abs=1e-14)

        res = monotone_sharpe(rv([0.0, 0.0]))
        assert res.sr_m == 0.0 and res.case_tag == CASE_NO_DOWNSIDE

    def test_nonpositive_mean_refused(self):
        with pytest.raises(NonpositiveMean):
            monotone_sharpe(rv([-2.0, 1.0]))

    def test_a_downside_the_scaling_takes_to_zero_is_refused(self):
        # X / 2 rounds -5e-324 to -0.0: the cap is sought on the scaled law,
        # which has no downside left
        with pytest.raises(NoDownside):
            monotone_sharpe(rv([-5e-324, 1.0]))

    def test_edge_laws_are_pinned(self):
        # (monotone_sharpe(X), sharpe_ratio(X)), or the refusal, on drawn
        # laws and on edges: no downside, near the top of the float range,
        # 3 000 atoms, a nonpositive mean and a downside the scaling takes
        # to -0; recorded while the Sharpe ratio had a per-payoff path
        rng = np.random.default_rng(26)
        laws = [random_standard_law(rng) for _ in range(20)]
        laws += [rv([2.0, 3.0]), rv([0.0, 1.0, 4.0]), rv([1e300, -1e300, 3e300]),
                 rv(rng.normal(0.3, 1.0, 3000)), rv([-2.0, 1.0]), rv([-5e-324, 1.0])]
        h = hashlib.sha256()
        for X in laws:
            try:
                text = repr((monotone_sharpe(X), sharpe_ratio(X)))
            except DomainError as exc:
                text = f"{type(exc).__name__}: {exc}"
            h.update(text.encode() + b"\n")
        assert h.hexdigest() == (
            "2e56c77e66e376bf4c82ce5b15306c4fbd13edcd2e7790fcaa722f4608e68a1e"
        )


class TestNormalizationMaps:
    def test_round_trip(self):
        for s in (0.0, 0.3, 1.0, 7.5):
            assert value_to_sr(sr_to_value(s)) == pytest.approx(s, abs=1e-12)
        assert sr_to_value(math.inf) == 0.5
        assert value_to_sr(0.5) == math.inf
        assert sr_to_value(0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            value_to_sr(-0.01)
        with pytest.raises(DomainError):
            value_to_sr(0.51)

    def test_even_in_the_ratio(self):
        assert sr_to_value(-0.8) == pytest.approx(sr_to_value(0.8), abs=1e-15)
