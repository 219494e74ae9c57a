"""Primal optimizers: quadratic utility, its truncated hull, and the
mean-variance-improving allocation built from them."""

import dataclasses

import numpy as np
import pytest

from mmvport import (
    DimensionMismatch,
    SolverFailure,
    Strategy,
    analyze,
    cash_level_residual,
    generate_random_market,
    mmv_allocation,
    optimal_quadratic,
    optimal_truncated,
    terminal_wealth,
    verify_remark_foc,
)
from mmvport.primal import _allocation_from_hull
from mmvport.probability import truncated_utility

from conftest import small_tree
from oracles import (
    damped_newton_truncated,
    gain_matrix,
    scipy_quadratic_value,
    wealth_by_paths,
)


def quadratic_gradient(tree, solution):
    """E[(1 - W) * gain] for every traded (node, asset) coordinate."""
    p = tree.leaf_probabilities
    B = gain_matrix(tree)
    w = solution.payoff.values
    return B.T @ (p * (1.0 - w))


class TestQuadratic:
    def test_golden_strategies(self, trinomial, binomial):
        tri = optimal_quadratic(trinomial, 0.0)
        assert tri.strategy.vector == pytest.approx([17 / 109], abs=1e-10)
        assert tri.value == pytest.approx(289 / 2180, abs=1e-12)
        bin_ = optimal_quadratic(binomial, 0.0)
        assert bin_.strategy.vector == pytest.approx([0.4], abs=1e-12)
        assert bin_.value == pytest.approx(0.05, abs=1e-12)

    def test_first_order_conditions(self):
        for seed in range(30):
            tree = small_tree(seed)
            sol = optimal_quadratic(tree, 0.0)
            assert np.max(np.abs(quadratic_gradient(tree, sol))) < 1e-9

    def test_gradient_matches_finite_differences(self):
        tree = small_tree(3)
        sol = optimal_quadratic(tree, 0.0)
        p = tree.leaf_probabilities
        B = gain_matrix(tree)
        theta = sol.strategy.vector.copy()

        def objective(vec):
            w = B @ vec
            return float(p @ (w - 0.5 * w * w))

        base = objective(theta)
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = 1e-6
            fd = (objective(theta + step) - objective(theta - step)) / 2e-6
            assert abs(fd) < 1e-5  # flat at the optimum

    def test_matches_scipy(self):
        for seed in range(20):
            tree = small_tree(seed)
            ours = optimal_quadratic(tree, 0.0).value
            ref = scipy_quadratic_value(tree, 0.0)
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_value_from_shifted_wealth(self):
        tree = small_tree(4)
        for x in (-1.0, 0.3, 0.9):
            sol = optimal_quadratic(tree, x)
            w = terminal_wealth(tree, sol.strategy, x)
            direct = float(
                tree.leaf_probabilities @ (w.values - 0.5 * w.values**2)
            )
            assert sol.value == pytest.approx(direct, abs=1e-12)

    def test_bliss_wealth_needs_no_trading(self):
        tree = small_tree(2)
        sol = optimal_quadratic(tree, 1.0)
        assert np.max(np.abs(sol.strategy.vector)) < 1e-9
        assert sol.value == pytest.approx(0.5, abs=1e-12)


class TestTruncated:
    def test_golden_strategies(self, trinomial, binomial):
        tri = optimal_truncated(trinomial, 0.0)
        assert tri.strategy.vector == pytest.approx([7 / 9], abs=1e-9)
        assert tri.value == pytest.approx(29 / 90, abs=1e-10)
        bin_ = optimal_truncated(binomial, 0.0)
        assert bin_.strategy.vector == pytest.approx([0.4], abs=1e-9)
        assert bin_.value == pytest.approx(0.05, abs=1e-12)

    def test_matches_damped_newton(self):
        for seed in range(25):
            tree = small_tree(seed)
            ours = optimal_truncated(tree, 0.0).value
            ref = damped_newton_truncated(tree, 0.0)
            assert ours >= ref - 1e-7
            assert ours == pytest.approx(ref, abs=1e-7)

    def test_value_is_capped_expected_utility(self):
        for seed in range(15):
            tree = small_tree(seed)
            sol = optimal_truncated(tree, 0.0)
            w = np.minimum(sol.payoff.values, 1.0)
            direct = float(tree.leaf_probabilities @ (w - 0.5 * w * w))
            assert sol.value == pytest.approx(direct, abs=1e-12)

    def test_dominates_quadratic_value(self):
        for seed in range(15):
            tree = small_tree(seed)
            quad = optimal_quadratic(tree, 0.0).value
            hull = optimal_truncated(tree, 0.0).value
            assert hull >= quad - 1e-12
            assert hull < 0.5

    def test_past_bliss_no_trading(self, trinomial):
        for x in (1.0, 1.7):
            sol = optimal_truncated(trinomial, x)
            assert np.max(np.abs(sol.strategy.vector)) < 1e-12
            assert sol.value == pytest.approx(0.5, abs=1e-12)

    def test_flat_market_value_is_utility_of_wealth(self, flat_tree):
        for x in (0.0, 0.25):
            sol = optimal_truncated(flat_tree, x)
            assert sol.value == pytest.approx(truncated_utility(x), abs=1e-12)
            assert np.max(np.abs(sol.strategy.vector)) < 1e-9


class TestMmvAllocation:
    def test_golden_trinomial(self, trinomial):
        alloc = mmv_allocation(trinomial, 0.0)
        lam = 45 / 16
        assert alloc.leverage == pytest.approx(lam, abs=1e-9)
        assert alloc.strategy.vector == pytest.approx([lam * 7 / 9], abs=1e-8)
        assert alloc.value == pytest.approx((lam - 1) / 2, abs=1e-9)
        assert alloc.cash_level == pytest.approx(lam - 1, abs=1e-9)
        assert alloc.hull_value == pytest.approx(29 / 90, abs=1e-10)
        assert cash_level_residual(alloc) < 1e-10
        assert verify_remark_foc(trinomial, alloc) is True

    def test_cash_level_condition_random(self):
        for seed in range(20):
            tree = small_tree(seed)
            alloc = mmv_allocation(tree, 0.0)
            assert cash_level_residual(alloc) < 1e-8
            assert verify_remark_foc(tree, alloc) is True

    def test_foc_check_rejects_mismatched_tree(self):
        first, second = small_tree(0), small_tree(3)
        alloc = mmv_allocation(first, 0.0)
        with pytest.raises(DimensionMismatch):
            verify_remark_foc(second, alloc)

    def test_foc_check_rejects_a_payoff_earned_on_another_tree(self):
        # the holdings moved to a tree of the same shape, the payoff still
        # the one they earned on the tree they were built on
        first, second = small_tree(0), small_tree(6)
        alloc = mmv_allocation(first, 0.0)
        moved = dataclasses.replace(
            alloc, strategy=Strategy.from_vector(second, alloc.strategy.vector)
        )
        moved.__dict__["payoff"] = alloc.payoff  # as a first read caches it
        with pytest.raises(DimensionMismatch, match="not the terminal wealth"):
            verify_remark_foc(second, moved)

    def test_hull_at_the_bliss_bound_is_refused(self, trinomial):
        hull = dataclasses.replace(optimal_truncated(trinomial, 0.0), value=0.5)
        with pytest.raises(SolverFailure, match="bliss bound"):
            _allocation_from_hull(trinomial, hull, 0.0)

    def test_strategy_independent_of_wealth(self):
        tree = small_tree(9)
        base = mmv_allocation(tree, 0.0)
        for x in (-2.0, 0.5, 1.0, 3.0):
            alloc = mmv_allocation(tree, x)
            assert alloc.strategy.vector == pytest.approx(
                base.strategy.vector, abs=1e-12
            )
            assert alloc.value == pytest.approx(
                x + 0.5 * (base.leverage - 1.0), abs=1e-12
            )
            assert alloc.cash_level == pytest.approx(
                x + base.leverage - 1.0, abs=1e-12
            )

    def test_hull_scaling_in_wealth(self):
        tree = small_tree(10)
        base = mmv_allocation(tree, 0.0)
        v0 = base.hull_value
        for x in (-1.0, 0.5, 2.0):
            alloc = mmv_allocation(tree, x)
            scale = max(1.0 - x, 0.0)
            assert alloc.hull_strategy.vector == pytest.approx(
                scale * base.hull_strategy.vector, abs=1e-12
            )
            assert alloc.hull_value == pytest.approx(
                0.5 + scale * scale * (v0 - 0.5), abs=1e-12
            )

    def test_payoff_is_wealth_of_strategy(self):
        tree = small_tree(11)
        alloc = mmv_allocation(tree, 0.7)
        ref = wealth_by_paths(tree, alloc.strategy, 0.7)
        assert np.allclose(alloc.payoff.values, ref, atol=1e-12)


def test_analyze_allocation_matches_mmv_allocation():
    for seed in range(6):
        tree = small_tree(seed)
        ours = analyze(tree).allocation
        ref = mmv_allocation(tree, 0.0)
        assert np.array_equal(ours.strategy.vector, ref.strategy.vector)
        assert np.array_equal(ours.hull_strategy.vector, ref.hull_strategy.vector)
        assert (ours.value, ours.cash_level, ours.hull_value, ours.leverage) == (
            ref.value, ref.cash_level, ref.hull_value, ref.leverage
        )


def test_linalg_error_becomes_solver_failure(monkeypatch):
    # a several-asset node whose quadratic step overshoots bliss runs the
    # clip-set iteration, whose local fit is a least-squares solve; on this
    # complete tree only that fit zeroes rows, those of capped children
    pinv = np.linalg.pinv

    def broken(a, *args, **kwargs):
        if np.any(np.all(a == 0.0, axis=-1)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv(a, *args, **kwargs)

    tree = generate_random_market(seed=1389, periods=3, branching=4, assets=2)
    monkeypatch.setattr(np.linalg, "pinv", broken)
    with pytest.raises(SolverFailure, match="least-squares"):
        optimal_truncated(tree, 0.0)
