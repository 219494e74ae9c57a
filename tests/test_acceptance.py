"""Acceptance battery: seven numbered criteria, one test each.

Run ``pytest tests/test_acceptance.py -v`` to get one PASSED/FAILED line
per criterion.  Every criterion is implemented here directly against the
public package API (plus the independent oracles in ``oracles.py``) so a
regression in the library cannot hide behind a regression in the packaged
selftest; the final test cross-checks that the packaged selftest agrees.

Criteria, tolerances and runtime budgets:

1. golden trinomial chain      abs 1e-6   < 1 s
2. binomial complete market    abs 1e-8   < 1 s
3. strong duality (200 trees)  abs 1e-8   < 30 s
4. dichotomy (500 trees)       gap 1e-7   < 60 s
5. monotone Sharpe vs oracle   abs 2e-3   < 30 s
6. scaling identities          abs 1e-8   < 30 s
7. normalization bridge        abs 1e-9   < 30 s
"""

import math
import time

import numpy as np
import pytest

from mmvport import (
    DiscreteLaw,
    RandomVariable,
    analyze,
    cash_level_residual,
    generate_random_market,
    load_packaged_market,
    mean_variance_value,
    monotone_mean_variance_value,
    monotone_sharpe,
    mmv_allocation,
    optimal_quadratic,
    optimal_truncated,
    run_selftest,
    sharpe_ratio,
    sr_to_value,
    terminal_wealth,
    value_to_sr,
    verify_fcfs_certificate,
    verify_remark_foc,
)

from oracles import gain_matrix, golden_max

# ---------------------------------------------------------------------------
# frozen golden values (exact fractions worked by hand and reproduced by the
# independent oracles in oracles.py before being pinned here)

TRI_U = 289 / 2180
TRI_U_M = 29 / 90
TRI_U_MV = 289 / 1602
TRI_U_MMV = 29 / 32
TRI_C_HAT = 29 / 16
TRI_ALPHA = 7 / 9
TRI_SR = math.sqrt(289 / 801)
TRI_SR_M = math.sqrt(29) / 4
TRI_Z_SIGNED = (-610 / 801, 920 / 801, 1260 / 801)
TRI_A_SIGNED = 1090 / 801
TRI_Z_NONNEG = (0.0, 0.625, 5.0)
TRI_A_NONNEG = 45 / 16
TRI_FCFS = (0.0, 2 / 9, 16 / 9)
TRI_LEVERAGE = 45 / 16

BIN_Z = (2 / 3, 4 / 3)
BIN_U = 0.05
BIN_U_MV = 1 / 18
BIN_SR = 1 / 3
BIN_C_HAT = 1 / 9

GAP_TOL = 1e-7


def suite_tree(index: int, base_seed: int):
    """The pinned random-market suite: shapes cycle with the index."""
    return generate_random_market(
        seed=base_seed + index,
        periods=1 + index % 3,
        branching=2 + index % 3,
        assets=1 + index % 2,
    )


def standard_law(rng):
    """Random law with strictly positive mean and genuine downside."""
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        values = rng.normal(0.5, 2.0, size=size)
        probs = rng.uniform(0.05, 1.0, size=size)
        probs /= probs.sum()
        X = RandomVariable(DiscreteLaw(probs), values)
        if float(probs @ values) > 1e-3 and values.min() < -1e-3:
            return X
    raise AssertionError("could not draw a standard-case law")


def grid_capped_sharpe(X, points=3000):
    """Brute grid scan of sup over caps of the Sharpe ratio of min(X, K)."""
    x = X.values
    p = X.law.probabilities
    vmax = float(x.max())
    levels = np.unique(
        np.concatenate(
            [
                x[x > 0],
                np.linspace(vmax / points, vmax, points),
                vmax * np.geomspace(1e-4, 1.0, 500),
            ]
        )
    )
    capped = np.minimum(x[:, None], levels[None, :])
    means = p @ capped
    var = p @ (capped - means[None, :]) ** 2
    best = -math.inf
    ok = var > 0
    if ok.any():
        best = float(np.max(means[ok] / np.sqrt(var[ok])))
    if np.any(~ok & (means > 0)):
        best = math.inf
    return best


# ---------------------------------------------------------------------------


def test_criterion_1_golden_trinomial_chain():
    start = time.perf_counter()
    tol = 1e-6
    tree = load_packaged_market("trinomial")
    r = analyze(tree)

    assert r.u == pytest.approx(TRI_U, abs=tol)
    assert r.u_m == pytest.approx(TRI_U_M, abs=tol)
    assert r.u_mv == pytest.approx(TRI_U_MV, abs=tol)
    assert r.u_mmv == pytest.approx(TRI_U_MMV, abs=tol)
    assert r.c_hat_m == pytest.approx(TRI_C_HAT, abs=tol)
    assert r.sr_max == pytest.approx(TRI_SR, abs=tol)
    assert r.sr_m_max == pytest.approx(TRI_SR_M, abs=tol)
    assert r.gap == pytest.approx(TRI_SR_M - TRI_SR, abs=tol)

    assert r.signed_density == pytest.approx(TRI_Z_SIGNED, abs=tol)
    assert r.nonneg_density == pytest.approx(TRI_Z_NONNEG, abs=tol)
    p = tree.leaf_probabilities
    assert p @ (r.signed_density**2) == pytest.approx(TRI_A_SIGNED, abs=tol)
    assert p @ (r.nonneg_density**2) == pytest.approx(TRI_A_NONNEG, abs=tol)

    assert r.equiv == {"a": False, "b": False, "c": False, "d": False}
    assert r.fcfs_exists is True
    assert r.marginal is False
    assert r.fcfs_payoff == pytest.approx(TRI_FCFS, abs=tol)
    assert verify_fcfs_certificate(r) is True

    assert r.allocation.leverage == pytest.approx(TRI_LEVERAGE, abs=tol)
    assert r.allocation.strategy.vector == pytest.approx(
        [TRI_LEVERAGE * TRI_ALPHA], abs=tol
    )

    # the same numbers at the law level: one asset, one period
    sr = monotone_sharpe(terminal_wealth(tree, r.hull_solution.strategy, 0.0))
    # the hull strategy is alpha-hat itself, so its payoff caps at 1
    gains = RandomVariable(DiscreteLaw(p), gain_matrix(tree)[:, 0])
    law_result = monotone_sharpe(gains)
    assert law_result.sr_m == pytest.approx(TRI_SR_M, abs=tol)
    assert law_result.alpha_hat == pytest.approx(TRI_ALPHA, abs=tol)
    assert law_result.truncation_level == pytest.approx(1 / TRI_ALPHA, abs=tol)
    assert sharpe_ratio(gains) == pytest.approx(TRI_SR, abs=tol)
    assert sr.sr_m == pytest.approx(TRI_SR_M, abs=tol)

    assert time.perf_counter() - start < 1.0


def test_criterion_2_binomial_complete_market():
    start = time.perf_counter()
    tol = 1e-8
    tree = load_packaged_market("binomial")
    r = analyze(tree)

    assert r.signed_density == pytest.approx(BIN_Z, abs=tol)
    assert r.nonneg_density == pytest.approx(BIN_Z, abs=tol)
    assert r.u == pytest.approx(BIN_U, abs=tol)
    assert r.u_m == pytest.approx(BIN_U, abs=tol)
    assert r.u_mv == pytest.approx(BIN_U_MV, abs=tol)
    assert r.u_mmv == pytest.approx(BIN_U_MV, abs=tol)
    assert r.sr_max == pytest.approx(BIN_SR, abs=tol)
    assert r.sr_m_max == pytest.approx(BIN_SR, abs=tol)
    assert r.c_hat_m == pytest.approx(BIN_C_HAT, abs=tol)

    assert r.equiv == {"a": True, "b": True, "c": True, "d": True}
    assert r.fcfs_exists is False
    assert r.marginal is False
    assert r.gap <= GAP_TOL

    assert time.perf_counter() - start < 1.0


def test_criterion_3_strong_duality():
    start = time.perf_counter()
    tol = 1e-8
    for i in range(200):
        tree = suite_tree(i, 0)
        p = tree.leaf_probabilities
        signed = analyze(tree)  # one pass gives both densities and values
        a_s = float(p @ signed.signed_density**2)
        a_n = float(p @ signed.nonneg_density**2)
        quad = optimal_quadratic(tree, 0.0).value
        hull = optimal_truncated(tree, 0.0).value
        assert abs(quad - (0.5 - 0.5 / a_s)) <= tol, f"tree {i}"
        assert abs(hull - (0.5 - 0.5 / a_n)) <= tol, f"tree {i}"
        assert -1e-12 <= quad <= hull + 1e-12
        assert hull < 0.5
    assert time.perf_counter() - start < 30.0


def test_criterion_4_equivalence_dichotomy():
    start = time.perf_counter()
    count = 500
    marginal_cap = max(2, count // 20)
    tallies = {"complete": 0, "fcfs": 0, "marginal": 0}
    for i in range(count):
        tree = suite_tree(i, 1000)
        r = analyze(tree)
        flags = list(r.equiv.values())
        if r.marginal:
            tallies["marginal"] += 1
            continue
        assert all(f == flags[0] for f in flags), f"tree {i}: split vote {r.equiv}"
        if r.fcfs_exists:
            tallies["fcfs"] += 1
            assert r.gap > GAP_TOL, f"tree {i}"
            assert r.fcfs_payoff is not None, f"tree {i}"
            assert float(np.min(r.fcfs_payoff)) >= -1e-9, f"tree {i}"
            assert verify_fcfs_certificate(r) is True, f"tree {i}"
        else:
            tallies["complete"] += 1
            assert r.gap <= GAP_TOL, f"tree {i}"
    assert tallies["marginal"] <= marginal_cap, tallies
    assert tallies["fcfs"] > 0 and tallies["complete"] > 0, tallies
    assert time.perf_counter() - start < 60.0


def test_criterion_5_monotone_sharpe_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    for k in range(1000):
        X = standard_law(rng)
        res = monotone_sharpe(X)
        assert res.case_tag == "standard"
        ref = grid_capped_sharpe(X)
        assert abs(res.sr_m - ref) <= 2e-3, f"law {k}"
        capped = np.minimum(res.alpha_hat * X.values, 1.0)
        p = X.law.probabilities
        m1 = float(p @ capped)
        m2 = float(p @ capped**2)
        assert abs(m1 - m2) <= 1e-10, f"law {k}: optimality condition"
    assert time.perf_counter() - start < 30.0


def test_criterion_6_scaling_identities():
    start = time.perf_counter()
    tol = 1e-8
    trees = [load_packaged_market("trinomial"), load_packaged_market("binomial")]
    trees += [suite_tree(i, 2000) for i in range(10)]
    wealth_grid = (-1.0, 0.0, 0.5, 1.0, 2.0)

    for tree in trees:
        quad0 = optimal_quadratic(tree, 0.0)
        hull0 = optimal_truncated(tree, 0.0)
        alloc0 = mmv_allocation(tree, 0.0)
        lam = alloc0.leverage

        for x in wealth_grid:
            keep = 1.0 - x
            keep_pos = max(keep, 0.0)

            quad_x = optimal_quadratic(tree, x)
            assert np.allclose(
                quad_x.strategy.vector, keep * quad0.strategy.vector, atol=tol
            )
            assert abs(quad_x.value - (0.5 + keep**2 * (quad0.value - 0.5))) <= tol

            hull_x = optimal_truncated(tree, x)
            assert np.allclose(
                hull_x.strategy.vector, keep_pos * hull0.strategy.vector, atol=tol
            )
            assert (
                abs(hull_x.value - (0.5 + keep_pos**2 * (hull0.value - 0.5))) <= tol
            )

            alloc_x = mmv_allocation(tree, x)
            assert np.allclose(
                alloc_x.strategy.vector, alloc0.strategy.vector, atol=tol
            )
            assert abs(alloc_x.value - (x + 0.5 * (lam - 1.0))) <= tol
            assert abs(alloc_x.cash_level - (x + lam - 1.0)) <= tol
            evaluated = monotone_mean_variance_value(alloc_x.payoff)
            assert abs(evaluated.value - alloc_x.value) <= tol
            assert cash_level_residual(alloc_x) <= 1e-8
            assert verify_remark_foc(tree, alloc_x) is True

        # capped-wealth moment identity at the hull optimum
        w = np.minimum(hull0.payoff.values, 1.0)
        p = tree.leaf_probabilities
        assert abs(float(p @ w) - 2.0 * hull0.value) <= tol
        assert abs(float(p @ w**2) - 2.0 * hull0.value) <= tol

        # cash translation of the hull functional
        X = hull0.payoff
        base = monotone_mean_variance_value(X).value
        for shift in (-1.0, 0.5, 2.0):
            shifted = RandomVariable(X.law, X.values + shift)
            assert (
                abs(monotone_mean_variance_value(shifted).value - (base + shift))
                <= tol
            )

        # dominance over the plain mean-variance value and monotonicity
        assert base >= mean_variance_value(X) - 1e-12
        bigger = RandomVariable(X.law, X.values + np.abs(X.values))
        assert monotone_mean_variance_value(bigger).value >= base - 1e-10

    # positive homogeneity of the monotone Sharpe ratio
    rng = np.random.default_rng(626262)
    for _ in range(6):
        X = standard_law(rng)
        res = monotone_sharpe(X)
        for scale in (0.5, 3.0):
            scaled = monotone_sharpe(RandomVariable(X.law, scale * X.values))
            assert abs(scaled.sr_m - res.sr_m) <= tol
            assert abs(scaled.alpha_hat - res.alpha_hat / scale) <= tol

    assert time.perf_counter() - start < 30.0


def test_criterion_7_normalization_bridge():
    start = time.perf_counter()

    # law side: best quadratic utility over leverage equals the bridged
    # Sharpe ratio, maximised here by golden-section search as the oracle
    rng = np.random.default_rng(737373)
    for k in range(100):
        Z = standard_law(rng)
        p = Z.law.probabilities
        z = Z.values

        def expected_utility(alpha):
            w = alpha * z
            return float(p @ (w - 0.5 * w * w))

        center = float(p @ z) / float(p @ (z * z))
        span = 1.0 + abs(center)
        best = golden_max(expected_utility, center - span, center + span)
        bridged = sr_to_value(sharpe_ratio(Z))
        assert abs(best - bridged) <= 1e-9, f"law {k}"

    # the bridge is an involution on its domain
    for s in (0.0, 0.3, 1.0, 4.0):
        assert abs(value_to_sr(sr_to_value(s)) - s) <= 1e-12
    assert sr_to_value(math.inf) == pytest.approx(0.5)
    assert value_to_sr(0.5) == math.inf

    # tree side: the maximal monotone Sharpe ratio bridges to the
    # monotone hull value, and both to the improved functional value
    for i in range(30):
        tree = suite_tree(i, 3000)
        r = analyze(tree)
        assert abs(value_to_sr(r.u_m) - r.sr_m_max) <= 1e-8, f"tree {i}"
        assert abs(r.sr_m_max - math.sqrt(2.0 * r.u_mmv)) <= 1e-8, f"tree {i}"
        evaluated = monotone_mean_variance_value(r.allocation.payoff).value
        assert abs(math.sqrt(2.0 * evaluated) - r.sr_m_max) <= 1e-8, f"tree {i}"

    assert time.perf_counter() - start < 30.0


def test_packaged_selftest_agrees():
    import io

    results = run_selftest(quick=True, stream=io.StringIO())
    assert len(results) == 7
    assert all(res.passed for res in results)
