"""Built-in acceptance suite.

Seven numbered criteria cover the package end to end: two golden worked
markets frozen from independently recomputed values, then five property
suites over randomly generated markets and laws.  Each criterion prints a
single ``criterion N <name> PASS/FAIL (t s)`` line; the suite passes only
when every line passes, including the per-criterion runtime budget.

``quick`` mode shrinks the sampled suites (criteria 3-5 and 7) so the
whole run finishes in a couple of seconds; the golden criteria and all
tolerances are identical in both modes.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .fcfs import analyze, verify_fcfs_certificate
from .market import generate_random_market, load_packaged_market
from .monotone_sharpe import (
    CASE_STANDARD,
    monotone_sharpe,
    oracle_grid_sr,
    sr_to_value,
    value_to_sr,
)
from .primal import (
    cash_level_residual,
    mmv_allocation,
    optimal_quadratic,
    optimal_truncated,
    verify_remark_foc,
)
from .probability import (
    DiscreteLaw,
    RandomVariable,
    expected_quadratic_utility,
    mean,
    mean_variance_value,
    monotone_mean_variance_value,
    second_moment,
    sharpe_ratio,
)

__all__ = ["CriterionResult", "run_selftest"]

# Golden trinomial market: single asset, one period, price increments
# (10, 1, -1) under branch probabilities (0.1, 0.8, 0.1).  Every frozen
# constant below is an exact rational reproduced by independent oracles
# (moment enumeration, subset KKT enumeration, grid searches) before
# being committed here.
_TRI_A_SIGNED = 1090.0 / 801.0
_TRI_Z_SIGNED = (-610.0 / 801.0, 920.0 / 801.0, 1260.0 / 801.0)
_TRI_A_NONNEG = 45.0 / 16.0
_TRI_Z_NONNEG = (0.0, 0.625, 5.0)
_TRI_U = 289.0 / 2180.0
_TRI_U_M = 29.0 / 90.0
_TRI_U_MV = 289.0 / 1602.0
_TRI_U_MMV = 29.0 / 32.0
_TRI_C_HAT = 29.0 / 16.0
_TRI_ALPHA = 7.0 / 9.0
_TRI_SR = math.sqrt(289.0 / 801.0)
_TRI_SR_M = math.sqrt(29.0) / 4.0
_TRI_FCFS = (0.0, 2.0 / 9.0, 16.0 / 9.0)

# Binomial complete market: increments (1, -0.5) with probabilities
# (1/2, 1/2); unique martingale density (2/3, 4/3).
_BIN_Z = (2.0 / 3.0, 4.0 / 3.0)
_BIN_U = 0.05
_BIN_U_MV = 1.0 / 18.0
_BIN_SR = 1.0 / 3.0
_BIN_C_HAT = 1.0 / 9.0

_GAP_TOL = 1e-7


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    failures: tuple
    detail: str = ""


def _close(failures, name, got, want, tol) -> None:
    got = float(got)
    if math.isnan(got) or abs(got - want) > tol:
        failures.append(f"{name}: got {got!r}, want {want!r} (tol {tol:g})")


def _vector(failures, name, got, want, tol) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        failures.append(f"{name}: shape {got.shape}, want {want.shape}")
        return
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        failures.append(f"{name}: max deviation {err:.3e} (tol {tol:g})")


def _flag(failures, name, got, want) -> None:
    if bool(got) is not want:
        failures.append(f"{name}: got {got!r}, want {want!r}")


def _trinomial_law() -> RandomVariable:
    law = DiscreteLaw(np.array([0.1, 0.8, 0.1]))
    return RandomVariable(law, np.array([10.0, 1.0, -1.0]))


def _criterion_1(quick: bool):
    """Golden trinomial chain, every reported quantity at 1e-6."""
    tol = 1e-6
    failures = []

    tree = load_packaged_market("trinomial")
    report = analyze(tree)

    _close(failures, "u", report.u, _TRI_U, tol)
    _close(failures, "u_m", report.u_m, _TRI_U_M, tol)
    _close(failures, "u_mv", report.u_mv, _TRI_U_MV, tol)
    _close(failures, "u_mmv", report.u_mmv, _TRI_U_MMV, tol)
    _close(failures, "sr_max", report.sr_max, _TRI_SR, tol)
    _close(failures, "sr_m_max", report.sr_m_max, _TRI_SR_M, tol)
    _close(failures, "gap", report.gap, _TRI_SR_M - _TRI_SR, tol)
    _close(failures, "c_hat_m", report.c_hat_m, _TRI_C_HAT, tol)
    _close(
        failures, "E[z_signed^2]",
        report.signed_solution.second_moment, _TRI_A_SIGNED, tol,
    )
    _close(
        failures, "E[z_nonneg^2]",
        report.nonneg_solution.second_moment, _TRI_A_NONNEG, tol,
    )
    _vector(failures, "signed_density", report.signed_density, _TRI_Z_SIGNED, tol)
    _vector(failures, "nonneg_density", report.nonneg_density, _TRI_Z_NONNEG, tol)
    if report.fcfs_payoff is None:
        failures.append("fcfs_payoff: missing")
    else:
        _vector(failures, "fcfs_payoff", report.fcfs_payoff, _TRI_FCFS, tol)

    for key in "abcd":
        _flag(failures, f"equiv[{key}]", report.equiv[key], False)
    _flag(failures, "fcfs_exists", report.fcfs_exists, True)
    _flag(failures, "marginal", report.marginal, False)

    try:
        verify_fcfs_certificate(report)
    except Exception as exc:  # noqa: BLE001 - any failure fails the criterion
        failures.append(f"certificate verification raised: {exc}")

    res = monotone_sharpe(_trinomial_law())
    _close(failures, "alpha_hat", res.alpha_hat, _TRI_ALPHA, tol)
    _close(failures, "sr_m(law)", res.sr_m, _TRI_SR_M, tol)
    _close(failures, "sr(law)", sharpe_ratio(_trinomial_law()), _TRI_SR, tol)

    return failures, "14 scalars, 3 vectors, certificate"


def _criterion_2(quick: bool):
    """Binomial complete market: unique density, no improvement, at 1e-8."""
    tol = 1e-8
    failures = []

    tree = load_packaged_market("binomial")
    report = analyze(tree)

    _vector(failures, "signed_density", report.signed_density, _BIN_Z, tol)
    _vector(failures, "nonneg_density", report.nonneg_density, _BIN_Z, tol)
    _close(failures, "u", report.u, _BIN_U, tol)
    _close(failures, "u_m", report.u_m, _BIN_U, tol)
    _close(failures, "u_mv", report.u_mv, _BIN_U_MV, tol)
    _close(failures, "u_mmv", report.u_mmv, _BIN_U_MV, tol)
    _close(failures, "sr_max", report.sr_max, _BIN_SR, tol)
    _close(failures, "sr_m_max", report.sr_m_max, _BIN_SR, tol)
    _close(failures, "gap", report.gap, 0.0, tol)
    _close(failures, "c_hat_m", report.c_hat_m, _BIN_C_HAT, tol)
    for key in "abcd":
        _flag(failures, f"equiv[{key}]", report.equiv[key], True)
    _flag(failures, "fcfs_exists", report.fcfs_exists, False)
    _flag(failures, "marginal", report.marginal, False)

    return failures, "unique density, all routes agree"


def _suite_trees(count: int, base_seed: int):
    for i in range(count):
        yield generate_random_market(
            seed=base_seed + i,
            periods=1 + i % 3,
            branching=2 + i % 3,
            assets=1 + i % 2,
        )


def _criterion_3(quick: bool):
    """Strong duality on random viable trees, both utility lines at 1e-8."""
    count = 40 if quick else 200
    failures = []
    worst_q = worst_t = 0.0

    for i, tree in enumerate(_suite_trees(count, base_seed=0)):
        report = analyze(tree)
        gap_q = abs(report.quad_solution.value - report.u)
        gap_t = abs(report.hull_solution.value - report.u_m)
        worst_q = max(worst_q, gap_q)
        worst_t = max(worst_t, gap_t)
        if gap_q > 1e-8:
            failures.append(f"tree {i}: quadratic duality gap {gap_q:.3e}")
        if gap_t > 1e-8:
            failures.append(f"tree {i}: truncated duality gap {gap_t:.3e}")
        if not (-1e-12 <= report.u <= report.u_m + 1e-12 and report.u_m < 0.5):
            failures.append(
                f"tree {i}: value ordering violated "
                f"(u={report.u!r}, u_m={report.u_m!r})"
            )

    detail = f"{count} trees, worst gaps {worst_q:.1e}/{worst_t:.1e}"
    return failures, detail


def _criterion_4(quick: bool):
    """Equivalence-route agreement and the improvement dichotomy."""
    count = 80 if quick else 500
    failures = []
    n_complete = n_fcfs = n_marginal = 0

    for i, tree in enumerate(_suite_trees(count, base_seed=1000)):
        report = analyze(tree)
        if report.marginal:
            n_marginal += 1
            continue
        flags = [report.equiv[k] for k in "abcd"]
        if any(flags) != all(flags):
            failures.append(f"tree {i}: equivalence routes disagree {flags!r}")
            continue
        if report.fcfs_exists:
            n_fcfs += 1
            if not report.gap > _GAP_TOL:
                failures.append(
                    f"tree {i}: improvement claimed but gap {report.gap:.3e}"
                )
            if report.u_m > 1e-9:
                payoff = report.fcfs_payoff
                if payoff is None or float(payoff.min()) < -1e-9:
                    failures.append(f"tree {i}: certificate payoff not >= 0")
                elif float(payoff.max()) <= 1e-9:
                    failures.append(f"tree {i}: certificate payoff is null")
            try:
                verify_fcfs_certificate(report)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"tree {i}: certificate rejected: {exc}")
        else:
            n_complete += 1
            if not report.gap <= _GAP_TOL:
                failures.append(
                    f"tree {i}: routes all true but gap {report.gap:.3e}"
                )

    if n_marginal > max(2, count // 20):
        failures.append(f"{n_marginal} marginal trees out of {count}")
    if n_fcfs == 0:
        failures.append("suite never produced a free cash-flow market")
    if n_complete == 0:
        failures.append("suite never produced a no-improvement market")

    detail = f"{count} trees: {n_complete} tight, {n_fcfs} fcfs, {n_marginal} marginal"
    return failures, detail


def _random_standard_law(rng) -> RandomVariable:
    """Law with at most 8 atoms, some downside, strictly positive mean."""
    while True:
        n = int(rng.integers(2, 9))
        values = rng.uniform(-2.0, 5.0, size=n)
        values[0] = -abs(values[0]) - 0.05
        probs = rng.uniform(0.05, 1.0, size=n)
        probs /= probs.sum()
        if float(probs @ values) > 1e-6:
            return RandomVariable(DiscreteLaw(probs), values)


def _criterion_5(quick: bool):
    """Monotone Sharpe against the cap-grid oracle plus the FOC identity."""
    count = 150 if quick else 1000
    failures = []
    rng = np.random.default_rng(515151)
    worst_grid = worst_foc = 0.0

    for i in range(count):
        X = _random_standard_law(rng)
        res = monotone_sharpe(X)
        if res.case_tag != CASE_STANDARD:
            failures.append(f"law {i}: unexpected case {res.case_tag!r}")
            continue
        grid = oracle_grid_sr(X)
        dev = abs(res.sr_m - grid)
        worst_grid = max(worst_grid, dev)
        if dev > 2e-3:
            failures.append(f"law {i}: solver vs grid oracle off by {dev:.3e}")
        capped = np.minimum(res.alpha_hat * X.values, 1.0)
        p = X.law.probabilities
        foc = abs(float(p @ capped) - float(p @ capped**2))
        worst_foc = max(worst_foc, foc)
        if foc > 1e-10:
            failures.append(f"law {i}: FOC residual {foc:.3e}")

    detail = f"{count} laws, worst grid/foc {worst_grid:.1e}/{worst_foc:.1e}"
    return failures, detail


def _criterion_6(quick: bool):
    """Wealth-scaling laws, cash invariance, hull dominance, homogeneity."""
    tol = 1e-8
    failures = []
    grid = (-1.0, 0.0, 0.5, 1.0, 2.0)

    trees = [load_packaged_market("trinomial"), load_packaged_market("binomial")]
    tree_count = 4 if quick else 10
    trees.extend(_suite_trees(tree_count, base_seed=2000))

    for label, tree in enumerate(trees):
        quad0 = optimal_quadratic(tree, 0.0)
        hull0 = optimal_truncated(tree, 0.0)
        alloc0 = mmv_allocation(tree, 0.0)
        a_signed = 1.0 / (1.0 - 2.0 * quad0.value)

        for x in grid:
            quadx = optimal_quadratic(tree, x)
            _vector(
                failures, f"tree {label}, x={x}: quadratic holdings",
                quadx.strategy.vector, (1.0 - x) * quad0.strategy.vector, tol,
            )
            _close(
                failures, f"tree {label}, x={x}: quadratic value",
                quadx.value, 0.5 - (1.0 - x) ** 2 / (2.0 * a_signed), tol,
            )
            hullx = optimal_truncated(tree, x)
            shrink = max(1.0 - x, 0.0)
            _vector(
                failures, f"tree {label}, x={x}: truncated holdings",
                hullx.strategy.vector, shrink * hull0.strategy.vector, tol,
            )
            _close(
                failures, f"tree {label}, x={x}: truncated value",
                hullx.value, 0.5 + shrink**2 * (hull0.value - 0.5), tol,
            )
            allocx = mmv_allocation(tree, x)
            _vector(
                failures, f"tree {label}, x={x}: mmv holdings",
                allocx.strategy.vector, alloc0.strategy.vector, tol,
            )
            _close(
                failures, f"tree {label}, x={x}: mmv value",
                allocx.value, x + (alloc0.leverage - 1.0) / 2.0, tol,
            )
            evaluated = monotone_mean_variance_value(allocx.payoff)
            _close(
                failures, f"tree {label}, x={x}: evaluated mmv value",
                evaluated.value, allocx.value, tol,
            )
            foc = cash_level_residual(allocx)
            if not verify_remark_foc(tree, allocx) or foc > 1e-8:
                failures.append(
                    f"tree {label}, x={x}: cash-level FOC residual {foc:.3e}"
                )

        # Truncation identity: the capped optimal wealth satisfies
        # E[min(W,1)] = E[min(W,1)^2] = 2 u_m(0).
        capped = np.minimum(hull0.payoff.values, 1.0)
        p = tree.law.probabilities
        _close(
            failures, f"tree {label}: E[min(W,1)]",
            float(p @ capped), 2.0 * hull0.value, tol,
        )
        _close(
            failures, f"tree {label}: E[min(W,1)^2]",
            float(p @ capped**2), 2.0 * hull0.value, tol,
        )

        # Cash invariance and hull dominance of the scalar functionals.
        for payoff in (quad0.payoff, hull0.payoff):
            base = monotone_mean_variance_value(payoff).value
            for shift in (-1.0, 0.5, 2.0):
                shifted = monotone_mean_variance_value(payoff + shift).value
                _close(
                    failures, f"tree {label}: cash invariance ({shift})",
                    shifted, base + shift, tol,
                )
            if base < mean_variance_value(payoff) - 1e-10:
                failures.append(f"tree {label}: hull fails to dominate")
            lifted = RandomVariable(
                payoff.law, payoff.values + np.abs(payoff.values)
            )  # pointwise >= payoff
            if monotone_mean_variance_value(lifted).value < base - 1e-10:
                failures.append(f"tree {label}: hull fails monotonicity")

    rng = np.random.default_rng(626262)
    laws = [_trinomial_law()] + [_random_standard_law(rng) for _ in range(5)]
    for j, X in enumerate(laws):
        base_sr = sharpe_ratio(X)
        base_srm = monotone_sharpe(X).sr_m
        for scale in (0.5, 3.0):
            _close(
                failures, f"law {j}: sharpe homogeneity ({scale})",
                sharpe_ratio(scale * X), base_sr, tol,
            )
            _close(
                failures, f"law {j}: monotone sharpe homogeneity ({scale})",
                monotone_sharpe(scale * X).sr_m, base_srm, tol,
            )

    detail = f"{len(trees)} trees x {len(grid)} wealth levels, {len(laws)} laws"
    return failures, detail


def _golden_section_max(fn, lo: float, hi: float):
    """Maximum of a unimodal function on [lo, hi] by 200 golden-section steps."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return max(fn(mid), fc, fd)


def _criterion_7(quick: bool):
    """The ratio <-> utility-value bridge, against leverage search."""
    failures = []
    count = 30 if quick else 100
    rng = np.random.default_rng(737373)

    worst = 0.0
    for i in range(count):
        n = int(rng.integers(2, 9))
        values = rng.uniform(-2.0, 5.0, size=n)
        values[0] = -abs(values[0]) - 0.05  # guarantee a nonconstant law
        probs = rng.uniform(0.05, 1.0, size=n)
        probs /= probs.sum()
        Z = RandomVariable(DiscreteLaw(probs), values)

        # Any bracket containing the best leverage works; center it at the
        # stationary point of the exact moments (the search itself, not the
        # ratio bridge under test, locates the maximum value).
        center = mean(Z) / second_moment(Z)
        span = 1.0 + abs(center)
        searched = _golden_section_max(
            lambda a: expected_quadratic_utility(a * Z),
            lo=center - span,
            hi=center + span,
        )
        bridged = sr_to_value(sharpe_ratio(Z))
        dev = abs(searched - bridged)
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append(f"law {i}: leverage search vs bridge off {dev:.3e}")

    trees = [load_packaged_market("trinomial"), load_packaged_market("binomial")]
    trees.extend(_suite_trees(4 if quick else 10, base_seed=3000))
    for label, tree in enumerate(trees):
        report = analyze(tree)
        lifted = value_to_sr(report.u_m)
        direct = math.sqrt(2.0 * report.u_mmv)
        evaluated = math.sqrt(
            2.0 * monotone_mean_variance_value(report.allocation.payoff).value
        )
        _close(failures, f"tree {label}: value_to_sr(u_m) vs sqrt(2 u_mmv)",
               lifted, direct, 1e-8)
        _close(failures, f"tree {label}: evaluated bridge",
               evaluated, direct, 1e-8)

    detail = f"{count} laws + {len(trees)} trees, worst bridge {worst:.1e}"
    return failures, detail


_CRITERIA = (
    (1, "golden-trinomial-chain", _criterion_1, 1.0),
    (2, "binomial-complete-market", _criterion_2, 1.0),
    (3, "strong-duality", _criterion_3, 30.0),
    (4, "equivalence-dichotomy", _criterion_4, 60.0),
    (5, "monotone-sharpe-oracle", _criterion_5, 30.0),
    (6, "scaling-identities", _criterion_6, 30.0),
    (7, "normalization-bridge", _criterion_7, 30.0),
)


def run_selftest(quick: bool = False, stream=None) -> list:
    """Run all acceptance criteria, print one line each, return the results."""
    if stream is None:
        stream = sys.stdout
    results = []
    for number, name, fn, budget in _CRITERIA:
        start = time.perf_counter()
        try:
            failures, detail = fn(quick)
        except Exception as exc:  # noqa: BLE001 - crash = failed criterion
            failures, detail = [f"raised {type(exc).__name__}: {exc}"], ""
        elapsed = time.perf_counter() - start
        if elapsed > budget:
            failures.append(f"runtime {elapsed:.2f}s over the {budget:.0f}s budget")
        passed = not failures
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} {name} {status} ({elapsed:.2f}s)"
        if detail and passed:
            line += f" - {detail}"
        print(line, file=stream)
        for failure in failures[:8]:
            print(f"    {failure}", file=stream)
        if len(failures) > 8:
            print(f"    ... {len(failures) - 8} more", file=stream)
        results.append(
            CriterionResult(
                number=number,
                name=name,
                passed=passed,
                elapsed=elapsed,
                failures=tuple(failures),
                detail=detail,
            )
        )
    total = sum(r.elapsed for r in results)
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(
            f"selftest FAIL ({total:.2f}s): criteria {failed} failed",
            file=stream,
        )
    else:
        print(f"selftest PASS ({total:.2f}s): 7/7 criteria", file=stream)
    return results
