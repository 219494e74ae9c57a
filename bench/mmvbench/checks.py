"""Output checks, run by the caller after each operation and never timed.

Every function returns ``None`` when the output is right and a one-line
reason when it is wrong; the harness counts a wrong output as a failed
operation and reports the run as not correct.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import mmvport.selftest as golden
from mmvport.market import MeasureDensity, load_market
from mmvport.monotone_sharpe import alpha_root_bisection, monotone_sharpe
from mmvport.probability import RandomVariable, mean, sharpe_ratio


def _close(name, got, want, tol):
    if got is None or not abs(float(got) - want) <= tol:
        return f"{name}: got {got!r}, want {want!r} (tol {tol:g})"
    return None


def _vector(name, got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not float(np.max(np.abs(got - want))) <= tol:
        return f"{name}: {got.tolist()} differs from {want.tolist()} (tol {tol:g})"
    return None


def _first(reasons):
    return next((r for r in reasons if r), None)


def check_golden_trinomial(report: dict):
    """Packaged trinomial market against the selftest's frozen values."""
    tol = 1e-6
    g = golden
    return _first([
        _close("u", report["u"], g._TRI_U, tol),
        _close("u_m", report["u_m"], g._TRI_U_M, tol),
        _close("u_mv", report["u_mv"], g._TRI_U_MV, tol),
        _close("u_mmv", report["u_mmv"], g._TRI_U_MMV, tol),
        _close("sr_max", report["sr_max"], g._TRI_SR, tol),
        _close("sr_m_max", report["sr_m_max"], g._TRI_SR_M, tol),
        _close("c_hat_m", report["c_hat_m"], g._TRI_C_HAT, tol),
        _vector("signed_density", report["signed_density"], g._TRI_Z_SIGNED, tol),
        _vector("nonneg_density", report["nonneg_density"], g._TRI_Z_NONNEG, tol),
        _vector("fcfs_payoff", report["fcfs_payoff"] or [], g._TRI_FCFS, tol),
        None if not any(report["equiv"].values()) else "equiv: want all false",
        None if report["fcfs_exists"] is True else "fcfs_exists: want true",
        None if report["marginal"] is False else "marginal: want false",
        None if report.get("certificate_valid") is True else "certificate_valid: want true",
    ])


def check_golden_binomial(report: dict):
    """Packaged binomial (complete) market against the selftest's values."""
    tol = 1e-8
    g = golden
    return _first([
        _vector("signed_density", report["signed_density"], g._BIN_Z, tol),
        _vector("nonneg_density", report["nonneg_density"], g._BIN_Z, tol),
        _close("u", report["u"], g._BIN_U, tol),
        _close("u_m", report["u_m"], g._BIN_U, tol),
        _close("u_mv", report["u_mv"], g._BIN_U_MV, tol),
        _close("u_mmv", report["u_mmv"], g._BIN_U_MV, tol),
        _close("sr_max", report["sr_max"], g._BIN_SR, tol),
        _close("sr_m_max", report["sr_m_max"], g._BIN_SR, tol),
        _close("c_hat_m", report["c_hat_m"], g._BIN_C_HAT, tol),
        None if all(report["equiv"].values()) else "equiv: want all true",
        None if report["fcfs_exists"] is False else "fcfs_exists: want false",
        None if report["marginal"] is False else "marginal: want false",
    ])


def check_golden_law(summary: dict):
    """The trinomial law's monotone Sharpe summary (selftest criterion 1)."""
    tol = 1e-6
    g = golden
    return _first([
        _close("alpha_hat", summary["alpha_hat"], g._TRI_ALPHA, tol),
        _close("sr_m", summary["sr_m"], g._TRI_SR_M, tol),
        _close("sharpe", summary["sharpe"], g._TRI_SR, tol),
    ])


def check_tree_report(market_path: str, report_path: str, rc: int):
    """Checks one ``analyze --verify`` report against its market file.

    Exit code 3 is a success only for a ``marginal`` report whose
    certificate the verifier refused, as the README documents.
    """
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    tree = load_market(market_path)
    for key in ("signed_density", "nonneg_density"):
        try:
            MeasureDensity.from_values(tree, report[key])
        except Exception as exc:  # any rejection means a wrong density
            return f"{key} rejected: {type(exc).__name__}: {exc}"
    if min(report["nonneg_density"]) < -1e-9:
        return "nonneg_density has a negative atom"
    if not report["u"] <= report["u_m"] + 1e-12:
        return f"u {report['u']!r} exceeds u_m {report['u_m']!r}"
    sr2 = report["sr_m_max"] ** 2
    two_u = 2.0 * report["u_mmv"]
    if not abs(sr2 - two_u) <= 1e-9 * max(1.0, abs(two_u)):
        return f"sr_m_max^2 {sr2!r} differs from 2 u_mmv {two_u!r}"
    marginal = report["marginal"]
    claimed = report["fcfs_exists"]
    if not marginal and claimed != (not all(report["equiv"].values())):
        return "fcfs_exists disagrees with the equivalence vote"
    valid = report.get("certificate_valid")
    if claimed and not marginal and valid is not True:
        return "non-marginal free cash-flow claim without a valid certificate"
    if rc == 3 and not (marginal and valid is False):
        return "exit 3 on a report that is not a refused marginal claim"
    if rc == 0 and valid is False:
        return "exit 0 with a refused certificate"
    return None


def check_law_summary(X: RandomVariable, summary: dict):
    """``msharpe`` JSON: FOC residual, bisection root and the capped ratio."""
    if summary.get("case_tag") != "standard":
        return f"case_tag {summary.get('case_tag')!r}, want 'standard'"
    alpha = summary["alpha_hat"]
    p = X.law.probabilities
    capped = np.minimum(alpha * X.values, 1.0)
    foc = abs(math.fsum((p * capped).tolist()) - math.fsum((p * capped**2).tolist()))
    if not foc <= 1e-10:
        return f"FOC residual {foc:.3e} above 1e-10"
    root = alpha_root_bisection(X)
    if not abs(alpha - root) <= 1e-9 * root:
        return f"alpha_hat {alpha!r} differs from bisection {root!r}"
    sr_capped = sharpe_ratio(X.cap(1.0 / alpha))
    return _first([
        _close("sr_m", summary["sr_m"], sr_capped, 1e-9 * max(1.0, sr_capped)),
        _close("mean", summary["mean"], mean(X), 1e-9 * max(1.0, abs(mean(X)))),
        _close("sharpe", summary["sharpe"], sharpe_ratio(X), 1e-9),
    ])


def check_cap_sweep(X: RandomVariable, csv_path: str):
    """``msharpe --format csv``: a sorted cap grid bounded by SR_m."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["level", "sharpe"]:
        return "cap sweep header is not level,sharpe"
    levels = np.array([float(r[0]) for r in rows[1:]])
    ratios = np.array([float(r[1]) for r in rows[1:]])
    positive_atoms = np.unique(X.values[X.values > 0.0]).size
    if levels.size < positive_atoms:
        return f"{levels.size} cap levels for {positive_atoms} positive atoms"
    if np.any(np.diff(levels) <= 0.0):
        return "cap levels are not strictly increasing"
    top = float(X.values.max())
    if not abs(levels[-1] - top) <= 1e-11 * max(1.0, top):
        return f"last cap level {levels[-1]!r} is not the largest atom {top!r}"
    sr_m = monotone_sharpe(X).sr_m
    if float(ratios.max()) > sr_m * (1.0 + 1e-9) + 1e-12:
        return f"cap sweep exceeds the monotone Sharpe ratio {sr_m!r}"
    for k in np.linspace(0, levels.size - 1, 5).astype(int):
        want = sharpe_ratio(X.cap(float(levels[k])))
        reason = _close(f"sharpe at level {levels[k]!r}", ratios[k], want, 1e-9)
        if reason:
            return reason
    return None
