"""Dense two-phase simplex with Bland's rule.

Solves  min c.x  subject to  A x = b,  x >= 0  on small dense problems.
Bland's smallest-index pivoting rule is used throughout, which rules out
cycling even on the degenerate bases that scenario-tree viability programs
produce routinely.  The implementation is a plain full-tableau method, for
the viability programs of (assets + 1) rows and at most branching + 1
columns, where dense pivoting is both fast and easy to audit.  A node is
solved at a basis factored before its step of the sweep
(``market._floor_bases``) where its optimum can be certified; the simplex
takes every other node of several assets, one program each.

The caller must pass b >= 0 (flip row signs beforehand).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationLimit

__all__ = ["LpResult", "solve_lp"]

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-11
_FEAS_TOL = 1e-9
_RATIO_TIE = 1e-12

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def _run_simplex(
    tableau: np.ndarray,
    basis: list[int],
    allowed: int,
    max_iter: int,
) -> str:
    """Pivot until optimal; columns with index >= allowed never enter."""
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        cost = tableau[-1, :allowed]
        entering = -1
        for j in range(allowed):
            if cost[j] < -_COST_TOL:
                entering = j  # Bland: first improving column
                break
        if entering < 0:
            return STATUS_OPTIMAL
        col = tableau[:m, entering]
        best_ratio = np.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                best_ratio = min(best_ratio, tableau[i, -1] / col[i])
        if not np.isfinite(best_ratio):
            return STATUS_UNBOUNDED
        leaving = -1
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = tableau[i, -1] / col[i]
                if ratio <= best_ratio + _RATIO_TIE * (1.0 + abs(best_ratio)):
                    if leaving < 0 or basis[i] < basis[leaving]:
                        leaving = i  # Bland: smallest basic index on ties
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise IterationLimit("simplex exceeded its pivot budget")


def solve_lp(c, A, b) -> LpResult:
    """Minimize c.x subject to A x = b, x >= 0 (b must be nonnegative)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if np.any(b < 0.0):
        raise ValueError("solve_lp expects b >= 0; flip row signs first")
    max_iter = 200 * (m + n + 1)

    # phase 1: artificial basis, minimize the sum of artificials
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -A.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))

    status = _run_simplex(tableau, basis, allowed=n, max_iter=max_iter)
    if status == STATUS_UNBOUNDED or -tableau[-1, -1] > _FEAS_TOL:
        return LpResult(STATUS_INFEASIBLE, None, None)

    # drive surviving artificials out of the basis; a row with no real
    # pivot left is a redundant constraint and is dropped
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue
            tableau[i, -1] = 0.0  # a phase-1 residue a tiny pivot would blow up
            _pivot(tableau, i, pivot_col)
            basis[i] = pivot_col
        keep_rows.append(i)
    if len(keep_rows) < m:
        tableau = tableau[keep_rows + [m]]
        basis = [basis[i] for i in keep_rows]
        m = len(keep_rows)

    # phase 2: rebuild the cost row for the real objective
    cost_row = np.zeros(tableau.shape[1])
    cost_row[:n] = c
    for i in range(m):
        if cost_row[basis[i]] != 0.0:
            cost_row -= cost_row[basis[i]] * tableau[i]
    tableau[-1] = cost_row

    status = _run_simplex(tableau, basis, allowed=n, max_iter=max_iter)
    if status == STATUS_UNBOUNDED:
        return LpResult(STATUS_UNBOUNDED, None, None)
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    return LpResult(STATUS_OPTIMAL, x, float(np.dot(c, x)))
