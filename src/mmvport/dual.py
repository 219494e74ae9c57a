"""Variance-optimal martingale densities, signed and nonnegative.

Both problems minimize the second moment E[z^2] = sum p z^2 over leaf
densities z subject to the linear system A z = b from
:attr:`ScenarioTree.constraint_system` (unit expectation plus node-wise
increment pricing).  The signed problem stops there; the nonnegative
problem adds z >= 0.

Signed: with D = diag(p) the stationarity condition 2 D z = A' y reduces
to the Gram system (A D^-1 A') y = b, solved by minimum-norm least squares
so redundant constraints (redundant assets, deterministic steps) are
harmless.  Every solution y yields the same density and the optimum equals
the first multiplier, E[z^2] = y' A z = y' b = y_1.

Nonnegative: primal active-set on the strictly convex QP.  The first
candidate is exactly the signed solution, so markets whose signed optimum
is already nonnegative return in one solve.  Otherwise the iterate starts
at the strictly positive density of the tree's viability certificate (the
product of the node-local risk-neutral weights, computed once per tree)
and steps toward each successive candidate, pinning the first leaf that
blocks at zero; a pinned leaf is released again when its multiplier turns
negative.  Both choices follow Bland's smallest-index rule: the
lowest-index leaf among the tied smallest step ratios is pinned, and the
lowest-index leaf with a negative multiplier is released.  On degenerate
optima, where a whole subtree is zero, the multipliers are not unique; a
released leaf that blocks again at once, with a zero-length step, had a
spurious multiplier and stays pinned until another leaf is pinned.  The
iterate stays feasible throughout, so every reduced system is consistent
by construction.  Hard stop after leaves + 5 reduced solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationLimit, SolverFailure, ViabilityError
from .market import MeasureDensity, ScenarioTree

__all__ = ["DualSolution", "variance_optimal_signed", "variance_optimal_nonneg"]

_SIGNED_FLAG_TOL = 1e-9
_ZERO_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_MULTIPLIER_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal density with its second moment and working-set report.

    signed is True iff the density actually dips below -1e-9.  active_set
    lists the leaf ids pinned at zero and is nonempty only for the
    nonnegative problem on incomplete markets.
    """

    density: MeasureDensity
    second_moment: float
    signed: bool
    active_set: tuple[str, ...]


def _solve_reduced(
    A: np.ndarray, b: np.ndarray, p: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize sum_free p z^2 under A[:, free] z_free = b; zeros elsewhere.

    Returns (z_full, y).  Raises SolverFailure when the system is
    inconsistent, which for the full leaf set means no martingale density
    exists at all.
    """
    A_f = A[:, free]
    p_f = p[free]
    with np.errstate(over="ignore", invalid="ignore"):
        G = (A_f / p_f) @ A_f.T
    if not np.all(np.isfinite(G)):
        raise SolverFailure("Gram system overflows: price moves are too large")
    # rcond truncates directions the constraints only see as noise
    try:
        y, *_ = np.linalg.lstsq(G, b, rcond=1e-10)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"Gram system solve failed: {exc}") from exc
    z_f = (A_f.T @ y) / p_f
    residual = A_f @ z_f - b
    scale = 1.0 + float(np.max(np.abs(b)))
    if float(np.max(np.abs(residual))) > _RESIDUAL_TOL * scale:
        raise SolverFailure(
            "martingale constraints are inconsistent on the working set"
        )
    z = np.zeros(A.shape[1])
    z[free] = z_f
    return z, y


def _second_moment(p: np.ndarray, z: np.ndarray) -> float:
    return math.fsum((p * z * z).tolist())


def _as_solution(tree: ScenarioTree, z: np.ndarray, signed_flag: bool) -> DualSolution:
    p = tree.leaf_probabilities
    density = MeasureDensity.from_values(tree, z)
    active = tuple(
        tree.leaf_ids[i] for i in range(tree.n_leaves) if z[i] <= _ZERO_TOL
    )
    return DualSolution(
        density=density,
        second_moment=_second_moment(p, z),
        signed=signed_flag,
        active_set=active,
    )


def variance_optimal_signed(tree: ScenarioTree) -> DualSolution:
    """Minimize E[z^2] over signed martingale densities."""
    A, b = tree.constraint_system
    p = tree.leaf_probabilities
    free = np.ones(tree.n_leaves, dtype=bool)
    z, _ = _solve_reduced(A, b, p, free)
    density = MeasureDensity.from_values(tree, z)
    return DualSolution(
        density=density,
        second_moment=_second_moment(p, z),
        signed=bool(z.min() < -_SIGNED_FLAG_TOL),
        active_set=(),
    )


def variance_optimal_nonneg(tree: ScenarioTree) -> DualSolution:
    """Minimize E[z^2] over nonnegative martingale densities.

    Raises ViabilityError when no strictly positive density exists (the
    active-set method needs the feasible start the viability certificate
    provides) and IterationLimit past leaves + 5 reduced solves.
    """
    A, b = tree.constraint_system
    p = tree.leaf_probabilities
    L = tree.n_leaves
    max_solves = L + 5

    pinned = np.zeros(L, dtype=bool)
    z_cand, y = _solve_reduced(A, b, p, ~pinned)
    solves = 1
    if z_cand.min() >= -_ZERO_TOL:
        return _as_solution(tree, np.maximum(z_cand, 0.0), signed_flag=False)

    certificate = tree.viability
    if not certificate:
        raise ViabilityError(
            "no strictly positive martingale density; the nonnegative "
            "problem has no interior starting point",
            best_bound=certificate.bound,
        )
    z = np.asarray(certificate.density, dtype=float).copy()

    # leaves whose release bounced straight back (re-pinned by a
    # zero-length step): their multiplier was spurious, so they are not
    # released again until some other leaf gets pinned
    held = np.zeros(L, dtype=bool)
    released = -1
    while True:
        blocking = (~pinned) & (z_cand < -_ZERO_TOL)
        if np.any(blocking):
            # walk from the feasible z toward the candidate until the
            # first blocking leaf hits zero, then pin that leaf
            idx = np.flatnonzero(blocking)
            ratios = z[idx] / (z[idx] - z_cand[idx])
            k = int(np.argmin(ratios))  # lowest index among ties
            alpha = min(max(float(ratios[k]), 0.0), 1.0)
            if alpha == 0.0 and idx[k] == released:
                held[idx[k]] = True
            else:
                held[:] = False
            z = z + alpha * (z_cand - z)
            z[idx[k]] = 0.0
            z[pinned] = 0.0
            pinned[idx[k]] = True
            released = -1
        else:
            z = z_cand
            if not np.any(pinned):
                break
            grad = A.T @ y
            mu = -2.0 * grad[pinned]
            scale = 1.0 + float(np.max(np.abs(grad)))
            candidates = np.flatnonzero(pinned)
            release = candidates[
                (mu < -_MULTIPLIER_TOL * scale) & ~held[candidates]
            ]
            if release.size == 0:
                break
            released = int(release[0])  # lowest index
            pinned[released] = False

        if solves >= max_solves:
            raise IterationLimit(
                f"nonnegative density solver exceeded {max_solves} solves"
            )
        z_cand, y = _solve_reduced(A, b, p, ~pinned)
        solves += 1

    z = np.where((z < 0.0) & (z >= -_ZERO_TOL), 0.0, z)
    return _as_solution(tree, z, signed_flag=False)
