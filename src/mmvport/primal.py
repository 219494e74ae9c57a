"""Optimal trading strategies for quadratic-utility objectives.

Three layers, each built on the previous one:

``optimal_quadratic``
    maximize E[U(x + B theta)] with U(w) = w - w^2/2.  Equivalent to a
    weighted least-squares fit of the gain toward the bliss gap 1 - x,
    solved in minimum-norm form so redundant assets pick the smallest
    strategy among the optimizers.

``optimal_truncated``
    maximize E[U(min(x + B theta, 1))].  Concave, C^1 and piecewise
    quadratic.  Solved by a clip-set iteration: fit the quadratic
    objective on the leaves currently below the cap, then move toward
    that candidate with an exact line maximization of the true objective
    (the directional derivative is piecewise linear and decreasing, so
    the step is found by walking its kinks, no inexact search involved).
    Every step strictly increases the objective, and a step of 1 lands on
    the restricted maximizer, so the clip set settles in a handful of
    rounds.

``mmv_allocation``
    the monotone mean-variance optimum.  The truncated problem from
    initial wealth 0 determines everything: with value v0 and leverage
    lam = 1/(1 - 2 v0), the hull-optimal strategy from wealth x is
    (1-x)^+ times the base strategy, the mean-variance-improving strategy
    is lam times the base strategy for every x, the precommitted cash
    level is x + lam - 1 and the achieved value is x + (lam - 1)/2.

``verify_remark_foc`` / ``cash_level_residual``
    boolean check (and underlying residual |E[(W - c - 1)^-] - 1|) of the
    first-order condition tying an allocation's cash level to its payoff;
    the residual is zero at the true optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IterationLimit, SolverFailure
from .market import ScenarioTree, Strategy, terminal_wealth
from .probability import (
    RandomVariable,
    expected_quadratic_utility,
    expected_truncated_utility,
    truncated_utility,
)

__all__ = [
    "PrimalSolution",
    "MmvAllocation",
    "optimal_quadratic",
    "optimal_truncated",
    "mmv_allocation",
    "cash_level_residual",
    "verify_remark_foc",
]

_GRAD_TOL = 1e-11
_MAX_CLIP_ROUNDS = 100


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Optimal strategy, its terminal payoff and objective value."""

    strategy: Strategy
    payoff: RandomVariable
    value: float
    initial_wealth: float
    iterations: int
    gradient_norm: float


@dataclass(frozen=True, eq=False)
class MmvAllocation:
    """Monotone mean-variance optimum from a given initial wealth.

    ``strategy``/``payoff``/``value`` describe the mean-variance-improving
    allocation; ``hull_strategy``/``hull_value`` the truncated-utility
    (monotone hull) optimum at the same wealth; ``cash_level`` is the
    precommitted cash maximizing the cash-adjusted functional and
    ``leverage`` the ratio between the two strategies at wealth 0.
    """

    initial_wealth: float
    strategy: Strategy
    payoff: RandomVariable
    value: float
    cash_level: float
    hull_strategy: Strategy
    hull_value: float
    leverage: float


def _weighted_fit(B: np.ndarray, p: np.ndarray, target: float) -> np.ndarray:
    """Min-norm theta with B theta ~ target in the sqrt(p) metric.

    Singular values below 1e-10 of the largest are truncated: directions
    that move terminal wealth by nothing but noise (redundant assets,
    near-parallel increments) must not leak into the strategy.
    """
    w = np.sqrt(p)
    try:
        theta, *_ = np.linalg.lstsq(w[:, None] * B, w * target, rcond=1e-10)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"weighted least-squares fit failed: {exc}") from exc
    return theta


def optimal_quadratic(
    tree: ScenarioTree, initial_wealth: float = 0.0
) -> PrimalSolution:
    """Maximize expected quadratic utility of terminal wealth."""
    B = tree.gain_matrix
    p = tree.leaf_probabilities
    theta = _weighted_fit(B, p, 1.0 - initial_wealth)
    strategy = Strategy.from_vector(tree, theta)
    payoff = terminal_wealth(tree, strategy, initial_wealth)
    grad = B.T @ (p * (1.0 - payoff.values))
    return PrimalSolution(
        strategy=strategy,
        payoff=payoff,
        value=expected_quadratic_utility(payoff),
        initial_wealth=initial_wealth,
        iterations=1,
        gradient_norm=float(np.max(np.abs(grad))) if grad.size else 0.0,
    )


def _line_maximum(p: np.ndarray, W: np.ndarray, g: np.ndarray) -> float:
    """argmax over t in [0, 1] of E[U(min(W + t g, 1))].

    The derivative phi'(t) = sum_{W + t g < 1} p (1 - W - t g) g is
    continuous, decreasing and piecewise linear; walk its kinks.
    """

    def dphi(t: float) -> float:
        w_t = W + t * g
        active = w_t < 1.0
        return float(np.sum(p[active] * (1.0 - w_t[active]) * g[active]))

    crossings = []
    nz = g != 0.0
    t_cross = (1.0 - W[nz]) / g[nz]
    for t in t_cross:
        if 0.0 < t < 1.0:
            crossings.append(float(t))
    points = [0.0] + sorted(set(crossings)) + [1.0]

    if dphi(0.0) <= 0.0:
        return 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        if dphi(hi) >= 0.0:
            continue
        # sign change inside (lo, hi]; the active set is constant there
        mid = 0.5 * (lo + hi)
        w_mid = W + mid * g
        active = w_mid < 1.0
        a = float(np.sum(p[active] * (1.0 - W[active]) * g[active]))
        c = float(np.sum(p[active] * g[active] * g[active]))
        if c <= 0.0:
            return lo
        return min(max(a / c, lo), hi)
    return 1.0


def optimal_truncated(
    tree: ScenarioTree, initial_wealth: float = 0.0
) -> PrimalSolution:
    """Maximize expected truncated quadratic utility of terminal wealth.

    Raises IterationLimit if the clip set fails to settle, which no
    well-scaled tree should trigger.
    """
    B = tree.gain_matrix
    p = tree.leaf_probabilities
    m = B.shape[1]
    gap = 1.0 - initial_wealth
    grad_scale = (1.0 + float(np.max(np.abs(B))) if B.size else 1.0) * (
        1.0 + abs(gap)
    )

    theta = np.zeros(m)
    if gap <= 0.0:
        # already at or past bliss; holding nothing is optimal
        strategy = Strategy.from_vector(tree, theta)
        payoff = terminal_wealth(tree, strategy, initial_wealth)
        return PrimalSolution(
            strategy=strategy,
            payoff=payoff,
            value=expected_truncated_utility(payoff),
            initial_wealth=initial_wealth,
            iterations=0,
            gradient_norm=0.0,
        )

    iterations = 0
    best_value = -math.inf
    best_theta = theta
    for _ in range(_MAX_CLIP_ROUNDS):
        iterations += 1
        W = initial_wealth + B @ theta
        below = W < 1.0
        grad = B.T @ (p * (1.0 - W) * below)
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm <= _GRAD_TOL * grad_scale:
            break
        value = math.fsum((p * truncated_utility(W)).tolist())
        if value <= best_value + 1e-15 * (1.0 + abs(best_value)):
            # numerical floor reached; keep the best iterate seen
            theta = best_theta
            break
        best_value = value
        best_theta = theta
        theta_cand = _weighted_fit(B[below], p[below], gap)
        step = theta_cand - theta
        t = _line_maximum(p, W, B @ step)
        if t <= 0.0:
            break
        theta = theta + t * step
    else:
        raise IterationLimit(
            f"clip-set iteration did not settle in {_MAX_CLIP_ROUNDS} rounds"
        )

    strategy = Strategy.from_vector(tree, theta)
    payoff = terminal_wealth(tree, strategy, initial_wealth)
    W = payoff.values
    below = W < 1.0
    grad = B.T @ (p * (1.0 - W) * below)
    return PrimalSolution(
        strategy=strategy,
        payoff=payoff,
        value=expected_truncated_utility(payoff),
        initial_wealth=initial_wealth,
        iterations=iterations,
        gradient_norm=float(np.max(np.abs(grad))) if grad.size else 0.0,
    )


def mmv_allocation(tree: ScenarioTree, initial_wealth: float = 0.0) -> MmvAllocation:
    """Monotone mean-variance optimal allocation from a given wealth.

    The truncated optimum from wealth 0 is leveraged by 1/(1 - 2 v0); the
    cash-translation structure of the functional makes the leveraged
    strategy optimal from every initial wealth, shifting only the cash
    level and the value.
    """
    return _allocation_from_hull(tree, optimal_truncated(tree, 0.0), initial_wealth)


def _allocation_from_hull(
    tree: ScenarioTree, base: PrimalSolution, initial_wealth: float
) -> MmvAllocation:
    """The allocation of :func:`mmv_allocation` from the truncated optimum
    at wealth 0, for callers that have already solved it."""
    v0 = base.value
    denom = 1.0 - 2.0 * v0
    if denom <= 1e-12:
        raise SolverFailure(
            "truncated value is at the bliss bound; market is at or past "
            "the arbitrage edge"
        )
    lam = 1.0 / denom
    x = float(initial_wealth)
    hull_scale = max(1.0 - x, 0.0)

    strategy = Strategy.from_vector(tree, lam * base.strategy.vector)
    hull_strategy = Strategy.from_vector(tree, hull_scale * base.strategy.vector)
    payoff = terminal_wealth(tree, strategy, x)
    return MmvAllocation(
        initial_wealth=x,
        strategy=strategy,
        payoff=payoff,
        value=x + 0.5 * (lam - 1.0),
        cash_level=x + lam - 1.0,
        hull_strategy=hull_strategy,
        hull_value=0.5 + hull_scale * hull_scale * (v0 - 0.5),
        leverage=lam,
    )


def cash_level_residual(allocation: MmvAllocation) -> float:
    """Residual |E[(W - c - 1)^-] - 1| of the cash-level condition.

    Zero (to numerical precision) exactly when the allocation's cash
    level solves the first-order condition of the cash-adjusted
    functional at the allocation's payoff.
    """
    p = allocation.payoff.law.probabilities
    shortfall = np.maximum(
        allocation.cash_level + 1.0 - allocation.payoff.values, 0.0
    )
    return abs(math.fsum((p * shortfall).tolist()) - 1.0)


def verify_remark_foc(tree: ScenarioTree, alloc: MmvAllocation) -> bool:
    """True iff the allocation's cash level satisfies its optimality
    condition E[(W - c - 1)^-] = 1 on the given tree, within 1e-8.

    The tree parameter guards against mismatched pairs: the allocation's
    payoff must be the terminal wealth its strategy generates on this
    tree from its initial wealth.
    """
    wealth = terminal_wealth(tree, alloc.strategy, alloc.initial_wealth)
    if wealth.values.shape != alloc.payoff.values.shape or not np.allclose(
        wealth.values, alloc.payoff.values, atol=1e-10
    ):
        raise DimensionMismatch(
            "allocation payoff is not the terminal wealth of its strategy "
            "on this tree"
        )
    return cash_level_residual(alloc) <= 1e-8
