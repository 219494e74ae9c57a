"""Optimal trading strategies for quadratic-utility objectives.

Three layers, each built on the previous one:

``optimal_quadratic``
    maximize E[U(x + B theta)] with U(w) = w - w^2/2.  Read off the tree's
    backward-induction engine (:mod:`mmvport.induction`): the holdings at
    a node with wealth x_n are (1 - x_n) phi_n, where phi_n is the
    node's one-step weighted least-squares fit toward bliss, minimum-norm
    so redundant assets pick the smallest strategy among the optimizers.

``optimal_truncated``
    maximize E[U(min(x + B theta, 1))].  Concave, C^1 and piecewise
    quadratic.  Holdings are (1 - x_n)^+ phim_n, where phim_n solves the
    node's truncated one-step problem: the quadratic step where it stays
    below bliss, otherwise the kink walk of the truncated quadratic
    (:mod:`mmvport.probability`; one asset) or a clip-set iteration whose
    exact line maximization is the same kink walk (several assets).
    ``iterations`` reports the largest number of rounds any node took.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SolverFailure
from .market import ScenarioTree, Strategy, terminal_wealth
from .probability import (
    RandomVariable,
    _fsum,
    expected_quadratic_utility,
    expected_truncated_utility,
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


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Optimal strategy, its payoff and value (``gradient_norm`` on first read)."""

    strategy: Strategy
    payoff: RandomVariable
    value: float
    initial_wealth: float
    iterations: int
    truncated: bool = field(default=False, kw_only=True)

    @cached_property
    def gradient_norm(self) -> float:
        gap = 1.0 - self.payoff.values
        if self.truncated:
            gap = np.maximum(gap, 0.0)
        return float(np.max(np.abs(self.strategy.tree.levels.increment_moments(gap))))


@dataclass(frozen=True, eq=False)
class MmvAllocation:
    """Monotone mean-variance optimum from a given initial wealth.

    ``strategy``/``payoff``/``value`` describe the mean-variance-improving
    allocation; ``hull_strategy``/``hull_value`` the truncated-utility
    (monotone hull) optimum at the same wealth; ``cash_level`` is the
    precommitted cash maximizing the cash-adjusted functional and
    ``leverage`` the ratio between the two strategies at wealth 0.
    ``payoff``, a forward sweep no command reads, is built on first read.
    """

    initial_wealth: float
    strategy: Strategy
    value: float
    cash_level: float
    hull_strategy: Strategy
    hull_value: float
    leverage: float

    @cached_property
    def payoff(self) -> RandomVariable:
        return terminal_wealth(self.strategy.tree, self.strategy, self.initial_wealth)


def _solution(
    tree: ScenarioTree,
    initial_wealth: float,
    truncated: bool,
    value_of,
    iterations: int,
) -> PrimalSolution:
    theta, wealth = tree.opportunity.forward(initial_wealth, truncated)
    payoff = RandomVariable(tree.law, wealth)
    return PrimalSolution(
        strategy=Strategy.from_vector(tree, theta),
        payoff=payoff,
        value=value_of(payoff),
        initial_wealth=initial_wealth,
        iterations=iterations,
        truncated=truncated,
    )


def optimal_quadratic(
    tree: ScenarioTree, initial_wealth: float = 0.0
) -> PrimalSolution:
    """Maximize expected quadratic utility of terminal wealth."""
    return _solution(
        tree, initial_wealth, False, expected_quadratic_utility, iterations=1
    )


def optimal_truncated(
    tree: ScenarioTree, initial_wealth: float = 0.0
) -> PrimalSolution:
    """Maximize expected truncated quadratic utility of terminal wealth.

    Raises IterationLimit if some node's clip set fails to settle, which
    no well-scaled tree should trigger.
    """
    # at or past bliss nothing is traded and no round is needed
    rounds = tree.opportunity.clip_rounds if initial_wealth < 1.0 else 0
    return _solution(
        tree, initial_wealth, True, expected_truncated_utility, iterations=rounds
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
    return MmvAllocation(
        initial_wealth=x,
        strategy=strategy,
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
    return abs(_fsum(p * shortfall) - 1.0)


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
