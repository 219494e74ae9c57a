"""Variance-optimal martingale densities, signed and nonnegative.

Both problems minimize the second moment E[z^2] = sum p z^2 over leaf
densities z with E[z] = 1 that price every increment to zero node by node;
the nonnegative problem adds z >= 0.  Both optima are read off the tree's
backward-induction engine (:attr:`ScenarioTree.opportunity`, see
:mod:`mmvport.induction`):

    signed:      z_s = (1 - W_q) / L_root,       E[z_s^2] = 1 / L_root
    nonnegative: z_n = (1 - W_m)^+ / Lm_root,    E[z_n^2] = 1 / Lm_root

where W_q and W_m are the optimal terminal wealths from 0 for quadratic
and truncated quadratic utility.  1 - W_q is orthogonal to every gain, so
z_s prices all increments and, lying in the span of 1 and the gains,
minimizes E[z^2]; the first-order condition of the truncated problem does
the same for (1 - W_m)^+ among nonnegative densities.  Each density is
re-verified node by node by :meth:`MeasureDensity.from_values`; one that
fails there is a solver failure, not bad input.  The
dense Gram system and the global active-set QP that solved these
problems before survive as reference implementations in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import SolverFailure, ValidationError
from .market import _ZERO_TOL, MeasureDensity, ScenarioTree

__all__ = ["DualSolution", "variance_optimal_signed", "variance_optimal_nonneg"]

VECTOR_TOL = 1e-9  # z_s below -VECTOR_TOL somewhere: a free cash-flow stream


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal density with its second moment and working-set report.

    signed is True iff the density dips below -VECTOR_TOL (for z_s, the
    report's verdict).  active_set lists the leaf ids where the density is
    at most market._ZERO_TOL and is nonempty only for the nonnegative
    problem on incomplete markets; it is built on first read.
    """

    density: MeasureDensity
    second_moment: float
    signed: bool
    _nonneg: bool = field(default=False, repr=False, kw_only=True)

    @cached_property
    def active_set(self) -> tuple[str, ...]:
        zero = (self.density.values <= _ZERO_TOL).tolist() if self._nonneg else ()
        return tuple(compress(self.density.tree.leaf_ids, zero))


def _checked(tree: ScenarioTree, z: np.ndarray) -> MeasureDensity:
    """The density the engine built, as re-verified by ``from_values``."""
    try:
        return MeasureDensity.from_values(tree, z)
    except ValidationError as exc:
        raise SolverFailure(f"the engine's density fails its check: {exc}") from exc


def variance_optimal_signed(tree: ScenarioTree) -> DualSolution:
    """Minimize E[z^2] over signed martingale densities."""
    engine = tree.opportunity
    a = engine.a_signed
    _, wealth = engine.forward(0.0, truncated=False)
    z = a * (1.0 - wealth)
    return DualSolution(
        density=_checked(tree, z),
        second_moment=a,
        signed=bool(z.min() < -VECTOR_TOL),
    )


def variance_optimal_nonneg(tree: ScenarioTree) -> DualSolution:
    """Minimize E[z^2] over nonnegative martingale densities.

    Raises ViabilityError, naming the offending node, when the market has
    no strictly positive martingale density.
    """
    tree.viability.require()
    engine = tree.opportunity
    a = engine.a_nonneg
    _, wealth = engine.forward(0.0, truncated=True)
    z = a * np.maximum(1.0 - wealth, 0.0)
    return DualSolution(
        density=_checked(tree, z),
        second_moment=a,
        signed=False,
        _nonneg=True,
    )
