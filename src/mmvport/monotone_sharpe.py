"""Monotone Sharpe ratio of a finite-support payoff.

The classical Sharpe ratio can be gamed by throwing wealth away: discarding
part of a payoff sometimes raises mean/std.  The monotone Sharpe ratio
closes that loophole by taking the supremum over all nonnegative reductions,

    SR_m(X) = sup { SR(X - Y) : Y >= 0 }.

For a payoff with P(X < 0) > 0 and E[X] > 0 the supremum is attained by
capping, SR_m(X) = SR(min(X, K)) at the unique cap K = 1/alpha solving the
first-order condition

    E[X 1{alpha X <= 1}] = alpha E[X^2 1{alpha X <= 1}].

The left side minus the right side is continuous, strictly decreasing and
piecewise linear in alpha with kinks at the reciprocals of the positive
atom values; it is -1/2 times the derivative of E[((1 - alpha X)^+)^2],
so the root is that function's minimizer, found exactly by the one kink
walk of the truncated quadratic in :mod:`mmvport.probability`.  Bisection
exists as a cross-check only.

Degenerate branches
-------------------
* X >= 0 almost surely ("no downside"): capping at ever smaller levels
  drives the ratio to sqrt(P(X > 0) / P(X = 0)), which is +inf when X is
  strictly positive; the zero payoff has SR_m = 0.  No cap attains the
  supremum, so ``alpha_hat`` and ``truncation_level`` are None.
* E[X] <= 0 with downside present: every reduction keeps the mean
  nonpositive and the ratio nonpositive; the routine refuses with
  :class:`~mmvport.errors.NonpositiveMean` rather than reporting a
  meaningless maximum.

The value map ``sr_to_value`` / ``value_to_sr`` converts between a Sharpe
ratio s and the best quadratic-utility score sup_a F(a Z) = s^2/(2(1+s^2))
achievable by leveraging a payoff with that ratio.  Note another common
utility normalization drops the factor 2 in this map; the pair used here is
the one consistent with U(w) = w - w^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoDownside, NonpositiveMean
from .probability import (
    RandomVariable,
    _kink_walk,
    _rescale,
    _scaled,
    mean,
    sharpe_ratio,
)

__all__ = [
    "MonotoneSharpeResult",
    "solve_alpha_hat",
    "alpha_root_bisection",
    "monotone_sharpe",
    "oracle_grid_sr",
    "sr_to_value",
    "value_to_sr",
]

CASE_STANDARD = "standard"
CASE_NO_DOWNSIDE = "no-downside"
CASE_NONPOSITIVE_MEAN = "nonpositive-mean"


@dataclass(frozen=True)
class MonotoneSharpeResult:
    """Outcome of a monotone Sharpe computation.

    sr_m may be math.inf (strictly positive payoff).  alpha_hat and
    truncation_level are None exactly when no finite cap attains the
    supremum (the no-downside branch).
    """

    sr_m: float
    alpha_hat: float | None
    truncation_level: float | None
    case_tag: str


def _fsum_where(p: np.ndarray, terms: np.ndarray, mask: np.ndarray) -> float:
    sel = mask.nonzero()[0]
    if sel.size == 0:
        return 0.0
    return math.fsum((p[sel] * terms[sel]).tolist())


def solve_alpha_hat(X: RandomVariable) -> float:
    """Exact root of E[X 1{aX<=1}] - a E[X^2 1{aX<=1}] = 0, a > 0.

    Requires E[X] > 0 and P(X < 0) > 0; raises NonpositiveMean or
    NoDownside otherwise.  The root minimizes E[((1 - aX)^+)^2], which the
    kink walk solves with r = 1, g = X and weights p.  The walk runs on
    X / 2^k (see :func:`mmvport.probability._scaled`), whose root is
    2^k a exactly, so its squares stay finite on laws near the ends of the
    float range; a root beyond the largest double is returned as inf.
    """
    Xs, k = _scaled(X)
    if mean(Xs) <= 0.0:
        raise NonpositiveMean(f"payoff mean {mean(X)!r} is not strictly positive")
    if not np.any(X.values < 0.0):
        raise NoDownside("payoff has no downside; no finite cap attains the supremum")
    return _rescale(float(_kink_walk(1.0, Xs.values, Xs.law.probabilities)[0]), -k)


def alpha_root_bisection(
    X: RandomVariable,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Bisection cross-check for :func:`solve_alpha_hat`.

    Reference for the tests and the benchmark checks.
    """
    p = X.law.probabilities
    x = X.values

    def slope(a: float) -> float:
        mask = a * x <= 1.0
        return _fsum_where(p, x, mask) - a * _fsum_where(p, x * x, mask)

    lo = 0.0
    hi = 1.0 / float(np.min(x[x > 0.0]))
    for _ in range(200):
        if slope(hi) <= 0.0:
            break
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            return mid
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def monotone_sharpe(X: RandomVariable) -> MonotoneSharpeResult:
    """Monotone Sharpe ratio sup{ SR(X - Y) : Y >= 0 }.

    Raises NonpositiveMean when E[X] <= 0 and the payoff has downside (the
    supremum is then nonpositive and conveys nothing useful).
    """
    x = X.values
    if not np.any(x < 0.0):
        p_zero = float(math.fsum(X.law.probabilities[x == 0.0].tolist()))
        if p_zero >= 1.0 or not np.any(x > 0.0):
            # identically zero payoff
            return MonotoneSharpeResult(0.0, None, None, CASE_NO_DOWNSIDE)
        if p_zero == 0.0:
            return MonotoneSharpeResult(math.inf, None, None, CASE_NO_DOWNSIDE)
        p_pos = float(math.fsum(X.law.probabilities[x > 0.0].tolist()))
        return MonotoneSharpeResult(
            math.sqrt(p_pos / p_zero), None, None, CASE_NO_DOWNSIDE
        )
    Xs, k = _scaled(X)
    if mean(Xs) <= 0.0:
        raise NonpositiveMean(
            f"payoff mean {mean(X)!r} is not strictly positive; "
            "monotone Sharpe ratio is refused for nonpositive-mean payoffs"
        )
    # root, cap and ratio are taken on X / 2^k and the root and cap scaled
    # back on the way out: the same bits in range, and a cap whose root
    # overflows still caps the law at the right level
    alpha = solve_alpha_hat(Xs)
    level = 1.0 / alpha
    sr = sharpe_ratio(Xs.cap(level))
    return MonotoneSharpeResult(
        sr, _rescale(alpha, -k), _rescale(level, k), CASE_STANDARD
    )


def oracle_grid_sr(X: RandomVariable, grid=None) -> float:
    """Brute-force sup_K SR(min(X, K)) over a cap grid.

    Slow reference used to validate :func:`monotone_sharpe`.  The default
    grid unions the positive atom values (where the objective has kinks)
    with a dense linear sweep and a geometric sweep of (0, max X], so the
    true cap is bracketed within one linear step.
    """
    x = X.values
    p = X.law.probabilities
    vmax = float(x.max())
    if vmax <= 0.0:
        return sharpe_ratio(X)
    if grid is None:
        pos = x[x > 0.0]
        atoms = np.unique(pos)
        lin = np.linspace(vmax / 2500.0, vmax, 2500)
        geo = vmax * np.geomspace(1e-4, 1.0, 500)
        # Half the smallest positive atom: below every kink, where capping
        # approaches the scale-free regime of the no-downside case.
        grid = np.unique(np.concatenate([atoms, lin, geo, [float(pos.min()) / 2.0]]))
    else:
        grid = np.asarray(grid, dtype=float)
        grid = grid[grid > 0.0]
    capped = np.minimum(x[:, None], grid[None, :])
    means = p @ capped
    variances = p @ (capped - means[None, :]) ** 2
    ratios = np.full(grid.shape, -math.inf)
    positive = variances > 0.0
    np.divide(means, np.sqrt(variances, where=positive, out=np.ones_like(variances)),
              out=ratios, where=positive)
    # Constant capped payoffs: Sharpe is +inf for positive constants, else -inf.
    constant = ~positive
    ratios[constant & (means > 0.0)] = math.inf
    return float(ratios.max())


def sr_to_value(sr: float) -> float:
    """Best quadratic-utility score from leveraging a ratio-sr payoff.

    Maps s to s^2 / (2 (1 + s^2)); +inf maps to the bliss score 1/2.  The
    map is even in s; it is the inverse of value_to_sr on s >= 0.
    """
    if math.isinf(sr):
        return 0.5
    s2 = sr * sr
    return s2 / (2.0 * (1.0 + s2))


def value_to_sr(value: float) -> float:
    """Inverse of sr_to_value on the branch sr >= 0.

    Defined for value in [0, 1/2]; value 1/2 maps to +inf.
    """
    if value < 0.0 or value > 0.5:
        raise DomainError(f"value {value!r} outside [0, 1/2]")
    if value == 0.5:
        return math.inf
    return math.sqrt(1.0 / (1.0 - 2.0 * value) - 1.0)
