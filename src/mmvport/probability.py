"""Finite-support probability laws and quadratic-utility functionals.

This module is the numerical bedrock of the package.  It models a finite
probability space as a vector of strictly positive atom probabilities
(:class:`DiscreteLaw`) and a random payoff as a vector of values on those
atoms (:class:`RandomVariable`), then evaluates the four wealth functionals
the rest of the package is built on:

``expected_quadratic_utility``
    F(X) = E[U(X)] with U(w) = w - w^2/2, the quadratic utility whose bliss
    level sits at wealth 1.

``expected_truncated_utility``
    F_t(X) = E[U(min(X, 1))].  Truncation at the bliss level makes the
    integrand nondecreasing in wealth, which is what the monotone theory
    needs.

``mean_variance_value``
    F_mv(X) = E[X] - Var(X)/2, the classical mean-variance score on the
    same risk-aversion scale.

``monotone_mean_variance_value``
    F_mmv(X) = sup_c { E[U(min(X - c, 1))] + c }, the cash-adjusted
    truncated functional.  The supremum is attained at the unique root of
    E[(1 - X + c)^+] = 1, which is piecewise linear and increasing in c, so
    the root is found exactly by the kink walk below; a bisection fallback
    exists purely as a cross-check.

The kink walk (``_kink_walk``) minimizes the truncated quadratic
sum_k w_k ((r_k - t g_k)^+)^2 - 2 h t over an interval, row by row.  It is
the one solver behind the hull cash level, the monotone Sharpe cap
(:mod:`mmvport.monotone_sharpe`) and the truncated one-step problems of
the backward induction (:mod:`mmvport.induction`).

Conventions
-----------
* Probabilities are strictly positive and sum to 1 within 1e-12; degenerate
  atoms must be removed by the caller before constructing a law.
* Sharpe ratios live on the extended real line with 1/0 = +inf,
  (-1)/0 = -inf and 0/0 = 0.
* Moment accumulation uses compensated summation (``math.fsum``) so that the
  functional identities hold to near machine precision even on laws with
  thousands of atoms and wildly mixed magnitudes.  The cap sweep sums all
  cap levels at once with ``_fsum_rows``, a Sum2 cascade (Ogita, Rump &
  Oishi 2005) whose error bound certifies, level by level, that it returns
  what ``math.fsum`` returns; a level it cannot certify is summed again by
  ``math.fsum``.
* Sharpe ratios and the monotone Sharpe cap are computed on X / 2^k with
  2^k the power of two just above max |X| (``_scaled``): exact, so the
  bits are those of X on every law whose squares stay in range, and finite
  on laws near either end of the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ValidationError

__all__ = [
    "DiscreteLaw",
    "RandomVariable",
    "HullValue",
    "mean",
    "second_moment",
    "variance",
    "moments",
    "sharpe_ratio",
    "quadratic_utility",
    "truncated_utility",
    "expected_quadratic_utility",
    "expected_truncated_utility",
    "mean_variance_value",
    "monotone_mean_variance_value",
    "cash_level_bisection",
]

_PROB_SUM_TOL = 1e-12
_UNIT = 2.0**-53  # unit roundoff of IEEE double


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite sample space carrying strictly positive atom probabilities.

    Parameters
    ----------
    probabilities : array-like of float
        Strictly positive weights summing to 1 within 1e-12.
    """

    probabilities: np.ndarray

    def __post_init__(self):
        p = _readonly(np.atleast_1d(self.probabilities))
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("law needs a nonempty 1-d probability vector")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probabilities must be finite")
        if np.any(p <= 0.0):
            raise ValidationError("atom probabilities must be strictly positive")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, off by more than {_PROB_SUM_TOL}"
            )
        object.__setattr__(self, "probabilities", p)

    @property
    def size(self) -> int:
        return int(self.probabilities.size)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteLaw":
        if n <= 0:
            raise ValidationError("uniform law needs n >= 1")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_weights(cls, weights) -> "DiscreteLaw":
        """Normalize strictly positive weights into a law."""
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.size == 0 or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and strictly positive")
        return cls(w / math.fsum(w.tolist()))

    def same_space(self, other: "DiscreteLaw") -> bool:
        if self is other:
            return True
        return (
            self.probabilities.shape == other.probabilities.shape
            and bool(np.array_equal(self.probabilities, other.probabilities))
        )


@dataclass(frozen=True)
class RandomVariable:
    """Payoff defined atom by atom on a :class:`DiscreteLaw`."""

    law: DiscreteLaw
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(np.atleast_1d(self.values))
        if v.shape != self.law.probabilities.shape:
            raise DimensionMismatch(
                f"values shape {v.shape} does not match law of size {self.law.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("payoff values must be finite")
        object.__setattr__(self, "values", v)

    def _check_same_space(self, other: "RandomVariable") -> None:
        if not self.law.same_space(other.law):
            raise DimensionMismatch("random variables live on different laws")

    def __add__(self, other):
        if isinstance(other, RandomVariable):
            self._check_same_space(other)
            return RandomVariable(self.law, self.values + other.values)
        return RandomVariable(self.law, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RandomVariable):
            self._check_same_space(other)
            return RandomVariable(self.law, self.values - other.values)
        return RandomVariable(self.law, self.values - float(other))

    def __rsub__(self, other):
        return RandomVariable(self.law, float(other) - self.values)

    def __mul__(self, scalar):
        return RandomVariable(self.law, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return RandomVariable(self.law, -self.values)

    def cap(self, level: float) -> "RandomVariable":
        """Pointwise minimum with a constant level."""
        return RandomVariable(self.law, np.minimum(self.values, float(level)))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def _fsum_dot(p: np.ndarray, x: np.ndarray) -> float:
    return math.fsum((p * x).tolist())


def mean(X: RandomVariable) -> float:
    return _fsum_dot(X.law.probabilities, X.values)


def second_moment(X: RandomVariable) -> float:
    return _fsum_dot(X.law.probabilities, X.values * X.values)


def _mean_var(X: RandomVariable) -> tuple[float, float]:
    """(mean, variance), the variance accumulated as E[(X - m)^2]."""
    p = X.law.probabilities
    m = _fsum_dot(p, X.values)
    centred = X.values - m
    return m, _fsum_dot(p, centred * centred)


def moments(X: RandomVariable) -> tuple[float, float, float]:
    """Return (mean, second moment, variance) in one pass over the atoms.

    The variance is accumulated as E[(X - m)^2], which is nonnegative by
    construction and exact for constant payoffs.
    """
    m, var = _mean_var(X)
    return m, second_moment(X), var


def variance(X: RandomVariable) -> float:
    return _mean_var(X)[1]


def _scaled(X: RandomVariable) -> tuple[RandomVariable, int]:
    """X / 2^k with k the binary exponent of max |X|, and k.

    The scaled values lie in (-1, 1), so their squares neither overflow
    nor, for the largest atoms, underflow.  Division by a power of two is
    exact, so a scale-free quantity such as the Sharpe ratio keeps its bits
    on every law whose unscaled computation stays in range.
    """
    k = math.frexp(float(np.max(np.abs(X.values))))[1]
    return RandomVariable(X.law, np.ldexp(X.values, -k)), k


def _rescale(value: float, k: int) -> float:
    """value * 2^k, infinite where that overflows."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, k))


def sharpe_ratio(X: RandomVariable) -> float:
    """Mean over standard deviation on the extended real line.

    Zero variance resolves by the sign of the mean: positive mean gives
    +inf, negative mean -inf, zero mean 0.  The ratio is taken on X / 2^k
    (see ``_scaled``), which leaves it unchanged and keeps laws near the
    ends of the float range finite.
    """
    X = _scaled(X)[0]
    if np.all(X.values == X.values[0]):
        c = mean(X)
        if c > 0.0:
            return math.inf
        if c < 0.0:
            return -math.inf
        return 0.0
    m, var = _mean_var(X)
    if var <= 0.0:
        return math.inf if m > 0.0 else (-math.inf if m < 0.0 else 0.0)
    return m / math.sqrt(var)


def _fsum_rows(columns, size: int, row_terms) -> np.ndarray:
    """``math.fsum`` of each of ``size`` rows, fed one column at a time.

    ``columns`` yields float arrays of shape (size,), term j of every row;
    ``row_terms(i)`` returns row i's terms in column order.  Each row is
    summed by the Sum2 cascade of Ogita, Rump & Oishi (2005): a running
    sum s, the float sum e of the TwoSum errors, and a = sum |t|, so that
    |s + e - S| <= gamma_n^2 a for the exact sum S of n terms.  TwoSum(s, e)
    = c0 + r exactly; c0 is the correctly rounded S, as ``math.fsum``
    returns it, wherever |r| plus twice that bound stays strictly below
    half the gap from c0 to its neighbour toward zero.  That half gap
    rounds to 0 for |c0| <= 2^-1021 and a non-finite row makes r or the
    bound NaN or inf, so every other row (non-finite, zero or subnormal
    c0, or a near-tie) is summed again by ``math.fsum`` over
    ``row_terms``, and each result is exact.  O(size) memory.
    """
    s, e, a = np.zeros(size), np.zeros(size), np.zeros(size)
    s_new, z, q = np.empty(size), np.empty(size), np.empty(size)
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in columns:
            # TwoSum: s + t = s_new + q exactly
            np.add(s, t, out=s_new)
            np.subtract(s_new, s, out=z)
            np.subtract(s_new, z, out=q)
            np.subtract(s, q, out=q)
            np.subtract(t, z, out=z)
            q += z
            e += q
            s, s_new = s_new, s
            np.abs(t, out=z)
            a += z
            n += 1
        c0 = s + e
        z = c0 - s
        r = (s - (c0 - z)) + (e - z)
        nu = n * _UNIT
        gamma = nu / (1.0 - nu)
        bound = (2.0 * gamma * gamma) * a
        half_gap = np.spacing(np.nextafter(np.abs(c0), 0.0)) / 2.0
        exact = np.abs(r) + bound < half_gap
    out = np.where(exact, c0, 0.0)
    for i in np.flatnonzero(~exact).tolist():
        out[i] = math.fsum(row_terms(i))
    return out


def _capped_sharpe_ratios(X: RandomVariable, levels) -> np.ndarray:
    """``[sharpe_ratio(X.cap(level)) for level in levels]``, bit for bit.

    Each capped payoff min(X, level) is scaled by the power of two that
    ``sharpe_ratio`` picks for it, from max |min(X, level)| =
    max(|min(min X, level)|, |min(max X, level)|).  Its mean and centred
    variance are the exact sums of the same IEEE terms p_j y_j and
    p_j (c c), with y_j the scaled min(x_j, level) and c = y_j - m, taken
    for every level at once by ``_fsum_rows`` in a loop over the atoms.
    min(X, level) is constant exactly when level <= min X or X is
    constant.  O(levels x atoms) time and O(levels) memory.
    """
    p = X.law.probabilities
    x = X.values
    levels = np.asarray(levels, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    shift = -np.frexp(
        np.maximum(np.abs(np.minimum(lo, levels)), np.abs(np.minimum(hi, levels)))
    )[1]
    buf = np.empty_like(levels)

    def capped(j):  # atom j at every level
        np.minimum(x[j], levels, out=buf)
        return np.ldexp(buf, shift, out=buf)

    def level(i):  # every atom at level i, as sharpe_ratio sees it
        return np.ldexp(np.minimum(x, levels[i]), shift[i])

    def means():
        for j in range(x.size):
            yield np.multiply(capped(j), p[j], out=buf)

    m = _fsum_rows(means(), levels.size, lambda i: (p * level(i)).tolist())

    def squares():
        for j in range(x.size):
            c = np.subtract(capped(j), m, out=buf)
            np.multiply(c, c, out=c)
            yield np.multiply(c, p[j], out=c)

    def square_terms(i):
        c = level(i) - m[i]
        return (p * (c * c)).tolist()

    var = _fsum_rows(squares(), levels.size, square_terms)
    flat = (levels <= lo) | (lo == hi) | (var <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = m / np.sqrt(var)
    signs = np.where(m > 0.0, math.inf, np.where(m < 0.0, -math.inf, 0.0))
    return np.where(flat, signs, ratios)


def quadratic_utility(w):
    """U(w) = w - w^2/2, elementwise."""
    w = np.asarray(w, dtype=float)
    out = w - 0.5 * w * w
    return float(out) if out.ndim == 0 else out


def truncated_utility(w):
    """U(min(w, 1)), elementwise; constant 1/2 above the bliss level."""
    w = np.minimum(np.asarray(w, dtype=float), 1.0)
    out = w - 0.5 * w * w
    return float(out) if out.ndim == 0 else out


def expected_quadratic_utility(X: RandomVariable) -> float:
    return _fsum_dot(X.law.probabilities, quadratic_utility(X.values))


def expected_truncated_utility(X: RandomVariable) -> float:
    return _fsum_dot(X.law.probabilities, truncated_utility(X.values))


def mean_variance_value(X: RandomVariable) -> float:
    m, var = _mean_var(X)
    return m - 0.5 * var


class HullValue(NamedTuple):
    """Value of the cash-adjusted truncated functional and its maximizer."""

    value: float
    cash_level: float


def _kink_walk(r, g, w, h: float = 0.0, lo: float = -math.inf,
               hi: float = math.inf) -> np.ndarray:
    """Minimize f(t) = sum_k w_k ((r_k - t g_k)^+)^2 - 2 h t over [lo, hi].

    The one kink walk of the truncated quadratic, row by row over
    (rows, m) arrays: a 1-d input is one row and scalars broadcast; the
    weights w are nonnegative.  U(min(x, 1)) = 1/2 - ((1 - x)^+)^2 / 2
    makes the monotone Sharpe cap, the hull cash level and every
    truncated one-step problem a minimization of this f.

    f is convex and piecewise quadratic with kinks at t = r_k / g_k, and
    -f'(t)/2 = sum_k w_k g_k (r_k - t g_k)^+ + h is nonincreasing: on the
    piece between two kinks it is (A + h) - t B, with A and B the sums of
    w r g and w g^2 over the active terms (r - t g > 0).  Each row's
    kinks are sorted, cumulative sums of A and B locate the first kink
    where -f'/2 is no longer positive, so the piece to its left holds the
    minimizer; that piece's A and B are then summed again on the unsorted
    arrays, and the stationary point (A + h) / B is clamped to the piece,
    then to [lo, hi].  O(m log m) time per row and O(rows m) memory.
    """
    r, g, w = np.broadcast_arrays(
        *(np.atleast_2d(np.asarray(v, dtype=float)) for v in (r, g, w))
    )
    moving = g != 0.0
    kink = np.where(moving, r / np.where(moving, g, 1.0), np.inf)
    a = w * r * g
    b = w * g * g
    up = g > 0.0
    # left of every kink the terms with g > 0 are active; passing a kink
    # drops its term when g > 0 and adds it when g < 0
    order = np.argsort(kink, axis=1, kind="stable")
    ends = np.take_along_axis(kink, order, axis=1)
    flip = np.where(up, -1.0, 1.0)
    A = np.sum(a * up, axis=1, keepdims=True) + np.cumsum(
        np.take_along_axis(flip * a, order, axis=1), axis=1
    )
    B = np.sum(b * up, axis=1, keepdims=True) + np.cumsum(
        np.take_along_axis(flip * b, order, axis=1), axis=1
    )
    with np.errstate(invalid="ignore"):
        slope = A + h - ends * B
    slope[ends == np.inf] = -np.inf
    n = r.shape[0]
    inf = np.full((n, 1), np.inf)
    slope = np.concatenate([slope, -inf], axis=1)
    ends = np.concatenate([-inf, ends, inf], axis=1)
    j = np.argmax(slope <= 0.0, axis=1)
    rows = np.arange(n)
    left, right = ends[rows, j], ends[rows, j + 1]
    active = np.where(up, kink >= right[:, None], kink <= left[:, None])
    num = np.sum(a * active, axis=1) + h
    den = np.sum(b * active, axis=1)
    t = np.divide(num, den, out=np.where(num > 0.0, np.inf, -np.inf), where=den > 0.0)
    return np.clip(np.clip(t, left, right), lo, hi)


def cash_level_bisection(
    X: RandomVariable,
    tol_scale: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of E[(1 - X + c)^+] = 1 by bracketed bisection.

    Slow reference for the kink walk; the initial bracket
    [min(X) - 2, max(X) + 2] is widened geometrically if needed and the
    search stops once the bracket width falls below tol_scale * (1 + |c|).
    """
    p = X.law.probabilities
    x = X.values

    def h(c: float) -> float:
        return math.fsum((p * np.maximum(1.0 - x + c, 0.0)).tolist()) - 1.0

    lo = float(x.min()) - 2.0
    hi = float(x.max()) + 2.0
    span = hi - lo
    for _ in range(200):
        if h(lo) < 0.0:
            break
        lo -= span
        span *= 2.0
    span = hi - lo
    for _ in range(200):
        if h(hi) > 0.0:
            break
        hi += span
        span *= 2.0
    for _ in range(max_iter):
        c = 0.5 * (lo + hi)
        if hi - lo <= tol_scale * (1.0 + abs(c)):
            return c
        if h(c) >= 0.0:
            hi = c
        else:
            lo = c
    return 0.5 * (lo + hi)


def monotone_mean_variance_value(X: RandomVariable) -> HullValue:
    """Evaluate sup_c { E[U(min(X - c, 1))] + c } and its maximizer.

    The first-order condition is E[(1 - X + c)^+] = 1; the objective is
    concave in c so the root is the global maximizer.  It is the kink
    walk's minimizer of sum p ((1 - X + c)^+)^2 - 2c (r = 1 - X, g = -1).
    """
    c_hat = float(_kink_walk(1.0 - X.values, -1.0, X.law.probabilities, h=1.0)[0])
    value = expected_truncated_utility(X - c_hat) + c_hat
    return HullValue(value=value, cash_level=c_hat)
