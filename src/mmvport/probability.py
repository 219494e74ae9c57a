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
    the root is found exactly by the kink walk below.

The kink walk (``_kink_walk``) minimizes the truncated quadratic
sum_k w_k ((r_k - t g_k)^+)^2 - 2 h t over an interval, row by row.  It is
the one solver behind the hull cash level, the monotone Sharpe cap
(:mod:`mmvport.monotone_sharpe`) and the truncated one-step problems of
the backward induction (:mod:`mmvport.induction`).

Conventions
-----------
* Probabilities are strictly positive and sum to 1 within 1e-12; degenerate
  atoms must be removed by the caller before constructing a law.
* Every Sharpe ratio of the package is a row of one computation,
  ``_capped_sharpe_ratios(X, levels)``: the ratio of min(X, level) on the
  extended real line (1/0 = +inf, (-1)/0 = -inf and 0/0 = 0), taken on
  the capped payoff divided by its own power of two, with exact sums.
  ``sharpe_ratio`` is its one-level case, at level +inf, as ``_fsum`` is
  the one-row case of ``_fsum_rows``.  ``_capped_sharpe_bounds``
  brackets each level's ratio between two floats from three prefix sums,
  in O((atoms + levels) log atoms), so a caller that needs only a ratio's
  printed text runs the exact pass on the few levels whose two ends
  print differently.
* Every sum of the package is exact: ``_fsum_rows(rows)`` returns, for each
  row of a 2-d array, the bits ``math.fsum`` returns for it, and raises
  what it raises, so the functional identities hold to near machine
  precision even on laws with thousands of atoms and wildly mixed
  magnitudes.  It alone decides how a sum is taken: numpy for several
  rows of one or two terms, ``math.fsum`` row by row below
  ``_FSUM_ROWS_FROM`` terms, and above it the error-free extraction of
  AccSum (Rump, Ogita & Oishi 2008), which splits each term into a high
  part on a power-of-two grid set by the row's own largest term, summed
  exactly, and a remainder whose float sum has an a-priori error bound,
  and sums again by ``math.fsum`` a row that bound cannot certify.
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
]

_PROB_SUM_TOL = 1e-12
_UNIT = 2.0**-53  # unit roundoff of IEEE double
# terms per chunk of the exact cap sweep: 128 KB, glibc's initial mmap
# threshold; freeing larger temporaries raises that threshold for good,
# and with it the heap the process keeps
_CHUNK = 16384
# terms from which ``_fsum_rows`` sums an array by the extraction rather
# than by math.fsum row by row.  Best of 7, us, math.fsum / extraction, on
# terms p x of a law (2-core Xeon, numpy 2.4):
#   terms   one row   rows of 64   rows of 8   rows of 3
#     768   24 / 28     26 / 31      32 / 60     58 / 87
#    1024   34 / 28     37 / 37      48 / 73     96 / 149
#    2048   73 / 35     79 / 40      88 / 101   151 / 171
# Rows of 8 pass by 4096 terms (232 / 173); rows of 3 stay faster by
# math.fsum (6.3 / 7.4 ms at 65 536), as a quarter of them are near-ties
# that go back to it.
_FSUM_ROWS_FROM = 1024


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place."""
    a.setflags(write=False)
    return a


def _normalized(w: np.ndarray) -> np.ndarray:
    """Finite positive weights over their sum; 0 where that underflows.

    Weights whose sum passes the float range are first divided by the
    power of two just above the largest, which is exact except for weights
    it takes below the normal range.
    """
    try:
        total = _fsum(w)
    except OverflowError:
        w = np.ldexp(w, -math.frexp(float(w.max()))[1])
        total = _fsum(w)
    return w / total


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
        p = _frozen(np.array(np.atleast_1d(self.probabilities), dtype=float))
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("law needs a nonempty 1-d probability vector")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probabilities must be finite")
        if np.any(p <= 0.0):
            raise ValidationError("atom probabilities must be strictly positive")
        total = _fsum(p)
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
        """Normalize strictly positive weights into a law (``_normalized``).

        A weight whose probability underflows to 0 is refused as any zero
        probability is.
        """
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.size == 0 or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and strictly positive")
        return cls(_normalized(w))

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
        v = _frozen(np.array(np.atleast_1d(self.values), dtype=float))
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


def _fsum(t: np.ndarray) -> float:
    """``math.fsum(t.tolist())`` of a 1-d float array: one row of ``_fsum_rows``."""
    return float(_fsum_rows(t[None, :])[0])


def mean(X: RandomVariable) -> float:
    return _fsum(X.law.probabilities * X.values)


def second_moment(X: RandomVariable) -> float:
    return _fsum(X.law.probabilities * (X.values * X.values))


def _mean_var(X: RandomVariable) -> tuple[float, float]:
    """(mean, variance), the variance accumulated as E[(X - m)^2] and
    infinite where it passes the float range."""
    m = mean(X)
    with np.errstate(over="ignore"):
        centred = X.values - m
        return m, _fsum(X.law.probabilities * (centred * centred))


def moments(X: RandomVariable) -> tuple[float, float, float]:
    """Return (mean, second moment, variance): three fsum passes over the atoms.

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
    +inf, negative mean -inf, zero mean 0.  This is the one-level case of
    ``_capped_sharpe_ratios``, at level +inf, so the ratio is taken on
    X / 2^k (see ``_scaled``), which leaves it unchanged and keeps laws
    near the ends of the float range finite.
    """
    return float(_capped_sharpe_ratios(X, [math.inf])[0])


def _fsum_rows(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-d float array, bit for bit.

    rows has shape (k, n); the k sums are those ``math.fsum(row.tolist())``
    returns, and a row it raises on raises the same here.  Each array is
    summed the first of three ways that applies:

    * several rows of one or two terms by numpy, plus 0.0, where every
      total is finite: one float addition is correctly rounded, and
      ``math.fsum`` returns 0.0 for -0.0 + -0.0;
    * fewer than ``_FSUM_ROWS_FROM`` terms in all by ``math.fsum``, one row
      at a time;
    * otherwise by the error-free extraction of AccSum (Rump, Ogita &
      Oishi 2008), each row bounded by its own largest |t|, read from the
      row's max and min.

    With sigma the power of two at least 2^M largest, 2^M >= n + 2, the
    high parts q = (sigma + t) - sigma are multiples of u sigma whose sums
    stay below sigma, so their sum tau is exact in any order, and the
    remainders t - q are exact with |t - q| <= u sigma, so a float sum rho
    of them, by any summation tree, is within gamma_n n u sigma <=
    2 n^2 u^2 sigma of theirs.  The rows thus reduce in two C-level sums,
    over a buffer whose longer axis is contiguous.  TwoSum(tau, rho) =
    c0 + r exactly; c0 is the correctly rounded row sum, as ``math.fsum``
    returns it, wherever |r| plus that bound stays strictly below half the
    gap from c0 to its neighbour toward zero.  That half gap rounds to 0
    for |c0| <= 2^-1021, and a non-finite row (or one whose sigma
    overflows) makes sigma, r or the bound NaN or inf, so every other row
    (non-finite, zero or subnormal c0, or a near-tie) is summed again by
    ``math.fsum``, and each result is exact.
    """
    k, n = rows.shape
    if n <= 2 and k > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            total = rows.sum(axis=1) + 0.0
        if np.isfinite(total).all():
            return total
    if rows.size < _FSUM_ROWS_FROM:
        return np.fromiter(map(math.fsum, rows.tolist()), float, k)
    with np.errstate(over="ignore", invalid="ignore"):
        largest = np.maximum(rows.max(axis=1), -rows.min(axis=1))
        sigma = np.ldexp(np.where(np.isfinite(largest), 1.0, largest),
                         np.frexp(largest)[1] + (n + 1).bit_length())
        q = np.empty((k, n), order="C" if n > k else "F")
        np.add(rows, sigma[:, None], out=q)
        q -= sigma[:, None]
        tau = np.add.reduce(q, axis=1)
        np.subtract(rows, q, out=q)
        rho = np.add.reduce(q, axis=1)
        c0 = tau + rho
        z = c0 - tau
        r = (tau - (c0 - z)) + (rho - z)
        # 2 n^2 u^2 sigma is exact above the subnormal range, rounded up below
        bound = np.nextafter(sigma * (2.0 * n * n * _UNIT * _UNIT), math.inf)
        half_gap = np.spacing(np.nextafter(np.abs(c0), 0.0)) / 2.0
        exact = np.abs(r) + bound < half_gap
    out = np.where(exact, c0, 0.0)
    for i in np.flatnonzero(~exact).tolist():
        out[i] = math.fsum(rows[i].tolist())
    return out


def _capped_sharpe_ratios(X: RandomVariable, levels) -> np.ndarray:
    """The Sharpe ratio of min(X, level) for each level, on the extended
    real line.

    This is the package's one Sharpe-ratio computation: ``sharpe_ratio``
    is its level +inf, ``monotone_sharpe`` reads it at the cap, and the
    CLI's cap sweep sends here the levels that ``_capped_sharpe_bounds``
    cannot decide (the bounds are tested against this function).

    Each capped payoff min(X, level) is divided by 2^e, e the binary
    exponent of max |min(X, level)| = max(|min(min X, level)|,
    |min(max X, level)|), as ``_scaled`` divides a payoff.  On y, the
    scaled payoff, the mean m is the sum of the terms p_j y_j and the
    variance var that of the centred terms p_j (c c), c = y_j - m, each
    level's row summed by ``_fsum_rows``, so every sum has ``math.fsum``'s
    bits.  The ratio is m / sqrt(var), except where min(X, level) is
    constant (level <= min X, or X constant) or var is 0: there it is
    +inf, -inf or 0 by the sign of m.

    One dense pass, over chunks of levels: a chunk holds max(1, ``_CHUNK``
    // atoms) levels, so each of its three temporaries is at most
    ``_CHUNK`` floats, or one row of atoms on laws of more atoms than
    that.  Time O(levels x atoms).
    """
    lv = np.asarray(levels, dtype=float)
    x, p = X.values, X.law.probabilities
    n = x.size
    lo, hi = X.min(), X.max()
    step = max(1, _CHUNK // n)
    out = np.empty(lv.size)
    for a in range(0, lv.size, step):
        K = lv[a : a + step, None]
        shift = -np.frexp(np.maximum(np.abs(np.minimum(lo, K)), np.abs(np.minimum(hi, K))))[1]
        y = np.minimum(x, K)  # one row per level
        np.ldexp(y, shift, out=y)
        t = y * p
        m = _fsum_rows(t)
        y -= m[:, None]
        np.square(y, out=y)
        y *= p
        var = _fsum_rows(y)
        flat = (K[:, 0] <= lo) | (lo == hi) | (var <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = m / np.sqrt(var)
        signs = np.where(m > 0.0, math.inf, np.where(m < 0.0, -math.inf, 0.0))
        out[a : a + step] = np.where(flat, signs, ratios)
    return out


def _prefix_sums(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums s[i] of t[:i] for i = 0..n, and bounds e[i] >= |s[i] - sum(t[:i])|.

    ``np.cumsum`` adds left to right, h[i] = fl(h[i-1] + t[i]), and
    TwoSum (Knuth) recovers each step's rounding error exactly:
    h[i-1] + t[i] = h[i] + err[i].  The sum of t[:i] is then h + the sum
    of err, and a float sum of err is within gamma_n n u max|h| <=
    2 n^2 u^2 max|h| of it (|err| <= u |h|), with max|h| over the prefix;
    adding the two parts rounds once more, by at most u |s| plus 2^-1074.
    The bounds are evaluated in floats (see ``_capped_sharpe_bounds`` for
    the margin that covers that).
    """
    n = t.size
    head = np.cumsum(t)
    prev = np.concatenate([[0.0], head[:-1]])
    z = head - prev
    err = (prev - (head - z)) + (t - z)
    s = np.concatenate([[0.0], head + np.cumsum(err)])
    worst = np.concatenate([[0.0], np.maximum.accumulate(np.abs(head))])
    e = _UNIT * np.abs(s) + (2.0 * n * n * _UNIT * _UNIT) * worst + 2.0**-1074
    return s, e


def _capped_sharpe_bounds(X: RandomVariable, levels) -> tuple[np.ndarray, np.ndarray]:
    """Floats lo <= R <= hi around each R of ``_capped_sharpe_ratios(X, levels)``.

    A level is undecided where lo and hi are NaN.  The other levels bound
    R, the float the exact kernel returns, not only the real Sharpe ratio
    of min(X, K): R = fl(m / fl(sqrt(var))) with m = fl(S1) and var =
    fl(S2), S1 and S2 the real sums of the kernel's IEEE terms (see
    ``_capped_sharpe_ratios``).  Flat levels (K <= min X, or X constant)
    are decided exactly, as the kernel decides them: +inf, -inf or 0 by
    the sign of min(K, max X).

    Every level K sees the atoms below it (x < K, the first b of the
    sorted atoms) at y = ldexp(x, s), its shift, and the others at the
    one value C = ldexp(min(K, max X), s).  The atoms are sorted once and
    three prefix sums (``_prefix_sums``) are taken once, at the shift s0
    of X itself (s >= s0 on every level above min X): of p, of fl(p y0)
    and of fl(p fl(y0^2)), y0 = ldexp(x, s0); a level reads them at b and
    scales them by 2^(s - s0) and 2^(2(s - s0)), exactly.  The mass above
    the level, U0, is a suffix sum of p.  Time O((atoms + levels) log
    atoms), memory O(atoms + levels).

    The error model, u = 2^-53, d = s - s0, n atoms:

    * mean terms.  Below the level the kernel's terms fl(p y) are 2^d
      fl(p y0) whenever neither product is subnormal; otherwise they
      differ by at most 2^(d - 1073) each.  Above it each term fl(p C)
      is within u p |C| plus 2^-1075 of p C;
    * prefix sums.  Each is within its ``_prefix_sums`` bound, scaled
      with it;
    * the rounding of m.  S1 lies within e1 of the estimate m~, the
      sum of the errors above and of the rounding of m~'s own few
      operations; rounding to nearest is monotone, so m = fl(S1) lies
      in the floats around [m~ - e1, m~ + e1];
    * the variance terms.  Each fl(p fl(fl(y - m)^2)) has three
      roundings, relative u each (the difference's counted twice, as it
      is squared), plus 2^-1074 where one is subnormal.  The terms are
      nonnegative, so S2 is within gamma_4 W(m) + n 2^-1073 of W(m) =
      sum p (y - m)^2 over the kernel's y;
    * how m carries into W.  W(m) = B2 - 2 m B1 + m^2 B0, with B0, B1
      and B2 the real sums of p, p y and p y^2: W(m) - W(m~) =
      (m - m~)(B0 (m - m~) + 2 (B0 m~ - B1)), and B0 m~ - B1 is only the
      rounding of m~ and the 1e-12 by which B0 may miss 1.  B1 carries,
      beyond the mean's errors, the roundings of the terms fl(p y), at
      most u sum p |y| <= u sqrt(B0 B2) (Cauchy-Schwarz); B2 those of
      fl(p fl(y^2)), 2u relative, and the prefix sums' bounds.  The
      estimate W~ = B2~ - m~ (m~ (2 - B0~)) (B1's estimate is m~) rounds
      four times more;
    * subnormals.  Each sum gets (n + 8) 2^(d - 1070) (mean) or
      (n + 8) 2^(2d - 1066) (variance) for every subnormal term, scaled
      value or product, far above what they can add;
    * the square root and the division.  Correctly rounded sqrt and
      division are monotone, so with float bounds m_lo <= m <= m_hi and
      v_lo <= var <= v_hi, R lies between the same operations on the
      ends: for m > 0, [fl(m_lo / fl(sqrt(v_hi))), fl(m_hi /
      fl(sqrt(v_lo)))].

    The error bounds e1 and e_var are sums of a few dozen nonnegative
    floats, and of values used in place of the real ones they bound;
    each is doubled, which covers both.  A level is undecided unless m_lo
    and m_hi are normal floats of one sign, v_lo is normal and every end
    is finite: intermediates outside the normal range, a mean whose sign
    is not certain and a variance not certainly above 0 are left to the
    kernel.
    """
    lv = np.asarray(levels, dtype=float)
    ranked = np.argsort(X.values, kind="stable")
    x, p = X.values[ranked], X.law.probabilities[ranked]
    n = x.size
    lo, hi = float(x[0]), float(x[-1])
    u = _UNIT
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        shift = -np.frexp(
            np.maximum(np.abs(np.minimum(lo, lv)), np.abs(np.minimum(hi, lv)))
        )[1]
        C = np.ldexp(np.minimum(lv, hi), shift)
        b = np.searchsorted(x, lv)
        k = math.frexp(max(-lo, hi))[1]  # s0 = -k, the shift of X itself
        d = shift + k  # s - s0
        y0 = np.ldexp(x, -k)
        L1, eL1 = (np.ldexp(v[b], d) for v in _prefix_sums(p * y0))
        L2, eL2 = (np.ldexp(v[b], 2 * d) for v in _prefix_sums(p * np.square(y0)))
        above, e_above = _prefix_sums(p[::-1])
        U0, eU0 = above[n - b], e_above[n - b]
        B0, eB0 = above[n], e_above[n]
        a1 = np.ldexp(n + 8.0, d - 1070)
        a2 = np.ldexp(n + 8.0, 2 * d - 1066)
        # the mean: S1 = (lower terms) + sum over the upper atoms of fl(p C)
        CU = C * U0
        m = L1 + CU
        e1 = 2.0 * (u * (np.abs(m) + np.abs(CU) + np.abs(C) * (U0 + eU0))
                    + eL1 + np.abs(C) * eU0 + a1)
        # the variance about the kernel's m
        eL2 = eL2 + 3.0 * u * L2 + a2
        C2U = C * C * U0
        B2 = L2 + C2U
        eB2 = eL2 + C * C * eU0 + u * (B2 + 2.0 * C2U)
        eB1 = e1 + u * np.sqrt((B0 + eB0) * (L2 + eL2))
        var = B2 - m * (m * (2.0 - B0))
        carry = e1 * ((B0 + eB0) * e1 + 2.0 * (np.abs(m) * (abs(B0 - 1.0) + eB0) + eB1))
        eW = (eB2 + 2.0 * np.abs(m) * eB1 + m * m * eB0 + 4.0 * u * m * m
              + u * np.abs(var) + carry)
        e_var = 2.0 * (eW + 5.0 * u * (np.abs(var) + eW) + a2)
        m_lo, m_hi = np.nextafter(m - e1, -math.inf), np.nextafter(m + e1, math.inf)
        v_lo, v_hi = np.nextafter(var - e_var, -math.inf), np.nextafter(var + e_var, math.inf)
        tiny = np.finfo(float).tiny
        positive = m_lo >= tiny
        sd_lo, sd_hi = np.sqrt(v_lo), np.sqrt(v_hi)
        r_lo = m_lo / np.where(positive, sd_hi, sd_lo)
        r_hi = m_hi / np.where(positive, sd_lo, sd_hi)
    decided = ((positive | (m_hi <= -tiny)) & (v_lo >= tiny)
               & np.isfinite(r_lo) & np.isfinite(r_hi))
    flat = (lv <= lo) | (lo == hi)
    top = np.minimum(lv, hi)
    signs = np.where(top > 0.0, math.inf, np.where(top < 0.0, -math.inf, 0.0))
    r_lo = np.where(flat, signs, np.where(decided, r_lo, math.nan))
    r_hi = np.where(flat, signs, np.where(decided, r_hi, math.nan))
    return r_lo, r_hi


def quadratic_utility(w):
    """U(w) = w - w^2/2, elementwise; -inf where w^2 passes the float range."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        out = w - 0.5 * w * w
    return float(out) if out.ndim == 0 else out


def truncated_utility(w):
    """U(min(w, 1)), elementwise; constant 1/2 above the bliss level."""
    return quadratic_utility(np.minimum(np.asarray(w, dtype=float), 1.0))


def expected_quadratic_utility(X: RandomVariable) -> float:
    return _fsum(X.law.probabilities * quadratic_utility(X.values))


def expected_truncated_utility(X: RandomVariable) -> float:
    return _fsum(X.law.probabilities * truncated_utility(X.values))


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


def monotone_mean_variance_value(X: RandomVariable) -> HullValue:
    """Evaluate sup_c { E[U(min(X - c, 1))] + c } and its maximizer.

    The first-order condition is E[(1 - X + c)^+] = 1; the objective is
    concave in c so the root is the global maximizer.  It is the kink
    walk's minimizer of sum p ((1 - X + c)^+)^2 - 2c (r = 1 - X, g = -1).
    """
    c_hat = float(_kink_walk(1.0 - X.values, -1.0, X.law.probabilities, h=1.0)[0])
    value = expected_truncated_utility(X - c_hat) + c_hat
    return HullValue(value=value, cash_level=c_hat)
