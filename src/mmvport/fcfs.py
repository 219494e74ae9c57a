"""Free cash-flow-stream analysis of a scenario-tree market.

``analyze`` runs the full pipeline on a viable market: both
variance-optimal densities, the quadratic and truncated primal optima and
the monotone mean-variance allocation, then assembles the market-level
report.  The headline quantities all follow from the two optimal second
moments a_s (signed) and a_n (nonnegative):

    u    = 1/2 - 1/(2 a_s)      best quadratic utility from wealth 0
    u_m  = 1/2 - 1/(2 a_n)      best truncated utility from wealth 0
    u_mv = (a_s - 1)/2          best mean-variance score from wealth 0
    u_mmv= (a_n - 1)/2          best monotone mean-variance score
    sr_max   = sqrt(a_s - 1)    maximal Sharpe ratio
    sr_m_max = sqrt(a_n - 1)    maximal monotone Sharpe ratio
    c_hat_m  = a_n - 1          precommitted cash level of the optimum

Four logically equivalent completeness tests are evaluated on separate
computational routes:

    a. u_mmv == u_mv            (dual second moments)
    b. u_m == u                 (primal objective values)
    c. max quadratic-optimal payoff <= 1     (payoff route)
    d. signed variance-optimal density >= 0  (density route)

A free cash-flow stream exists exactly when the tests are false: the
market then rewards throwing wealth away, and the certificate payoff
(1 - W_m)^+ built from the truncated-optimal wealth W_m is a nonzero
claim the strategy dominates.  ``verify_fcfs_certificate`` re-derives the
certificate from the reported strategy alone: it withdraws the upper
excess lam*(W_m - 1)^+ as free cash and checks the left-over wealth
lam*min(W_m, 1) still scores u_mmv on the plain mean-variance scale,
strictly above the no-withdrawal frontier value u_mv.  Verification
presupposes the report claims existence; calling it on a report with
``fcfs_exists`` false is itself a certificate error.

Under the backward-induction engine (:mod:`mmvport.induction`) the four
routes collapse into two: (a) and (b) both measure the gap between the
two opportunity processes at the root, on two scales, and (c) and (d)
both measure how far the quadratic-optimal payoff W_q overshoots 1, since
the signed density is a_s (1 - W_q).  So (a) <=> (b) and (c) <=> (d) up
to their tolerances.  The independent cross-check lives in the tests,
which compare the engine with the dense Gram, active-set and clip-set
solvers on small trees.

The verdict is the density route: ``fcfs_exists`` is true exactly when
the signed variance-optimal density dips below -VECTOR_TOL, that is, when
the variance-optimal signed martingale measure is not a probability
measure: ``DualSolution.signed`` (:mod:`mmvport.dual`, the home of
VECTOR_TOL), of which ``equiv["d"]`` is the negation.  The routes see
that boundary at different resolutions: z_s is the minimum-norm density,
so a_n - a_s = E[(z_n - z_s)^2], and a dip of size eps on a leaf of
probability p moves the value routes by only about p eps^2.  So the vote
may split near the boundary; a split, or any discriminant within a
factor 10 of its tolerance, marks the report ``marginal``.  The one
internal assertion is that identity: a residual beyond VALUE_TOL * a_n
raises InconsistentEquivalence, a solver bug and never a valid analysis
outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dual import (
    VECTOR_TOL, DualSolution, variance_optimal_nonneg, variance_optimal_signed
)
from .errors import CertificateInvalid, InconsistentEquivalence
from .market import ScenarioTree, check_viability, terminal_wealth
from .primal import (
    MmvAllocation,
    PrimalSolution,
    _allocation_from_hull,
    optimal_quadratic,
    optimal_truncated,
)
from .probability import RandomVariable, _frozen, _fsum, mean_variance_value

__all__ = ["FcfsReport", "analyze", "verify_fcfs_certificate", "report_to_dict"]

VALUE_TOL = 1e-8
_PAYOFF_FLOOR = 1e-12
_MARGINAL_BAND = 10.0


@dataclass(frozen=True, eq=False)
class FcfsReport:
    """Full analysis of one market; see the module docstring for fields."""

    tree: ScenarioTree
    u: float
    u_m: float
    u_mv: float
    u_mmv: float
    sr_max: float
    sr_m_max: float
    c_hat_m: float
    equiv: dict
    marginal: bool
    fcfs_exists: bool
    fcfs_payoff: np.ndarray | None
    signed_density: np.ndarray
    nonneg_density: np.ndarray
    signed_solution: DualSolution
    nonneg_solution: DualSolution
    quad_solution: PrimalSolution
    hull_solution: PrimalSolution
    allocation: MmvAllocation
    discriminants: dict

    @property
    def gap(self) -> float:
        """Monotone-Sharpe improvement sr_m_max - sr_max (zero iff complete)."""
        return self.sr_m_max - self.sr_max


def analyze(tree: ScenarioTree) -> FcfsReport:
    """Run the full pipeline; raises ViabilityError on non-viable markets."""
    check_viability(tree).require()

    signed = variance_optimal_signed(tree)
    nonneg = variance_optimal_nonneg(tree)
    a_s = signed.second_moment
    a_n = nonneg.second_moment

    quad = optimal_quadratic(tree, 0.0)
    hull = optimal_truncated(tree, 0.0)
    allocation = _allocation_from_hull(tree, hull, 0.0)

    u = 0.5 - 0.5 / a_s
    u_m = 0.5 - 0.5 / a_n
    u_mv = 0.5 * (a_s - 1.0)
    u_mmv = 0.5 * (a_n - 1.0)

    discriminants = {
        "a": max(u_mmv - u_mv, 0.0),
        "b": max(hull.value - quad.value, 0.0),
        "c": max(float(quad.payoff.values.max()) - 1.0, 0.0),
        "d": max(-float(signed.density.values.min()), 0.0),
    }
    tolerances = {"a": VALUE_TOL, "b": VALUE_TOL, "c": VECTOR_TOL, "d": VECTOR_TOL}
    equiv = {k: discriminants[k] <= tolerances[k] for k in "abc"}
    equiv["d"] = not signed.signed
    marginal = len(set(equiv.values())) > 1 or any(
        tolerances[k] / _MARGINAL_BAND <= discriminants[k]
        <= tolerances[k] * _MARGINAL_BAND
        for k in "abcd"
    )

    dz = nonneg.density.values - signed.density.values
    residual = (a_n - a_s) - _fsum(tree.leaf_probabilities * (dz * dz))
    if abs(residual) > VALUE_TOL * a_n:
        raise InconsistentEquivalence(
            f"a_n - a_s misses E[(z_n - z_s)^2] by {residual!r}"
        )

    fcfs_payoff = None
    if hull.value > _PAYOFF_FLOOR:
        fcfs_payoff = _frozen(np.maximum(1.0 - hull.payoff.values, 0.0))

    return FcfsReport(
        tree=tree,
        u=u,
        u_m=u_m,
        u_mv=u_mv,
        u_mmv=u_mmv,
        sr_max=math.sqrt(max(a_s - 1.0, 0.0)),
        sr_m_max=math.sqrt(max(a_n - 1.0, 0.0)),
        c_hat_m=a_n - 1.0,
        equiv=equiv,
        marginal=marginal,
        fcfs_exists=signed.signed,
        fcfs_payoff=fcfs_payoff,
        signed_density=signed.density.values,
        nonneg_density=nonneg.density.values,
        signed_solution=signed,
        nonneg_solution=nonneg,
        quad_solution=quad,
        hull_solution=hull,
        allocation=allocation,
        discriminants=discriminants,
    )


def verify_fcfs_certificate(report: FcfsReport) -> bool:
    """Re-derive the free cash-flow certificate; True or CertificateInvalid.

    Requires a report that claims existence.  From the reported strategies
    alone: rebuild the truncated-optimal wealth W_m, check the certificate
    payoff is a nonzero nonnegative claim matching (1 - W_m)^+, withdraw
    the upper excess lam (W_m - 1)^+, and check the left-over wealth
    lam min(W_m, 1) scores u_mmv under the plain mean-variance functional,
    strictly above the no-withdrawal value u_mv.  Every violated clause
    raises CertificateInvalid naming the clause; the function never
    returns False.
    """
    if not report.fcfs_exists:
        raise CertificateInvalid(
            "nothing to verify: the report does not claim a free "
            "cash-flow stream"
        )
    tree = report.tree
    lam = report.allocation.leverage
    W_m = terminal_wealth(tree, report.allocation.hull_strategy, 0.0).values

    claimed = report.fcfs_payoff
    if claimed is None or float(np.max(claimed)) <= VECTOR_TOL:
        raise CertificateInvalid(
            "existence claimed but the certificate payoff is never positive"
        )
    if float(np.min(claimed)) < -VECTOR_TOL:
        raise CertificateInvalid(
            "certificate payoff has a negative atom"
        )
    rebuilt = np.maximum(1.0 - W_m, 0.0)
    if claimed.shape != rebuilt.shape or float(
        np.max(np.abs(claimed - rebuilt))
    ) > VECTOR_TOL:
        raise CertificateInvalid(
            "certificate payoff does not match (1 - W_m)^+ from the "
            "reported strategy"
        )

    withdrawn = lam * np.maximum(W_m - 1.0, 0.0)
    if float(np.max(withdrawn)) <= VECTOR_TOL:
        raise CertificateInvalid(
            "existence claimed but no cash is ever withdrawn"
        )
    leftover = RandomVariable(tree.law, lam * W_m - withdrawn)
    score = mean_variance_value(leftover)
    if abs(score - report.u_mmv) > VALUE_TOL:
        raise CertificateInvalid(
            f"left-over wealth scores {score!r} on the mean-variance scale, "
            f"expected {report.u_mmv!r}"
        )
    if score <= report.u_mv + VECTOR_TOL:
        raise CertificateInvalid(
            "existence claimed but the mean-variance improvement is not "
            "strict"
        )
    return True


def _twelve_digits(values):
    """The ``'.12g'`` text of each float in ``values``, as an iterator: the
    package's one rule for reported numbers, 12 significant digits."""
    return map(format, values, repeat(".12g"))


def _repr_layout(text: str) -> str:
    """``repr(float(text))`` for a ``'.12g'`` text."""
    mantissa, e, exponent = text.partition("e")
    if not e:
        return text if text.lstrip("-") in ("inf", "nan") else text + ".0"
    exponent = int(exponent)
    if exponent <= -308:  # near or below the normal range: fewer digits may do
        return repr(float(text))
    if not 12 <= exponent <= 15:
        return text
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")
    return f"{sign}{digits.ljust(exponent + 1, '0')}.0"


def _sig_texts(values) -> list:
    """``repr(float(t))`` for the :func:`_twelve_digits` text t of each float.

    Each float is formatted once.  A decimal of at most 15 significant
    digits is the shortest text of the double nearest to it, when that
    double is normal, so the repr of a double read from a ``'.12g'`` text
    has the text's digits.  Only the layout differs: repr writes exponents
    12 to 15 in positional form and ends an integer with ".0"
    (:func:`_repr_layout`); every other text is already the repr.
    """
    return [
        t if "." in t and "e" not in t else _repr_layout(t)
        for t in _twelve_digits(values)
    ]


# 10^k for k = 0..22, each exact in binary64
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])


def _rounded_digits(x: np.ndarray):
    """(M, E, certain): |x| rounds to M 10^(E - 11), 10^11 <= M < 10^12.

    This is the :func:`_twelve_digits` rounding of each float, by number.
    E = floor(log10 |x|), y = |x| 10^(11 - E) and M = floor(y + 1/2), with
    M = 10^12 carried to 10^11 of the next exponent.  For |x| in
    [1e-10, 1e32) the power of ten is exact, so y is one rounding from
    the real product, within 2^-53 10^12 < 1.2e-4 of it, and M is the
    correctly rounded mantissa wherever y's fraction is more than 1e-3
    from 1/2.  ``log10`` can put E one off only where |x| is within a few
    roundings of a power of ten; y is then within about 1e-2 of 10^11 or
    10^12, and the grids of both exponents round |x| to that power.  A
    float is ``certain`` when both conditions hold; ties, zeros,
    subnormals, non-finite floats and the ends of the range are not.
    """
    a = np.abs(x)
    certain = (a >= 1e-10) & (a < 1e32)
    a = np.where(certain, a, 1.0)
    e = np.floor(np.log10(a)).astype(int)
    k = 11 - e
    y = np.where(k >= 0, a * _POWERS_OF_TEN[np.maximum(k, 0)],
                 a / _POWERS_OF_TEN[np.maximum(-k, 0)])
    whole = np.floor(y)
    certain &= np.abs(y - whole - 0.5) > 1e-3
    m = whole + (y - whole > 0.5)
    carry = m == 1e12
    return np.where(carry, 1e11, m), e + carry, certain


def _print_alike(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether the floats of each pair have one :func:`_sig_texts` text.

    Decided by number (:func:`_rounded_digits`) where both ends are
    certain and of one sign, and by formatting both ends elsewhere.
    """
    ma, ea, ca = _rounded_digits(a)
    mb, eb, cb = _rounded_digits(b)
    alike = (ma == mb) & (ea == eb)
    unsure = np.flatnonzero(~(ca & cb & (np.signbit(a) == np.signbit(b))))
    alike[unsure] = [s == t for s, t in zip(_sig_texts(a[unsure].tolist()),
                                            _sig_texts(b[unsure].tolist()))]
    return alike


_NUMBERS = ("u", "u_m", "u_mv", "u_mmv", "sr_max", "sr_m_max", "c_hat_m")


def _report_fields(report: FcfsReport, numbers) -> dict:
    """The shape of :func:`report_to_dict`, each list of floats x as numbers(x)."""
    tree = report.tree
    d = tree.assets
    held = numbers(report.allocation.strategy.vector.tolist())
    payoff = report.fcfs_payoff
    return {
        **dict(zip(_NUMBERS, numbers([getattr(report, k) for k in _NUMBERS]))),
        "equiv": {k: bool(report.equiv[k]) for k in "abcd"},
        "fcfs_exists": bool(report.fcfs_exists),
        "fcfs_payoff": None if payoff is None else numbers(payoff.tolist()),
        "signed_density": numbers(report.signed_density.tolist()),
        "nonneg_density": numbers(report.nonneg_density.tolist()),
        "strategy": dict(
            zip(tree.nonterminal_ids, (held[i : i + d] for i in range(0, len(held), d)))
        ),
        "marginal": bool(report.marginal),
    }


def report_to_dict(report: FcfsReport) -> dict:
    """Serialize a report to the documented plain-dict shape.

    Every float is rounded to 12 significant digits: it is the float read
    back from its :func:`_twelve_digits` text, the one home of the rule.
    The CLI writes the same texts, in repr's layout, without this dict.
    """
    return _report_fields(report, lambda x: list(map(float, _twelve_digits(x))))
