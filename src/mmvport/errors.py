"""Exception hierarchy for the mmvport package.

Every error raised by the package derives from :class:`MmvError`, split into
three families: bad input (:class:`InputError`), solver breakdowns
(:class:`SolverError`), and refusals on mathematically degenerate requests
(:class:`DomainError`).  The CLI maps the families onto exit codes 2, 3 and 4.
"""

from __future__ import annotations

__all__ = [
    "MmvError",
    "InputError",
    "ParseError",
    "ValidationError",
    "DimensionMismatch",
    "ViabilityError",
    "SolverError",
    "SolverFailure",
    "IterationLimit",
    "GenerationFailure",
    "InconsistentEquivalence",
    "DomainError",
    "NonpositiveMean",
    "NoDownside",
    "CertificateInvalid",
]


class MmvError(Exception):
    """Base class for all package errors."""


class InputError(MmvError):
    """Problem with user-supplied data or parameters (CLI exit 2)."""


class ParseError(InputError):
    """Malformed file: bad JSON/CSV, unknown keys, wrong types."""


class ValidationError(InputError):
    """Well-formed data violating a model invariant (bad tree, bad law)."""


class DimensionMismatch(InputError):
    """Shapes disagree: strategy vs tree, density vs leaves, and so on."""


class ViabilityError(InputError):
    """Market admits no strictly positive martingale density.

    Carries the maximal lower bound achieved by the viability program so the
    caller can distinguish 'infeasible constraints' from 'feasible but only
    with zeros'.
    """

    def __init__(self, message: str, best_bound: float | None = None):
        super().__init__(message)
        self.best_bound = best_bound


class SolverError(MmvError):
    """Numerical routine failed to deliver a certified answer (CLI exit 3)."""


class SolverFailure(SolverError):
    """Iteration converged to nothing useful or produced NaN/inf."""


class IterationLimit(SolverError):
    """Iteration cap exhausted before the stopping test was met."""


class GenerationFailure(SolverError):
    """Random market generator exhausted its rejection budget."""


class InconsistentEquivalence(SolverError):
    """The two optimal densities break a_n - a_s = E[(z_n - z_s)^2].

    The signed optimum z_s is the minimum-norm density, so the identity
    holds exactly; a residual beyond ``VALUE_TOL * a_n`` is an internal
    assertion: it signals a solver bug, never a valid analysis outcome.
    """


class DomainError(MmvError):
    """Request is outside the theory's domain (CLI exit 4)."""


class NonpositiveMean(DomainError):
    """Monotone Sharpe ratio requested for a payoff with E[X] <= 0."""


class NoDownside(DomainError):
    """Raised only where a caller explicitly forbids the no-downside branch."""


class CertificateInvalid(MmvError):
    """A claimed free cash-flow certificate failed re-verification."""
