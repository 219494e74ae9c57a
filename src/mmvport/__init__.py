"""Monotone mean-variance portfolio toolkit for finite scenario trees.

Computes variance-optimal martingale densities (signed and nonnegative),
optimal strategies for quadratic and truncated quadratic utility, monotone
mean-variance allocations, monotone Sharpe ratios and free
cash-flow-stream extractability certificates on finite discrete markets.

The root re-exports the ``__all__`` of ``_MODULES`` and, lazily, ``selftest``.
"""

import sys

from .errors import *
from .probability import *
from .monotone_sharpe import *
from .market import *
from .dual import *
from .primal import *
from .fcfs import *

__version__ = "0.1.0"

_MODULES = (
    "errors", "probability", "monotone_sharpe", "market",
    "dual", "primal", "fcfs",
)
# Read from sys.modules: the function monotone_sharpe shadows its module here.
__all__ = ["__version__"] + [
    name for mod in _MODULES for name in sys.modules[f"{__name__}.{mod}"].__all__
] + ["CriterionResult", "run_selftest"]


def __getattr__(name):  # the selftest's names, the last two of __all__
    if name not in __all__[-2:]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import selftest
    return getattr(selftest, name)
