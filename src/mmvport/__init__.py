"""Monotone mean-variance portfolio toolkit for finite scenario trees.

Computes variance-optimal martingale densities (signed and nonnegative),
optimal strategies for quadratic and truncated quadratic utility, monotone
mean-variance allocations, monotone Sharpe ratios and free
cash-flow-stream extractability certificates on finite discrete markets.

The root re-exports the ``__all__`` of each module named in ``_MODULES``.
"""

import sys

from .errors import *
from .probability import *
from .monotone_sharpe import *
from .market import *
from .dual import *
from .primal import *
from .fcfs import *
from .selftest import *

__version__ = "0.1.0"

_MODULES = (
    "errors", "probability", "monotone_sharpe", "market",
    "dual", "primal", "fcfs", "selftest",
)
# Read from sys.modules: the function monotone_sharpe shadows its module here.
__all__ = ["__version__"] + [
    name for mod in _MODULES for name in sys.modules[f"{__name__}.{mod}"].__all__
]
