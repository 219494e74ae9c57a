"""Spans around the package's public functions, installed from outside.

The tracer wraps each function in :data:`TARGETS` and rebinds the wrapper
under every module attribute that held the original, so callers that did
``from .market import check_viability`` see the wrapper too.  Spans are
kept in memory as tuples and handed back per operation; nothing is
written while an operation runs.

A span is ``(name, start, end, parent_index, op_id)``; ``parent_index``
points into the same operation's span list (-1 for a root span).  A few
counters are recorded at the same boundaries, from arguments and return
values only.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); "Class.method" patches a classmethod.
TARGETS = (
    ("mmvport.cli", "main", "cli.main"),
    ("mmvport.market", "load_market", "market.load_market"),
    ("mmvport.market", "generate_random_market", "market.generate_random_market"),
    ("mmvport.market", "check_viability", "market.check_viability"),
    ("mmvport.market", "terminal_wealth", "market.terminal_wealth"),
    ("mmvport.market", "MeasureDensity.from_values", "market.from_values"),
    ("mmvport.simplex", "solve_lp", "simplex.solve_lp"),
    ("mmvport.dual", "variance_optimal_signed", "dual.signed"),
    ("mmvport.dual", "variance_optimal_nonneg", "dual.nonneg"),
    ("mmvport.primal", "optimal_quadratic", "primal.quadratic"),
    ("mmvport.primal", "optimal_truncated", "primal.truncated"),
    ("mmvport.primal", "mmv_allocation", "primal.mmv_allocation"),
    ("mmvport.fcfs", "analyze", "fcfs.analyze"),
    ("mmvport.fcfs", "verify_fcfs_certificate", "fcfs.verify"),
    ("mmvport.fcfs", "report_to_dict", "fcfs.report_to_dict"),
    ("mmvport.monotone_sharpe", "monotone_sharpe", "monotone_sharpe.monotone_sharpe"),
    ("mmvport.monotone_sharpe", "solve_alpha_hat", "monotone_sharpe.solve_alpha_hat"),
    ("mmvport.probability", "sharpe_ratio", "probability.sharpe_ratio"),
)

COUNTERS = (
    "simplex.lp_cells",
    "dual.nonneg.pinned_leaves",
    "primal.truncated.clip_rounds",
    "fcfs.analyzed",
    "fcfs.fcfs_exists",
    "fcfs.marginal",
    "fcfs.verify_refused",
)


def _count(counters: dict, name: str, args, kwargs, result) -> None:
    """Counters read at a span boundary; ``result`` is None on a raise."""
    if name == "simplex.solve_lp":
        A = args[1] if len(args) > 1 else kwargs.get("A")
        rows, cols = getattr(A, "shape", (0, 0))
        counters["simplex.lp_cells"] += rows * cols
    elif result is None:
        return
    elif name == "dual.nonneg":
        counters["dual.nonneg.pinned_leaves"] += len(result.active_set)
    elif name == "primal.truncated":
        counters["primal.truncated.clip_rounds"] += result.iterations
    elif name == "fcfs.analyze":
        counters["fcfs.analyzed"] += 1
        counters["fcfs.fcfs_exists"] += bool(result.fcfs_exists)
        counters["fcfs.marginal"] += bool(result.marginal)


class Tracer:
    """Collects spans and counters for the operation currently running."""

    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def begin(self, op_id) -> None:
        self.op_id = op_id
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self.enabled = True

    def end(self) -> tuple[list, dict]:
        self.enabled = False
        return self.spans, self.counters

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if name == "fcfs.verify" and type(exc).__name__ == "CertificateInvalid":
                    tracer.counters["fcfs.verify_refused"] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
                _count(tracer.counters, name, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever the original is bound."""
        for module_name, attr, span in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth].__func__
                cls_wrapper = classmethod(self.wrap(span, original))
                setattr(cls, meth, cls_wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "mmvport" or mod is None:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)


def calibrate_overhead(tracer: Tracer, calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, from a wrapped no-op."""

    def noop():
        return None

    wrapped = tracer.wrap("calibration", noop)
    clock = time.perf_counter
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(calls):
            noop()
        best_plain = min(best_plain, clock() - start)
        tracer.begin("calibration")
        start = clock()
        for _ in range(calls):
            wrapped()
        best_wrapped = min(best_wrapped, clock() - start)
        tracer.end()
    return max(best_wrapped - best_plain, 0.0) / calls


def self_times(spans) -> dict:
    """Per span name: calls, total duration and self time (minus children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child[i]
    return out
