"""End-to-end and per-layer metrics from a finished session.

The end-to-end metrics are printed for every workload, so each has one
meaning per workload (see bench/README.md).  The ``details`` dict holds
the workload-specific figures under their own names.
"""

from __future__ import annotations

import bisect
import math
import statistics

from .tracing import self_times

END_TO_END = {
    "setup_s": "s",
    "ok_share": "ratio",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Every printed time is scaled to a machine of fixed speed: a call's wall
# time times REFERENCE_S over the time the worker took, around the call,
# for a fixed slice of reference work (``worker.reference_work``; see
# ``scale_to_reference``).  REFERENCE_S is close to the slice's time on
# the two-core machine the benchmark was built on.
REFERENCE_S = 0.0035

PER_LAYER = {
    "market.check_viability.calls": "count",
    "market.check_viability.self_s": "s",
    "market.viability_calls_per_market": "calls/market",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.self_s": "s",
    "simplex.lp_cells": "count",
    "dual.signed.self_s": "s",
    "dual.nonneg.self_s": "s",
    "dual.nonneg.pinned_leaves": "count",
    "dual.nonneg.viability_calls": "count",
    "primal.quadratic.self_s": "s",
    "primal.truncated.calls": "count",
    "primal.truncated.self_s": "s",
    "primal.truncated.clip_rounds": "count",
    "primal.mmv_allocation.self_s": "s",
    "market.load_market.self_s": "s",
    "market.generate_random_market.self_s": "s",
    "market.from_values.self_s": "s",
    "market.terminal_wealth.self_s": "s",
    "fcfs.analyze.self_s": "s",
    "fcfs.verify.self_s": "s",
    "fcfs.report_to_dict.self_s": "s",
    "fcfs.fcfs_share": "ratio",
    "fcfs.marginal_share": "ratio",
    "fcfs.refused_share": "ratio",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "monotone_sharpe.monotone_sharpe.self_s": "s",
    "monotone_sharpe.solve_alpha_hat.self_s": "s",
    "probability.sharpe_ratio.calls": "count",
    "probability.sharpe_ratio.self_s": "s",
    "ladder.generate.rss_hwm_delta_mb": "MB",
    "ladder.analyze.rss_hwm_delta_mb": "MB",
    "ladder.ipc_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_s": "s",
}


def tail(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = {"percentile": q, "value": xs[rank - 1], "n": n}
    return best


def _ms(seconds):
    return 1000.0 * seconds


def _median(values):
    """Median, or 0.0 when every operation it would cover failed."""
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _ok_times(ops, kind):
    return [op["wall_s"] for op in ops if op["kind"] == kind and op["status"] == "ok"]


def _by_item(ops, kind, reduce, phase=None, time_of=None):
    """``reduce`` of the ok call times per item, in first-seen order."""
    grouped = {}
    for op in ops:
        if op["kind"] != kind or op["status"] != "ok":
            continue
        if phase is not None and op.get("phase") != phase:
            continue
        grouped.setdefault(op["item"], []).append((time_of or _raw)(op))
    return {item: reduce(v) for item, v in grouped.items()}


def _raw(op):
    return op["wall_s"]


def _scaled(op):
    """The call's time at reference speed (see ``REFERENCE_S``)."""
    return op["wall_s"] * REFERENCE_S / op["ref_s"]


def failures(ops):
    return [
        {k: op.get(k) for k in ("op_id", "kind", "item", "phase", "market_seed",
                                "rc", "exception", "stderr", "reason")}
        for op in ops if op["status"] != "ok"
    ]


def scale_to_reference(session) -> list:
    """Sets ``ref_s`` on every timed call; returns the scaled set-up times.

    The machine's speed over an interval is the mean time of the
    reference slices that ran within one interval-length of it: for a
    short call, the slices just before and after it; for a long one, the
    slices around it, which sample the slower changes of speed it lived
    through.
    """
    refs = session.ref_samples
    starts = [r[0] for r in refs]
    ends = [r[1] for r in refs]

    def around(start, end):
        pad = end - start + 0.001
        lo = bisect.bisect_left(ends, start - pad)
        hi = bisect.bisect_right(starts, end + pad)
        near = [r[2] for r in refs[lo:hi]] or [refs[min(lo, len(refs) - 1)][2]]
        return statistics.fmean(near)

    for op in session.ops:
        if "span" in op:
            op["ref_s"] = around(*op["span"])
    return [(end - start) * REFERENCE_S / around(start, end)
            for start, end in session.setup_spans]


def end_to_end(session) -> tuple[dict, dict]:
    """(printed metrics, workload-specific details)."""
    setups = scale_to_reference(session)
    ops = session.ops
    # the shares cover the fixed input set only: repeated law passes add
    # timing samples, not inputs
    fixed = [op for op in ops if not op.get("repeat")]
    failed = sum(op["status"] != "ok" for op in fixed)
    # the ladder's frontier reach depends on the one market drawn per
    # shape and on the budget, so ok_share leaves it out
    core = [op for op in fixed if op.get("phase") != "frontier"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ok_share": _ratio(sum(op["status"] == "ok" for op in core), len(core)),
        "throughput_per_s": _throughput(session.workload, ops, _scaled)[0],
        "peak_rss_mb": session.peak_rss_mb,
    }
    details = {
        "failed_share": _ratio(failed, len(fixed)),
        "attempted": len(ops),
        "failed": sum(op["status"] != "ok" for op in ops),
        "reference_ms_p50": _ms(statistics.median(r[2] for r in session.ref_samples)),
        "raw_setup_s": statistics.median(end - start for start, end in session.setup_spans),
        "raw_throughput_per_s": _throughput(session.workload, ops, _raw)[0],
    }
    _workload_details(session, ops, details)
    return metrics, details


def _throughput(workload, ops, time_of):
    """(throughput, per-item times) with call times from ``time_of``.

    Trees: markets (sweep) or leaves (ladder core) per second of one
    generate+analyze of each shape at its median time.  Laws: atoms per
    second of one call of each law at its median time over the passes.
    """
    if workload == "laws-msharpe":
        times = {}
        for kind in ("msharpe", "capsweep"):
            times.update(_by_item(ops, kind, statistics.median, time_of=time_of))
        atoms = {op["item"]: op["atoms"] for op in ops if "atoms" in op}
        return _ratio(sum(atoms[i] for i in times), sum(times.values())), times
    phase = "core" if workload == "ladder-large" else None
    gen = _by_item(ops, "generate", statistics.median, phase, time_of)
    ana = _by_item(ops, "analyze", statistics.median, phase, time_of)
    shapes = [item for item in gen if item in ana]
    if workload == "ladder-large":
        work = {op["item"]: op["leaves"] for op in ops if op.get("phase") == "core"}
    else:
        work = dict.fromkeys(shapes, 1)
    total = sum(gen[i] + ana[i] for i in shapes)
    return _ratio(sum(work[i] for i in shapes), total), (gen, ana)


def _max_leaves_ok(ops):
    return max(
        (op["leaves"] for op in ops if op["kind"] == "analyze" and op["status"] == "ok"),
        default=0,
    )


def _workload_details(session, ops, details) -> None:
    """The workload's own figures, under their own names."""
    workload = session.workload
    if workload == "sweep-small":
        gen = _ok_times(ops, "generate")
        ana = _ok_times(ops, "analyze")
        ana_tail = tail(ana)
        details.update(
            markets=sum(op["kind"] == "generate" for op in ops),
            markets_per_s=_throughput(workload, ops, _scaled)[0],
            analyze_ms_p50=_ms(_median(ana)),
            analyze_ms_tail=ana_tail and {**ana_tail, "value": _ms(ana_tail["value"])},
            analyze_n=len(ana),
            generate_ms_p50=_ms(_median(gen)),
            generate_n=len(gen),
            max_leaves_ok=_max_leaves_ok(ops),
        )
    elif workload == "ladder-large":
        gen, ana = _throughput(workload, ops, _scaled)[1]
        details.update(
            core_generate_s=sum(gen.values()),
            core_analyze_s=sum(ana.values()),
            core_generate_ms_by_shape={k: _ms(v) for k, v in gen.items()},
            core_analyze_ms_by_shape={k: _ms(v) for k, v in ana.items()},
            core_peak_rss_mb=session.peak_rss_mb,
            max_leaves_ok=_max_leaves_ok(ops),
            frontier=[
                {k: op.get(k) for k in ("kind", "item", "status", "wall_s", "reason")}
                for op in ops if op.get("phase") == "frontier"
            ],
        )
    else:
        for kind in ("msharpe", "capsweep"):
            times = _by_item(ops, kind, statistics.median, time_of=_scaled)
            atoms = {op["item"]: op["atoms"] for op in ops if op["kind"] == kind}
            details[f"{kind}_atoms_per_s"] = _ratio(
                sum(atoms[i] for i in times), sum(times.values()))
            details[f"{kind}_ms_by_law"] = {k: _ms(v) for k, v in times.items()}
        details["passes"] = 1 + max(op.get("cycle", 0) for op in ops)
        details["max_atoms_ok"] = max(
            (op["atoms"] for op in ops if op["status"] == "ok"), default=0
        )


def per_layer(session) -> dict:
    """Per-layer metrics from the spans and counters of a traced run."""
    ops = [op for op in session.ops if op.get("wall_s") is not None and op.get("rc") is not None]
    totals = {}
    nonneg_viability = 0
    for op_spans in session.spans:
        for name, entry in self_times(op_spans).items():
            t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in t:
                t[key] += entry[key]
        for name, _, _, parent, _ in op_spans:
            if name == "market.check_viability" and parent >= 0 \
                    and op_spans[parent][0] == "dual.nonneg":
                nonneg_viability += 1
    counters = {}
    for op in ops:
        for key, value in (op.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value

    def span(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    markets = sum(op["kind"] == "generate" for op in ops)
    analyzed = counters.get("fcfs.analyzed", 0)
    n_spans = sum(len(s) for s in session.spans)
    op_wall = sum(op["wall_s"] for op in ops)
    out = {
        "market.check_viability.calls": span("market.check_viability", "calls"),
        "market.check_viability.self_s": span("market.check_viability"),
        "market.viability_calls_per_market": _ratio(
            span("market.check_viability", "calls"), markets),
        "simplex.solve_lp.calls": span("simplex.solve_lp", "calls"),
        "simplex.solve_lp.self_s": span("simplex.solve_lp"),
        "simplex.lp_cells": counters.get("simplex.lp_cells", 0),
        "dual.signed.self_s": span("dual.signed"),
        "dual.nonneg.self_s": span("dual.nonneg"),
        "dual.nonneg.pinned_leaves": counters.get("dual.nonneg.pinned_leaves", 0),
        "dual.nonneg.viability_calls": nonneg_viability,
        "primal.quadratic.self_s": span("primal.quadratic"),
        "primal.truncated.calls": span("primal.truncated", "calls"),
        "primal.truncated.self_s": span("primal.truncated"),
        "primal.truncated.clip_rounds": counters.get("primal.truncated.clip_rounds", 0),
        "primal.mmv_allocation.self_s": span("primal.mmv_allocation"),
        "market.load_market.self_s": span("market.load_market"),
        "market.generate_random_market.self_s": span("market.generate_random_market"),
        "market.from_values.self_s": span("market.from_values"),
        "market.terminal_wealth.self_s": span("market.terminal_wealth"),
        "fcfs.analyze.self_s": span("fcfs.analyze"),
        "fcfs.verify.self_s": span("fcfs.verify"),
        "fcfs.report_to_dict.self_s": span("fcfs.report_to_dict"),
        "fcfs.fcfs_share": _ratio(counters.get("fcfs.fcfs_exists", 0), analyzed),
        "fcfs.marginal_share": _ratio(counters.get("fcfs.marginal", 0), analyzed),
        "fcfs.refused_share": _ratio(
            counters.get("fcfs.verify_refused", 0), span("fcfs.verify", "calls")),
        "cli.main.self_s": span("cli.main"),
        "cli.bytes_out": sum(op.get("bytes_out", 0) for op in ops),
        "monotone_sharpe.monotone_sharpe.self_s": span("monotone_sharpe.monotone_sharpe"),
        "monotone_sharpe.solve_alpha_hat.self_s": span("monotone_sharpe.solve_alpha_hat"),
        "probability.sharpe_ratio.calls": span("probability.sharpe_ratio", "calls"),
        "probability.sharpe_ratio.self_s": span("probability.sharpe_ratio"),
        "ladder.generate.rss_hwm_delta_mb": sum(
            op["rss_after_mb"] - op["rss_before_mb"] for op in ops if op["kind"] == "generate"),
        "ladder.analyze.rss_hwm_delta_mb": sum(
            op["rss_after_mb"] - op["rss_before_mb"] for op in ops if op["kind"] == "analyze"),
        "ladder.ipc_s": sum(op.get("ipc_s", 0.0) for op in ops),
        "trace.overhead_share": _ratio(session.span_overhead_s * n_spans, op_wall),
        "trace.unattributed_s": op_wall - span("cli.main", "total_s"),
    }
    return out
