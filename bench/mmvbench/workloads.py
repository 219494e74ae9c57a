"""The three workloads, their inputs and the closed loop that runs them.

Every input comes from the workload seed alone: market seeds are
``seed * 1_000_003 + offset`` (so seed 0 gives market seed = index, as in
the selftest suites) and payoff laws come from ``numpy`` generators keyed
on (seed, family, size).  Nothing is filtered or re-seeded: an input the
program cannot handle stays in and counts as a failed operation.

Why these three:

``sweep-small``
    thousands of tiny markets whose shapes cycle as in the selftest
    suites; per-call overhead and the small simplex/least-squares solves
    dominate, dense scaling plays no part.
``ladder-large``
    one market per tree shape, climbing three families: (2,T,1) complete
    and deep, (3,T,1) incomplete so the active-set and FCFS paths run,
    (4,T,3) complete with three assets.  The core runs a fixed number of
    cycles, each with fresh markets, so each shape's cost is a median over
    several markets; the frontier climbs once under a per-operation
    budget.  Costs that grow with tree size dominate here.
``laws-msharpe``
    ``msharpe`` and its cap sweep on payoff laws of 1000 to 8000 atoms,
    from a uniform(-2, 5) family (low cap, long kink scan) and a heavy
    right-tailed family (the scan stops early).  No tree layer runs, so it
    is the control for tree work, and the tree workloads are its control.
    Its passes repeat the same calls, at least ``law_passes`` times and
    until the run's time is up.

The sweep and the ladder run a fixed input set, and the first law pass is
one too, so which operations fail depends on the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .worker import BudgetExceeded, Worker, WorkerDied

SETUP_INTERVAL_S = 5.0  # run time between two set-ups


@dataclass(frozen=True)
class Settings:
    """Sizes and budgets; ``tiny()`` is the smoke-test scale."""

    seconds: float  # least time the law passes repeat for
    setup_repeats: int = 5
    sweep_markets: int = 1020
    core_shapes: tuple = (
        (2, 6, 1), (2, 7, 1), (2, 8, 1),
        (3, 4, 1), (3, 5, 1),
        (4, 2, 3), (4, 3, 3), (4, 4, 3),
    )
    core_cycles: int = 8
    frontier_families: tuple = (
        tuple((2, t, 1) for t in range(9, 18)),
        tuple((3, t, 1) for t in range(6, 12)),
        tuple((4, t, 3) for t in range(5, 9)),
    )
    frontier_budget_s: float = 4.0
    hang_budget_s: float = 15.0  # other calls: a core ladder call stalls now and then
    msharpe_sizes: tuple = (1000, 2000, 4000, 8000)
    capsweep_sizes: tuple = (1000, 2000, 4000)
    law_passes: int = 2  # least number of law passes

    @classmethod
    def tiny(cls) -> "Settings":
        return cls(
            seconds=0.0,
            setup_repeats=1,
            sweep_markets=6,
            core_shapes=((2, 2, 1), (3, 1, 1)),
            core_cycles=1,
            frontier_families=(((2, 3, 1), (2, 4, 1)),),
            msharpe_sizes=(20, 40),
            capsweep_sizes=(20,),
            law_passes=1,
        )


def market_seed(seed: int, offset: int) -> int:
    return seed * 1_000_003 + offset


def _leaves(shape) -> int:
    b, t, _ = shape
    return b**t


def _law(seed: int, family: str, n: int):
    """Values (and weights for the heavy family) of one payoff law."""
    fam = 0 if family == "uniform" else 1
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, fam, n])
    if family == "uniform":
        return rng.uniform(-2.0, 5.0, n), None
    # a normal body with a rare Pareto tail: the cap sits above the body,
    # so the kink scan stops after the few tail atoms
    tail = rng.random(n) < 0.01
    values = np.where(tail, 20.0 * rng.pareto(1.2, n), rng.normal(0.3, 1.0, n))
    weights = rng.uniform(0.5, 1.5, n)
    return values, weights


def _write_law(path: str, values, weights) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if weights is None:
            fh.write("value\n")
            fh.writelines(f"{v!r}\n" for v in values.tolist())
        else:
            fh.write("value,weight\n")
            fh.writelines(
                f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist())
            )


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Session:
    """One run: the worker, the operations so far and their spans."""

    workload: str
    seed: int
    trace: bool
    settings: Settings
    workdir: str
    worker: Worker | None = None
    ops: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)  # (start, end) of each set-up
    ref_samples: list = field(default_factory=list)  # (start, end, slice time)
    next_setup_at: float = 0.0
    retired_rss_mb: list = field(default_factory=list)  # of replaced workers
    respawn_s: float = 0.0
    span_overhead_s: float = 0.0
    laws: dict = field(default_factory=dict)
    input_digest: object = field(default_factory=hashlib.sha256)
    report_digest: object = field(default_factory=hashlib.sha256)
    peak_rss_mb: float | None = None  # highest worker ru_maxrss after the measured loop
    spawn: object = Worker  # callable(trace) -> Worker; tests share one

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # --- worker lifetime -------------------------------------------------

    def _spawn(self) -> Worker:
        worker = self.spawn(self.trace)
        self.span_overhead_s = worker.hello["span_overhead_s"]
        return worker

    def ensure_worker(self) -> Worker:
        if self.worker is None or not self.worker.alive():
            start = time.perf_counter()
            self.worker = self._spawn()
            self.respawn_s += time.perf_counter() - start
            self.reference(warm_up=True)
        return self.worker

    def reference(self, warm_up: bool = False) -> None:
        """Times the fixed reference slice in the worker (see metrics).

        ``warm_up`` first runs it once untimed, for a fresh worker whose
        first run pays for lazy imports.
        """
        if warm_up:
            self.worker.call({"kind": "reference"}, self.settings.hang_budget_s)
        start = time.perf_counter()
        reply, _ = self.worker.call({"kind": "reference"}, self.settings.hang_budget_s)
        self.ref_samples.append((start, time.perf_counter(), reply["wall_s"]))

    def close(self) -> None:
        if self.worker is not None:
            self.worker.stop()
            self.worker = None

    # --- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Spawn, import, warm up on the packaged markets, write inputs.

        Each set-up replaces the worker with a fresh one.  The first runs
        here; the others are spread over the run, one every
        ``SETUP_INTERVAL_S`` between operations, and those the run leaves
        over are made once it ends.  The reference slice is timed just
        after each set-up.
        """
        if self.worker is not None:
            self.retired_rss_mb.append(self.worker.stop())
        start = time.perf_counter()
        self.worker = self._spawn()
        self._warm_up()
        if self.workload == "laws-msharpe":
            self._write_laws()
        self.setup_spans.append((start, time.perf_counter()))
        self.reference(warm_up=True)
        self.next_setup_at = time.perf_counter() + SETUP_INTERVAL_S

    def _setup_if_due(self) -> None:
        if (len(self.setup_spans) < self.settings.setup_repeats
                and time.perf_counter() >= self.next_setup_at):
            self.setup()

    def peak_rss(self) -> float:
        """Highest ``ru_maxrss`` of the workers used so far, in MB."""
        seen = [rss for rss in self.retired_rss_mb if rss is not None]
        return max(seen + [self.ensure_worker().maxrss_mb()])

    def _warm_up(self) -> None:
        import mmvport

        markets = os.path.join(os.path.dirname(mmvport.__file__), "markets")
        for name, check in (
            ("trinomial", checks.check_golden_trinomial),
            ("binomial", checks.check_golden_binomial),
        ):
            out = self.path(f"warmup-{name}.json")
            market = os.path.join(markets, f"{name}.json")
            self._warm_call(["analyze", "--verify", market, "--out", out], out, check)
        law = self.path("warmup-law.csv")
        with open(law, "w", encoding="utf-8") as fh:
            fh.write("value,weight\n10,0.1\n1,0.8\n-1,0.1\n")
        out = self.path("warmup-law.json")
        self._warm_call(["msharpe", law, "--out", out], out, checks.check_golden_law)

    def _warm_call(self, argv: list, out: str, check) -> None:
        """One untraced, untimed call whose JSON output must pass ``check``."""
        reply, _ = self.worker.call(
            {"kind": "cli", "argv": argv, "out": out, "trace": False, "op_id": -1},
            self.settings.hang_budget_s,
        )
        reason = f"exit {reply['rc']}: {reply['stderr']}" if reply["rc"] else None
        if reason is None:
            with open(out, encoding="utf-8") as fh:
                reason = check(json.load(fh))
        if reason:
            label = f"warm-up {argv[0]} {os.path.basename(argv[-3])}"
            self.wrong.append({"op": label, "reason": reason})

    def _write_laws(self) -> None:
        from mmvport.probability import DiscreteLaw, RandomVariable

        sizes = sorted(set(self.settings.msharpe_sizes) | set(self.settings.capsweep_sizes))
        for family in ("uniform", "heavy"):
            for n in sizes:
                values, weights = _law(self.seed, family, n)
                path = self.path(f"law-{family}-{n}.csv")
                _write_law(path, values, weights)
                law = (
                    DiscreteLaw.uniform(n)
                    if weights is None
                    else DiscreteLaw.from_weights(weights)
                )
                self.laws[(family, n)] = (path, RandomVariable(law, values))

    # --- one operation -------------------------------------------------------

    def run_op(self, kind: str, argv: list, out: str, budget_s: float, meta: dict,
               reference_after: bool = True) -> dict:
        """One timed CLI call.  ``reference_after=False`` leaves the
        reference timing after the call to the operation that follows."""
        op_id = len(self.ops)
        record = {"op_id": op_id, "kind": kind, **meta}
        self._setup_if_due()
        worker = self.ensure_worker()
        request = {"kind": "cli", "argv": argv, "out": out, "op_id": op_id}
        start = time.perf_counter()
        try:
            reply, rtt = worker.call(request, budget_s)
        except BudgetExceeded:
            record.update(status="skipped", reason="skipped: > budget",
                          wall_s=budget_s, rc=None)
            self.worker = None
            self.ops.append(record)
            return record
        except WorkerDied as exc:
            record.update(status="failed", reason=str(exc), wall_s=None, rc=None)
            self.worker = None
            self.ops.append(record)
            return record
        spans = reply.pop("spans")
        if spans:
            self.spans.append(spans)
        record.update(reply)
        record["ipc_s"] = max(rtt - reply["wall_s"], 0.0)
        record["span"] = (start, start + rtt)
        if reference_after:
            self.reference()
        record["status"] = "ok" if reply["rc"] == 0 else "failed"
        if reply["rc"]:
            record["reason"] = f"exit {reply['rc']} {reply['exception']}: {reply['stderr']}"
        self.ops.append(record)
        return record

    def skip(self, kind: str, meta: dict, reason: str) -> None:
        self.ops.append({"op_id": len(self.ops), "kind": kind, "status": "skipped",
                         "reason": reason, "rc": None, "wall_s": None, **meta})

    def mark_wrong(self, record: dict, reason: str) -> None:
        record["status"] = "wrong"
        record["reason"] = f"wrong output: {reason}"
        self.wrong.append({"op": record["op_id"], "item": record.get("item"),
                           "reason": reason})

    # --- markets -------------------------------------------------------------

    def market(self, shape, mseed: int, meta: dict, budget_s: float, digest: bool):
        """generate then analyze --verify one market; returns (gen, ana)."""
        b, t, d = shape
        meta = {"item": f"({b},{t},{d})", "leaves": _leaves(shape), "market_seed": mseed, **meta}
        market_path = self.path("market.json")
        report_path = self.path("report.json")
        for stale in (market_path, report_path):
            if os.path.exists(stale):
                os.remove(stale)
        gen = self.run_op(
            "generate",
            ["generate", "--seed", str(mseed), "--periods", str(t),
             "--branching", str(b), "--assets", str(d), "--out", market_path],
            market_path, budget_s, meta, reference_after=False,
        )
        if gen["status"] != "ok":
            self.skip("analyze", meta, "skipped: generate failed")
            return gen, self.ops[-1]
        if digest:
            self.input_digest.update(_sha(market_path).encode())
        ana = self.run_op(
            "analyze", ["analyze", "--verify", market_path, "--out", report_path],
            report_path, budget_s, meta,
        )
        # exit 3 with a report written is the documented refusal of a
        # marginal claim; the check decides whether that is what it is
        if ana["rc"] == 0 or (ana["rc"] == 3 and os.path.exists(report_path)):
            reason = checks.check_tree_report(market_path, report_path, ana["rc"])
            if reason:
                self.mark_wrong(ana, reason)
            elif ana["rc"] == 3:
                ana["status"] = "ok"
                ana["reason"] = "exit 3: marginal claim, certificate refused (documented)"
            if digest:
                self.report_digest.update(_sha(report_path).encode())
        return gen, ana

    # --- workloads -----------------------------------------------------------

    def run(self) -> None:
        {"sweep-small": self._sweep, "ladder-large": self._ladder,
         "laws-msharpe": self._laws}[self.workload]()
        while len(self.setup_spans) < self.settings.setup_repeats:
            self.setup()

    def _sweep(self) -> None:
        s = self.settings
        for i in range(s.sweep_markets):
            shape = (2 + i % 3, 1 + i % 3, 1 + i % 2)
            self.market(shape, market_seed(self.seed, i), {"index": i},
                        s.hang_budget_s, digest=True)
        self.peak_rss_mb = self.peak_rss()

    def _ladder(self) -> None:
        s = self.settings
        for cycle in range(s.core_cycles):
            for k, shape in enumerate(s.core_shapes):
                self.market(shape, market_seed(self.seed, 1000 * cycle + k),
                            {"phase": "core", "cycle": cycle},
                            s.hang_budget_s, digest=True)
        self.peak_rss_mb = self.peak_rss()  # core only

        offset = 500
        for family in s.frontier_families:
            climbing = True
            for shape in family:
                offset += 1
                meta = {"phase": "frontier", "cycle": 0}
                if not climbing:
                    b, t, d = shape
                    meta.update(item=f"({b},{t},{d})", leaves=_leaves(shape))
                    self.skip("generate", meta, "skipped: > budget")
                    self.skip("analyze", meta, "skipped: > budget")
                    continue
                gen, ana = self.market(shape, market_seed(self.seed, offset), meta,
                                       s.frontier_budget_s, digest=True)
                climbing = gen["status"] == "ok" and ana["status"] == "ok"

    def _law_ops(self):
        s = self.settings
        for family in ("uniform", "heavy"):
            for n in s.msharpe_sizes:
                yield "msharpe", family, n
            for n in s.capsweep_sizes:
                yield "capsweep", family, n

    def _laws(self) -> None:
        s = self.settings
        deadline = time.perf_counter() + s.seconds
        first_bytes = {}
        cycle = 0
        while cycle == 0 or (not self.trace and (
                cycle < s.law_passes or time.perf_counter() < deadline)):
            for kind, family, n in self._law_ops():
                path, X = self.laws[(family, n)]
                ext = "csv" if kind == "capsweep" else "json"
                out = self.path(f"out-{kind}-{family}-{n}.{ext}")
                argv = ["msharpe", path, "--out", out]
                if kind == "capsweep":
                    argv += ["--format", "csv"]
                if os.path.exists(out):
                    os.remove(out)
                meta = {"item": f"{kind}-{family}-{n}", "atoms": n, "cycle": cycle,
                        "repeat": cycle > 0}
                rec = self.run_op(kind, argv, out, s.hang_budget_s, meta)
                if rec["status"] != "ok":
                    continue
                key = (kind, family, n)
                with open(out, "rb") as fh:
                    data = fh.read()
                if key in first_bytes:
                    if data != first_bytes[key]:
                        self.mark_wrong(rec, "output bytes differ from the first pass")
                    continue
                first_bytes[key] = data
                if kind == "msharpe":
                    reason = checks.check_law_summary(X, json.loads(data))
                else:
                    reason = checks.check_cap_sweep(X, out)
                if reason:
                    self.mark_wrong(rec, reason)
                self.input_digest.update(_sha(path).encode())
                self.report_digest.update(hashlib.sha256(data).hexdigest().encode())
            cycle += 1
        self.peak_rss_mb = self.peak_rss()
