"""Paired in-process timing of two checkouts on the benchmark's workloads.

    python tools/paired_cycles.py PARENT CHANGE [--workload sweep-small] [--runs 1]

PARENT and CHANGE are checkouts, each with ``src/mmvport``.  Both packages
are imported into this one process under distinct names, and each
operation runs through ``cli.main``, as the benchmark's worker runs it, on
both sides in turn, the side that goes first alternating per operation.
The operations are the benchmark's own at seed 0
(``bench/mmvbench/workloads.py``):

- ``sweep-small``: the cycle (``generate`` then ``analyze --verify``) of
  its first 600 markets;
- ``ladder-large``: the cycle of its core, ``core_shapes`` ``core_cycles``
  times;
- ``laws-msharpe``: its ``law_passes`` passes of ``msharpe`` (JSON) and
  ``msharpe --format csv`` (the cap sweep) over the laws of ``_law``,
  written once by ``_write_law`` and read by both sides.

Per run it prints each side's throughput by the benchmark's formula
(``bench/mmvbench/metrics.py``, on raw wall times: markets or leaves per
second for the trees, atoms per second for the laws), the ratio
CHANGE / PARENT and the number of written bytes that differ; after the
last run, one summary line with the median, least and largest ratio and
the differing bytes of all runs.  Naming one checkout twice is the A/A
control.

Each operation deletes the files it writes before it writes them, as the
benchmark's ``Session`` does: opening an existing file with "w"
truncates it, which on ext4 costs about 100 us against 20-50 us for a new
file, so without the deletion both sides pay a cost the benchmark does not
and every ratio is pulled toward 1.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import os
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# mmvbench, and this checkout's mmvport, which its workloads module imports
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
from mmvbench.metrics import _raw, _throughput  # noqa: E402
from mmvbench.workloads import Settings, _law, _write_law, market_seed  # noqa: E402

SWEEP_MARKETS = 600  # six shapes, 100 markets each


def load_cli(checkout: str, name: str):
    """``mmvport.cli`` of a checkout, imported as the package ``name``."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "mmvport")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def markets(workload):
    """(shape, market seed, phase) of every cycle, as the workload draws them."""
    if workload == "sweep-small":
        for i in range(SWEEP_MARKETS):  # the shapes of Workload._sweep
            yield (2 + i % 3, 1 + i % 3, 1 + i % 2), market_seed(0, i), None
    else:
        s = Settings(seconds=0.0)
        for cycle in range(s.core_cycles):
            for k, shape in enumerate(s.core_shapes):
                yield shape, market_seed(0, 1000 * cycle + k), "core"


def law_calls(lawdir):
    """(kind, family, atoms, law file) of every call of one law pass, as
    ``Session._law_ops`` orders them, writing the law files to ``lawdir``."""
    s = Settings(seconds=0.0)
    paths = {}
    for family in ("uniform", "heavy"):
        for n in sorted(set(s.msharpe_sizes) | set(s.capsweep_sizes)):
            paths[family, n] = os.path.join(lawdir, f"law-{family}-{n}.csv")
            _write_law(paths[family, n], *_law(0, family, n))
    return [(kind, family, n, paths[family, n])
            for family in ("uniform", "heavy")
            for kind, sizes in (("msharpe", s.msharpe_sizes),
                                ("capsweep", s.capsweep_sizes))
            for n in sizes]


def operations(workload, lawdir):
    """One run's operations, each called with (cli, workdir, ops)."""
    if workload != "laws-msharpe":
        return [functools.partial(one_cycle, shape=shape, mseed=mseed, phase=phase)
                for shape, mseed, phase in markets(workload)]
    calls = law_calls(lawdir)
    return [functools.partial(one_law_call, kind=kind, family=family, n=n, law=law)
            for _ in range(Settings(seconds=0.0).law_passes)
            for kind, family, n, law in calls]


def fresh(*paths):
    """Delete the files an operation is about to write."""
    for stale in paths:
        if os.path.exists(stale):
            os.remove(stale)


def one_law_call(cli, workdir, ops, kind, family, n, law):
    """Times one msharpe call; returns the bytes it wrote."""
    out = os.path.join(workdir, f"out-{kind}-{family}-{n}."
                       + ("csv" if kind == "capsweep" else "json"))
    fresh(out)
    argv = ["msharpe", law, "--out", out]
    if kind == "capsweep":
        argv += ["--format", "csv"]
    start = time.perf_counter()
    rc = cli.main(argv)
    ops.append({"kind": kind, "item": f"{kind}-{family}-{n}", "atoms": n,
                "wall_s": time.perf_counter() - start,
                "status": "ok" if rc == 0 else "failed"})
    with open(out, "rb") as fh:
        return fh.read()


def one_cycle(cli, workdir, ops, shape, mseed, phase):
    """Times generate and analyze --verify; returns the bytes they wrote."""
    b, t, d = shape
    market = os.path.join(workdir, "market.json")
    report = os.path.join(workdir, "report.json")
    fresh(market, report)
    for kind, argv in (
        ("generate", ["generate", "--seed", str(mseed), "--periods", str(t),
                      "--branching", str(b), "--assets", str(d), "--out", market]),
        ("analyze", ["analyze", "--verify", market, "--out", report]),
    ):
        start = time.perf_counter()
        rc = cli.main(argv)
        ops.append({"kind": kind, "item": f"({b},{t},{d})", "phase": phase,
                    "leaves": b**t, "wall_s": time.perf_counter() - start,
                    "status": "ok" if rc in (0, 3) else "failed"})
    with open(market, "rb") as fh, open(report, "rb") as gh:
        return fh.read() + gh.read()


def differing(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    same = np.frombuffer(a[:n], np.uint8) == np.frombuffer(b[:n], np.uint8)
    return int(n - same.sum()) + abs(len(a) - len(b))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="sweep-small",
                    choices=("sweep-small", "ladder-large", "laws-msharpe"))
    ap.add_argument("--runs", type=int, default=1)
    args = ap.parse_args()
    sides = [load_cli(args.parent, "mmv_parent"), load_cli(args.change, "mmv_change")]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, "parent"), os.path.join(tmp, "change")]
        for path in dirs:
            os.mkdir(path)
        tasks = operations(args.workload, tmp)
        ratios, total = [], 0
        for run in range(args.runs):
            ops, diff = ([], []), 0
            for i, task in enumerate(tasks):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                out = {s: task(sides[s], dirs[s], ops[s]) for s in order}
                diff += differing(out[0], out[1])
            rates = [_throughput(args.workload, side_ops, _raw)[0] for side_ops in ops]
            ratios.append(rates[1] / rates[0])
            total += diff
            print(f"run {run}: {args.workload} parent {rates[0]:.6g}/s "
                  f"change {rates[1]:.6g}/s ratio {ratios[-1]:.4f} "
                  f"differing bytes {diff}", flush=True)
    print(f"summary: {args.workload} {args.runs} runs, ratio median "
          f"{np.median(ratios):.4f} min {min(ratios):.4f} max {max(ratios):.4f}, "
          f"differing bytes {total}", flush=True)


if __name__ == "__main__":
    main()
