"""Layered benchmark for mmvport.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-small --seed 0 --seconds 20 --trace 0

Runs one workload through ``mmvport.cli.main`` in a worker process,
checks every output, writes a result file to ``bench/out/`` and prints
one JSON line last: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is traced and the metrics are the per-layer ones.  See
bench/README.md for what each workload and metric means.

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
# One BLAS thread: one caller on a small shared machine, and steadier times.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run_seconds() -> float:
    """The default ``--seconds``: ``run_seconds`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def _parse(argv):
    from mmvbench import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import mmvport from ``src/``; None when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "mmvport", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import mmvport

    if not os.path.abspath(mmvport.__file__).startswith(SRC + os.sep):
        return None
    return mmvport


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, settings=None,
        out_dir: str = OUT, spawn=None) -> dict:
    """Run one workload; returns the result record (also written to disk)."""
    from mmvbench import metrics
    from mmvbench.worker import Worker
    from mmvbench.workloads import Session, Settings

    if settings is None:
        settings = Settings(seconds=seconds)
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    session = Session(workload=workload, seed=seed, trace=trace,
                      settings=settings, workdir=workdir, spawn=spawn or Worker)
    start = time.perf_counter()
    try:
        session.setup()
        session.run()
    finally:
        session.close()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, details = metrics.end_to_end(session)
    printed = metrics.per_layer(session) if trace else e2e
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    failed = sum(op["status"] != "ok" for op in session.ops)
    line = {
        "correct": not session.wrong,
        "attempted": len(session.ops),
        "failed": failed,
        "metrics": {k: {"value": printed[k], "unit": units[k]} for k in units},
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "settings": dict(vars(settings)),
        "environment": environment(),
        "run_wall_s": time.perf_counter() - start,
        "setup_samples_s": [end - start for start, end in session.setup_spans],
        "respawn_s": session.respawn_s,
        "input_sha256": session.input_digest.hexdigest(),
        "report_sha256": session.report_digest.hexdigest(),
        "result": line,
        "end_to_end": e2e,
        "details": details,
        "wrong_outputs": session.wrong,
        "failures": metrics.failures(session.ops),
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    columns = ("kind", "item", "phase", "cycle", "status", "wall_s", "span", "ref_s")
    with open(os.path.join(out_dir, f"{tag}.ops.json"), "w", encoding="utf-8") as fh:
        json.dump({**{key: [op.get(key) for op in session.ops] for key in columns},
                   "setup_spans": session.setup_spans,
                   "reference_samples": session.ref_samples}, fh)  # (start, end, slice time)
    if trace:
        with open(os.path.join(out_dir, f"{tag}.spans.jsonl"), "w", encoding="utf-8") as fh:
            for op_spans in session.spans:
                for name, t0, t1, parent, op_id in op_spans:
                    fh.write(json.dumps({"op": op_id, "name": name, "start": t0,
                                         "end": t1, "parent": parent}) + "\n")
    return record


def main(argv=None) -> int:
    for key, value in BLAS_ENV.items():
        os.environ.setdefault(key, value)
    args = _parse(argv)
    if _import_package() is None:
        print(f"error: no mmvport package under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
