"""Time and memory of every stage of ``mmvport analyze`` over a ladder of shapes.

    python tools/stage_ladder.py [--out BENCH_stages.json]

Each (branching, periods, assets) of ``SHAPES``, generated from seed
``SEED``, runs in a fresh child process (this script with ``--child``),
which imports this checkout's ``src/mmvport`` and takes these stages in
turn, each timed in process:

- ``generate``: ``generate_random_market``;
- ``market_to_json``, ``json.loads`` and ``market_from_dict``: the
  document written and read back, as ``analyze`` reads a file;
- ``levels``: ``tree.levels``, the one-step markets of the read tree;
- ``viability``: ``check_viability``;
- ``opportunity``: ``tree.opportunity``, both backward sweeps;
- ``analyze_rest``: the rest of ``analyze()``, on the tree whose levels,
  viability and opportunity are now cached;
- ``verify``: ``verify_fcfs_certificate``, only where the report claims a
  free cash-flow stream (null otherwise);
- ``report_text``: ``cli._json_text`` of ``fcfs._report_fields``, the
  text ``analyze`` writes;
- ``cli``: one whole ``cli.main(["analyze", "--verify", FILE, "--out",
  OUT])`` on the written document.

The child runs the stages ``REPEATS`` + 1 times.  The first ``REPEATS``
passes are timed with ``time.perf_counter`` and not traced; each stage
keeps its least time, and ``ru_maxrss`` is read after them.  The last
pass takes each stage's ``tracemalloc`` peak above the traced memory at
the stage's start.  The output records, per shape, the seconds and the
peak MB of every stage, the child's ``ru_maxrss`` after the timed passes,
and the commit (``git describe --dirty``), Python and numpy versions.
Shapes run one after another, so only one child holds its tree at a
time.  A run of all nine shapes takes about two minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (branching, periods, assets); the last has nine children, past the
# widest family whose bases viability enumerates
SHAPES = ((2, 4, 1), (2, 8, 1), (2, 12, 1), (2, 17, 1), (3, 11, 1),
          (4, 4, 3), (4, 8, 3), (8, 5, 4), (9, 4, 2))
SEED = 0  # of every shape's generated market
REPEATS = 3  # timed passes per shape; a stage keeps its least time
STAGES = ("generate", "market_to_json", "json.loads", "market_from_dict",
          "levels", "viability", "opportunity", "analyze_rest", "verify",
          "report_text", "cli")


def stages(shape, workdir):
    """Yield (stage name, thunk) in order; each thunk runs one stage."""
    import mmvport
    from mmvport import cli, fcfs
    from mmvport.market import market_from_dict, market_to_json

    b, t, d = shape
    state = {}
    path = os.path.join(workdir, "market.json")
    out = os.path.join(workdir, "report.json")

    def generate():
        state["tree"] = mmvport.generate_random_market(
            seed=SEED, periods=t, branching=b, assets=d)

    def write():
        state["text"] = market_to_json(state.pop("tree"))

    def parse():
        state["obj"] = json.loads(state["text"])

    def build():
        state["tree"] = market_from_dict(state.pop("obj"))

    def analyze():
        state["report"] = mmvport.analyze(state["tree"])

    def verify():
        if not state["report"].fcfs_exists:
            return False
        mmvport.verify_fcfs_certificate(state["report"])
        return True

    def report_text():
        cli._json_text(fcfs._report_fields(state["report"], list))

    def whole():
        if cli.main(["analyze", "--verify", path, "--out", out]) != 0:
            raise RuntimeError(f"analyze of {shape} did not exit 0")

    yield "generate", generate
    yield "market_to_json", write
    yield "json.loads", parse
    yield "market_from_dict", build
    yield "levels", lambda: state["tree"].levels
    yield "viability", lambda: mmvport.check_viability(state["tree"]).require()
    yield "opportunity", lambda: state["tree"].opportunity
    yield "analyze_rest", analyze
    yield "verify", verify
    yield "report_text", report_text
    # the body between two yields runs untimed, before the next stage
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state.pop("text"))
    if os.path.exists(out):
        os.remove(out)
    yield "cli", whole


def child(shape) -> dict:
    """Both passes of one shape, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    seconds, peaks, claimed = {}, {}, None
    with tempfile.TemporaryDirectory() as workdir:
        for _ in range(REPEATS):
            for name, run in stages(shape, workdir):
                start = time.perf_counter()
                result = run()
                took = time.perf_counter() - start
                seconds[name] = min(seconds.get(name, math.inf), took)
                if name == "verify":
                    claimed = result
        if not claimed:
            seconds["verify"] = None
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracemalloc.start()
        for name, run in stages(shape, workdir):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
            peaks[name] = peak / 2**20 if seconds[name] is not None else None
        tracemalloc.stop()
    b, t, d = shape
    return {
        "shape": list(shape),
        "leaves": b**t,
        "nodes": sum(b**k for k in range(t + 1)),
        "fcfs_exists": claimed,
        "seconds": seconds,
        "tracemalloc_peak_mb": peaks,
        "ru_maxrss_mb": maxrss,
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_stages.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        shape = tuple(int(v) for v in args.child.split(","))
        json.dump(child(shape), sys.stdout)
        return 0

    import numpy as np

    rows = []
    for shape in SHAPES:
        argv = [sys.executable, os.path.abspath(__file__),
                "--child", ",".join(map(str, shape))]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        rows.append(json.loads(done.stdout))
        total = sum(v for v in rows[-1]["seconds"].values() if v is not None)
        print(f"{shape}: {total:.3f} s over the stages, "
              f"ru_maxrss {rows[-1]['ru_maxrss_mb']:.0f} MB", flush=True)
    record = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "stages": list(STAGES),
        "shapes": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
