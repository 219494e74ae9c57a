"""Scan generated markets of wide branching for refused analyses.

    python tools/scan_generated.py

Runs ``generate`` then ``analyze --verify`` through ``cli.main``, in this
process, on 120 markets: (branching, periods) in (8,4), (12,3), (16,3),
(32,2), (32,3), (58,2), (58,3), (100,2), (200,2) and (447,2), each with
1-3 assets and seeds 0-3.  Every generated market is viable, so each
should analyze with exit 0.  Prints one line per nonzero exit, with the
shape, seed, exit code and stderr line, then the count of such exits;
the script exits 1 when there is any.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from mmvport.cli import main  # noqa: E402

SHAPES = ((8, 4), (12, 3), (16, 3), (32, 2), (32, 3),
          (58, 2), (58, 3), (100, 2), (200, 2), (447, 2))


def run(*argv) -> tuple[int, str]:
    """Exit code and stderr of one ``cli.main`` call; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().strip()


def scan() -> int:
    refused = 0
    with tempfile.TemporaryDirectory() as tmp:
        market, report = os.path.join(tmp, "m.json"), os.path.join(tmp, "r.json")
        for branching, periods in SHAPES:
            for assets in (1, 2, 3):
                for seed in range(4):
                    code, err = run("generate", "--seed", seed, "--periods", periods,
                                    "--branching", branching, "--assets", assets,
                                    "--out", market)
                    if code == 0:
                        code, err = run("analyze", "--verify", market, "--out", report)
                    if code != 0:
                        refused += 1
                        print(f"({branching},{periods},{assets}) seed {seed}: "
                              f"exit {code}: {err}", flush=True)
    print(f"{refused} nonzero exits of {len(SHAPES) * 3 * 4} markets")
    return refused


if __name__ == "__main__":
    raise SystemExit(scan() > 0)
