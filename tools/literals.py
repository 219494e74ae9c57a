"""The constants hypothesis draws from, in two checkouts, and how they differ.

    python tools/literals.py PARENT CHANGE

Hypothesis 6.155 takes a share of its draws from the int, float and string
constants of every imported local module that is not a test.  Tier-1 imports
``src/mmvport/*.py``, ``bench/mmvbench/*.py`` and ``bench/run.py``, so a
change that adds or removes one constant there moves the draws of every
property test, whatever else it changes.

For each checkout this collects the constants of those files with
hypothesis's own ``_constants_from_source(source, limit=True)``, once per
file, and prints, per type, what CHANGE adds and what it removes.  It
exits 1 when anything differs.  Naming one checkout twice is the A/A
control.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from hypothesis.internal.constants_ast import Constants, _constants_from_source

FILES = ("src/mmvport/*.py", "bench/mmvbench/*.py", "bench/run.py")
KINDS = ("integers", "floats", "bytes", "strings")


def harvest(checkout: str) -> Constants:
    """The union of the constants of every file of FILES in a checkout."""
    found = Constants()
    for pattern in FILES:
        for path in sorted(glob.glob(os.path.join(checkout, pattern))):
            with open(path, "rb") as fh:
                found = found | _constants_from_source(fh.read(), limit=True)
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    before, after = harvest(args.parent), harvest(args.change)
    differ = False
    for kind in KINDS:
        old, new = getattr(before, kind), getattr(after, kind)
        for sign, values in (("+", new - old), ("-", old - new)):
            for value in sorted(values):
                print(f"{sign} {kind[:-1]} {value!r}")
            differ |= bool(values)
        print(f"{kind}: {len(old)} -> {len(new)}")
    print("constants differ" if differ else "constants are the same")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
