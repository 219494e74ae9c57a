"""Viability decisions of two checkouts on one grid of generated trees.

    python tools/compare_viability.py PARENT CHANGE

PARENT and CHANGE are checkouts, each with ``src/mmvport``, imported into
this one process as ``tools/paired_cycles.py`` imports them.  Each tree is
written once as a market document, by PARENT's ``generate_random_market``
and ``market_to_dict``, and every side loads that same document with its
own ``market_from_dict`` and decides it with its own ``check_viability``.

The grid: the (branching, periods, assets) of ``SHAPES``, seeds 0-59 and
spreads 0.3, 1 and 3, each tree taken three ways:

- ``plain``: as generated;
- ``planted``: with an arbitrage at nonterminal node ``seed % count`` in
  file order; every node in child k's subtree moves in asset 0 so that
  child k's increment becomes |dS| + 0.1;
- ``near-dependent`` (several assets only): each node's asset-1 price set
  to 1.7 times its asset-0 price plus 1e-8 N(0, 1), the noise drawn from
  ``np.random.default_rng(seed)`` in file order.

No tree of the grid has subnormal increments, so a one-asset node whose
weighted drift underflows to 0 (every increment 5e-324) is outside it;
``test_an_arbitrage_whose_drift_underflows_is_named`` in
``tests/test_market.py`` holds that case.

Prints every tree whose viable flag, status, offending node, bound bits or
density bits differ between the sides, then each side's tally of outcomes
per variant (a ``SolverFailure`` is an outcome) and the number of trees
that differ; exits 1 when there is any.  Naming one checkout twice is the
A/A control.
"""

from __future__ import annotations

import argparse
import collections
import sys
import time

import numpy as np

from paired_cycles import load_cli

SHAPES = ((2, 1, 1), (2, 4, 1), (3, 3, 1), (4, 2, 1), (8, 1, 1),
          (2, 1, 2), (3, 2, 2), (4, 2, 2), (8, 1, 2), (9, 1, 2),
          (3, 1, 3), (4, 2, 3), (5, 2, 3), (8, 1, 3))
SEEDS = range(60)
SPREADS = (0.3, 1.0, 3.0)
FIELDS = ("viable", "status", "offending node", "bound bits", "density bits")


def planted(doc: dict, seed: int) -> dict:
    """The document with every increment of one node's asset 0 made positive."""
    nodes = [dict(node, prices=list(node["prices"])) for node in doc["nodes"]]
    parents = {node["parent"] for node in nodes}
    inner = [node for node in nodes if node["id"] in parents]
    at = inner[seed % len(inner)]
    shift = {}  # of each moved node; a generated document lists parents first
    for node in nodes:
        if node["parent"] == at["id"]:
            step = node["prices"][0] - at["prices"][0]
            shift[node["id"]] = abs(step) + 0.1 - step
        elif node["parent"] in shift:
            shift[node["id"]] = shift[node["parent"]]
        else:
            continue
        node["prices"][0] += shift[node["id"]]
    return dict(doc, nodes=nodes)


def near_dependent(doc: dict, seed: int) -> dict:
    """The document with asset 1 at 1.7 times asset 0, up to 1e-8 noise."""
    noise = np.random.default_rng(seed).standard_normal(len(doc["nodes"])).tolist()
    nodes = []
    for node, e in zip(doc["nodes"], noise):
        prices = list(node["prices"])
        prices[1] = 1.7 * prices[0] + 1e-8 * e
        nodes.append(dict(node, prices=prices))
    return dict(doc, nodes=nodes)


def documents(mmv):
    """(label, variant, document) of every tree of the grid."""
    for b, t, d in SHAPES:
        for seed in SEEDS:
            for spread in SPREADS:
                tree = mmv.generate_random_market(
                    seed, periods=t, branching=b, assets=d, spread=spread)
                doc = mmv.market_to_dict(tree)
                label = f"({b},{t},{d}) seed {seed} spread {spread:g}"
                yield label, "plain", doc
                yield label, "planted", planted(doc, seed)
                if d > 1:
                    yield label, "near-dependent", near_dependent(doc, seed)


def decision(mmv, doc: dict) -> tuple:
    """The FIELDS of one side's certificate, or ("SolverFailure", text)."""
    try:
        cert = mmv.check_viability(mmv.market_from_dict(doc))
        density = cert.density
    except mmv.SolverFailure as exc:
        return "SolverFailure", str(exc)
    return (cert.viable, cert.status, cert.offending_node,
            None if cert.bound is None else cert.bound.hex(),
            None if density is None else density.tobytes())


def outcome(decided: tuple) -> str:
    return decided[0] if decided[0] == "SolverFailure" else decided[1]


def show(value):
    return f"{len(value) // 8} atoms" if isinstance(value, bytes) else repr(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    sides = []
    for checkout, name in ((args.parent, "mmv_parent"), (args.change, "mmv_change")):
        load_cli(checkout, name)
        sides.append(sys.modules[name])
    start = time.perf_counter()
    tally = collections.defaultdict(collections.Counter)
    differ = 0
    for label, variant, doc in documents(sides[0]):
        got = [decision(mmv, doc) for mmv in sides]
        for side, decided in zip(("parent", "change"), got):
            tally[variant, side][outcome(decided)] += 1
        if got[0] == got[1]:
            continue
        differ += 1
        if "SolverFailure" in (got[0][0], got[1][0]):
            print(f"{label} {variant}: parent {got[0]} change {got[1]}")
            continue
        for field, a, b in zip(FIELDS, *got):
            if a != b:
                print(f"{label} {variant}: {field} parent {show(a)} change {show(b)}")
    for variant in ("plain", "planted", "near-dependent"):
        for side in ("parent", "change"):
            counts = ", ".join(f"{n} {kind}" for kind, n in
                               sorted(tally[variant, side].items()))
            print(f"{variant} {side}: {counts}")
    print(f"{differ} trees differ ({time.perf_counter() - start:.1f} s)")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
