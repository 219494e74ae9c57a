"""Scenario-tree market model: the tree, its file, the generator, wealth.

A market is a rooted tree of nodes, each carrying a price vector for a
fixed set of assets and, except for the root, a strictly positive
conditional probability given its parent.  Leaves all sit at depth
``periods``; the leaf set with its path probabilities is the terminal
probability space on which payoffs, densities and utility functionals
live.

File format (JSON, UTF-8)::

    {
      "assets": 1,
      "periods": 2,
      "nodes": [
        {"id": "n0", "parent": null, "t": 0, "prices": [1.0]},
        {"id": "n1", "parent": "n0", "t": 1, "p": 0.5, "prices": [1.1]},
        ...
      ]
    }

Keys are exactly those shown; unknown keys anywhere are rejected.  The
root's "p" may be omitted or given as 1.0.  Sibling probabilities must sum
to 1 within 1e-9 and are renormalized exactly on load.  Node order in the
file is preserved and used as the canonical enumeration order for leaves,
for strategy vectors and for every array this package reports.

A tree is stored as arrays over its nodes, in file order: ``ids``,
``parent`` (the parent's position, -1 at the root), ``t``, ``cond_prob``,
``path_prob``, a read-only (nodes, assets) ``prices`` and the children in
CSR form (``child_offsets`` into ``child_index``, each family in file
order).  Every step that builds or reads a tree is a pass over these
arrays: loading screens the entries in one pass and checks the structure
with numpy, naming the fault a node-by-node walk of the file meets first;
the generator writes its draws straight into the columns, with no
document in between, and both assemble the tree with :func:`_assemble`;
:func:`market_to_json` fills a list of text pieces a column at a time.
``ScenarioTree.nodes``, ``ScenarioTree.node`` and ``Strategy.holdings``
are views built on first use for callers that want objects per node; no
solver, serializer or CLI path builds them.

Wealth is a forward sweep and a density's martingale check a backward
aggregation over ``ScenarioTree.levels``; the backward sweeps of the
optimum and of viability (:mod:`mmvport.induction`) are cached on the
tree as ``opportunity`` and ``viability``, whose :func:`check_viability`
and :class:`ViabilityCertificate` are importable from here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, GenerationFailure, ParseError, ValidationError
from .induction import (
    Opportunity, TreeLevels, ViabilityCertificate, _node_local_viability
)
from .probability import DiscreteLaw, RandomVariable, _frozen, _fsum, _fsum_rows

__all__ = [
    "TreeNode",
    "ScenarioTree",
    "Strategy",
    "MeasureDensity",
    "ViabilityCertificate",
    "load_market",
    "load_packaged_market",
    "market_from_dict",
    "market_to_dict",
    "market_to_json",
    "save_market",
    "terminal_wealth",
    "check_viability",
    "generate_random_market",
]

_SIBLING_SUM_TOL = 1e-9
_EXPECTATION_TOL = 1e-10
_MARTINGALE_TOL = 1e-9
_ZERO_TOL = 1e-12  # |z| <= _ZERO_TOL is a zero atom (``nonnegative``, ``active_set``)
_TWOPI = 2.0 * math.pi  # random.TWOPI, the angle of a gauss pair
# random.random() from two Mersenne Twister words (see _random_block)
_RES53_SHIFTS = np.array([5, 6], dtype=np.uint32)
_RES53_SCALES = np.array([2.0**-27, 2.0**-53])

_TOP_KEYS = {"assets", "periods", "nodes"}
_NODE_KEYS = {"id", "parent", "t", "p", "prices"}
_ABSENT = object()
# depths at or past this are kept as Python integers, so no check wraps
_LARGE_T = 2**62


def _require_int(obj, name: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{name} must be an integer, got {obj!r}")
    return obj


def _require_number(obj, name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(f"{name} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an integer past the largest double
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{name} must be finite, got {obj!r}")
    return value


@dataclass(frozen=True)
class TreeNode:
    """Immutable node of a scenario tree, a view of one entry of its arrays."""

    id: str
    parent: str | None
    t: int
    cond_prob: float
    prices: np.ndarray
    children: tuple[str, ...]
    path_prob: float


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Validated scenario-tree market, one array entry per node.

    Entry k of ``ids``, ``parent`` (the parent's position, -1 at the
    root), ``t``, ``cond_prob``, ``path_prob`` and of the (nodes, assets)
    ``prices`` describes the k-th node of the file.  The children of node
    k are ``child_index[child_offsets[k]:child_offsets[k + 1]]``, in file
    order.  The arrays are read-only.  ``nodes`` and ``node(id)`` are
    :class:`TreeNode` views built on first use; no solver reads them.

    Construct via :func:`load_market`, :func:`market_from_dict` or
    :func:`generate_random_market`; the constructor re-checks nothing.
    """

    assets: int
    periods: int
    ids: tuple[str, ...]
    parent: np.ndarray
    t: np.ndarray
    cond_prob: np.ndarray
    path_prob: np.ndarray
    prices: np.ndarray
    child_offsets: np.ndarray
    child_index: np.ndarray

    @cached_property
    def nodes(self) -> tuple[TreeNode, ...]:
        ids = self.ids
        offsets = self.child_offsets.tolist()
        kids = [ids[k] for k in self.child_index.tolist()]
        return tuple(
            TreeNode(
                id=nid,
                parent=None if up < 0 else ids[up],
                t=t,
                cond_prob=cond,
                prices=row,
                children=tuple(kids[offsets[k] : offsets[k + 1]]),
                path_prob=path,
            )
            for k, (nid, up, t, cond, path, row) in enumerate(
                zip(
                    ids,
                    self.parent.tolist(),
                    self.t.tolist(),
                    self.cond_prob.tolist(),
                    self.path_prob.tolist(),
                    self.prices,
                )
            )
        )

    @cached_property
    def _position(self) -> dict:
        return dict(zip(self.ids, range(len(self.ids))))

    def node(self, node_id: str) -> TreeNode:
        try:
            return self.nodes[self._position[node_id]]
        except KeyError:
            raise DimensionMismatch(f"unknown node id {node_id!r}") from None

    @property
    def root(self) -> TreeNode:
        return self.nodes[int(np.argmin(self.parent))]

    @cached_property
    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(compress(self.ids, (self.t == self.periods).tolist()))

    @cached_property
    def nonterminal_ids(self) -> tuple[str, ...]:
        return tuple(compress(self.ids, (self.t < self.periods).tolist()))

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    @cached_property
    def leaf_probabilities(self) -> np.ndarray:
        return _frozen(self.path_prob[self.t == self.periods])

    @cached_property
    def law(self) -> DiscreteLaw:
        return DiscreteLaw.from_weights(self.leaf_probabilities)

    @cached_property
    def levels(self) -> TreeLevels:
        """The one-step markets stacked family by family."""
        return TreeLevels(self)

    @cached_property
    def viability(self) -> ViabilityCertificate:
        """Node-local viability certificate, computed once per tree."""
        return _node_local_viability(self.levels)

    @cached_property
    def opportunity(self) -> Opportunity:
        """Backward sweep of both opportunity processes, once per tree."""
        return Opportunity(self.levels)


def _node_entry(k: int, node, assets: int) -> tuple:
    """Check node entry #k in the file format's order of rules.

    Returns (id, parent, t, p, prices) with p = 1.0 at the root.
    """
    if not isinstance(node, dict):
        raise ParseError(f"node #{k} is not an object")
    unknown = set(node) - _NODE_KEYS
    if unknown:
        raise ParseError(f"node #{k}: unknown keys {sorted(unknown)}")
    for key in ("id", "parent", "t", "prices"):
        if key not in node:
            raise ParseError(f"node #{k}: missing key {key!r}")
    nid = node["id"]
    if not isinstance(nid, str) or not nid:
        raise ParseError(f"node #{k}: id must be a nonempty string")
    pid = node["parent"]
    if pid is not None and not isinstance(pid, str):
        raise ParseError(f"node {nid!r}: parent must be a string or null")
    t = _require_int(node["t"], f"node {nid!r}: t")
    if t < 0:
        raise ValidationError(f"node {nid!r}: t must be nonnegative")
    prices = node["prices"]
    if not isinstance(prices, list) or len(prices) != assets:
        raise ParseError(f"node {nid!r}: prices must be a list of length {assets}")
    prices = [_require_number(v, f"node {nid!r}: price") for v in prices]
    if pid is None:
        if "p" in node and _require_number(node["p"], "root p") != 1.0:
            raise ValidationError("root probability must be omitted or 1.0")
        prob = 1.0
    else:
        if "p" not in node:
            raise ParseError(f"node {nid!r}: missing probability p")
        prob = _require_number(node["p"], f"node {nid!r}: p")
        if prob <= 0.0:
            raise ValidationError(f"node {nid!r}: p must be strictly positive")
    return nid, pid, t, prob, prices


def _node_columns(nodes: list, assets: int):
    """(ids, parents, ts, p, prices) from one screening pass, or None.

    The screen passes only entries that keep every rule of
    :func:`_node_entry` and returns None on anything else; the caller then
    walks the entries with :func:`_node_entry`, which names the first
    fault, or returns the columns of entries the screen is merely stricter
    about (a dict subclass, a second root left to the structural checks).

    The screen restates the rules of :func:`_node_entry` in bulk form
    because the per-entry walk costs about three times as much: the eight
    ladder-large core shapes parse in 4.3 ms screened against 9-12 ms
    walked, a 2^16-leaf binary tree in 0.35 s against 1.3 s (CPython 3.11
    on a shared 2-core machine), and ladder-large throughput falls about 7%
    when every document is walked.  The parity
    tests in ``tests/test_parse_parity.py`` hold the two to the same rules.
    """
    if set(map(type, nodes)) != {dict}:
        return None
    try:
        ids, parents, ts, rows = (
            list(map(dict.__getitem__, nodes, repeat(key)))
            for key in ("id", "parent", "t", "prices")
        )
    except KeyError:
        return None
    probs = list(map(dict.get, nodes, repeat("p"), repeat(_ABSENT)))
    n = len(nodes)
    absent = probs.count(_ABSENT)
    if (
        sum(map(len, nodes)) != 5 * n - absent  # no unknown keys
        or parents.count(None) != 1
        or set(map(type, ids)) != {str}
        or not all(ids)
        or not set(map(type, parents)) <= {str, type(None)}
        or set(map(type, ts)) != {int}
        or min(ts) < 0
        or set(map(type, rows)) != {list}
        or set(map(len, rows)) != {assets}
    ):
        return None
    root = parents.index(None)
    if absent > (probs[root] is _ABSENT):
        return None
    if probs[root] is _ABSENT:
        probs[root] = 1.0
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) | set(map(type, probs)) <= {float, int}:
        return None
    try:
        prices = np.array(flat, dtype=float).reshape(n, assets)
        p = np.array(probs, dtype=float)
    except OverflowError:
        return None
    if not (
        np.all(np.isfinite(prices)) and np.all(np.isfinite(p)) and np.all(p > 0.0)
        and p[root] == 1.0
    ):
        return None
    return ids, parents, ts, p, prices


def _raise_first_repeat(ids, parents) -> None:
    """Refuse the first entry that repeats an id or is a second root."""
    seen = set()
    rooted = False
    for nid, pid in zip(ids, parents):
        if nid in seen:
            raise ValidationError(f"duplicate node id {nid!r}")
        seen.add(nid)
        if pid is None:
            if rooted:
                raise ValidationError("more than one root node")
            rooted = True


def _build_tree(assets, periods, ids, parents, ts, p, prices) -> ScenarioTree:
    """Structural checks on the node columns, then :func:`_assemble`.

    Each check finds every offending entry at once and reports the first
    in file order, so a file with several faults gets the message of the
    fault met first by a node-by-node walk.
    """
    n = len(ids)
    position = dict(zip(ids, range(n)))
    roots = parents.count(None)
    if len(position) < n or roots > 1:
        _raise_first_repeat(ids, parents)
    if roots == 0:
        raise ValidationError("no root node (parent null)")
    root = parents.index(None)
    parent = np.fromiter(map(position.get, parents, repeat(-1)), np.intp, n)
    unknown = parent < 0
    unknown[root] = False
    if np.any(unknown):
        k = int(np.argmax(unknown))
        raise ValidationError(
            f"node {ids[k]!r} references unknown parent {parents[k]!r}"
        )
    if ts[root] != 0:
        raise ValidationError("root must sit at t = 0")

    t = np.array(ts, dtype=np.int64 if max(ts) < _LARGE_T else object)
    below = np.flatnonzero(parent >= 0)
    kids = np.bincount(parent[below], minlength=n)
    wrong_t = t != t[parent] + 1
    wrong_t[root] = False
    beyond = t > periods
    misplaced = (t == periods) != (kids == 0)
    bad = wrong_t | beyond | misplaced
    if np.any(bad):
        k = int(np.argmax(bad))
        nid = ids[k]
        if wrong_t[k]:
            raise ValidationError(
                f"node {nid!r} has t = {ts[k]}, parent sits at t = {ts[parent[k]]}"
            )
        if beyond[k]:
            raise ValidationError(f"node {nid!r} sits beyond the horizon")
        raise ValidationError(f"node {nid!r}: leaves must sit exactly at t = periods")
    t = t.astype(np.int64)
    return _assemble(assets, periods, ids, parent, t, p, prices)


def _assemble(assets, periods, ids, parent, t, p, prices) -> ScenarioTree:
    """The tree of structurally sound node columns.

    ``parent`` holds each node's parent position (-1 at the root) and
    ``t`` its depth.  Each family's p must sum to 1 within 1e-9 and is
    divided by its exact sum; the path probabilities are the products of
    these along each path.
    """
    n = len(ids)
    below = np.flatnonzero(parent >= 0)
    kids = np.bincount(parent[below], minlength=n)

    # children grouped by parent, each group in file order
    child_index = below[np.argsort(parent[below], kind="stable")]
    child_offsets = np.concatenate(([0], np.cumsum(kids)))

    # sibling probability sums, the families of one width at a time, then
    # exact renormalization
    families = np.flatnonzero(kids)
    widths = kids[families]
    totals = np.empty(len(families))
    for w in set(widths.tolist()):
        same = widths == w
        sib = child_index[child_offsets[families[same], None] + np.arange(w)]
        totals[same] = _fsum_rows(p[sib])
    off = np.abs(totals - 1.0) > _SIBLING_SUM_TOL
    if np.any(off):
        j = int(np.argmax(off))
        raise ValidationError(
            f"children of {ids[families[j]]!r} have probabilities summing to "
            f"{float(totals[j])!r}"
        )
    family_total = np.ones(n)
    family_total[families] = totals
    cond = p / family_total[parent]
    cond[parent < 0] = 1.0

    # path probabilities level by level, parent times child
    path = np.ones(n)
    by_depth = np.argsort(t, kind="stable")
    bounds = np.cumsum(np.bincount(t)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        level = by_depth[lo:hi]
        path[level] = path[parent[level]] * cond[level]

    return ScenarioTree(
        assets=assets,
        periods=periods,
        ids=tuple(ids),
        parent=_frozen(parent),
        t=_frozen(t),
        cond_prob=_frozen(cond),
        path_prob=_frozen(path),
        prices=_frozen(prices),
        child_offsets=_frozen(child_offsets),
        child_index=_frozen(child_index),
    )


def market_from_dict(obj) -> ScenarioTree:
    """Parse and validate a market given as a plain dict (see module docs)."""
    if not isinstance(obj, dict):
        raise ParseError("market document must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(obj)
    if missing:
        raise ParseError(f"missing top-level keys: {sorted(missing)}")
    assets = _require_int(obj["assets"], "assets")
    periods = _require_int(obj["periods"], "periods")
    if assets < 1 or periods < 1:
        raise ValidationError("assets and periods must be at least 1")
    nodes = obj["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ParseError("nodes must be a nonempty list")

    columns = _node_columns(nodes, assets)
    if columns is None:
        entries = [_node_entry(k, node, assets) for k, node in enumerate(nodes)]
        ids, parents, ts, probs, rows = zip(*entries)
        columns = ids, parents, ts, np.array(probs), np.array(rows, dtype=float)
    return _build_tree(assets, periods, *columns)


def load_market(path) -> ScenarioTree:
    """Load a market JSON file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    # bad JSON, an integer too long to convert, or nesting past the
    # decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return market_from_dict(obj)


def load_packaged_market(name: str) -> ScenarioTree:
    """Load one of the example markets shipped with the package.

    Currently ``"trinomial"`` (the one-period free-cash-flow showcase) and
    ``"binomial"`` (a complete market with a unique density).
    """
    from importlib import resources

    ref = resources.files(__package__).joinpath("markets", f"{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(
            f"no packaged market named {name!r}; "
            "available: binomial, trinomial"
        ) from exc
    return market_from_dict(json.loads(text))


def market_to_dict(tree: ScenarioTree) -> dict:
    ids = tree.ids
    nodes = []
    for nid, up, t, cond, row in zip(
        ids,
        tree.parent.tolist(),
        tree.t.tolist(),
        tree.cond_prob.tolist(),
        tree.prices.tolist(),
    ):
        entry = {"id": nid, "parent": None if up < 0 else ids[up], "t": t}
        if up >= 0:
            entry["p"] = cond
        entry["prices"] = row
        nodes.append(entry)
    return {"assets": tree.assets, "periods": tree.periods, "nodes": nodes}


def market_to_json(tree: ScenarioTree) -> str:
    """``json.dumps(market_to_dict(tree), indent=2)`` and a newline, byte for byte.

    The text is one ``"".join`` of a list that repeats one node's pieces:
    the constant fragments, and slots filled a column at a time by slice
    assignment with ids through the encoder's own ``encode_basestring_ascii``
    and numbers through ``int.__repr__`` and ``float.__repr__`` as ``json``
    writes them (every stored number is finite).  The root's pieces (a null
    parent, no "p") are patched in place.
    """
    d = tree.assets
    ids = list(map(encode_basestring_ascii, tree.ids))
    parent = tree.parent.tolist()
    node = ['\n    {\n      "id": ', "", ',\n      "parent": ', "", ',\n      "t": ', "",
            ',\n      "p": ', "", ',\n      "prices": [\n        ', ""]
    node += [",\n        ", ""] * (d - 1) + ["\n      ]\n    },"]
    width = len(node)
    pieces = node * len(ids)
    pieces[1::width] = ids
    pieces[3::width] = [ids[k] for k in parent]
    pieces[5::width] = map(int.__repr__, tree.t.tolist())
    pieces[7::width] = map(float.__repr__, tree.cond_prob.tolist())
    for a in range(d):
        pieces[9 + 2 * a :: width] = map(float.__repr__, tree.prices[:, a].tolist())
    root = width * parent.index(-1)
    pieces[root + 3] = "null"
    pieces[root + 6] = pieces[root + 7] = ""
    pieces[0] = f'{{\n  "assets": {d},\n  "periods": {tree.periods},\n  "nodes": [' + node[0]
    pieces[-1] = "\n      ]\n    }\n  ]\n}\n"
    return "".join(pieces)


def save_market(tree: ScenarioTree, path) -> None:
    Path(path).write_text(market_to_json(tree), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class Strategy:
    """Asset holdings chosen at every nonterminal node.

    ``vector`` stacks the holdings in nonterminal file order, ``assets``
    entries per node, and is the coordinate form used by the solvers;
    ``holdings`` maps each nonterminal id to its read-only row of it and
    is built on first use.  Build one with :meth:`from_vector` or
    :meth:`from_holdings`.
    """

    tree: ScenarioTree
    vector: np.ndarray

    @cached_property
    def holdings(self) -> dict:
        rows = self.vector.reshape(-1, self.tree.assets)
        return dict(zip(self.tree.nonterminal_ids, rows))

    @classmethod
    def from_vector(cls, tree: ScenarioTree, vec) -> "Strategy":
        v = np.asarray(vec, dtype=float).reshape(-1)
        d = tree.assets
        expected = len(tree.nonterminal_ids) * d
        if v.size != expected:
            raise DimensionMismatch(
                f"strategy vector has {v.size} entries, tree needs {expected}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("strategy holdings must be finite")
        return cls(tree=tree, vector=_frozen(v.copy()))

    @classmethod
    def from_holdings(cls, tree: ScenarioTree, holdings) -> "Strategy":
        d = tree.assets
        missing = set(tree.nonterminal_ids) - set(holdings)
        extra = set(holdings) - set(tree.nonterminal_ids)
        if missing or extra:
            raise DimensionMismatch(
                f"holdings keys mismatch: missing {sorted(missing)}, "
                f"extra {sorted(extra)}"
            )
        vec = np.zeros(len(tree.nonterminal_ids) * d)
        for j, nid in enumerate(tree.nonterminal_ids):
            h = np.asarray(holdings[nid], dtype=float).reshape(-1)
            if h.size != d:
                raise DimensionMismatch(
                    f"holdings for {nid!r} must have {d} entries"
                )
            vec[j * d : (j + 1) * d] = h
        return cls.from_vector(tree, vec)


def terminal_wealth(
    tree: ScenarioTree, strategy: Strategy, initial_wealth: float = 0.0
) -> RandomVariable:
    """Terminal wealth of a self-financing strategy as a payoff on leaves."""
    if strategy.tree is not tree:
        raise DimensionMismatch("strategy belongs to a different tree")
    levels = tree.levels
    held = np.zeros((levels.n_nodes, tree.assets))
    held[levels.nonterminal] = strategy.vector.reshape(-1, tree.assets)
    wealth = levels.propagate(initial_wealth, lambda fam, x: held[fam.nodes])
    return RandomVariable(tree.law, wealth)


@dataclass(frozen=True, eq=False)
class MeasureDensity:
    """Martingale density on the leaves: E[z] = 1, increments priced to zero.

    The factory re-verifies both properties, the second node by node:
    |E[z dS 1_n]| <= 1e-9 * max(1, E[|dS| 1_n] * max(1, max |z|)) for
    every nonterminal node n and asset.  ``nonnegative`` records whether z
    clears the floor -_ZERO_TOL (-1e-12).
    """

    tree: ScenarioTree
    values: np.ndarray
    expectation: float
    nonnegative: bool

    @classmethod
    def from_values(cls, tree: ScenarioTree, values) -> "MeasureDensity":
        z = np.asarray(values, dtype=float).reshape(-1)
        if z.size != tree.n_leaves:
            raise DimensionMismatch(
                f"density has {z.size} entries, tree has {tree.n_leaves} leaves"
            )
        if not np.all(np.isfinite(z)):
            raise ValidationError("density values must be finite")
        p = tree.leaf_probabilities
        expectation = _fsum(p * z)
        if abs(expectation - 1.0) > _EXPECTATION_TOL:
            raise ValidationError(
                f"density expectation {expectation!r} is not 1 within "
                f"{_EXPECTATION_TOL}"
            )
        levels = tree.levels
        zmax = max(1.0, float(np.max(np.abs(z))))
        scale = _MARTINGALE_TOL * np.maximum(1.0, levels.increment_scales * zmax)
        bad = np.abs(levels.increment_moments(z)) > scale
        bad = np.flatnonzero(bad.any(axis=1))
        if bad.size:
            # the shallowest such node, the first in file order
            node = tree.ids[bad[np.argmin(tree.t[bad])]]
            raise ValidationError(
                "density violates a node-wise martingale constraint "
                f"at node {node!r}"
            )
        z = _frozen(z.copy())
        return cls(
            tree=tree,
            values=z,
            expectation=expectation,
            nonnegative=bool(z.min() >= -_ZERO_TOL),
        )

    def as_random_variable(self) -> RandomVariable:
        return RandomVariable(self.tree.law, self.values)


def check_viability(tree: ScenarioTree) -> ViabilityCertificate:
    """Decide whether a strictly positive martingale density exists.

    The optimum of max t subject to A z = b, z >= t (the largest floor a
    martingale density can keep on every leaf) is computed node by node
    (``induction._node_local_viability``).  The bound is at most 1 because
    E[z] = 1 forces min z <= 1.  Viable means the optimum exceeds 1e-9;
    the certificate then carries a strictly positive density (built on
    first read from the floors the sweep keeps).  Status "infeasible"
    (bound None) means not even a nonnegative density exists, "degenerate"
    (bound <= 1e-9) that every nonnegative density has a zero atom.  The
    certificate is computed once per tree and cached on it.
    """
    return tree.viability


def _random_block(rng, k: int) -> np.ndarray:
    """The values of k calls of ``rng.random()``, drawn in one call.

    ``random()`` reads two 32-bit words a, b of the Mersenne Twister and
    returns (a >> 5) 2^-27 + (b >> 6) 2^-53, both terms and their sum
    exact.  ``getrandbits(64 k)`` reads the same 2k words in the same
    order, the first in its lowest bits, and leaves ``rng`` where the k
    calls would.
    """
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    return (words.reshape(k, 2) >> _RES53_SHIFTS) @ _RES53_SCALES


def _random_tree(rng, periods, branching, assets, spread) -> ScenarioTree:
    """One draw of the generator's tree, nodes numbered breadth first.

    Nonterminal node j, in order, draws ``branching`` uniform(0.2, 1)
    probabilities, ``branching`` uniform(0.05, 1) weights w and then, per
    asset, ``branching`` gauss(0, 1) values g for its children
    ``b j + 1, ..., b j + b``.  p = raw / fsum(raw), which
    :func:`_assemble` divides by the fsum of the siblings as loading the
    written file does; prices move by
    spread * max(0.25, |price|) * (g - fsum(q g)) with q = w / fsum(w),
    so q prices the increments to zero.

    The numbers are those that these ``rng.uniform`` and ``rng.gauss``
    calls, made node by node, return (``reference_random_tree`` in the
    tests), taken from one block of ``random()`` values
    (:func:`_random_block`).  gauss draws two values at a time (Box-Muller
    with ``math.log``, ``math.cos`` and ``math.sin``, so with libm's bits)
    and keeps the second in ``rng.gauss_next`` for the next call, which
    may be the next node's or the next attempt's.  The sums are
    ``math.fsum``'s, and the prices move one depth at a time.
    """
    b, d = branching, assets
    sizes = [b**t for t in range(periods + 1)]
    n = sum(sizes)
    m = (n - 1) // b  # nonterminal nodes, first in breadth-first order
    g = d * b  # gaussians per node
    carry = rng.gauss_next
    c = int(carry is not None)
    # after the root's d prices, node j draws its 2b uniforms and then the
    # gauss pairs it starts: pair k gives the attempt's gaussians c + 2k
    # and c + 2k + 1, so node (c + 2k) // g draws it, and the nodes before
    # j draw (g j + 1 - c) // 2 pairs
    pairs = (g * m + 1 - c) // 2
    u = _random_block(rng, d + 2 * b * m + 2 * pairs)
    before = np.arange(1 - c, g * m + 1 - c, g) // 2
    starts = np.arange(d, d + 2 * b * m, 2 * b) + 2 * before
    uniforms = u[starts[:, None] + np.arange(2 * b)]
    raw_p = 0.2 + (1.0 - 0.2) * uniforms[:, :b]
    weights = 0.05 + (1.0 - 0.05) * uniforms[:, b:]
    # pair k's angle and radius come after the root's d values, the 2b
    # uniforms of each node up to its own and the 2k values of pairs 0..k-1
    at = (np.arange(c + g, c + g + 2 * pairs, 2) // g * (2 * b)
          + np.arange(d, d + 2 * pairs, 2))
    angle = (u[at] * _TWOPI).tolist()
    log = np.fromiter(map(math.log, (1.0 - u[at + 1]).tolist()), float, pairs)
    radius = np.sqrt(-2.0 * log)
    gauss = np.empty(c + 2 * pairs)
    if c:
        gauss[0] = carry
    gauss[c::2] = np.fromiter(map(math.cos, angle), float, pairs) * radius
    gauss[c + 1 :: 2] = np.fromiter(map(math.sin, angle), float, pairs) * radius
    rng.gauss_next = gauss[-1].item() if gauss.size > g * m else None
    # gauss(0, 1) returns 0.0 + z * 1.0, which is z but for -0.0
    G = (gauss[: g * m] + 0.0).reshape(m, d, b)

    p = np.concatenate(([1.0], (raw_p / _fsum_rows(raw_p)[:, None]).ravel()))
    q = weights / _fsum_rows(weights)[:, None]
    center = _fsum_rows((q[:, None, :] * G).reshape(m * d, b)).reshape(m, d, 1)
    prices = np.empty((n, d))
    prices[0] = 0.8 + (1.2 - 0.8) * u[:d]
    lo = 0
    # a huge spread can overflow; the first price that does is refused
    # below, and up to it np.maximum is max
    with np.errstate(over="ignore", invalid="ignore"):
        for width in sizes[:-1]:
            hi = lo + width
            row = prices[lo:hi, :, None]
            scale = spread * np.maximum(0.25, np.abs(row))
            moved = row + scale * (G[lo:hi] - center[lo:hi])
            prices[hi : hi + b * width] = moved.transpose(0, 2, 1).reshape(-1, d)
            lo = hi

    ids = tuple(map("n{}".format, range(n)))
    # refuse as loading the written file would
    bad = ~np.isfinite(prices)
    if np.any(bad):
        k, a = np.argwhere(bad)[0].tolist()
        _require_number(prices[k, a].item(), f"node {ids[k]!r}: price")
    parent = np.arange(-1, n - 1) // b
    t = np.repeat(np.arange(periods + 1), sizes)
    return _assemble(assets, periods, ids, parent, t, p, prices)


def generate_random_market(
    seed: int,
    periods: int = 2,
    branching: int = 2,
    assets: int = 1,
    spread: float = 0.3,
    max_attempts: int = 100,
) -> ScenarioTree:
    """Generate a random viable market, deterministically from the seed.

    Price increments at each node are centered under a randomly drawn
    strictly positive weight vector distinct from the physical
    probabilities, so a positive martingale measure exists by construction
    while the physical drift stays generically nonzero.  Viability is
    still re-checked and non-viable draws rejected, up to ``max_attempts``.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("seed must be an integer")
    if periods < 1 or branching < 2 or assets < 1:
        raise ValidationError(
            "need periods >= 1, branching >= 2, assets >= 1"
        )
    if not math.isfinite(spread) or spread <= 0.0:
        raise ValidationError("spread must be a positive number")
    leaves = 1
    for _ in range(periods):
        # branching >= 2: at most 18 factors, however large periods is
        leaves *= branching
        if leaves > 200_000:
            raise ValidationError("tree would exceed 200000 leaves")

    rng = random.Random(seed)
    for _ in range(max_attempts):
        tree = _random_tree(rng, periods, branching, assets, float(spread))
        if check_viability(tree):
            return tree
    raise GenerationFailure(
        f"no viable market in {max_attempts} attempts (seed {seed})"
    )
