"""Scenario-tree market model: loading, validation, wealth, viability.

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

Two linear-algebra views of the tree are exposed:

* ``gain_matrix`` B, of shape (leaves, nonterminal*assets): wealth of a
  self-financing strategy theta from initial wealth x is x + B @ theta.
* ``constraint_system`` (A, b): A z = b collects E[z] = 1 together with the
  node-wise conditional increment constraints E[z * 1_node * dS] = 0 that
  characterize martingale densities.  On a finite tree these node-wise
  constraints are exactly the martingale property.

Viability means a strictly positive martingale density exists.  On a
finite tree that holds iff every one-step submarket is free of arbitrage
(Harrison & Pliska 1981; Dalang, Morton & Willinger 1990), so it is
decided node by node: one backward sweep solves a (assets + 1)-row linear
program per nonterminal node with the in-house simplex, and one forward
sweep multiplies the local risk-neutral weights into a certificate
density.  The cost grows linearly with the number of nodes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    GenerationFailure,
    ParseError,
    SolverFailure,
    ValidationError,
)
from .probability import DiscreteLaw, RandomVariable
from .simplex import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve_lp

__all__ = [
    "TreeNode",
    "ScenarioTree",
    "Strategy",
    "MeasureDensity",
    "ViabilityCertificate",
    "load_market",
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
_DENSITY_FLOOR = -1e-12
_VIABILITY_FLOOR = 1e-9

_TOP_KEYS = {"assets", "periods", "nodes"}
_NODE_KEYS = {"id", "parent", "t", "p", "prices"}


def _require_int(obj, name: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{name} must be an integer, got {obj!r}")
    return obj


def _require_number(obj, name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(f"{name} must be a number, got {obj!r}")
    value = float(obj)
    if not math.isfinite(value):
        raise ParseError(f"{name} must be finite, got {obj!r}")
    return value


@dataclass(frozen=True)
class TreeNode:
    """Immutable node of a scenario tree."""

    id: str
    parent: str | None
    t: int
    cond_prob: float
    prices: np.ndarray
    children: tuple[str, ...]
    path_prob: float


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Validated scenario-tree market.

    Construct via :func:`load_market`, :func:`market_from_dict` or
    :func:`generate_random_market`; the constructor expects fully built
    nodes and re-checks nothing.
    """

    assets: int
    periods: int
    nodes: tuple[TreeNode, ...]
    _index: dict = field(repr=False)

    def node(self, node_id: str) -> TreeNode:
        try:
            return self.nodes[self._index[node_id]]
        except KeyError:
            raise DimensionMismatch(f"unknown node id {node_id!r}") from None

    @property
    def root(self) -> TreeNode:
        return self.nodes[self._index["__root__"]]

    @cached_property
    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.t == self.periods)

    @cached_property
    def nonterminal_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.t < self.periods)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    @cached_property
    def leaf_probabilities(self) -> np.ndarray:
        p = np.array([self.node(i).path_prob for i in self.leaf_ids])
        p.setflags(write=False)
        return p

    @cached_property
    def law(self) -> DiscreteLaw:
        return DiscreteLaw.from_weights(self.leaf_probabilities)

    @cached_property
    def gain_matrix(self) -> np.ndarray:
        """B with wealth = x + B @ theta, theta stacked per nonterminal node."""
        d = self.assets
        col = {nid: j * d for j, nid in enumerate(self.nonterminal_ids)}
        B = np.zeros((self.n_leaves, len(self.nonterminal_ids) * d))
        for w, leaf_id in enumerate(self.leaf_ids):
            node = self.node(leaf_id)
            while node.parent is not None:
                parent = self.node(node.parent)
                j = col[parent.id]
                B[w, j : j + d] = node.prices - parent.prices
                node = parent
        B.setflags(write=False)
        return B

    @cached_property
    def viability(self) -> "ViabilityCertificate":
        """Node-local viability certificate, computed once per tree."""
        return _node_local_viability(self)

    @cached_property
    def constraint_system(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with A z = b iff z is a martingale density candidate."""
        p = self.leaf_probabilities
        A = np.vstack([p, (self.gain_matrix * p[:, None]).T])
        b = np.zeros(A.shape[0])
        b[0] = 1.0
        A.setflags(write=False)
        b.setflags(write=False)
        return A, b


def _build_tree(assets: int, periods: int, raw_nodes: list[dict]) -> ScenarioTree:
    seen: dict[str, dict] = {}
    children: dict[str, list[str]] = {}
    root_id = None
    for entry in raw_nodes:
        nid = entry["id"]
        if nid in seen:
            raise ValidationError(f"duplicate node id {nid!r}")
        seen[nid] = entry
        children.setdefault(nid, [])
        if entry["parent"] is None:
            if root_id is not None:
                raise ValidationError("more than one root node")
            root_id = nid
    if root_id is None:
        raise ValidationError("no root node (parent null)")
    for entry in raw_nodes:
        pid = entry["parent"]
        if pid is not None:
            if pid not in seen:
                raise ValidationError(
                    f"node {entry['id']!r} references unknown parent {pid!r}"
                )
            children[pid].append(entry["id"])

    if seen[root_id]["t"] != 0:
        raise ValidationError("root must sit at t = 0")
    for entry in raw_nodes:
        nid, pid, t = entry["id"], entry["parent"], entry["t"]
        if pid is not None and t != seen[pid]["t"] + 1:
            raise ValidationError(
                f"node {nid!r} has t = {t}, parent sits at t = {seen[pid]['t']}"
            )
        if t > periods:
            raise ValidationError(f"node {nid!r} sits beyond the horizon")
        if (t == periods) != (len(children[nid]) == 0):
            raise ValidationError(
                f"node {nid!r}: leaves must sit exactly at t = periods"
            )

    # sibling probability sums, then exact renormalization
    cond: dict[str, float] = {root_id: 1.0}
    for pid, kids in children.items():
        if not kids:
            continue
        probs = [seen[k]["p"] for k in kids]
        total = math.fsum(probs)
        if abs(total - 1.0) > _SIBLING_SUM_TOL:
            raise ValidationError(
                f"children of {pid!r} have probabilities summing to {total!r}"
            )
        for k, pr in zip(kids, probs):
            cond[k] = pr / total

    # path probabilities top-down; a stack, not recursion, so that deep
    # trees never meet the interpreter's recursion limit
    path: dict[str, float] = {root_id: 1.0}
    stack = [root_id]
    while stack:
        nid = stack.pop()
        for k in children[nid]:
            path[k] = path[nid] * cond[k]
            stack.append(k)

    nodes = []
    index = {}
    for pos, entry in enumerate(raw_nodes):
        nid = entry["id"]
        prices = np.array(entry["prices"], dtype=float)
        prices.setflags(write=False)
        nodes.append(
            TreeNode(
                id=nid,
                parent=entry["parent"],
                t=entry["t"],
                cond_prob=cond[nid],
                prices=prices,
                children=tuple(children[nid]),
                path_prob=path[nid],
            )
        )
        index[nid] = pos
    index["__root__"] = index[root_id]
    return ScenarioTree(assets=assets, periods=periods, nodes=tuple(nodes), _index=index)


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
    if not isinstance(obj["nodes"], list) or not obj["nodes"]:
        raise ParseError("nodes must be a nonempty list")

    raw_nodes = []
    for k, node in enumerate(obj["nodes"]):
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
            raise ParseError(
                f"node {nid!r}: prices must be a list of length {assets}"
            )
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
        raw_nodes.append(
            {"id": nid, "parent": pid, "t": t, "p": prob, "prices": prices}
        )
    return _build_tree(assets, periods, raw_nodes)


def load_market(path) -> ScenarioTree:
    """Load a market JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
    except (FileNotFoundError, OSError) as exc:
        raise ParseError(
            f"no packaged market named {name!r}; "
            "available: binomial, trinomial"
        ) from exc
    return market_from_dict(json.loads(text))


def market_to_dict(tree: ScenarioTree) -> dict:
    nodes = []
    for n in tree.nodes:
        entry = {"id": n.id, "parent": n.parent, "t": n.t}
        if n.parent is not None:
            entry["p"] = n.cond_prob
        entry["prices"] = [float(v) for v in n.prices]
        nodes.append(entry)
    return {"assets": tree.assets, "periods": tree.periods, "nodes": nodes}


def market_to_json(tree: ScenarioTree) -> str:
    return json.dumps(market_to_dict(tree), indent=2) + "\n"


def save_market(tree: ScenarioTree, path) -> None:
    Path(path).write_text(market_to_json(tree), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class Strategy:
    """Asset holdings chosen at every nonterminal node.

    ``vector`` stacks the holdings in nonterminal file order, ``assets``
    entries per node, and is the coordinate form used by the solvers.
    """

    tree: ScenarioTree
    holdings: dict
    vector: np.ndarray

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
        v = v.copy()
        v.setflags(write=False)
        holdings = {}
        for j, nid in enumerate(tree.nonterminal_ids):
            h = v[j * d : (j + 1) * d].copy()
            h.setflags(write=False)
            holdings[nid] = h
        return cls(tree=tree, holdings=holdings, vector=v)

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
    wealth = initial_wealth + tree.gain_matrix @ strategy.vector
    return RandomVariable(tree.law, wealth)


@dataclass(frozen=True, eq=False)
class MeasureDensity:
    """Martingale density on the leaves: E[z] = 1, increments priced to zero.

    The factory re-verifies both properties; ``nonnegative`` records
    whether z clears the floor -1e-12.
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
        expectation = math.fsum((p * z).tolist())
        if abs(expectation - 1.0) > _EXPECTATION_TOL:
            raise ValidationError(
                f"density expectation {expectation!r} is not 1 within "
                f"{_EXPECTATION_TOL}"
            )
        A, _ = tree.constraint_system
        zmax = max(1.0, float(np.max(np.abs(z))))
        for row in A[1:]:
            scale = max(1.0, float(np.abs(row).sum()) * zmax)
            if abs(float(row @ z)) > _MARTINGALE_TOL * scale:
                raise ValidationError(
                    "density violates a node-wise martingale constraint"
                )
        z = z.copy()
        z.setflags(write=False)
        return cls(
            tree=tree,
            values=z,
            expectation=expectation,
            nonnegative=bool(z.min() >= _DENSITY_FLOOR),
        )

    def as_random_variable(self) -> RandomVariable:
        return RandomVariable(self.tree.law, self.values)


@dataclass(frozen=True, eq=False)
class ViabilityCertificate:
    """Outcome of the viability program max{t : A z = b, z >= t}.

    ``bound`` is the optimal floor t (None when no nonnegative density
    exists at all) and ``density`` a strictly positive martingale density
    whose smallest atom is at least ``bound`` (None unless viable).
    """

    viable: bool
    density: np.ndarray | None
    bound: float | None
    status: str

    def __bool__(self) -> bool:
        return self.viable


def check_viability(tree: ScenarioTree) -> ViabilityCertificate:
    """Decide whether a strictly positive martingale density exists.

    The optimum of max t subject to A z = b, z >= t (the largest floor a
    martingale density can keep on every leaf) is computed node by node;
    see :func:`_node_local_viability`.  The bound is at most 1 because
    E[z] = 1 forces min z <= 1.  Viable means the optimum exceeds 1e-9;
    the certificate then carries a strictly positive density.  Status
    "infeasible" (bound None) means not even a nonnegative density
    exists, "degenerate" (bound <= 1e-9) that every nonnegative density
    has a zero atom.  The certificate is computed once per tree and
    cached on it.
    """
    return tree.viability


def _node_local_viability(tree: ScenarioTree) -> ViabilityCertificate:
    """Backward sweep of one-step programs, then a forward product sweep.

    V(n) is the largest floor a conditional density of the subtree below
    n can keep on its leaves; V(leaf) = 1.  A conditional density below n
    is z = (q_k / p_k) z_k on the subtree of child k, so
    V(n) = max t subject to sum_k q_k dS_k = 0, sum_k q_k = 1 and
    q_k >= t p_k / V(k).  With r_k = p_k / V(k) and q = t r + w, w >= 0,
    the variables are (w, tau) with tau = t sum(r) in [0, 1] and the tau
    column r / sum(r), which keeps the column well scaled however small a
    child's V is.  Rows are scaled by their largest entry.

    A child whose subtree has no nonnegative density must get zero mass:
    its w column is left out.  When some child has V = 0 the floor is 0
    and only feasibility is asked.  The certificate density is the
    product of q_k / p_k along each path, so its smallest atom is at
    least V(root), which equals the optimum of the full-tree program.
    """
    nodes = tree.nodes
    index = tree._index
    d = tree.assets
    order = sorted(range(len(nodes)), key=lambda i: nodes[i].t)
    value = np.ones(len(nodes))
    feasible = np.ones(len(nodes), dtype=bool)
    weights: dict[int, np.ndarray] = {}

    for pos in reversed(order):
        node = nodes[pos]
        if not node.children:
            continue
        kids = [index[k] for k in node.children]
        allowed = feasible[kids]
        dS = np.array([nodes[k].prices for k in kids]) - node.prices
        # infeasible children have V = 0, so a floor needs every child
        floor = bool(np.all(value[kids] > 0.0))
        n_w = int(allowed.sum())
        A = np.ones((d + 1, n_w + floor))
        A[1:, :n_w] = dS[allowed].T
        c = np.zeros(n_w + floor)
        if floor:
            r = np.array([nodes[k].cond_prob for k in kids]) / value[kids]
            rho = r / r.sum()
            A[1:, -1] = rho @ dS
            c[-1] = -1.0
        scale = np.max(np.abs(A), axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        rhs = np.zeros(d + 1)
        rhs[0] = 1.0  # the sum row is all ones, so its scale is 1

        result = solve_lp(c, A / scale[:, None], rhs)
        if result.status == STATUS_INFEASIBLE:
            feasible[pos] = False
            value[pos] = 0.0
            continue
        if result.status != STATUS_OPTIMAL:
            raise SolverFailure(
                f"viability program at node {node.id!r} ended with "
                f"{result.status}"
            )
        q = np.zeros(len(kids))
        q[allowed] = result.x[:n_w]
        if floor:
            tau = float(result.x[-1])
            q += tau * rho
            value[pos] = tau / float(r.sum())
        else:
            value[pos] = 0.0
        weights[pos] = q

    root = index["__root__"]
    if not feasible[root]:
        return ViabilityCertificate(False, None, None, "infeasible")
    bound = float(value[root])
    if bound <= _VIABILITY_FLOOR:
        return ViabilityCertificate(False, None, bound, "degenerate")

    ratio = np.ones(len(nodes))
    for pos in order:
        node = nodes[pos]
        for child, q in zip(node.children, weights.get(pos, ())):
            k = index[child]
            ratio[k] = ratio[pos] * q / nodes[k].cond_prob
    z = np.array([ratio[index[i]] for i in tree.leaf_ids])
    z.setflags(write=False)
    return ViabilityCertificate(True, z, bound, "viable")


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
    if branching**periods > 200_000:
        raise ValidationError("tree would exceed 200000 leaves")

    rng = random.Random(seed)
    for _ in range(max_attempts):
        nodes = [
            {
                "id": "n0",
                "parent": None,
                "t": 0,
                "prices": [rng.uniform(0.8, 1.2) for _ in range(assets)],
            }
        ]
        counter = 1
        frontier = [nodes[0]]
        for t in range(periods):
            next_frontier = []
            for parent in frontier:
                raw_p = [rng.uniform(0.2, 1.0) for _ in range(branching)]
                total_p = math.fsum(raw_p)
                weights = [rng.uniform(0.05, 1.0) for _ in range(branching)]
                total_w = math.fsum(weights)
                q = [w / total_w for w in weights]
                deltas = []
                for a in range(assets):
                    raw = [rng.gauss(0.0, 1.0) for _ in range(branching)]
                    center = math.fsum(qk * rk for qk, rk in zip(q, raw))
                    scale = spread * max(0.25, abs(parent["prices"][a]))
                    deltas.append([scale * (rk - center) for rk in raw])
                for k in range(branching):
                    child = {
                        "id": f"n{counter}",
                        "parent": parent["id"],
                        "t": t + 1,
                        "p": raw_p[k] / total_p,
                        "prices": [
                            parent["prices"][a] + deltas[a][k]
                            for a in range(assets)
                        ],
                    }
                    counter += 1
                    nodes.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        tree = market_from_dict(
            {"assets": assets, "periods": periods, "nodes": nodes}
        )
        if check_viability(tree):
            return tree
    raise GenerationFailure(
        f"no viable market in {max_attempts} attempts (seed {seed})"
    )
