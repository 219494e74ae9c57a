"""Independent reference implementations used to cross-check the package.

Everything here deliberately recomputes results through different
algorithms than the library: exact rational elimination instead of
least squares, exhaustive active-set enumeration instead of pivoting,
scipy's HiGHS solver instead of the built-in simplex, damped Newton
instead of clip-set iteration, and plain grid searches instead of
closed forms.  The dense global solvers at the end (Gram system, leaf
active-set QP, global clip-set iteration over the full gain matrix) are
the pipeline the package ran before its node-by-node backward induction;
they share no recursion with it and check it on small trees.  The
clip-set loop keeps its own line search, a walk over the crossings in
[0, 1], so it does not lean on the package's kink walk either.  The dense
views of a tree (gain matrix, martingale constraint system) are built here
from its per-node views, and the node-by-node market parser and random
generator the columnar tree replaced are kept as the references for the
array passes that load and generate markets now, and the node-by-node
document builder as the reference for the one market file writer; the generator's
per-node draw loop is kept as the reference for its one-block draws.  The
cell-by-cell law CSV reader is kept as the reference for the
column-at-a-time one, and the one-payoff Sharpe ratio, each sum a list's
``math.fsum``, as the reference for the dense cap-sweep pass; the hull
cash level by bisection is the reference for the kink walk.  The
viability sweep that takes every family's full step, weights included,
and keeps them for the density is the reference for the sweep that keeps
floors only.  One builder, ``iid_tree``, makes trees whose every node
repeats one step.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
from scipy import optimize

from mmvport import (
    DiscreteLaw,
    ParseError,
    RandomVariable,
    ValidationError,
    market_from_dict,
)
from mmvport.induction import _family_floors
from mmvport.market import _assemble


# ---------------------------------------------------------------------------
# a tree of one repeated step, for the paper's identities


def iid_tree(periods, p, steps, root):
    """Tree whose every node moves by the same increments with the same p."""
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": list(root)}]
    frontier = nodes[:]
    for t in range(1, periods + 1):
        grown = []
        for parent in frontier:
            for k, (pk, step) in enumerate(zip(p, steps)):
                prices = [a + b for a, b in zip(parent["prices"], step)]
                grown.append({"id": f"{parent['id']}{k}", "parent": parent["id"],
                              "t": t, "p": pk, "prices": prices})
        nodes += grown
        frontier = grown
    return market_from_dict({"assets": len(root), "periods": periods, "nodes": nodes})


# ---------------------------------------------------------------------------
# dense views of a tree, built from its TreeNode views


def gain_matrix(tree):
    """B with wealth = x + B @ theta, theta stacked per nonterminal node.

    Shape (leaves, nonterminal * assets), leaves and nonterminal nodes in
    file order.
    """
    d = tree.assets
    col = {nid: j * d for j, nid in enumerate(tree.nonterminal_ids)}
    B = np.zeros((tree.n_leaves, len(tree.nonterminal_ids) * d))
    for w, leaf_id in enumerate(tree.leaf_ids):
        node = tree.node(leaf_id)
        while node.parent is not None:
            parent = tree.node(node.parent)
            j = col[parent.id]
            B[w, j : j + d] = node.prices - parent.prices
            node = parent
    B.setflags(write=False)
    return B


def constraint_system(tree):
    """(A, b) with A z = b iff z is a martingale density candidate.

    A stacks E[z] = 1 over the node-wise conditional increment constraints
    E[z 1_node dS] = 0, which on a finite tree are exactly the martingale
    property.
    """
    p = tree.leaf_probabilities
    A = np.vstack([p, (gain_matrix(tree) * p[:, None]).T])
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    A.setflags(write=False)
    b.setflags(write=False)
    return A, b


# ---------------------------------------------------------------------------
# exact rational linear algebra


def _fraction_solve(G, b):
    """Solve G x = b over the rationals by Gaussian elimination.

    Returns None when G is singular.
    """
    n = len(G)
    M = [row[:] + [b[i]] for i, row in enumerate(G)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = Fraction(1, 1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [v - factor * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _rationalize(a, limit=10**12):
    return [Fraction(float(v)).limit_denominator(limit) for v in np.asarray(a).ravel()]


def exact_signed_density(tree):
    """Variance-optimal signed density by rational normal equations.

    Minimizes sum_i p_i z_i^2 subject to E[z] = 1 and zero expectation of
    every weighted gain row.  The optimum lies in the span of the
    constraint directions: z = C^T mu with G mu = e1 for the rational
    Gram G of C under p.  Returns (z as Fractions, E[z^2] as Fraction),
    or None when the Gram is singular (redundant market directions).
    """
    p = _rationalize(tree.leaf_probabilities)
    B = gain_matrix(tree)
    rows = [[Fraction(1)] * len(p)]
    for j in range(B.shape[1]):
        rows.append(_rationalize(B[:, j]))
    m = len(rows)
    G = [
        [sum(p[i] * rows[r][i] * rows[s][i] for i in range(len(p))) for s in range(m)]
        for r in range(m)
    ]
    rhs = [Fraction(1)] + [Fraction(0)] * (m - 1)
    mu = _fraction_solve(G, rhs)
    if mu is None:
        return None
    z = [sum(mu[r] * rows[r][i] for r in range(m)) for i in range(len(p))]
    second = sum(p[i] * z[i] * z[i] for i in range(len(p)))
    return z, second


# ---------------------------------------------------------------------------
# nonnegative density by exhaustive active-set enumeration


def brute_nonneg_density(tree, tol=1e-9):
    """Minimal E[z^2] over nonnegative densities by subset enumeration.

    Tries every subset of leaves pinned to zero, solves the reduced
    equality-constrained problem by least squares, and keeps the best
    candidate that is feasible.  Exponential; use on <= 12 leaves.
    """
    p = tree.leaf_probabilities
    A, b = constraint_system(tree)
    L = p.size
    if L > 12:
        raise ValueError("brute-force oracle limited to 12 leaves")

    best = None
    for r in range(L):
        for pinned in itertools.combinations(range(L), r):
            free = [i for i in range(L) if i not in pinned]
            if not free:
                continue
            # stationarity on free leaves: z_f in the span of C rows there
            Cf = np.vstack(
                [np.ones(len(free)), gain_matrix(tree)[free, :].T]
            )
            pf = p[free]
            G = (Cf * pf) @ Cf.T
            rhs = np.zeros(Cf.shape[0])
            rhs[0] = 1.0
            mu, *_ = np.linalg.lstsq(G, rhs, rcond=1e-12)
            z = np.zeros(L)
            z[free] = Cf.T @ mu
            if np.any(z < -tol):
                continue
            if np.max(np.abs(A @ z - b)) > 1e-8:
                continue
            second = float(np.sum(p * z * z))
            if best is None or second < best[1] - 1e-15:
                best = (z, second)
    return best


# ---------------------------------------------------------------------------
# viability via scipy's HiGHS simplex on the untransformed program


def viability_linprog(tree, floor=1e-9):
    """Maximize t with A z = b and z >= t >= 0, solved by scipy HiGHS.

    Works on the original variables (free z, bounded t) so it shares no
    reformulation with the package's solver.  Returns (viable, t_star).
    """
    A, b = constraint_system(tree)
    rows, L = A.shape
    # variables: z (free) then t
    c = np.zeros(L + 1)
    c[-1] = -1.0
    A_eq = np.hstack([A, np.zeros((rows, 1))])
    A_ub = np.hstack([-np.eye(L), np.ones((L, 1))])  # t - z_i <= 0
    bounds = [(None, None)] * L + [(0.0, None)]
    res = optimize.linprog(
        c,
        A_ub=A_ub,
        b_ub=np.zeros(L),
        A_eq=A_eq,
        b_eq=b,
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        return False, None
    t_star = float(res.x[-1])
    return t_star > floor, t_star


def reference_viability(tree, floor=1e-9):
    """(viable, status, bound, offending_node, density) of a backward sweep
    that takes every family's step, q included, by ``_family_floors`` and
    keeps each q; the density is the product of q_k / p_k along each path.

    The offending node is found by a walk over the nodes: of those whose
    floor is at most ``floor`` while every child's exceeds it, the deepest,
    the first in file order.
    """
    levels = tree.levels
    value = np.ones(levels.n_nodes)
    feasible = np.ones(levels.n_nodes, dtype=bool)
    weights = {}
    for k in reversed(range(len(levels.families))):
        fam = levels.families[k]
        weights[k], value[fam.nodes], feasible[fam.nodes] = _family_floors(
            fam.dS, fam.p, value[fam.kids], feasible[fam.kids], fam.ids
        )
    bound = float(value[levels.root])
    if feasible[levels.root] and bound > floor:
        ratio = np.empty(levels.n_nodes)
        ratio[levels.root] = 1.0
        for k, fam in enumerate(levels.families):
            ratio[fam.kids] = ratio[fam.nodes, None] * (weights[k] / fam.p)
        return True, "viable", bound, None, ratio[levels.leaves]
    offsets, kids = tree.child_offsets.tolist(), tree.child_index.tolist()
    broken = [
        n for n in range(len(tree.ids))
        if offsets[n] < offsets[n + 1] and value[n] <= floor
        and all(value[c] > floor for c in kids[offsets[n]:offsets[n + 1]])
    ]
    node = tree.ids[max(broken, key=lambda n: tree.t[n])] if broken else None
    if feasible[levels.root]:
        return False, "degenerate", bound, node, None
    return False, "infeasible", None, node, None


# ---------------------------------------------------------------------------
# truncated-utility primal by damped Newton on the piecewise objective


def damped_newton_truncated(tree, initial_wealth, iterations=200):
    """Maximize E[U(min(x + B theta, 1))] by damped (guarded) Newton.

    U(w) = w - w^2/2; the objective is concave piecewise quadratic with
    continuous gradient B^T [p * max(1 - w, 0)].  Newton steps use the
    curvature of the currently-uncapped region with a tiny ridge and a
    backtracking line search.  Returns the best objective value found.
    """
    p = tree.leaf_probabilities
    B = gain_matrix(tree)
    theta = np.zeros(B.shape[1])

    def value(t):
        w = np.minimum(initial_wealth + B @ t, 1.0)
        return float(np.sum(p * (w - 0.5 * w * w)))

    best = value(theta)
    for _ in range(iterations):
        w = initial_wealth + B @ theta
        grad = B.T @ (p * np.maximum(1.0 - w, 0.0))
        if np.max(np.abs(grad), initial=0.0) < 1e-13:
            break
        live = w < 1.0
        H = (B[live].T * p[live]) @ B[live] + 1e-12 * np.eye(B.shape[1])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        alpha = 1.0
        improved = False
        for _ in range(60):
            cand = theta + alpha * step
            cand_val = value(cand)
            if cand_val > best + 1e-16:
                theta, best, improved = cand, cand_val, True
                break
            alpha *= 0.5
        if not improved:
            break
    return best


def scipy_quadratic_value(tree, initial_wealth):
    """Best E[U(x + B theta)] found by scipy's BFGS (independent method)."""
    p = tree.leaf_probabilities
    B = gain_matrix(tree)

    def negative(t):
        w = initial_wealth + B @ t
        return -float(np.sum(p * (w - 0.5 * w * w)))

    res = optimize.minimize(
        negative, np.zeros(B.shape[1]), method="BFGS",
        options={"gtol": 1e-12, "maxiter": 2000},
    )
    return -float(res.fun)


# ---------------------------------------------------------------------------
# the Sharpe ratio of one payoff, the package's per-payoff path before the
# cap sweep's dense pass became its only Sharpe ratio


def reference_sharpe_ratio(X: RandomVariable) -> float:
    """Mean over standard deviation of X on the extended real line.

    The payoff is divided by the power of two just above max |X|, each sum
    is ``math.fsum`` of a list, and the variance is E[(X - m)^2]; a constant
    payoff, or a variance of 0, gives +inf, -inf or 0 by the sign of m.
    """
    p = X.law.probabilities
    x = np.ldexp(X.values, -math.frexp(float(np.max(np.abs(X.values))))[1])
    m = math.fsum((p * x).tolist())
    var = 0.0 if np.all(x == x[0]) else math.fsum((p * np.square(x - m)).tolist())
    if var <= 0.0:
        return math.inf if m > 0.0 else (-math.inf if m < 0.0 else 0.0)
    return m / math.sqrt(var)


# ---------------------------------------------------------------------------
# grid searches


def zoom_fmmv(X: RandomVariable, sweeps=4, points=2001):
    """Monotone mean-variance value by zooming grid search over the cash level."""
    p = X.law.probabilities
    x = X.values

    def objective(c):
        w = np.minimum(x - c, 1.0)
        return float(np.sum(p * (w - 0.5 * w * w))) + c

    lo = float(x.min()) - 2.0
    hi = float(x.max()) + 2.0
    best_c = 0.0
    for _ in range(sweeps):
        grid = np.linspace(lo, hi, points)
        vals = [objective(c) for c in grid]
        k = int(np.argmax(vals))
        best_c = float(grid[k])
        span = (hi - lo) / (points - 1)
        lo, hi = best_c - 2 * span, best_c + 2 * span
    return objective(best_c), best_c


def golden_max(fn, lo, hi, iterations=200):
    """Golden-section maximum of a unimodal scalar function."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return max(fn(mid), fc, fd)


def cash_level_bisection(
    X: RandomVariable,
    tol_scale: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of E[(1 - X + c)^+] = 1 by bracketed bisection.

    Slow reference for the kink walk; the initial bracket
    [min(X) - 2, max(X) + 2] is widened geometrically if needed and the
    search stops once the bracket width falls below tol_scale * (1 + |c|).
    """
    p = X.law.probabilities
    x = X.values

    def h(c: float) -> float:
        return math.fsum((p * np.maximum(1.0 - x + c, 0.0)).tolist()) - 1.0

    lo = float(x.min()) - 2.0
    hi = float(x.max()) + 2.0
    span = hi - lo
    for _ in range(200):
        if h(lo) < 0.0:
            break
        lo -= span
        span *= 2.0
    span = hi - lo
    for _ in range(200):
        if h(hi) > 0.0:
            break
        hi += span
        span *= 2.0
    for _ in range(max_iter):
        c = 0.5 * (lo + hi)
        if hi - lo <= tol_scale * (1.0 + abs(c)):
            return c
        if h(c) >= 0.0:
            hi = c
        else:
            lo = c
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the node-by-node market parser: one dict per entry, dict lookups for the
# structure, one math.fsum per sibling group; the columnar parser of the
# package must give the same columns or the same error


_SIBLING_SUM_TOL = 1e-9
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


def _reference_build_tree(assets: int, periods: int, raw_nodes: list[dict]) -> dict:
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

    # (the package built one TreeNode per entry here; the reference returns
    # the same quantities as columns in file order)
    return {
        "ids": tuple(entry["id"] for entry in raw_nodes),
        "parent": [entry["parent"] for entry in raw_nodes],
        "t": [entry["t"] for entry in raw_nodes],
        "cond_prob": np.array([cond[entry["id"]] for entry in raw_nodes]),
        "path_prob": np.array([path[entry["id"]] for entry in raw_nodes]),
        "prices": np.array([entry["prices"] for entry in raw_nodes], dtype=float),
    }


def reference_market_from_dict(obj) -> dict:
    """The node-by-node parser the columnar one replaced, as columns."""
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
    return _reference_build_tree(assets, periods, raw_nodes)


def reference_market_to_dict(tree) -> dict:
    """The market document of ``tree``, built a node at a time from its columns."""
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



def reference_random_document(seed, periods, branching, assets, spread, attempt=0):
    """The generator's document as it drew it node by node with ``random``.

    ``attempt`` documents are drawn and dropped first, as when the
    generator rejects non-viable draws.  Probabilities are the drawn ones,
    divided once; loading divides them again by the sibling sums.
    """
    rng = random.Random(seed)
    for _ in range(attempt + 1):
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
    return {"assets": assets, "periods": periods, "nodes": nodes}

def reference_random_tree(rng, periods, branching, assets, spread):
    """One draw of the generator's tree, node by node with ``rng``'s calls.

    Nonterminal node j, in order, draws ``branching`` uniform(0.2, 1)
    probabilities, ``branching`` uniform(0.05, 1) weights w and then, per
    asset, ``branching`` gauss(0, 1) values g for its children
    ``b j + 1, ..., b j + b``.  p = raw / fsum(raw), which
    :func:`_assemble` divides by the fsum of the siblings as loading the
    written file does; prices move by
    spread * max(0.25, |price|) * (g - fsum(q g)) with q = w / fsum(w),
    so q prices the increments to zero.
    """
    b = branching
    sizes = [b**t for t in range(periods + 1)]
    n = sum(sizes)
    uniform, gauss, fsum = rng.uniform, rng.gauss, math.fsum
    prices = [[uniform(0.8, 1.2) for _ in range(assets)]]
    p = [1.0]
    # the (n - 1) / b nonterminal nodes come first in breadth-first order;
    # their children are appended behind the loop as it goes
    for row in islice(prices, (n - 1) // b):
        raw_p = [uniform(0.2, 1.0) for _ in range(b)]
        total_p = fsum(raw_p)
        p += [r / total_p for r in raw_p]
        weights = [uniform(0.05, 1.0) for _ in range(b)]
        total_w = fsum(weights)
        q = [w / total_w for w in weights]
        moved = []
        for price in row:
            raw = [gauss(0.0, 1.0) for _ in range(b)]
            center = fsum([qk * rk for qk, rk in zip(q, raw)])
            scale = spread * max(0.25, abs(price))
            moved.append([price + scale * (rk - center) for rk in raw])
        prices += zip(*moved)

    ids = tuple(map("n{}".format, range(n)))
    prices = np.array(prices)
    # a huge spread can overflow; refuse as loading the written file would
    bad = ~np.isfinite(prices)
    if np.any(bad):
        k, a = np.argwhere(bad)[0].tolist()
        raise ParseError(
            f"node {ids[k]!r}: price must be finite, got {prices[k, a].item()!r}"
        )
    parent = np.concatenate(([-1], (np.arange(1, n) - 1) // b))
    t = np.repeat(np.arange(periods + 1), sizes)
    return _assemble(assets, periods, ids, parent, t, np.array(p), prices)


# ---------------------------------------------------------------------------
# path-walking wealth


def wealth_by_paths(tree, strategy, initial_wealth):
    """Terminal wealth leaf by leaf, accumulating gains along each path."""
    out = []
    for leaf_id in tree.leaf_ids:
        node = tree.node(leaf_id)
        wealth = initial_wealth
        while node.parent is not None:
            parent = tree.node(node.parent)
            holding = strategy.holdings[parent.id]
            wealth += float(np.dot(holding, node.prices - parent.prices))
            node = parent
        out.append(wealth)
    return np.array(out)


# ---------------------------------------------------------------------------
# the dense global solvers the backward-induction engine replaced: Gram
# system, leaf active-set QP and clip-set iteration over the whole gain
# matrix; cubic in the leaves, so for small trees only


_DENSE_ZERO_TOL = 1e-12
_DENSE_MULTIPLIER_TOL = 1e-10


def _dense_reduced(A, b, p, free):
    """Minimize sum_free p z^2 under A[:, free] z_free = b; zeros elsewhere."""
    A_f = A[:, free]
    p_f = p[free]
    G = (A_f / p_f) @ A_f.T
    y, *_ = np.linalg.lstsq(G, b, rcond=1e-10)
    z_f = (A_f.T @ y) / p_f
    residual = A_f @ z_f - b
    if float(np.max(np.abs(residual))) > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
        raise ArithmeticError("martingale constraints are inconsistent")
    z = np.zeros(A.shape[1])
    z[free] = z_f
    return z, y


def dense_signed_density(tree):
    """Variance-optimal signed density from the Gram system (A D^-1 A') y = b."""
    A, b = constraint_system(tree)
    z, _ = _dense_reduced(A, b, tree.leaf_probabilities, np.ones(tree.n_leaves, bool))
    return z


def dense_nonneg_density(tree):
    """Variance-optimal nonnegative density by a primal active-set method.

    Starts from the viability certificate's strictly positive density,
    pins the first leaf that blocks at zero and releases a pinned leaf
    whose multiplier turns negative, both by Bland's smallest index; a
    leaf released on a spurious multiplier (it blocks again at once with
    a zero-length step) stays pinned until another leaf is pinned.
    """
    A, b = constraint_system(tree)
    p = tree.leaf_probabilities
    L = tree.n_leaves
    pinned = np.zeros(L, dtype=bool)
    z_cand, y = _dense_reduced(A, b, p, ~pinned)
    if z_cand.min() >= -_DENSE_ZERO_TOL:
        return np.maximum(z_cand, 0.0)
    z = np.asarray(tree.viability.density, dtype=float).copy()
    held = np.zeros(L, dtype=bool)
    released = -1
    for _ in range(L + 5):
        blocking = (~pinned) & (z_cand < -_DENSE_ZERO_TOL)
        if np.any(blocking):
            idx = np.flatnonzero(blocking)
            ratios = z[idx] / (z[idx] - z_cand[idx])
            k = int(np.argmin(ratios))
            alpha = min(max(float(ratios[k]), 0.0), 1.0)
            if alpha == 0.0 and idx[k] == released:
                held[idx[k]] = True
            else:
                held[:] = False
            z = z + alpha * (z_cand - z)
            z[idx[k]] = 0.0
            z[pinned] = 0.0
            pinned[idx[k]] = True
            released = -1
        else:
            z = z_cand
            if not np.any(pinned):
                break
            grad = A.T @ y
            mu = -2.0 * grad[pinned]
            scale = 1.0 + float(np.max(np.abs(grad)))
            candidates = np.flatnonzero(pinned)
            release = candidates[
                (mu < -_DENSE_MULTIPLIER_TOL * scale) & ~held[candidates]
            ]
            if release.size == 0:
                break
            released = int(release[0])
            pinned[released] = False
        z_cand, y = _dense_reduced(A, b, p, ~pinned)
    else:
        raise ArithmeticError("active set did not settle")
    return np.where((z < 0.0) & (z >= -_DENSE_ZERO_TOL), 0.0, z)


def _weighted_fit(B, p, target):
    """Min-norm theta with B theta ~ target in the sqrt(p) metric (lstsq)."""
    w = np.sqrt(p)
    theta, *_ = np.linalg.lstsq(w[:, None] * B, w * target, rcond=1e-10)
    return theta


def dense_quadratic(tree, initial_wealth):
    """Min-norm theta maximizing E[U(x + B theta)], by global least squares."""
    return _weighted_fit(
        gain_matrix(tree), tree.leaf_probabilities, 1.0 - initial_wealth
    )


def _line_maximum(p: np.ndarray, W: np.ndarray, g: np.ndarray) -> float:
    """argmax over t in [0, 1] of E[U(min(W + t g, 1))].

    The derivative phi'(t) = sum_{W + t g < 1} p (1 - W - t g) g is
    continuous, decreasing and piecewise linear; walk its kinks.
    """

    def dphi(t: float) -> float:
        w_t = W + t * g
        active = w_t < 1.0
        return float(np.sum(p[active] * (1.0 - w_t[active]) * g[active]))

    crossings = []
    nz = g != 0.0
    t_cross = (1.0 - W[nz]) / g[nz]
    for t in t_cross:
        if 0.0 < t < 1.0:
            crossings.append(float(t))
    points = [0.0] + sorted(set(crossings)) + [1.0]

    if dphi(0.0) <= 0.0:
        return 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        if dphi(hi) >= 0.0:
            continue
        # sign change inside (lo, hi]; the active set is constant there
        mid = 0.5 * (lo + hi)
        w_mid = W + mid * g
        active = w_mid < 1.0
        a = float(np.sum(p[active] * (1.0 - W[active]) * g[active]))
        c = float(np.sum(p[active] * g[active] * g[active]))
        if c <= 0.0:
            return lo
        return min(max(a / c, lo), hi)
    return 1.0


def dense_truncated(tree, initial_wealth, max_rounds=100):
    """theta maximizing E[U(min(x + B theta, 1))] by the global clip-set loop."""
    from mmvport.probability import truncated_utility

    B = gain_matrix(tree)
    p = tree.leaf_probabilities
    gap = 1.0 - initial_wealth
    theta = np.zeros(B.shape[1])
    if gap <= 0.0:
        return theta
    grad_scale = (1.0 + float(np.max(np.abs(B), initial=0.0))) * (1.0 + abs(gap))
    best_value, best_theta = -math.inf, theta
    for _ in range(max_rounds):
        W = initial_wealth + B @ theta
        below = W < 1.0
        grad = B.T @ (p * (1.0 - W) * below)
        if float(np.max(np.abs(grad), initial=0.0)) <= 1e-11 * grad_scale:
            return theta
        value = math.fsum((p * truncated_utility(W)).tolist())
        if value <= best_value + 1e-15 * (1.0 + abs(best_value)):
            return best_theta
        best_value, best_theta = value, theta
        step = _weighted_fit(B[below], p[below], gap) - theta
        t = _line_maximum(p, W, B @ step)
        if t <= 0.0:
            return theta
        theta = theta + t * step
    raise ArithmeticError("clip set did not settle")


def clip_set_reference(B, p, max_rounds=100):
    """One node's truncated step by the per-node clip-set loop; (theta, rounds).

    Maximizes sum p U(min(B theta, 1)) from theta = 0 with the stopping
    rules of the package's level-batched iteration, one node at a time,
    each fit its own ``lstsq`` on the rows below the cap and each line
    search one kink walk.
    """
    from mmvport.probability import _kink_walk, truncated_utility

    grad_scale = 2.0 * (1.0 + float(np.max(np.abs(B), initial=0.0)))
    theta = np.zeros(B.shape[1])
    best_value, best_theta = -math.inf, theta
    for rounds in range(1, max_rounds + 1):
        W = B @ theta
        below = W < 1.0
        grad = B.T @ (p * (1.0 - W) * below)
        if float(np.max(np.abs(grad), initial=0.0)) <= 1e-11 * grad_scale:
            return theta, rounds
        value = math.fsum((p * truncated_utility(W)).tolist())
        if value <= best_value + 1e-15 * (1.0 + abs(best_value)):
            return best_theta, rounds
        best_value, best_theta = value, theta
        step = _weighted_fit(B[below], p[below], 1.0) - theta
        t = float(_kink_walk(1.0 - W, B @ step, p, lo=0.0, hi=1.0)[0])
        if t <= 0.0:
            return theta, rounds
        theta = theta + t * step
    raise ArithmeticError("clip set did not settle")


def node_wealth(tree, vector, initial_wealth):
    """Wealth at every node of the strategy with stacked holdings ``vector``."""
    d = tree.assets
    column = {nid: j * d for j, nid in enumerate(tree.nonterminal_ids)}
    wealth = {tree.root.id: float(initial_wealth)}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child_id in node.children:
            child = tree.node(child_id)
            j = column[node.id]
            wealth[child_id] = wealth[node.id] + float(
                np.dot(vector[j : j + d], child.prices - node.prices)
            )
            stack.append(child)
    return wealth


# ---------------------------------------------------------------------------
# the cell-by-cell law CSV reader


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _resolve_column(token: str, header, path: str) -> int:
    token = token.strip()
    if header is not None and token in header:
        return header.index(token)
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"{path}: column {token!r} is neither a header name nor an index"
        ) from None


def reference_read_law(path: str, col: str | None) -> RandomVariable:
    """Read a sampled law from CSV one cell at a time: values plus weights.

    A non-numeric cell is named by the line of the file its row starts on.
    A non-finite value or a bad weight is refused by the law and payoff
    constructors, without naming the cell.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            raw, lines, start = [], [], 1
            for row in reader:
                if any(c.strip() for c in row):
                    raw.append(row)
                    lines.append(start)
                start = reader.line_num + 1
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: invalid CSV ({exc})") from exc
    if not raw:
        raise ParseError(f"{path}: no rows")

    header = None
    body = raw
    if any(not _is_number(c) for c in raw[0] if c.strip()):
        header = [c.strip() for c in raw[0]]
        body = raw[1:]
        lines = lines[1:]
    if not body:
        raise ParseError(f"{path}: header but no data rows")

    width = len(body[0])
    if any(len(row) != width for row in body):
        raise ParseError(f"{path}: rows have inconsistent column counts")

    if col is not None:
        tokens = [t for t in col.split(",") if t.strip()]
        if len(tokens) not in (1, 2):
            raise ParseError("--col takes one or two comma-separated columns")
        indices = [_resolve_column(t, header, path) for t in tokens]
    elif width == 1:
        indices = [0]
    elif width == 2:
        indices = [0, 1]
    else:
        raise ParseError(
            f"{path}: {width} columns; pick the value (and optional "
            "weight) column with --col"
        )
    for idx in indices:
        if not 0 <= idx < width:
            raise ParseError(f"{path}: column index {idx} out of range")

    def _column(idx: int, label: str):
        out = []
        for lineno, row in zip(lines, body):
            cell = row[idx].strip()
            try:
                out.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: {label} column has non-numeric {cell!r}"
                ) from None
        return out

    values = _column(indices[0], "value")
    if len(indices) == 2:
        weights = _column(indices[1], "weight")
        law = DiscreteLaw.from_weights(weights)
    else:
        law = DiscreteLaw.uniform(len(values))
    return RandomVariable(law, values)
