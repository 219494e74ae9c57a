"""Backward induction over a scenario tree, one family of nodes at a time.

Every answer the package gives on a finite tree is built from one-step
problems at the nonterminal nodes, solved by two backward sweeps over the
same-width families of :class:`TreeLevels`, never the tree itself.  Each
keeps its state in arrays over the node positions, one numpy pass per
family, so the cost grows linearly with the number of nodes.

The opportunity processes behind every optimum obey

    L_n  = min_phi sum_k p_k L_k  (1 - phi . dS_k)^2          (quadratic)
    Lm_n = min_phi sum_k p_k Lm_k ((1 - phi . dS_k)^+)^2      (truncated)

with L = Lm = 1 on the leaves (Cerny 2004; Cerny & Kallsen 2009; for the
truncated hull Cerny, Maccheroni, Marinacci & Rustichini 2012).  The value
functions keep the shapes 1/2 - L_n (1 - x)^2 / 2 and
1/2 - Lm_n ((1 - x)^+)^2 / 2 at every node, so from wealth x at node n the
optimal holdings are (1 - x) phi_n and (1 - x)^+ phim_n, whatever the
initial wealth.  From the optimal terminal wealths W_q and W_m reached
from 0, the variance-optimal densities are z_s = (1 - W_q) / L_root and
z_n = (1 - W_m)^+ / Lm_root, with second moments 1 / L_root and
1 / Lm_root.  :class:`Opportunity` runs this sweep once per tree and
answers forward sweeps from any initial wealth.

Viability, a strictly positive martingale density, holds on a finite
tree iff every one-step market is free of arbitrage (Harrison & Pliska
1981; Dalang, Morton & Willinger 1990): :func:`_node_local_viability`
sweeps the largest density floor of every subtree.

The one-step tolerances, each with its reason:

- ``_RCOND`` (1e-10), the pseudo-inverse's relative cutoff, keeps
  directions the increments only see as noise (redundant assets) out of
  the holdings, which are then the minimum-norm optimizers.
- ``_GRAD_TOL`` (1e-11): a clip-set gradient below this share of its
  scale 2 (1 + max |dS|) is rounding; ``_MAX_CLIP_ROUNDS`` turns a clip
  set that never settles into IterationLimit.
- ``_VIABILITY_FLOOR`` (1e-9), the documented viability threshold: a
  floor at or below it counts as a zero atom ("degenerate").
- ``_BASIS_SINGULAR`` (1e-5): a solve with a basis whose determinant is
  below this share of Hadamard's bound (the product of its column norms)
  can lose more than about 1e-11 relative, so its node goes to the simplex.
- ``_REDUCED_COST_TOL`` (1e-9): reduced costs of the scaled rows (entries
  at most 1) prove a basis optimal from -1e-9 up, above their rounding.
- ``simplex._FEAS_TOL`` (1e-9), read from the simplex itself: a point
  further below 0 or off its rows than the simplex allows is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import IterationLimit, SolverFailure, ViabilityError
from .probability import _frozen, _fsum_rows, _kink_walk, truncated_utility
from .simplex import _FEAS_TOL, STATUS_INFEASIBLE, STATUS_OPTIMAL, solve_lp

__all__ = ["Family", "TreeLevels", "Opportunity", "ViabilityCertificate"]

_RCOND = 1e-10
_GRAD_TOL = 1e-11
_MAX_CLIP_ROUNDS = 100
_VIABILITY_FLOOR = 1e-9
# widest family whose C(children, assets) bases are enumerated at once;
# wider ones go to the simplex
_BASIS_WIDTH = 8
# assets-square basis systems factored at once, bounding the work arrays
_BASIS_BATCH = 1 << 14
_BASIS_SINGULAR = 1e-5
_REDUCED_COST_TOL = 1e-9


class Family(NamedTuple):
    """The nonterminal nodes of one depth with the same number of children.

    ``t`` is the depth, ``nodes`` their tree positions in file order,
    ``kids`` the (nodes, children) positions of their children, each row
    in file order; ``dS`` the (nodes, children, assets) price increments,
    ``p`` the children's conditional probabilities and ``ids`` the node
    ids (an object array).
    """

    t: int
    nodes: np.ndarray
    kids: np.ndarray
    dS: np.ndarray
    p: np.ndarray
    ids: np.ndarray


class TreeLevels:
    """A tree's one-step markets, grouped into same-width families.

    ``families`` lists the :class:`Family` of every (depth, width), root
    first, on the tree's own cut of its nonterminal nodes.
    Every sweep keeps its state in arrays over the tree's positions: a
    backward sweep walks the families in reverse and sets ``v[fam.nodes]``
    from ``v[fam.kids]``, a forward sweep walks them in order and sets
    ``x[fam.kids]`` from ``x[fam.nodes]``.  ``leaves`` and ``nonterminal``
    are the positions of the leaves and of the other nodes in file order,
    so ``x[leaves]`` is in leaf order and ``theta[nonterminal]`` in
    holdings order; ``ids`` (an object array) and ``t`` name and place
    every position.  A node whose increments overflow is refused with
    :class:`SolverFailure`.
    """

    def __init__(self, tree):
        offsets = tree.child_offsets
        inner = offsets[1:] > offsets[:-1]
        self.assets = tree.assets
        self.n_nodes = len(inner)
        self.root = int(np.argmin(tree.parent))
        self.leaves = np.flatnonzero(~inner)
        self.nonterminal = np.flatnonzero(inner)
        self.path_prob = tree.path_prob
        self.t = tree.t

        with np.errstate(over="ignore"):
            steps = tree.prices - tree.prices[tree.parent]
        # one test per tree: a fault only in the root's row walks for nothing
        finite = np.isfinite(steps).all()
        self.ids = names = np.array(tree.ids, dtype=object)
        self.families = []
        for depth, fam, kids in tree._families:
            dS = steps[kids]
            if not finite:
                _require_finite(dS.reshape(len(fam), -1), names[fam])
            self.families.append(Family(
                depth, fam, kids, dS, tree.cond_prob[kids], names[fam]
            ))

    def propagate(self, initial_wealth: float, holdings) -> np.ndarray:
        """Terminal wealth, in leaf order, of a self-financing strategy.

        ``holdings(fam, x)`` returns the (nodes, assets) holdings of a
        family given the wealth x at its nodes; the same arithmetic serves
        every caller, so a strategy's wealth does not depend on who
        rebuilds it.
        """
        x = np.empty(self.n_nodes)
        x[self.root] = initial_wealth
        for fam in self.families:
            here = x[fam.nodes]
            x[fam.kids] = here[:, None] + _gains(fam.dS, holdings(fam, here))
        return x[self.leaves]

    def increment_moments(self, leaf_values: np.ndarray) -> np.ndarray:
        """E[v dS 1_n] per (node, asset) for v on the leaves; 0 at a leaf.

        One backward aggregation of the p-weighted leaf values: the mass
        under each child times that child's increment.
        """
        mass = np.zeros(self.n_nodes)
        mass[self.leaves] = self.path_prob[self.leaves] * np.asarray(
            leaf_values, dtype=float
        )
        out = np.zeros((self.n_nodes, self.assets))
        for fam in reversed(self.families):
            under = mass[fam.kids]
            out[fam.nodes] = np.einsum("nk,nkd->nd", under, fam.dS)
            mass[fam.nodes] = under.sum(axis=1)
        return out

    @cached_property
    def increment_scales(self) -> np.ndarray:
        """sum_k P_k |dS_k| per (node, asset): the size of each moment row."""
        out = np.zeros((self.n_nodes, self.assets))
        for fam in self.families:
            out[fam.nodes] = np.einsum(
                "nk,nkd->nd", self.path_prob[fam.kids], np.abs(fam.dS)
            )
        return out


def _gains(dS: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.einsum("nkd,nd->nk", dS, phi)


def _require_finite(sums: np.ndarray, ids: list) -> None:
    bad = ~np.isfinite(sums).all(axis=1)
    if np.any(bad):
        node = ids[int(np.argmax(bad))]
        raise SolverFailure(
            f"one-step problem at node {node!r} overflows: its weighted "
            "sums are not finite"
        )


def _quadratic_step(dS: np.ndarray, w: np.ndarray, ids: list, t: int):
    """phi minimizing sum_k w_k (1 - phi . dS_k)^2 at every node of a family.

    Closed form for one asset; a stacked pseudo-inverse otherwise, whose
    1e-10 relative cutoff keeps directions the increments only see as
    noise (redundant assets) out of the holdings, which are then the
    minimum-norm optimizers.  Returns (phi, value, residual), the
    residual 1 - phi . dS_k per child.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        second = np.einsum("nk,nkd->nd", w, dS * dS)
        # |sum w dS| <= (sum w + second) / 2 for finite increments: test
        # second alone, once; a total that merely overflows walks for nothing
        finite = np.isfinite(second.sum())
    if not finite:
        _require_finite(second, ids)
    if dS.shape[2] == 1:
        first = np.einsum("nk,nkd->nd", w, dS)
        phi = np.divide(first, second, out=np.zeros_like(first), where=second > 0.0)
    else:
        root = np.sqrt(w)
        try:
            inverse = np.linalg.pinv(root[:, :, None] * dS, rcond=_RCOND)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(
                f"one-step least-squares solve failed on level {t}: {exc}"
            ) from exc
        phi = np.einsum("ndk,nk->nd", inverse, root)
    residual = 1.0 - _gains(dS, phi)
    return phi, np.sum(w * residual * residual, axis=1), residual


def _clip_set(dS: np.ndarray, w: np.ndarray, ids, t: int):
    """Maximize sum_k w_k U(min(phi . dS_k, 1)) from phi = 0 at every node.

    Clip-set iteration over the stacked nodes: fit the quadratic objective
    with weights w 1{W < 1}, then move toward that fit by s in [0, 1], the
    exact line maximum of the true objective (a kink walk).  Every step
    strictly increases the objective and s = 1 lands on the restricted
    maximizer, so the clip set settles in a handful of rounds.  A node stops
    at a vanishing gradient, at an objective that stops rising (keeping the
    previous iterate) or at a zero step.  Returns (phi, most rounds taken).
    """
    grad_scale = 2.0 * (1.0 + np.max(np.abs(dS), axis=(1, 2)))
    phi = np.zeros((len(dS), dS.shape[2]))
    iterate, best = phi.copy(), np.full(len(phi), -math.inf)
    live = np.arange(len(phi))
    for rounds in range(1, _MAX_CLIP_ROUNDS + 1):
        B, p, theta = dS[live], w[live], iterate[live]
        W = _gains(B, theta)
        below = W < 1.0
        grad = np.einsum("nkd,nk->nd", B, p * (1.0 - W) * below)
        moving = np.max(np.abs(grad), axis=1) > _GRAD_TOL * grad_scale[live]
        terms = p * truncated_utility(W)
        value = _fsum_rows(terms)
        # against the first round's -inf the margin is NaN: no stall
        with np.errstate(invalid="ignore"):
            flat = value <= best[live] + 1e-15 * (1.0 + np.abs(best[live]))
        phi[live[~moving]] = theta[~moving]
        go = moving & ~flat
        live, B, p, theta, W = live[go], B[go], p[go], theta[go], W[go]
        # phi keeps the best iterate: a node that stalls next round ends there
        best[live], phi[live] = value[go], theta
        target = _quadratic_step(B, p * below[go], ids[live], t)[0]
        step = target - theta
        s = _kink_walk(1.0 - W, _gains(B, step), p, lo=0.0, hi=1.0)
        ahead = s > 0.0
        live = live[ahead]
        iterate[live] = theta[ahead] + s[ahead, None] * step[ahead]
        if live.size == 0:
            return phi, rounds
    raise IterationLimit(
        f"clip-set iteration did not settle in {_MAX_CLIP_ROUNDS} rounds"
    )


def _inverse_root(value) -> float:
    root = float(value)
    if root <= 0.0:
        # only a market with an arbitrage can replicate bliss surely
        raise SolverFailure(
            "opportunity process vanishes at the root; the market is at or "
            "past the arbitrage edge"
        )
    return 1.0 / root


class Opportunity:
    """Both opportunity processes of a tree and their one-step optimizers.

    ``L``/``Lm`` hold the quadratic and truncated opportunity processes
    over the tree's node positions (1 on the leaves), ``phi``/``phim``
    the (nodes, assets) holdings per unit of bliss gap (0 on the leaves).
    ``clip_rounds`` is the largest number of rounds any node's truncated
    step took: 1 where the quadratic step already stays below bliss, 2
    for a one-asset kink walk, the clip-set rounds otherwise.  A node
    binds where its quadratic step's residual 1 - phi . dS_k is below 0 on
    a child of positive weight; only there are the gains formed again.
    Raises SolverFailure naming the node whose one-step sums overflow.
    """

    def __init__(self, levels: TreeLevels):
        self.levels = levels
        n, d = levels.n_nodes, levels.assets
        self.L, self.Lm = np.ones(n), np.ones(n)
        self.phi, self.phim = np.zeros((n, d)), np.zeros((n, d))
        self.clip_rounds = 1
        self._forward = {}
        # until a truncated step first binds, Lm = L on every node solved
        # so far, and the quadratic step of a family serves both processes
        split = False
        for fam in reversed(levels.families):
            w = fam.p * self.L[fam.kids]
            phi, L, residual = _quadratic_step(fam.dS, w, fam.ids, fam.t)
            self.phi[fam.nodes], self.L[fam.nodes] = phi, L
            if split:
                w = fam.p * self.Lm[fam.kids]
                phi, L, residual = _quadratic_step(fam.dS, w, fam.ids, fam.t)
            # phi . dS_k > 1 exactly where 1 - phi . dS_k < 0
            over = np.any((residual < 0.0) & (w > 0.0), axis=1)
            if np.any(over):
                split = True
                idx = np.flatnonzero(over)
                self._truncate(fam, idx, w[idx], phi)
                gap = np.maximum(1.0 - _gains(fam.dS[idx], phi[idx]), 0.0)
                L[idx] = np.sum(w[idx] * gap * gap, axis=1)
            self.phim[fam.nodes], self.Lm[fam.nodes] = phi, L

    def _truncate(self, fam: Family, idx: np.ndarray, wm: np.ndarray, phim) -> None:
        """Truncated steps at the nodes whose quadratic step overshoots bliss.

        One asset: one kink walk over the stacked rows, minimizing
        sum_k wm_k ((1 - phi dS_k)^+)^2; several: one :func:`_clip_set`.
        """
        dS = fam.dS[idx]
        if dS.shape[2] == 1:
            phim[idx, 0], rounds = _kink_walk(1.0, dS[:, :, 0], wm), 2
        else:
            phim[idx], rounds = _clip_set(dS, wm, fam.ids[idx], fam.t)
        self.clip_rounds = max(self.clip_rounds, rounds)

    @property
    def a_signed(self) -> float:
        """Second moment of the signed variance-optimal density, 1/L_root."""
        return _inverse_root(self.L[self.levels.root])

    @property
    def a_nonneg(self) -> float:
        """Second moment of the nonnegative one, 1/Lm_root."""
        return _inverse_root(self.Lm[self.levels.root])

    def forward(self, initial_wealth: float, truncated: bool):
        """Optimal (holdings vector, terminal wealth in leaf order) from x.

        Holdings are (1 - x_n) phi_n, or (1 - x_n)^+ phim_n for the
        truncated problem, stacked in nonterminal file order; read-only,
        and kept for the next call of the same kind from the same x.
        """
        kind, key = bool(truncated), float(initial_wealth).hex()
        if self._forward.get(kind, (None,))[0] != key:
            self._forward[kind] = key, self._sweep(initial_wealth, truncated)
        return self._forward[kind][1]

    def _sweep(self, initial_wealth: float, truncated: bool):
        levels = self.levels
        phis = self.phim if truncated else self.phi
        theta = np.zeros_like(phis)

        def holdings(fam, x):
            gap = np.maximum(1.0 - x, 0.0) if truncated else 1.0 - x
            held = gap[:, None] * phis[fam.nodes]
            theta[fam.nodes] = held
            return held

        wealth = levels.propagate(initial_wealth, holdings)
        return _frozen(theta[levels.nonterminal].reshape(-1)), _frozen(wealth)


@dataclass(frozen=True, eq=False, kw_only=True)
class ViabilityCertificate:
    """Outcome of the viability program max{t : A z = b, z >= t}.

    ``bound`` is the optimal floor t (None when no nonnegative density
    exists at all) and ``density``, built on first read, a strictly positive
    martingale density whose smallest atom is at least ``bound`` (None unless
    viable).  ``offending_node`` names, for a market that is not viable, the
    deepest node whose one-step market has an arbitrage or is degenerate.
    A viable certificate keeps the sweep's floors, not its weights: the
    density's read asks each family's step (:func:`_family_floors`) for its
    q again, from the same child floors, so it gets the same bits.
    """

    viable: bool
    bound: float | None
    status: str
    offending_node: str | None = None
    _floors: tuple | None = field(default=None, repr=False)

    @cached_property
    def density(self) -> np.ndarray | None:
        if self._floors is None:
            return None
        levels, value, feasible = self._floors  # V and feasible per node
        ratio = np.empty(levels.n_nodes)
        ratio[levels.root] = 1.0
        for fam in levels.families:
            q = _family_floors(
                fam.dS, fam.p, value[fam.kids], feasible[fam.kids], fam.ids
            )[0]
            ratio[fam.kids] = ratio[fam.nodes, None] * (q / fam.p)
        return _frozen(ratio[levels.leaves])

    def __bool__(self) -> bool:
        return self.viable

    def require(self) -> "ViabilityCertificate":
        """The certificate itself if viable; otherwise raise ViabilityError."""
        if not self.viable:
            raise ViabilityError(
                "market admits no strictly positive martingale density: the "
                f"one-step market at node {self.offending_node!r} has an "
                "arbitrage or is degenerate",
                best_bound=self.bound,
            )
        return self


def _node_local_viability(levels: TreeLevels) -> ViabilityCertificate:
    """Backward sweep of one-step floors; the density's product on read.

    V(n) is the largest floor a conditional density of the subtree below
    n can keep on its leaves; V(leaf) = 1.  A conditional density below n
    is z = (q_k / p_k) z_k on the subtree of child k, so
    V(n) = max t subject to sum_k q_k dS_k = 0, sum_k q_k = 1 and
    q_k >= t p_k / V(k).  With r_k = p_k / V(k), m = sum_k r_k dS_k and
    q = t (r + u) (Charnes & Cooper 1962),

        V(n) = 1 / (sum r + min{sum u : u >= 0, sum_k u_k dS_k = -m}),

    whose constraints do not read the children's floors: each family's
    step (:func:`_family_floors`) factors them, then takes u at a basis
    its duals prove optimal.  When some child has V = 0 the floor is 0
    and only feasibility is asked.  The sweep keeps V and feasibility per
    node, not q: a one-asset family whose children all have V > 0 (so are
    all feasible) takes :func:`_one_asset_floor`, which builds no q, and
    every other family :func:`_family_floors`, whose q is dropped.

    The certificate density is the product of q_k / p_k along each path,
    each family's q rebuilt on read from the kept floors, so its smallest
    atom is at least V(root), which equals the optimum of the full-tree
    program.  A node whose floor is at most 1e-9 while every child's
    exceeds it is one whose own one-step market breaks viability; the
    certificate names the deepest such node, the first in file order.
    """
    value = np.ones(levels.n_nodes)
    feasible = np.ones(levels.n_nodes, dtype=bool)
    for fam in reversed(levels.families):
        below = value[fam.kids]
        if levels.assets == 1 and (below > 0.0).all():
            with np.errstate(all="ignore"):  # as in _family_floors
                floors = _one_asset_floor(fam.dS[:, :, 0], fam.p / below)[:2]
        else:
            allowed = feasible[fam.kids]
            floors = _family_floors(fam.dS, fam.p, below, allowed, fam.ids)[1:]
        value[fam.nodes], feasible[fam.nodes] = floors

    bound = float(value[levels.root])
    if not feasible[levels.root] or bound <= _VIABILITY_FLOOR:
        low = value <= _VIABILITY_FLOOR
        for fam in levels.families:
            low[fam.nodes] &= np.all(value[fam.kids] > _VIABILITY_FLOOR, axis=1)
        broken = np.flatnonzero(low)
        node = levels.ids[broken[np.argmax(levels.t[broken])]] if broken.size else None
        if feasible[levels.root]:
            return ViabilityCertificate(
                viable=False, bound=bound, status="degenerate", offending_node=node
            )
        return ViabilityCertificate(
            viable=False, bound=None, status="infeasible", offending_node=node
        )

    return ViabilityCertificate(
        viable=True, bound=bound, status="viable", _floors=(levels, value, feasible)
    )


@cache
def _basis_columns(b: int, d: int) -> np.ndarray:
    return _frozen(np.array(list(combinations(range(b), d))))


def _family_floors(dS, p, child_value, child_feasible, ids):
    """One step of the floor sweep, a family's (q, V, feasible).

    A node has a floor when every child has V > 0: each step gives V > 0
    only to a feasible node (the closed form only where the increments
    straddle 0, the basis step only at a certified u >= 0, the simplex
    only at an optimal point).  One asset is :func:`_one_asset_step`;
    several, for assets < b <= ``_BASIS_WIDTH``, a certified basis of
    :func:`_floor_bases` per node with a floor, ``_BASIS_BATCH`` systems
    at a time, and LPs for the rest.
    """
    n, b, d = dS.shape
    if d > 1 and not d < b <= _BASIS_WIDTH:
        return _simplex_floors(dS, p, child_value, child_feasible, ids)
    rest = ~(child_value > 0.0).all(axis=1)
    with np.errstate(all="ignore"):  # what a node in rest gets is redone
        r = p / child_value
        if d == 1:
            return _one_asset_step(dS[:, :, 0], r, child_feasible, rest)
        q, value = np.empty_like(p), np.empty(n)
        feasible = np.ones(n, dtype=bool)
        size = max(1, _BASIS_BATCH // len(_basis_columns(b, d)))
        for lo in range(0, n, size):
            part = slice(lo, lo + size)
            bases = _floor_bases(dS[part])
            q[part], value[part], solved = _basis_step(dS[part], r[part], *bases)
            rest[part] |= ~solved
    if rest.any():
        args = dS[rest], p[rest], child_value[rest], child_feasible[rest], ids[rest]
        q[rest], value[rest], feasible[rest] = _simplex_floors(*args)
    return q, value, feasible


def _one_asset_floor(s, r):
    """Closed-form one-step floors of one-asset nodes: (V, feasible, up,
    usable, extra), all but V and feasible for :func:`_one_asset_step`.

    The floor t puts mass t r_k on every child and t |m| / |dS_e| more on
    the child e whose increment has the sign opposite to m and the
    largest size: t = 1 / (sum r + m / |dS_min|) for m > 0, the mirror
    image for m < 0 and 1 / sum r for m = 0.  The node is feasible if its
    increments straddle 0; V = 0 if they do not or without such a child.
    """
    columns = np.asfortranarray(s)  # min and max run down the columns, not per row
    low, high = columns.min(axis=1), columns.max(axis=1)
    m = (r * s).sum(axis=1)
    up = m > 0.0
    side = np.where(up, low, high)
    feasible = (low <= 0.0) & (high >= 0.0)
    usable = feasible & ((m == 0.0) | (np.sign(side) == -np.sign(m)))
    extra = np.where(m != 0.0, abs(m) / abs(side), 0.0)
    value = np.where(usable, 1.0 / (r.sum(axis=1) + extra), 0.0)
    return value, feasible, up, usable, extra


def _one_asset_step(s, r, allowed, rest):
    """(q, V, feasible) of one-asset nodes: a node with a floor (not in
    ``rest``) and :func:`_one_asset_floor`'s child e takes that V, with
    q = V r and V |m| / |dS_e| more on e.  Any other has V = 0 and is
    feasible when the least and largest increments of its allowed
    children straddle 0; q then mixes those two to a zero drift, all on
    the least when both are 0."""
    value, feasible, up, usable, extra = _one_asset_floor(s, r)
    extreme = np.where(up, s.argmin(axis=1), s.argmax(axis=1))
    q = value[:, None] * r
    q[np.arange(len(r)), extreme] += value * extra
    bare = np.flatnonzero(rest | ~usable)
    below = np.where(allowed[bare], s[bare], np.inf)
    above = np.where(allowed[bare], s[bare], -np.inf)
    low, high = below.min(axis=1), above.max(axis=1)
    feasible[bare] = ok = (low <= 0.0) & (high >= 0.0)
    share = np.where(ok & (high > low), -low / (high - low), 0.0)
    q[bare] = value[bare] = 0.0
    q[bare, below.argmin(axis=1)] = np.where(ok, 1.0 - share, 0.0)
    q[bare, above.argmax(axis=1)] += share
    return q, value, feasible


def _floor_bases(dS):
    """The part of several-asset floor programs that no child floor changes.

    Each asset's scale (the node's largest |dS| in it) and, per basis of
    d children (the rows of ``_basis_columns``), B^-1 of the scaled rows
    and whether it is certified: not singular (|det| over
    ``_BASIS_SINGULAR`` times Hadamard's bound), with duals y = B^-T 1
    that leave every reduced cost 1 - y.dS_j at least -1e-9, which proves
    optimal any point of it with u >= 0.  Needs assets < b.
    """
    n, b, d = dS.shape
    scale = np.abs(dS).max(axis=1)
    scale[scale == 0.0] = 1.0
    G = dS / scale[:, None, :]
    B = G[:, _basis_columns(b, d)]  # (nodes, bases, children, assets)
    hadamard = np.sqrt((B * B).sum(axis=3)).prod(axis=2)
    with np.errstate(all="ignore"):  # a singular basis is never certified
        if d == 2:  # row i of B^-1 is orthogonal to the other columns
            adjugate = B[..., ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]]
        elif d == 3:  # the cross product of the other two
            i, j = [1, 2, 0], [2, 0, 1]
            x, y = B[..., i, :], B[..., j, :]
            adjugate = x[..., i] * y[..., j] - x[..., j] * y[..., i]
        if d <= 3:  # 4-5 times faster than LAPACK's batched det and inv
            det = (B[..., 0, :] * adjugate[..., 0, :]).sum(axis=2)
            inverse = adjugate / det[..., None, None]
        else:  # LAPACK; inv raises on a matrix whose det is 0
            B = B.swapaxes(2, 3)
            det = np.linalg.det(B)
            inverse = np.linalg.inv(np.where(det[..., None, None], B, np.eye(d)))
        reduced = 1.0 - np.einsum("nsia,nka->nsk", inverse, G)
    certified = (abs(det) > _BASIS_SINGULAR * hadamard) & (
        reduced >= -_REDUCED_COST_TOL).all(axis=2)
    return scale, inverse, certified


def _basis_step(dS, r, scale, inverse, certified):
    """One-step floors of several-asset nodes: (q, V, solved).

    A node takes, of its certified bases with u = -B^-1 m >= 0, the one
    of least sum u, and refines that u once, as a product with an inverse
    leaves a residual that grows with the basis's condition: V =
    1 / (sum r + sum u) and q = V (r + u).  Without one it is not solved.
    """
    m = np.einsum("nk,nkd->nd", r, dS) / scale
    u = np.einsum("nsij,nj->nsi", inverse, -m)
    ok = certified & (u >= 0.0).all(axis=2)
    best = np.where(ok, u.sum(axis=2), np.inf).argmin(axis=1)
    rows = np.arange(len(r))
    kids = _basis_columns(*dS.shape[1:])[best]
    u, inverse = u[rows, best], inverse[rows, best]
    residual = np.einsum("nia,ni->na", dS[rows[:, None], kids], u) / scale + m
    u -= np.einsum("nij,nj->ni", inverse, residual)
    w = r.copy()
    w[rows[:, None], kids] += u
    value = 1.0 / w.sum(axis=1)
    return value[:, None] * w, value, ok[rows, best]


def _simplex_floors(dS, p, child_value, child_feasible, ids):
    """One-step floors of a family, one simplex LP per node: (q, V, feasible).

    With r_k = p_k / V(k) where V(k) > 0, else 0, and q = t r + w,
    w >= 0, a node's program has the variables (w, tau), tau = t sum(r)
    in [0, 1], and the rows sum_k q_k = 1 and sum_k q_k dS_k = 0: column k
    is (1, dS_k) and the tau column is (1, rho.dS) with rho = r / sum(r),
    which keeps it well scaled however small a child's V is.  A child
    whose subtree has no nonnegative density gets a zero column, whose
    reduced cost 0 keeps it out of every pivot under Bland's rule.  A
    node has a floor when every child has V > 0; without one rho and the
    tau column are zero and only feasibility is asked.  Rows are scaled
    by their largest entry, which for the sum row is 1.  A point below 0
    or off a row by more than the simplex's ``_FEAS_TOL`` is refused with
    SolverFailure.
    """
    n, b, d = dS.shape
    live = child_value > 0.0
    floor = np.all(live, axis=1)
    r = np.divide(p, child_value, out=np.zeros_like(p), where=live)
    total = r.sum(axis=1)
    rho = np.divide(r, total[:, None], out=np.zeros_like(r), where=floor[:, None])
    A = np.zeros((n, d + 1, b + 1))
    A[:, 0, :b] = child_feasible
    A[:, 0, b] = floor
    A[:, 1:, :b] = np.where(child_feasible[:, :, None], dS, 0.0).transpose(0, 2, 1)
    A[:, 1:, b] = np.einsum("nk,nkd->nd", rho, dS)
    scale = np.max(np.abs(A), axis=2, keepdims=True)
    scale[scale == 0.0] = 1.0
    A /= scale
    x = np.zeros((n, b + 1))
    feasible = np.ones(n, dtype=bool)
    rhs = np.zeros(d + 1)
    rhs[0] = 1.0
    for i in range(n):
        cost = np.zeros(b + 1)
        cost[-1] = -1.0 if floor[i] else 0.0
        result = solve_lp(cost, A[i], rhs)
        if result.status == STATUS_INFEASIBLE:
            feasible[i] = False
        elif result.status != STATUS_OPTIMAL:
            raise SolverFailure(
                f"viability program at node {ids[i]!r} ended with "
                f"{result.status}"
            )
        else:
            x[i] = result.x
    off = np.abs(np.einsum("nmc,nc->nm", A, x) - rhs).max(axis=1)
    bad = feasible & ((off > _FEAS_TOL) | (x.min(axis=1) < -_FEAS_TOL))
    if np.any(bad):
        node = ids[int(np.argmax(bad))]
        raise SolverFailure(f"viability program at node {node!r} left its constraints")
    q = x[:, :-1] + x[:, -1:] * rho
    value = np.divide(x[:, -1], total, out=np.zeros(n), where=floor)
    return q, value, feasible
