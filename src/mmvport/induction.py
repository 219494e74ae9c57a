"""Backward induction over a scenario tree, one family of nodes at a time.

On a finite tree every optimum the package reports is built from one-step
problems at the nonterminal nodes.  The two opportunity processes obey

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
1 / Lm_root.

:class:`TreeLevels` groups the nonterminal nodes into families: the nodes
of one depth with the same number of children, so every one-step solver
sees same-width (nodes, children, assets) stacks.  Each sweep keeps its
state in arrays over the tree's node positions and runs one numpy pass
per family, the several-asset truncated step included, so the cost
grows linearly with the number of nodes.  :class:`Opportunity` runs the
backward sweep once per tree and answers forward sweeps from any initial
wealth.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IterationLimit, SolverFailure
from .probability import _fsum_rows, _kink_walk, truncated_utility

__all__ = ["Family", "TreeLevels", "Opportunity"]

_RCOND = 1e-10
_GRAD_TOL = 1e-11
_MAX_CLIP_ROUNDS = 100


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
    first, each a slice of the nonterminal nodes sorted by (depth, width).
    Every sweep keeps its state in arrays over the tree's positions: a
    backward sweep walks the families in reverse and sets ``v[fam.nodes]``
    from ``v[fam.kids]``, a forward sweep walks them in order and sets
    ``x[fam.kids]`` from ``x[fam.nodes]``.  ``leaves`` and ``nonterminal``
    are the positions of the leaves and of the other nodes in file order,
    so ``x[leaves]`` is in leaf order and ``theta[nonterminal]`` in
    holdings order.  A node whose increments overflow is refused with
    :class:`SolverFailure`.
    """

    def __init__(self, tree):
        offsets, below = tree.child_offsets, tree.child_index
        counts = offsets[1:] - offsets[:-1]
        inner = counts > 0
        self.assets = tree.assets
        self.n_nodes = len(counts)
        self.root = int(np.argmin(tree.parent))
        self.leaves = np.flatnonzero(~inner)
        self.nonterminal = np.flatnonzero(inner)
        self.path_prob = tree.path_prob

        with np.errstate(over="ignore"):
            steps = tree.prices - tree.prices[tree.parent]
        # one test per tree: a fault only in the root's row walks for nothing
        finite = np.isfinite(steps).all()
        names = np.array(tree.ids, dtype=object)
        nodes = self.nonterminal
        nodes = nodes[np.lexsort((nodes, counts[nodes], tree.t[nodes]))]
        depth, width = tree.t[nodes], counts[nodes]
        cuts = np.flatnonzero((depth[1:] != depth[:-1]) | (width[1:] != width[:-1]))
        cuts = [0, *(cuts + 1).tolist(), len(nodes)]
        self.families = []
        for lo, hi in zip(cuts, cuts[1:]):
            fam = nodes[lo:hi]
            kids = below[offsets[fam, None] + np.arange(width[lo])]
            dS = steps[kids]
            if not finite:
                _require_finite(dS.reshape(len(fam), -1), names[fam])
            self.families.append(Family(
                int(depth[lo]), fam, kids, dS, tree.cond_prob[kids], names[fam]
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
    minimum-norm optimizers.  Returns (phi, value).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        second = np.einsum("nk,nkd->nd", w, dS * dS)
        first = np.einsum("nk,nkd->nd", w, dS)
        # one test; a total that merely overflows walks for nothing
        finite = np.isfinite(second.sum() + first.sum())
    if not finite:
        _require_finite(second, ids)
        _require_finite(first, ids)
    if dS.shape[2] == 1:
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
    return phi, np.sum(w * residual * residual, axis=1)


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
        target, _ = _quadratic_step(B, p * below[go], ids[live], t)
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
    for a one-asset kink walk, the clip-set rounds otherwise.  Raises
    SolverFailure naming the node whose one-step sums overflow.
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
            phi, L = _quadratic_step(fam.dS, w, fam.ids, fam.t)
            self.phi[fam.nodes], self.L[fam.nodes] = phi, L
            if split:
                w = fam.p * self.Lm[fam.kids]
                phi, L = _quadratic_step(fam.dS, w, fam.ids, fam.t)
            over = np.any((_gains(fam.dS, phi) > 1.0) & (w > 0.0), axis=1)
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
        theta = theta[levels.nonterminal].reshape(-1)
        theta.setflags(write=False)
        wealth.setflags(write=False)
        return theta, wealth
