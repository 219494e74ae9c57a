"""Backward induction over the levels of a scenario tree.

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

:class:`TreeLevels` stacks each level's one-step markets into
(nodes, children, assets) arrays, the children of one node contiguous in
the next level; ragged levels are padded with zero-probability children
and masked.  Every sweep is one numpy pass per level, the several-asset
truncated step included, so the cost grows linearly with the number of
nodes.  :class:`Opportunity` runs the backward sweep once per tree and
answers forward sweeps from any initial wealth.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import IterationLimit, SolverFailure
from .probability import _fsum_rows, _kink_walk, truncated_utility

__all__ = ["TreeLevels", "Opportunity"]

_RCOND = 1e-10
_GRAD_TOL = 1e-11
_MAX_CLIP_ROUNDS = 100


class TreeLevels:
    """A tree's one-step markets stacked level by level.

    For each nonterminal level t: ``dS[t]`` (nodes, children, assets) price
    increments, ``p[t]`` conditional and ``path[t]`` path probabilities of
    the children (zero where padded), ``mask[t]`` the real children,
    ``ids[t]`` the node ids (an object array) and ``nonterminal[t]`` each
    node's position in :attr:`ScenarioTree.nonterminal_ids`.  ``leaf_rank``
    maps the last level onto :attr:`ScenarioTree.leaf_ids`.  Built from the
    tree's arrays, walking the children level by level; a node whose
    increments overflow is refused with :class:`SolverFailure`.
    """

    def __init__(self, tree):
        offsets, below = tree.child_offsets, tree.child_index
        counts_all = np.diff(offsets)
        inner = counts_all > 0
        # position among the nonterminal nodes, or among the leaves
        rank = np.where(inner, np.cumsum(inner), np.cumsum(~inner)) - 1
        names = np.array(tree.ids, dtype=object)
        prices, cond, path = tree.prices, tree.cond_prob, tree.path_prob

        self.periods = tree.periods
        self.assets = tree.assets
        self.n_nonterminal = int(inner.sum())
        self.dS, self.p, self.path, self.mask = [], [], [], []
        self.regular, self.ids, self.nonterminal = [], [], []
        level = np.array([int(np.argmin(tree.parent))])
        for _ in range(tree.periods):
            counts = counts_all[level]
            b = int(counts.max())
            mask = np.arange(b) < counts[:, None]
            # each node's children, in order: its CSR segment
            ends = np.cumsum(counts)
            kids = below[np.repeat(offsets[level] - ends + counts, counts)
                         + np.arange(ends[-1])]
            parents = np.repeat(level, counts)
            ids = names[level]
            with np.errstate(over="ignore"):
                dS = self._pad(prices[kids] - prices[parents], mask)
            _require_finite(dS.reshape(len(ids), -1), ids)
            self.dS.append(dS)
            self.p.append(self._pad(cond[kids], mask))
            self.path.append(self._pad(path[kids], mask))
            self.mask.append(mask)
            self.regular.append(bool(counts.min() == b))
            self.ids.append(ids)
            self.nonterminal.append(rank[level])
            level = kids
        self.leaf_rank = rank[level]
        self.leaf_p = path[level]
        self.n_leaves = len(inner) - self.n_nonterminal

    @staticmethod
    def _pad(flat: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(mask.shape + flat.shape[1:], dtype=flat.dtype)
        out[mask] = flat
        return out

    def spread(self, values: np.ndarray, t: int) -> np.ndarray:
        """Values on level t + 1 as a padded (nodes, children) array."""
        if self.regular[t]:
            return values.reshape(self.mask[t].shape + values.shape[1:])
        return self._pad(values, self.mask[t])

    def gather(self, padded: np.ndarray, t: int) -> np.ndarray:
        """Inverse of :meth:`spread`: level t + 1 in order."""
        if self.regular[t]:
            return padded.reshape((-1,) + padded.shape[2:])
        return padded[self.mask[t]]

    def to_leaf_order(self, level_values: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_leaves)
        out[self.leaf_rank] = level_values
        return out

    def propagate(self, initial_wealth: float, holdings) -> np.ndarray:
        """Terminal wealth, in leaf order, of a self-financing strategy.

        ``holdings(t, x)`` returns the (nodes, assets) holdings on level t
        given the wealth x there; the same arithmetic serves every
        caller, so a strategy's wealth does not depend on who rebuilds it.
        """
        x = np.full(1, float(initial_wealth))
        for t in range(self.periods):
            gains = np.einsum("nkd,nd->nk", self.dS[t], holdings(t, x))
            x = self.gather(x[:, None] + gains, t)
        return self.to_leaf_order(x)

    def increment_moments(self, leaf_values: np.ndarray) -> list:
        """E[v dS 1_n] per (node, asset), level by level, for v on the leaves.

        One backward aggregation of the p-weighted leaf values: the mass
        under each child times that child's increment.
        """
        mass = self.leaf_p * np.asarray(leaf_values, dtype=float)[self.leaf_rank]
        out = [None] * self.periods
        for t in reversed(range(self.periods)):
            padded = self.spread(mass, t)
            out[t] = np.einsum("nk,nkd->nd", padded, self.dS[t])
            mass = padded.sum(axis=1)
        return out

    @cached_property
    def increment_scales(self) -> list:
        """sum_k P_k |dS_k| per (node, asset): the size of each moment row."""
        return [
            np.einsum("nk,nkd->nd", path, np.abs(dS))
            for path, dS in zip(self.path, self.dS)
        ]

    def max_moment(self, leaf_values: np.ndarray) -> float:
        """Largest |E[v dS 1_n]| over all nodes and assets."""
        return max(
            (float(np.max(np.abs(m))) for m in self.increment_moments(leaf_values)),
            default=0.0,
        )


def _gains(dS: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.einsum("nkd,nd->nk", dS, phi)


def _require_finite(sums: np.ndarray, ids: list) -> None:
    bad = ~np.isfinite(sums)
    if bad.ndim > 1:
        bad = bad.any(axis=1)
    if np.any(bad):
        node = ids[int(np.argmax(bad))]
        raise SolverFailure(
            f"one-step problem at node {node!r} overflows: its weighted "
            "sums are not finite"
        )


def _quadratic_step(dS: np.ndarray, w: np.ndarray, ids: list, t: int):
    """phi minimizing sum_k w_k (1 - phi . dS_k)^2 at every node of a level.

    Closed form for one asset; a stacked pseudo-inverse otherwise, whose
    1e-10 relative cutoff keeps directions the increments only see as
    noise (redundant assets) out of the holdings, which are then the
    minimum-norm optimizers.  Returns (phi, value).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        second = np.einsum("nk,nkd->nd", w, dS * dS)
        first = np.einsum("nk,nkd->nd", w, dS)
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
        value = _fsum_rows(terms.T, len(live), lambda i: terms[i].tolist())
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


def _inverse_root(process: list) -> float:
    root = float(process[0][0])
    if root <= 0.0:
        # only a market with an arbitrage can replicate bliss surely
        raise SolverFailure(
            "opportunity process vanishes at the root; the market is at or "
            "past the arbitrage edge"
        )
    return 1.0 / root


class Opportunity:
    """Both opportunity processes of a tree and their one-step optimizers.

    ``L[t]``/``Lm[t]`` hold the quadratic and truncated opportunity
    processes on level t, ``phi[t]``/``phim[t]`` the holdings per unit of
    bliss gap.  ``clip_rounds`` is the largest number of rounds any node's
    truncated step took: 1 where the quadratic step already stays below
    bliss, 2 for a one-asset kink walk, the clip-set rounds otherwise.
    Raises SolverFailure naming the node whose one-step sums overflow.
    """

    def __init__(self, levels: TreeLevels):
        self.levels = levels
        T = levels.periods
        self.L, self.Lm = [None] * T, [None] * T
        self.phi, self.phim = [None] * T, [None] * T
        self.clip_rounds = 1
        L_next = Lm_next = np.ones(levels.n_leaves)
        for t in reversed(range(T)):
            dS, ids = levels.dS[t], levels.ids[t]
            # the processes coincide until truncation first binds
            shared = Lm_next is L_next
            w = levels.p[t] * levels.spread(L_next, t)
            phi, L = _quadratic_step(dS, w, ids, t)
            if shared:
                wm, phim, Lm = w, phi.copy(), L.copy()
            else:
                wm = levels.p[t] * levels.spread(Lm_next, t)
                phim, Lm = _quadratic_step(dS, wm, ids, t)
            over = np.any((_gains(dS, phim) > 1.0) & (wm > 0.0), axis=1)
            if np.any(over):
                idx = np.flatnonzero(over)
                self._truncate(t, idx, wm[idx], phim)
                gap = np.maximum(1.0 - _gains(dS[idx], phim[idx]), 0.0)
                Lm[idx] = np.sum(wm[idx] * gap * gap, axis=1)
            self.L[t], self.Lm[t], self.phi[t], self.phim[t] = L, Lm, phi, phim
            L_next, Lm_next = L, (L if shared and not np.any(over) else Lm)

    def _truncate(self, t: int, idx: np.ndarray, wm: np.ndarray, phim) -> None:
        """Truncated steps at the nodes whose quadratic step overshoots bliss.

        One asset: one kink walk over the stacked rows, minimizing
        sum_k wm_k ((1 - phi dS_k)^+)^2; several: one :func:`_clip_set`.
        """
        dS = self.levels.dS[t][idx]
        if dS.shape[2] == 1:
            phim[idx, 0], rounds = _kink_walk(1.0, dS[:, :, 0], wm), 2
        else:
            phim[idx], rounds = _clip_set(dS, wm, self.levels.ids[t][idx], t)
        self.clip_rounds = max(self.clip_rounds, rounds)

    @property
    def a_signed(self) -> float:
        """Second moment of the signed variance-optimal density, 1/L_root."""
        return _inverse_root(self.L)

    @property
    def a_nonneg(self) -> float:
        """Second moment of the nonnegative one, 1/Lm_root."""
        return _inverse_root(self.Lm)

    def forward(self, initial_wealth: float, truncated: bool):
        """Optimal (holdings vector, terminal wealth in leaf order) from x.

        Holdings are (1 - x_n) phi_n, or (1 - x_n)^+ phim_n for the
        truncated problem, stacked in nonterminal file order.
        """
        levels = self.levels
        phis = self.phim if truncated else self.phi
        theta = np.zeros((levels.n_nonterminal, levels.assets))

        def holdings(t, x):
            gap = np.maximum(1.0 - x, 0.0) if truncated else 1.0 - x
            held = gap[:, None] * phis[t]
            theta[levels.nonterminal[t]] = held
            return held

        wealth = levels.propagate(initial_wealth, holdings)
        return theta.reshape(-1), wealth
