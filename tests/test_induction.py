"""The backward-induction engine against the dense global solvers it
replaced, on trees of every shape the package meets: the selftest suites,
a ragged tree, redundant assets, and the markets the dense pipeline could
not analyze."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mmvport import (
    MeasureDensity,
    ScenarioTree,
    SolverFailure,
    Strategy,
    analyze,
    generate_random_market,
    load_market,
    load_packaged_market,
    market_from_dict,
    market_to_dict,
    market_to_json,
    optimal_quadratic,
    optimal_truncated,
    variance_optimal_nonneg,
    variance_optimal_signed,
    report_to_dict,
    verify_fcfs_certificate,
)
from mmvport import induction
from mmvport.selftest import _suite_trees

from oracles import (
    clip_set_reference,
    dense_nonneg_density,
    dense_quadratic,
    dense_signed_density,
    dense_truncated,
    gain_matrix,
    iid_tree,
    node_wealth,
)

# (count, base seed) of the tree suites of selftest criteria 3, 4, 6 and 7
SUITES = ((200, 0), (500, 1000), (10, 2000), (10, 3000))


def assert_matches_dense(tree):
    p = tree.leaf_probabilities
    signed = variance_optimal_signed(tree)
    nonneg = variance_optimal_nonneg(tree)
    z_s = dense_signed_density(tree)
    z_n = dense_nonneg_density(tree)
    assert signed.second_moment == pytest.approx(float(p @ z_s**2), rel=1e-10)
    assert nonneg.second_moment == pytest.approx(float(p @ z_n**2), rel=1e-10)
    assert np.max(np.abs(signed.density.values - z_s)) <= 1e-8
    assert np.max(np.abs(nonneg.density.values - z_n)) <= 1e-8

    quad = optimal_quadratic(tree, 0.0)
    assert np.max(np.abs(quad.strategy.vector - dense_quadratic(tree, 0.0))) <= 1e-8

    hull = optimal_truncated(tree, 0.0)
    theta = dense_truncated(tree, 0.0)
    W = gain_matrix(tree) @ theta
    assert np.max(np.abs(hull.payoff.values - W)) <= 1e-8
    fcfs = np.maximum(1.0 - W, 0.0)
    assert np.max(np.abs(np.maximum(1.0 - hull.payoff.values, 0.0) - fcfs)) <= 1e-8
    # a node reached at or past bliss may hold anything that keeps its
    # subtree there; the engine holds nothing, so compare the others only
    wealth = node_wealth(tree, theta, 0.0)
    d = tree.assets
    for j, nid in enumerate(tree.nonterminal_ids):
        if wealth[nid] < 1.0 - 1e-9:
            ours = hull.strategy.vector[j * d : (j + 1) * d]
            assert np.max(np.abs(ours - theta[j * d : (j + 1) * d])) <= 1e-8, nid


def test_matches_dense_solvers_on_the_selftest_suites():
    checked = 0
    for count, base in SUITES:
        for tree in _suite_trees(count, base_seed=base):
            if tree.n_leaves <= 300:
                assert_matches_dense(tree)
                checked += 1
    assert checked == 720


def ragged_market(seed):
    """Viable two-asset market whose nodes have 2, 3 or 4 children."""
    rng = np.random.default_rng(seed)
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0, 2.0]}]
    frontier = [nodes[0]]
    for t in (1, 2):
        nxt = []
        for parent in frontier:
            b = int(rng.integers(2, 5))
            q = rng.uniform(0.1, 1.0, b)
            q /= q.sum()
            probs = rng.uniform(0.2, 1.0, b)
            probs /= probs.sum()
            raw = rng.normal(size=(b, 2))
            moves = 0.3 * (raw - q @ raw)
            for k in range(b):
                child = {
                    "id": f"{parent['id']}{k}",
                    "parent": parent["id"],
                    "t": t,
                    "p": float(probs[k]),
                    "prices": [float(v) for v in parent["prices"] + moves[k]],
                }
                nodes.append(child)
                nxt.append(child)
        frontier = nxt
    return market_from_dict({"assets": 2, "periods": 2, "nodes": nodes})


def test_ragged_tree_matches_dense_solvers():
    for seed in range(6):
        tree = ragged_market(seed)
        widths = np.diff(tree.child_offsets)
        assert np.ptp(widths[widths > 0]) > 0
        assert_matches_dense(tree)


def wide_then_narrow(n):
    """Viable one-asset market: the root has n children, the first child n.

    Every other child has 2 children.  The first child's moves are skewed
    upward, so its truncated step binds.
    """
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0]}]
    for i, move in enumerate(np.linspace(-0.1, 0.2, n).tolist()):
        nodes.append({"id": f"a{i}", "parent": "r", "t": 1, "p": 1.0 / n,
                      "prices": [1.0 + move]})
    for i in range(n):
        price = nodes[1 + i]["prices"][0]
        moves = (np.linspace(-0.02, 0.5, n) if i == 0
                 else np.array([0.05, -0.05]) * (1.0 + i / n))
        for k, move in enumerate(moves.tolist()):
            nodes.append({"id": f"a{i}.{k}", "parent": f"a{i}", "t": 2,
                          "p": 1.0 / len(moves), "prices": [price + move]})
    return {"assets": 1, "periods": 2, "nodes": nodes}


def test_wide_then_narrow_tree_matches_dense_solvers():
    assert_matches_dense(market_from_dict(wide_then_narrow(40)))


def test_wide_then_narrow_tree_needs_memory_linear_in_nodes(tmp_path):
    # one node with 2000 children beside 1999 nodes with 2: a layout that
    # pads every level to its widest node needs about 200 MB here
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_then_narrow(2000)), encoding="utf-8")
    tracemalloc.start()
    try:
        tree = load_market(path)
        report = analyze(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree.ids) == 7999
    assert report.fcfs_exists
    assert peak <= 16e6


def test_identical_asset_columns_hold_minimum_norm():
    for seed in (3, 11, 12):
        single = generate_random_market(seed=seed, periods=2, branching=3)
        doc = market_to_dict(single)
        for node in doc["nodes"]:
            node["prices"] = node["prices"] * 2
        doc["assets"] = 2
        tree = market_from_dict(doc)
        assert_matches_dense(tree)
        # the two copies split the one-asset holdings evenly
        for solve in (optimal_quadratic, optimal_truncated):
            ours = solve(tree, 0.0).strategy.vector.reshape(-1, 2)
            base = solve(single, 0.0).strategy.vector
            assert np.max(np.abs(ours - 0.5 * base[:, None])) <= 1e-10


def test_analyze_never_builds_the_dense_views(monkeypatch):
    # the dense views live in the test oracles only, and no path from a
    # document to a verified report builds a TreeNode or a holdings dict
    assert not hasattr(ScenarioTree, "gain_matrix")
    assert not hasattr(ScenarioTree, "constraint_system")

    def refuse(self, *args):
        raise AssertionError("a per-node view was built")

    for name in ("nodes", "root"):
        monkeypatch.setattr(ScenarioTree, name, property(refuse))
    monkeypatch.setattr(ScenarioTree, "node", refuse)
    monkeypatch.setattr(Strategy, "holdings", property(refuse))
    trees = [
        load_packaged_market("trinomial"),
        load_packaged_market("binomial"),
        generate_random_market(seed=5, periods=4, branching=3),
    ]
    claims = 0
    for tree in trees:
        report = analyze(market_from_dict(json.loads(market_to_json(tree))))
        report_to_dict(report)
        if report.fcfs_exists:
            assert verify_fcfs_certificate(report) is True
            claims += 1
    assert claims >= 2


@pytest.mark.parametrize(
    "seed, branching, periods, assets",
    [
        (599, 4, 3, 2),  # seed-0 sweep index 599
        (4002, 2, 8, 1),  # seed-0 ladder core
        (501, 2, 9, 1),  # seed-0 ladder frontier
        (0, 2, 10, 1),
    ],
)
def test_markets_the_gram_system_could_not_solve(seed, branching, periods, assets):
    # each raised SolverFailure in the dense pipeline: the Gram system's
    # rcond cut removed real constraint directions
    tree = generate_random_market(
        seed=seed, periods=periods, branching=branching, assets=assets
    )
    report = analyze(tree)
    MeasureDensity.from_values(tree, report.signed_density)
    MeasureDensity.from_values(tree, report.nonneg_density)
    if report.fcfs_exists:
        assert verify_fcfs_certificate(report) is True


def test_market_the_active_set_stalled_on():
    # (3, 7, 1) seed 7 took about 20 s in 35 dense reduced solves
    tree = generate_random_market(seed=7, periods=7, branching=3)
    report = analyze(tree)
    assert report.fcfs_exists and verify_fcfs_certificate(report) is True
    assert report.u <= report.u_m < 0.5
    assert math.isfinite(report.sr_m_max)


def test_sure_arbitrage_leaves_no_density():
    # both children rise by 1: holding one unit reaches bliss surely, so
    # the opportunity process is 0 at the root and no density exists
    tree = market_from_dict(
        {
            "assets": 1,
            "periods": 1,
            "nodes": [
                {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                {"id": "a", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
                {"id": "b", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
            ],
        }
    )
    assert optimal_quadratic(tree, 0.0).value == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(SolverFailure, match="arbitrage"):
        variance_optimal_signed(tree)


@st.composite
def binding_levels(draw):
    """Several-asset one-step markets whose quadratic step overshoots bliss.

    Like a level of the backward sweep: weights w = p L_next, zero on the
    padding of ragged families, and increments priced to zero by random
    positive weights, with a rare large rise on the first child so that
    the quadratic step of many nodes goes past bliss there.  Returns the
    binding nodes as (dS, w, mask).
    """
    assets = draw(st.integers(2, 3))
    width = draw(st.integers(2, 9))
    ragged = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 13))
    counts = rng.integers(2, width + 1, n) if ragged else np.full(n, width)
    mask = np.arange(width) < counts[:, None]
    w = rng.uniform(0.2, 1.0, (n, width)) * mask
    w[:, 0] *= rng.uniform(0.02, 0.3, n)
    dS = rng.normal(0.0, 1.0, (n, width, assets))
    dS[:, 0, 0] += rng.uniform(2.0, 20.0, n)
    q = rng.uniform(0.05, 1.0, (n, width)) * mask
    q /= q.sum(axis=1, keepdims=True)
    dS -= np.einsum("nk,nkd->nd", q, dS)[:, None, :]
    dS *= np.exp(rng.uniform(-3.0, 3.0, (n, 1, assets)))
    dS *= mask[:, :, None]
    phi, _, _ = induction._quadratic_step(dS, w, np.arange(n), 0)
    over = np.any((induction._gains(dS, phi) > 1.0) & (w > 0.0), axis=1)
    assume(np.any(over))
    return dS[over], w[over], mask[over]


@given(binding_levels())
def test_batched_clip_set_matches_the_per_node_loop(level):
    dS, w, mask = level
    phi, rounds = induction._clip_set(dS, w, np.arange(len(dS)), 0)
    counts = mask.sum(axis=1)
    reference = [clip_set_reference(B[:c], p[:c]) for B, p, c in zip(dS, w, counts)]
    for got, (want, _) in zip(phi, reference):
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
    assert rounds == max(r for _, r in reference)


def test_a_jump_tree_runs_one_clip_set_per_level(monkeypatch):
    # the rare jump of the first asset makes the quadratic step overshoot
    # bliss at every node, so the truncated step binds everywhere
    tree = iid_tree(
        3, (0.1, 0.4, 0.3, 0.2),
        ((10.0, 0.2), (1.0, 1.0), (-1.0, 0.5), (0.5, -1.0)), (1.0, 1.0),
    )
    calls = []
    clip_set = induction._clip_set

    def counting(dS, *args):
        calls.append(len(dS))
        return clip_set(dS, *args)

    monkeypatch.setattr(induction, "_clip_set", counting)
    hull = optimal_truncated(tree, 0.0)
    assert calls == [16, 4, 1]
    # past bliss every payoff is as good, so compare below it only
    theta = dense_truncated(tree, 0.0)
    W = gain_matrix(tree) @ theta
    capped = np.minimum(hull.payoff.values, 1.0)
    assert np.max(np.abs(capped - np.minimum(W, 1.0))) <= 1e-8
    wealth = node_wealth(tree, theta, 0.0)
    for j, nid in enumerate(tree.nonterminal_ids):
        if wealth[nid] < 1.0 - 1e-9:
            ours = hull.strategy.vector[2 * j : 2 * j + 2]
            assert np.max(np.abs(ours - theta[2 * j : 2 * j + 2])) <= 1e-8, nid
