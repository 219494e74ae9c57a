"""Metamorphic properties the theory guarantees, on generated markets:
price scale and price level do not matter, sibling order and node order
only permute the outputs, a leaf split into equally likely twins, a
copy of an asset and new node ids change nothing, and monotone
truncation can only help."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mmvport import analyze, generate_random_market, market_from_dict, market_to_dict
from mmvport.fcfs import _report_fields

SHAPES = (
    (2, 1, 1), (3, 1, 1), (4, 1, 2), (2, 2, 1),
    (3, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 1),
)
VALUES = ("u", "u_m", "u_mv", "u_mmv", "sr_max", "sr_m_max")


@st.composite
def markets(draw):
    branching, periods, assets = draw(st.sampled_from(SHAPES))
    seed = draw(st.integers(0, 10**6))
    return generate_random_market(
        seed=seed, periods=periods, branching=branching, assets=assets
    )


def with_prices(tree, move):
    doc = market_to_dict(tree)
    for node in doc["nodes"]:
        node["prices"] = [move(v) for v in node["prices"]]
    return market_from_dict(doc)


def close(got, want, tol=1e-9):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


def assert_same_values(r1, r0):
    for name in VALUES:
        close(getattr(r1, name), getattr(r0, name))
    close(r1.signed_density, r0.signed_density)
    close(r1.nonneg_density, r0.nonneg_density)


@given(markets(), st.floats(0.05, 20.0))
def test_price_scale_divides_holdings(tree, c):
    r0 = analyze(tree)
    r1 = analyze(with_prices(tree, lambda v: c * v))
    assert_same_values(r1, r0)
    for solution in ("quad_solution", "hull_solution"):
        theta0 = getattr(r0, solution).strategy.vector
        theta1 = getattr(r1, solution).strategy.vector
        close(c * theta1, theta0)
    close(c * r1.allocation.strategy.vector, r0.allocation.strategy.vector)


@given(markets(), st.floats(-50.0, 50.0))
def test_price_level_changes_nothing(tree, shift):
    r0 = analyze(tree)
    r1 = analyze(with_prices(tree, lambda v: v + shift))
    assert_same_values(r1, r0)
    close(r1.allocation.strategy.vector, r0.allocation.strategy.vector)


@given(markets(), st.randoms(use_true_random=False))
def test_sibling_order_permutes_outputs(tree, rng):
    doc = market_to_dict(tree)
    by_id = {node["id"]: node for node in doc["nodes"]}
    order, stack = [], [tree.root.id]
    while stack:
        nid = stack.pop()
        order.append(by_id[nid])
        kids = list(tree.node(nid).children)
        rng.shuffle(kids)
        stack.extend(kids)
    shuffled = market_from_dict(dict(doc, nodes=order))

    r0, r1 = analyze(tree), analyze(shuffled)
    for name in VALUES:
        close(getattr(r1, name), getattr(r0, name))
    for density in ("signed_density", "nonneg_density"):
        z0 = dict(zip(tree.leaf_ids, getattr(r0, density)))
        z1 = dict(zip(shuffled.leaf_ids, getattr(r1, density)))
        close([z1[k] for k in tree.leaf_ids], [z0[k] for k in tree.leaf_ids])
    h0, h1 = r0.allocation.strategy.holdings, r1.allocation.strategy.holdings
    for nid in tree.nonterminal_ids:
        close(h1[nid], h0[nid])


@given(markets())
def test_truncation_only_helps(tree):
    r = analyze(tree)
    assert r.u <= r.u_m + 1e-12
    a_s = r.signed_solution.second_moment
    a_n = r.nonneg_solution.second_moment
    assert a_s <= a_n * (1.0 + 1e-12)
    assert r.sr_max <= r.sr_m_max + 1e-12


@st.composite
def small_markets(draw):
    """Generated markets of at most 4 children, 3 periods and 2 assets."""
    return generate_random_market(
        seed=draw(st.integers(0, 10**6)),
        periods=draw(st.integers(1, 3)),
        branching=draw(st.integers(2, 4)),
        assets=draw(st.integers(1, 2)),
    )


def assert_same_answer(r1, r0):
    """Every report scalar within 1e-9 relative and, where neither report
    is marginal, every verdict."""
    for name in (*VALUES, "c_hat_m"):
        close(getattr(r1, name), getattr(r0, name))
    if not (r0.marginal or r1.marginal):
        assert (r1.equiv, r1.fcfs_exists) == (r0.equiv, r0.fcfs_exists)


@given(small_markets())
def test_reversed_node_order_permutes_the_answer(tree):
    # children before their parents: the file's order is no depth order
    doc = market_to_dict(tree)
    flipped = market_from_dict(dict(doc, nodes=doc["nodes"][::-1]))
    assert flipped.leaf_ids == tree.leaf_ids[::-1]
    r0, r1 = analyze(tree), analyze(flipped)
    assert_same_answer(r1, r0)
    for density in ("signed_density", "nonneg_density"):
        close(getattr(r1, density)[::-1], getattr(r0, density))
    d = tree.assets
    held0 = r0.allocation.strategy.vector.reshape(-1, d)
    close(r1.allocation.strategy.vector.reshape(-1, d)[::-1], held0)


@given(small_markets())
def test_prices_times_three_keep_the_answer(tree):
    r0 = analyze(tree)
    r1 = analyze(with_prices(tree, lambda v: 3.0 * v))
    assert_same_answer(r1, r0)
    close(r1.signed_density, r0.signed_density)
    close(r1.nonneg_density, r0.nonneg_density)
    close(3.0 * r1.allocation.strategy.vector, r0.allocation.strategy.vector)


@given(small_markets(), st.integers(0, 10**6))
def test_a_leaf_split_into_twins_keeps_the_answer(tree, k):
    # the twin has the leaf's prices and half its probability, as the leaf keeps
    leaf = tree.leaf_ids[k % tree.n_leaves]
    doc = market_to_dict(tree)
    nodes = []
    for node in doc["nodes"]:
        nodes.append(node)
        if node["id"] == leaf:
            node["p"] /= 2.0
            nodes.append(dict(node, id=f"{leaf}'"))
    split = market_from_dict(dict(doc, nodes=nodes))
    r0, r1 = analyze(tree), analyze(split)
    assert_same_answer(r1, r0)
    at = tree.leaf_ids.index(leaf)
    for density in ("signed_density", "nonneg_density"):
        z = getattr(r0, density)
        close(getattr(r1, density), np.insert(z, at + 1, z[at]))


@given(small_markets())
def test_a_copy_of_the_first_asset_keeps_the_answer(tree):
    doc = market_to_dict(tree)
    for node in doc["nodes"]:
        node["prices"].append(node["prices"][0])
    copied = market_from_dict(dict(doc, assets=tree.assets + 1))
    r0, r1 = analyze(tree), analyze(copied)
    assert_same_answer(r1, r0)
    close(r1.signed_density, r0.signed_density)
    close(r1.nonneg_density, r0.nonneg_density)


@given(small_markets(), st.randoms(use_true_random=False))
def test_renamed_node_ids_keep_every_bit(tree, rng):
    # one bijection onto fresh names in shuffled order, so neither the
    # names nor their sort order match the old ones
    doc = market_to_dict(tree)
    fresh = [f"v{k}" for k in range(len(doc["nodes"]))]
    rng.shuffle(fresh)
    rename = {node["id"]: name for node, name in zip(doc["nodes"], fresh)}
    rename[None] = None
    nodes = [dict(node, id=rename[node["id"]], parent=rename[node["parent"]])
             for node in doc["nodes"]]
    renamed = market_from_dict(dict(doc, nodes=nodes))

    def bits(values):
        return [float(v).hex() for v in values]

    want = _report_fields(analyze(tree), bits)
    got = _report_fields(analyze(renamed), bits)
    held = want.pop("strategy")
    assert list(got.pop("strategy").items()) == [
        (rename[k], v) for k, v in held.items()
    ]
    assert got == want
