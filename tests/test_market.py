import gc
import json
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmvport import (
    DimensionMismatch,
    GenerationFailure,
    ParseError,
    SolverFailure,
    Strategy,
    ValidationError,
    analyze,
    check_viability,
    generate_random_market,
    load_market,
    load_packaged_market,
    market_from_dict,
    market_to_dict,
    market_to_json,
    save_market,
    terminal_wealth,
)
from mmvport import induction, market
from mmvport.market import MeasureDensity

from conftest import small_tree
from oracles import (
    constraint_system,
    gain_matrix,
    reference_viability,
    viability_linprog,
    wealth_by_paths,
)


def doc(nodes, assets=1, periods=1):
    return {"assets": assets, "periods": periods, "nodes": nodes}


GOOD = doc(
    [
        {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
        {"id": "u", "parent": "r", "t": 1, "p": 0.4, "prices": [1.5]},
        {"id": "d", "parent": "r", "t": 1, "p": 0.6, "prices": [0.5]},
    ]
)


class TestParsing:
    def test_good_document(self):
        tree = market_from_dict(GOOD)
        assert tree.assets == 1 and tree.periods == 1
        assert tree.leaf_ids == ("u", "d")
        assert tree.nonterminal_ids == ("r",)
        assert np.allclose(tree.leaf_probabilities, [0.4, 0.6])

    def test_rejections(self):
        with pytest.raises(ParseError):
            market_from_dict([])
        with pytest.raises(ParseError):
            market_from_dict(dict(GOOD, extra=1))
        with pytest.raises(ParseError):
            market_from_dict({"assets": 1, "periods": 1})

    def test_node_level_rejections(self):
        def mutate(**changes):
            nodes = [dict(n) for n in GOOD["nodes"]]
            idx = changes.pop("_idx", 1)
            nodes[idx].update(changes)
            return doc(nodes)

        with pytest.raises(ParseError):
            market_from_dict(mutate(extra_key=1))
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(mutate(_idx=0, parent="u"))  # no root remains
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(mutate(p=-0.2))
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(mutate(p=True))  # bool is not a number here
        with pytest.raises(ParseError):
            market_from_dict(mutate(prices=[1.0, 2.0]))  # wrong width
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(mutate(t=3))  # child must sit at parent t + 1

    def test_duplicate_and_unknown_ids(self):
        nodes = [dict(n) for n in GOOD["nodes"]]
        nodes[2]["id"] = "u"
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(doc(nodes))
        nodes = [dict(n) for n in GOOD["nodes"]]
        nodes[1]["parent"] = "ghost"
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(doc(nodes))

    def test_every_nonterminal_needs_children(self):
        nodes = [
            {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
            {"id": "u", "parent": "r", "t": 1, "p": 1.0, "prices": [1.5]},
        ]
        with pytest.raises((ParseError, ValidationError)):
            market_from_dict(doc(nodes, periods=2))

    def test_sibling_renormalization(self):
        nodes = [dict(n) for n in GOOD["nodes"]]
        nodes[1]["p"] = 0.4 + 2e-10
        tree = market_from_dict(doc(nodes))
        total = float(tree.leaf_probabilities.sum())
        assert total == pytest.approx(1.0, abs=1e-12)
        nodes[1]["p"] = 0.9  # far off: siblings sum to 1.5
        with pytest.raises(ValidationError):
            market_from_dict(doc(nodes))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_market(path)

    def test_packaged_markets(self):
        tri = load_packaged_market("trinomial")
        assert tri.n_leaves == 3
        with pytest.raises(ParseError):
            load_packaged_market("nonexistent")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        tree = small_tree(5)
        again = market_from_dict(market_to_dict(tree))
        assert again.leaf_ids == tree.leaf_ids
        assert np.allclose(again.leaf_probabilities, tree.leaf_probabilities)
        assert np.allclose(gain_matrix(again), gain_matrix(tree))

        path = tmp_path / "m.json"
        save_market(tree, path)
        loaded = load_market(path)
        assert market_to_json(loaded) == market_to_json(tree)

    def test_save_is_deterministic(self, tmp_path):
        tree = small_tree(6)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_market(tree, p1)
        save_market(tree, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_is_plain_data(self):
        obj = json.loads(market_to_json(small_tree(7)))
        assert set(obj) == {"assets", "periods", "nodes"}


class TestColumnarLayout:
    @staticmethod
    def retained_objects(doc):
        """Objects the collector tracks that a parsed and analyzed tree keeps."""
        gc.collect()
        before = len(gc.get_objects())
        tree = market_from_dict(doc)
        report = analyze(tree)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert report.tree is tree
        return grown

    def test_no_objects_per_node(self):
        # arrays per tree and per level, not objects per node: a tree with
        # four times the nodes keeps the same handful of container objects
        docs = [
            market_to_dict(generate_random_market(seed=T, periods=T))
            for T in (2, 10, 12)
        ]
        self.retained_objects(docs[0])  # first-use caches
        small, large = (self.retained_objects(doc) for doc in docs[1:])
        assert abs(large - small) <= 16 and large < 200

    def test_lazy_node_views_match_the_arrays(self):
        tree = small_tree(4)
        assert [n.id for n in tree.nodes] == list(tree.ids)
        assert tree.root.parent is None and tree.root.t == 0
        for k, node in enumerate(tree.nodes):
            assert tree.node(node.id) is node
            assert node.cond_prob == tree.cond_prob[k]
            assert node.path_prob == tree.path_prob[k]
            up = tree.parent[k]
            assert node.parent == (None if up < 0 else tree.ids[up])
            assert not node.prices.flags.writeable
        with pytest.raises(DimensionMismatch):
            tree.node("ghost")
        d = tree.assets
        strategy = Strategy.from_vector(tree, np.arange(len(tree.nonterminal_ids) * d))
        for j, nid in enumerate(tree.nonterminal_ids):
            row = strategy.holdings[nid]
            assert row.tolist() == strategy.vector[j * d : (j + 1) * d].tolist()
            assert not row.flags.writeable

    def test_writer_matches_json_dumps(self):
        def written_alike(tree):
            return market_to_json(tree) == json.dumps(market_to_dict(tree), indent=2) + "\n"

        trees = [small_tree(seed) for seed in range(12)]
        trees += [small_tree(seed, assets=d) for seed in range(3) for d in (2, 3)]
        trees += [generate_random_market(seed=0, periods=t, branching=b, assets=d)
                  for b, t, d in ((2, 8, 1), (4, 4, 3))]
        for tree in trees:
            assert written_alike(tree)
        # a file with the root last and unicode ids
        nodes = [
            {"id": "h\u00f6her", "parent": "w\u00fcrzel", "t": 1, "p": 0.25,
             "prices": [-0.0]},
            {"id": "tief\"", "parent": "w\u00fcrzel", "t": 1, "p": 0.75,
             "prices": [3e-320]},
            {"id": "w\u00fcrzel", "parent": None, "t": 0, "prices": [1e-5]},
        ]
        assert written_alike(market_from_dict(doc(nodes)))
        # a ragged two-asset file with the root in the middle: depth 1 holds
        # families of 1, 2 and 3 children
        nodes = [
            {"id": "a", "parent": "r", "t": 1, "p": 0.5, "prices": [1.5, 0.5]},
            {"id": "a0", "parent": "a", "t": 2, "p": 1.0, "prices": [1.5, 0.5]},
            {"id": "b0", "parent": "b", "t": 2, "p": 0.125, "prices": [2.0, 1e300]},
            {"id": "r", "parent": None, "t": 0, "prices": [1.0, 1.0]},
            {"id": "b1", "parent": "b", "t": 2, "p": 0.875, "prices": [0.1, 2.5]},
            {"id": "b", "parent": "r", "t": 1, "p": 0.25, "prices": [1.0, 2.0]},
            {"id": "c", "parent": "r", "t": 1, "p": 0.25, "prices": [0.5, 1.0]},
            {"id": "c0", "parent": "c", "t": 2, "p": 0.5, "prices": [0.25, 1.5]},
            {"id": "c1", "parent": "c", "t": 2, "p": 0.25, "prices": [0.75, -0.5]},
            {"id": "c2", "parent": "c", "t": 2, "p": 0.25, "prices": [0.5, 1e-7]},
        ]
        tree = market_from_dict(doc(nodes, assets=2, periods=2))
        assert tree.ids[3] == "r" and written_alike(tree)


class TestWealthAndStrategies:
    def test_terminal_wealth_matches_path_walk(self):
        rng = np.random.default_rng(31)
        for seed in range(12):
            tree = small_tree(seed)
            vec = rng.normal(size=len(tree.nonterminal_ids) * tree.assets)
            strat = Strategy.from_vector(tree, vec)
            got = terminal_wealth(tree, strat, 1.25)
            ref = wealth_by_paths(tree, strat, 1.25)
            assert np.allclose(got.values, ref, atol=1e-12)

    def test_strategy_validation(self):
        tree = market_from_dict(GOOD)
        with pytest.raises(DimensionMismatch):
            Strategy.from_vector(tree, [1.0, 2.0])
        with pytest.raises(ValidationError):
            Strategy.from_vector(tree, [np.nan])
        with pytest.raises(DimensionMismatch):
            Strategy.from_holdings(tree, {"r": [0.1], "ghost": [0.2]})

    def test_holdings_round_trip_and_refusals(self):
        tree = generate_random_market(seed=3, periods=2, branching=3, assets=2)
        vec = np.random.default_rng(5).normal(size=len(tree.nonterminal_ids) * 2)
        strat = Strategy.from_vector(tree, vec)
        again = Strategy.from_holdings(tree, dict(strat.holdings))
        assert again.vector.tobytes() == strat.vector.tobytes()
        assert terminal_wealth(tree, again, 0.5).values.tobytes() == (
            terminal_wealth(tree, strat, 0.5).values.tobytes())
        first, *rest = tree.nonterminal_ids
        rows = {nid: [0.0, 0.0] for nid in tree.nonterminal_ids}
        for bad, message in (
            ({nid: rows[nid] for nid in rest}, f"missing \\['{first}'\\]"),
            ({**rows, "ghost": [0.0, 0.0]}, "extra \\['ghost'\\]"),
            ({**rows, first: [0.0, 0.0, 0.0]}, f"for '{first}' must have 2 entries"),
        ):
            with pytest.raises(DimensionMismatch, match=message):
                Strategy.from_holdings(tree, bad)

    def test_wealth_needs_matching_tree(self):
        t1 = market_from_dict(GOOD)
        t2 = market_from_dict(GOOD)
        strat = Strategy.from_vector(t1, [0.5])
        with pytest.raises(DimensionMismatch):
            terminal_wealth(t2, strat, 0.0)


class TestConstraintSystem:
    def test_shapes_and_rhs(self):
        tree = small_tree(8)
        A, b = constraint_system(tree)
        L = tree.n_leaves
        assert A.shape == (1 + gain_matrix(tree).shape[1], L)
        assert b[0] == 1.0 and np.all(b[1:] == 0.0)
        # first row is the leaf law, others are probability-weighted gains
        assert np.allclose(A[0], tree.leaf_probabilities)

    def test_measure_density_validation(self):
        tree = market_from_dict(GOOD)
        # unique density for this binomial tree: p_i z_i must equal (1/2, 1/2)
        z = np.array([0.5 / 0.4, 0.5 / 0.6])
        dens = MeasureDensity.from_values(tree, z)
        assert np.allclose(dens.values, z)
        with pytest.raises(ValidationError):
            MeasureDensity.from_values(tree, z * 1.01)  # E[z] off
        with pytest.raises(ValidationError):
            MeasureDensity.from_values(tree, np.array([2.0, 1.0]))  # drift

    def test_measure_density_refusals_name_their_fault(self):
        tree = market_from_dict(GOOD)
        z = np.array([0.5 / 0.4, 0.5 / 0.6])
        with pytest.raises(DimensionMismatch, match="has 3 entries, tree has 2"):
            MeasureDensity.from_values(tree, np.append(z, 1.0))
        with pytest.raises(ValidationError, match="must be finite"):
            MeasureDensity.from_values(tree, np.array([np.inf, 1.0]))
        with pytest.raises(ValidationError, match="expectation .* is not 1"):
            MeasureDensity.from_values(tree, z * 1.01)

    def test_martingale_refusal_names_the_shallowest_node(self):
        # the file lists the nodes deepest first: depth-2 nodes precede
        # the depth-1 ones, and n2 precedes n1
        data = market_to_dict(
            generate_random_market(seed=0, periods=3, branching=2, assets=1))
        data["nodes"].reverse()
        tree = market_from_dict(data)
        z = dict(zip(tree.leaf_ids, check_viability(tree).density.tolist()))
        prob = dict(zip(tree.leaf_ids, tree.leaf_probabilities.tolist()))

        def leaves(nid):
            kids = tree.node(nid).children
            return [nid] if not kids else [k for c in kids for k in leaves(c)]

        def shift(first, second):
            # moves mass from the leaves under `second` to those under
            # `first`, keeping E[z]: only their common parent's drift moves
            a, b = leaves(first), leaves(second)
            up = 1.0 + 0.1
            down = 1.0 - 0.1 * sum(prob[k] * z[k] for k in a) / sum(
                prob[k] * z[k] for k in b)
            z.update({k: z[k] * up for k in a})
            z.update({k: z[k] * down for k in b})

        shift("n7", "n8")  # breaks n3, depth 2
        shift("n3", "n4")  # breaks n1
        shift("n5", "n6")  # breaks n2
        values = [z[k] for k in tree.leaf_ids]
        with pytest.raises(ValidationError, match="constraint at node 'n2'$"):
            MeasureDensity.from_values(tree, values)


@st.composite
def one_step_levels(draw):
    """A family of one-step markets, as the backward sweep hands it over.

    Each node's increments are priced to zero by random positive weights,
    so it is viable unless it is made an arbitrage (the first asset only
    rises) or has children whose subtrees have V = 0 (some of them with
    no nonnegative density at all).  Near-degenerate nodes repeat a
    child's increment, or (with several assets) make one asset a multiple
    of another, up to noise of 1e-13 to 1e-4.
    """
    assets = draw(st.integers(1, 5))
    width = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
    dead = draw(st.booleans())
    arbitrage = draw(st.booleans())
    noise = draw(st.sampled_from((0.0, 1e-13, 1e-8, 1e-4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 13))
    p = rng.uniform(0.2, 1.0, (n, width))
    p /= p.sum(axis=1, keepdims=True)
    dS = rng.normal(0.0, 1.0, (n, width, assets))
    if noise:
        near = rng.random(n) < 0.5
        dS[near, 1] = dS[near, 0]
        if assets > 1:
            dS[~near, :, 1] = 1.7 * dS[~near, :, 0]
        dS += noise * rng.normal(0.0, 1.0, dS.shape)
    q = rng.uniform(0.05, 1.0, (n, width))
    q /= q.sum(axis=1, keepdims=True)
    dS -= np.einsum("nk,nkd->nd", q, dS)[:, None, :]
    dS *= np.exp(rng.uniform(-3.0, 3.0, (n, 1, assets)))
    if arbitrage:
        dS[rng.random(n) < 0.3, :, 0] = rng.uniform(0.1, 1.0, width)
    value = rng.uniform(0.05, 1.0, (n, width))
    feasible = np.ones((n, width), dtype=bool)
    if dead:
        zero = rng.random((n, width)) < 0.2
        value[zero] = 0.0
        feasible[zero] = rng.random(int(zero.sum())) < 0.5
    ids = np.array([f"n{k}" for k in range(n)], dtype=object)
    return dS, p, value, feasible, ids


@pytest.fixture
def simplex_nodes(monkeypatch):
    """Node counts of the calls that reach the simplex fallback."""
    counts = []
    simplex_floors = induction._simplex_floors

    def counting(dS, *args):
        counts.append(len(dS))
        return simplex_floors(dS, *args)

    monkeypatch.setattr(induction, "_simplex_floors", counting)
    return counts


def first_broken(ids, value, child_value):
    broken = (value <= 1e-9) & np.all(child_value > 1e-9, axis=1)
    return ids[int(np.argmax(broken))] if np.any(broken) else None


# one-period increments whose scaled floor-program rows are nearly
# dependent (one asset about twice another); each child is one row
NEAR_DEPENDENT = (
    [[0.5714285714285714, 1.1428571214285714, 1.0],
     [-0.4285714285714286, -0.8571428185714289, -1.0],
     [-1.4285714285714286, -2.8571428485714288, -2.0]],
    [[-1.0, -1.9999999600000002, 1.0999999999999999],
     [1.0, 2.0, -1.9000000000000001],
     [-1.0, -2.00000001, 2.0999999999999996]],
    [[-2.6, -5.200000000999999], [3.4, 6.800000009],
     [1.4, 2.7999999890000002], [-1.6, -3.199999991]],
)


def near_dependent_market(rows):
    """Root prices all 1, child k at 1 + rows[k], children equally likely."""
    d = len(rows[0])
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0] * d}]
    nodes += [
        {"id": f"c{k}", "parent": "r", "t": 1, "p": 1.0 / len(rows),
         "prices": [1.0 + v for v in row]}
        for k, row in enumerate(rows)
    ]
    return market_from_dict(doc(nodes, assets=d))


class TestViability:
    @given(one_step_levels())
    def test_batched_floors_match_the_simplex(self, level):
        dS, p, child_value, child_feasible, ids = level
        q, value, feasible = induction._family_floors(*level)
        q0, value0, feasible0 = induction._simplex_floors(*level)
        np.testing.assert_array_equal(feasible, feasible0)
        np.testing.assert_array_equal(value > 1e-9, value0 > 1e-9)
        assert first_broken(ids, value, child_value) == first_broken(
            ids, value0, child_value
        )
        np.testing.assert_allclose(value, value0, rtol=1e-10, atol=0.0)
        # a node keeps the simplex's weights bit for bit or has its own,
        # which must price the increments to zero
        own = feasible & np.any(q != q0, axis=1)
        q, dS = q[own], dS[own]
        assert np.all(q >= 0.0)
        assert np.all(np.abs(q.sum(axis=1) - 1.0) <= 1e-12)
        scale = np.max(np.abs(dS), axis=1, initial=0.0)
        drift = np.einsum("nk,nkd->nd", q, dS)
        assert np.all(np.abs(drift) <= 1e-12 * np.maximum(scale, 1e-300))

    @given(one_step_levels())
    def test_weights_stay_on_allowed_children(self, level):
        # both solvers read one program, so their agreement cannot show a
        # column that should be zero: a child without a density must get
        # no mass
        dS, p, child_value, child_feasible, _ = level
        q, _, feasible = induction._family_floors(*level)
        assert np.all(q[~child_feasible] == 0.0)
        assert np.all(np.abs(q[feasible].sum(axis=1) - 1.0) <= 1e-12)

    @pytest.mark.xfail(strict=True, raises=SolverFailure, reason=(
        "no basis is certified and the simplex point misses a row by more "
        "than the simplex's _FEAS_TOL; one rank decision per node (ROADMAP "
        "item 1) mends it"))
    def test_near_dependent_two_asset_node_is_decided(self):
        # the second asset is about 4.65 times the first; every child is
        # feasible, and HiGHS on the u-form gives V = 0.2299994
        dS = np.array([[[0.3544517887362576, 1.6481384321160768],
                        [0.33714125792320293, 1.5676475557764324],
                        [-0.1715632839155872, -0.7977390962501937],
                        [-0.33601768385132513, -1.5624231051998891]]])
        p = np.array([[0.16625956241824183, 0.2961362925361986,
                       0.22756535951636994, 0.3100387855291898]])
        V = np.array([[0.608793489855728, 0.16267234245296963,
                       0.7973517124970734, 0.8806082767058578]])
        allowed = np.ones((1, 4), dtype=bool)
        ids = np.array(["n"], dtype=object)
        _, value, feasible = induction._family_floors(dS, p, V, allowed, ids)
        assert feasible.tolist() == [True]
        assert value[0] == pytest.approx(0.2299994, rel=1e-6, abs=0.0)

    def test_generated_four_asset_tree_needs_no_simplex(self, simplex_nodes):
        tree = generate_random_market(seed=0, periods=4, branching=4, assets=3)
        assert check_viability(tree)
        assert sum(simplex_nodes) == 0

    @pytest.mark.parametrize("assets, branching", [(4, 5), (5, 6)])
    def test_four_and_five_assets_need_no_simplex(
        self, simplex_nodes, assets, branching
    ):
        # these bases are factored by LAPACK, not in closed form
        tree = generate_random_market(
            seed=0, periods=2, branching=branching, assets=assets
        )
        ours = check_viability(tree)
        ref, t_star = viability_linprog(tree)
        assert ours and ref
        assert ours.bound == pytest.approx(t_star, rel=1e-9, abs=0.0)
        assert sum(simplex_nodes) == 0

    def test_ragged_families_need_no_simplex(self, simplex_nodes):
        # the root's children have 3, 4 and 3 children of their own, so
        # depth 1 holds two families
        steps = {
            "a": [(0.1, 0.0), (-0.1, 0.1), (0.0, -0.1)],
            "b": [(0.1, 0.1), (-0.1, 0.1), (-0.1, -0.1), (0.1, -0.1)],
            "c": [(0.05, 0.05), (-0.1, 0.0), (0.05, -0.05)],
        }
        ups = {"a": (0.1, -0.1), "b": (-0.1, 0.2), "c": (0.0, -0.05)}
        nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0, 1.0]}]
        for name, moves in steps.items():
            price = [1.0 + ups[name][0], 1.0 + ups[name][1]]
            nodes.append({"id": name, "parent": "r", "t": 1,
                          "p": 0.4 if name == "c" else 0.3, "prices": price})
            weights = [0.2, 0.3, 0.5] if len(moves) == 3 else [0.1, 0.2, 0.3, 0.4]
            for k, (move, w) in enumerate(zip(moves, weights)):
                nodes.append({"id": f"{name}{k}", "parent": name, "t": 2, "p": w,
                              "prices": [price[0] + move[0], price[1] + move[1]]})
        tree = market_from_dict(doc(nodes, assets=2, periods=2))
        ours = check_viability(tree)
        ref, t_star = viability_linprog(tree)
        assert ours and ref
        assert ours.bound == pytest.approx(t_star, rel=1e-9, abs=0.0)
        assert sum(simplex_nodes) == 0

    @pytest.mark.parametrize("batch", [10, 24])
    @pytest.mark.parametrize("shape", [(3, 4, 2), (4, 3, 3), (5, 3, 2)])
    def test_small_batches_decide_alike(self, monkeypatch, shape, batch):
        # with room for 1 to 8 nodes a batch, a family's bases are factored
        # in several batches; a planted arbitrage sends one node to the simplex
        b, t, d = shape
        plain = market_to_dict(
            generate_random_market(seed=0, periods=t, branching=b, assets=d))
        planted = json.loads(json.dumps(plain))
        nodes = planted["nodes"]
        parents = [n for n in nodes if n["t"] == t - 1]
        node = parents[len(parents) // 2]
        kids = [n for n in nodes if n["parent"] == node["id"]]
        for k, kid in enumerate(kids):
            kid["prices"][0] = node["prices"][0] + 0.1 * (k + 1)

        def certificate(body):
            cert = check_viability(market_from_dict(body))
            density = None if cert.density is None else cert.density.tobytes()
            return cert.viable, cert.status, cert.offending_node, cert.bound, density

        default = [certificate(body) for body in (plain, planted)]
        monkeypatch.setattr(induction, "_BASIS_BATCH", batch)
        assert [certificate(body) for body in (plain, planted)] == default
        assert default[0][:3] == (True, "viable", None)
        # the rest of the tree may still carry a nonnegative density
        assert default[1][0] is False and default[1][2] == node["id"]

    def test_a_feasible_basis_that_is_not_optimal_is_refused(self):
        # with the optimal basis hidden, a node may still find another basis
        # with u >= 0, of larger sum(u); its dual certificate must refuse it
        rng = np.random.default_rng(3)
        n, b, d = 30, 5, 2
        dS = rng.normal(0.0, 1.0, (n, b, d))
        q = rng.uniform(0.05, 1.0, (n, b))
        q /= q.sum(axis=1, keepdims=True)
        dS -= np.einsum("nk,nkd->nd", q, dS)[:, None, :]
        p = np.full((n, b), 1.0 / b)
        r = p / rng.uniform(0.05, 1.0, (n, b))
        scale, inverse, certified = induction._floor_bases(dS)
        assert certified.shape == (n, len(list(combinations(range(b), d))))
        bases = scale, inverse
        _, value, solved = induction._basis_step(dS, r, *bases, certified)
        assert solved.all()
        m = np.einsum("nk,nkd->nd", r, dS) / scale
        feasible = np.all(-np.einsum("nsij,nj->nsi", inverse, m) >= 0.0, axis=2)
        refused = 0
        for hidden in range(certified.shape[1]):
            kept = certified.copy()
            kept[:, hidden] = False
            _, v, ok = induction._basis_step(dS, r, *bases, kept)
            np.testing.assert_allclose(v[ok], value[ok], rtol=1e-12, atol=0.0)
            others = np.delete(feasible, hidden, axis=1).any(axis=1)
            refused += int(np.sum(~ok & others))
        assert refused > 0

    def test_row_scaling_keeps_a_quiet_asset_off_the_simplex(self, simplex_nodes):
        # the third asset moves about 200 times less than the others; one
        # node's optimal basis passes the singularity test only with its
        # rows scaled
        tree = generate_random_market(seed=6, periods=3, branching=4, assets=3)
        data = market_to_dict(tree)
        for node in data["nodes"]:
            node["prices"][2] = 1.0 + (node["prices"][2] - 1.0) / 200.0
        quiet = market_from_dict(data)
        cert = check_viability(quiet)
        ref, t_star = viability_linprog(quiet)
        assert cert and ref
        assert cert.bound == pytest.approx(t_star, rel=1e-9, abs=0.0)
        assert cert.bound == pytest.approx(check_viability(tree).bound, rel=1e-9)
        assert sum(simplex_nodes) == 0

    @pytest.mark.parametrize("flat", [False, True])
    def test_one_asset_arbitrage_needs_no_simplex(self, simplex_nodes, flat):
        # one node's asset never falls (and with flat, one child stays put),
        # so every ancestor has a child with V = 0: the one-asset step
        # settles them in closed form, as it does the viable nodes
        data = market_to_dict(
            generate_random_market(seed=2, periods=4, branching=3, assets=1)
        )
        below = {}
        for node in data["nodes"]:
            below.setdefault(node["parent"], []).append(node)
        target = next(node for node in data["nodes"] if node["t"] == 2)

        def shift(node, by):
            node["prices"][0] += by
            for child in below.get(node["id"], []):
                shift(child, by)

        for k, child in enumerate(below[target["id"]]):
            step = child["prices"][0] - target["prices"][0]
            shift(child, -step if flat and k == 0 else abs(step) - step)
        cert = check_viability(market_from_dict(data))
        assert not cert
        assert cert.status == "degenerate"
        assert cert.offending_node == target["id"]
        assert sum(simplex_nodes) == 0

    def test_agrees_with_reference_lp(self):
        for seed in range(40):
            tree = small_tree(seed)
            ours = check_viability(tree)
            ref, t_star = viability_linprog(tree)
            assert bool(ours) == ref
            # the node-local optimum is the full-tree optimum max min z
            assert ours.bound == pytest.approx(t_star, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("rows", NEAR_DEPENDENT[:2])
    def test_near_dependent_rows_keep_a_valid_floor(self, rows):
        # the simplex's drive-out pivot on a tiny entry once turned a phase-1
        # residue into negative weights and floors above 1
        tree = near_dependent_market(rows)
        cert = check_viability(tree)
        _, t_star = viability_linprog(tree)
        assert cert.bound <= 1.0
        assert cert.bound <= cert.density.min()
        assert cert.bound == pytest.approx(t_star, rel=1e-8, abs=0.0)

    def test_a_simplex_point_off_its_rows_is_refused(self, tmp_path, capsys):
        from mmvport.cli import main

        tree = near_dependent_market(NEAR_DEPENDENT[2])
        with pytest.raises(SolverFailure, match="node 'r'"):
            check_viability(tree)
        path = tmp_path / "market.json"
        path.write_text(market_to_json(tree), encoding="utf-8")
        assert main(["analyze", str(path)]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_certificate_is_valid_density(self):
        for seed in range(10):
            tree = small_tree(seed)
            cert = check_viability(tree)
            assert cert
            assert cert.density is not None
            z = cert.density
            assert np.all(z > 0.0)
            A, b = constraint_system(tree)
            assert np.max(np.abs(A @ z - b)) < 1e-7

    def test_arbitrage_not_viable(self, arbitrage_tree):
        cert = check_viability(arbitrage_tree)
        assert not cert
        assert cert.density is None

    def test_flat_tree_viable(self, flat_tree):
        assert check_viability(flat_tree)

    def test_zero_mass_arbitrage_is_degenerate(self):
        # b's subtree only goes up, so no density can put mass on it; the
        # root must then give b zero mass, which its flat sibling allows
        tree = market_from_dict(
            doc(
                [
                    {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                    {"id": "a", "parent": "r", "t": 1, "p": 0.5, "prices": [1.0]},
                    {"id": "b", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
                    {"id": "a1", "parent": "a", "t": 2, "p": 0.5, "prices": [1.5]},
                    {"id": "a2", "parent": "a", "t": 2, "p": 0.5, "prices": [0.5]},
                    {"id": "b1", "parent": "b", "t": 2, "p": 0.5, "prices": [3.0]},
                    {"id": "b2", "parent": "b", "t": 2, "p": 0.5, "prices": [2.5]},
                ],
                periods=2,
            )
        )
        cert = check_viability(tree)
        assert not cert
        assert cert.status == "degenerate"
        assert cert.bound == 0.0
        assert cert.density is None

    def test_no_density_below_any_child_is_infeasible(self):
        # both subtrees only go up: neither can carry mass, so no
        # nonnegative density exists at all
        tree = market_from_dict(
            doc(
                [
                    {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                    {"id": "a", "parent": "r", "t": 1, "p": 0.5, "prices": [0.5]},
                    {"id": "b", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
                    {"id": "a1", "parent": "a", "t": 2, "p": 0.5, "prices": [0.6]},
                    {"id": "a2", "parent": "a", "t": 2, "p": 0.5, "prices": [0.7]},
                    {"id": "b1", "parent": "b", "t": 2, "p": 0.5, "prices": [3.0]},
                    {"id": "b2", "parent": "b", "t": 2, "p": 0.5, "prices": [2.5]},
                ],
                periods=2,
            )
        )
        cert = check_viability(tree)
        assert cert.status == "infeasible"
        assert cert.bound is None and cert.density is None
        assert viability_linprog(tree) == (False, None)

    def test_deep_single_path_chain(self):
        periods = 3000
        nodes = [{"id": "n0", "parent": None, "t": 0, "prices": [1.0]}]
        for t in range(1, periods + 1):
            nodes.append(
                {"id": f"n{t}", "parent": f"n{t - 1}", "t": t, "p": 1.0,
                 "prices": [1.0]}
            )
        tree = market_from_dict(doc(nodes, periods=periods))
        cert = check_viability(tree)
        assert cert.status == "viable"
        assert cert.bound == 1.0

    def test_certificate_is_cached_on_the_tree(self):
        tree = small_tree(3)
        assert check_viability(tree) is check_viability(tree)

    @pytest.mark.parametrize(
        "shape", [(3, 3, 1), (2, 6, 1), (4, 3, 2), (3, 2, 2), (4, 2, 3)]
    )
    def test_floors_only_sweep_matches_the_full_sweep(self, shape):
        # each generated tree also with one node made an arbitrage (its
        # children's first asset all rise) and one made a zero floor (its
        # first child keeps the node's prices, the others' first asset
        # rises), so its parent's family has a child with V = 0
        b, t, d = shape
        statuses = set()
        for seed in range(20):
            plain = market_to_dict(
                generate_random_market(seed=seed, periods=t, branching=b, assets=d))
            nodes = plain["nodes"]
            inner = sorted({n["parent"] for n in nodes} - {None, nodes[0]["id"]})
            node_id = random.Random(seed).choice(inner)
            bodies = [plain]
            for zero in (False, True):
                body = json.loads(json.dumps(plain))
                node = next(n for n in body["nodes"] if n["id"] == node_id)
                kids = [n for n in body["nodes"] if n["parent"] == node_id]
                for k, kid in enumerate(kids):
                    kid["prices"][0] = node["prices"][0] + 0.1 * (k + 1)
                if zero:
                    kids[0]["prices"] = list(node["prices"])
                bodies.append(body)
            for body in bodies:
                tree = market_from_dict(body)
                cert = check_viability(tree)
                viable, status, bound, offending, density = reference_viability(tree)
                assert (cert.viable, cert.status, cert.offending_node) == (
                    viable, status, offending)
                assert np.float64(cert.bound).tobytes() == np.float64(bound).tobytes()
                if viable:
                    assert cert.density.tobytes() == density.tobytes()
                else:
                    assert cert.density is None
                statuses.add(status)
        assert statuses == {"viable", "degenerate", "infeasible"}


class TestGenerator:
    def test_deterministic(self):
        a = generate_random_market(seed=42, periods=2, branching=3, assets=2)
        b = generate_random_market(seed=42, periods=2, branching=3, assets=2)
        assert market_to_json(a) == market_to_json(b)

    def test_generated_markets_are_viable(self):
        for seed in range(15):
            tree = small_tree(seed)
            assert check_viability(tree)

    def test_shape_that_exhausted_the_dense_simplex(self):
        # one LP over all 729 leaves ran out of pivots on this market
        tree = generate_random_market(seed=1, periods=6, branching=3)
        assert tree.n_leaves == 729
        assert check_viability(tree)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            generate_random_market(seed=1, branching=1)
        with pytest.raises(ValidationError):
            generate_random_market(seed=1, periods=0)
        with pytest.raises(ValidationError):
            generate_random_market(seed=1, assets=0)
        with pytest.raises(ValidationError):
            # leaf count blows past the safety cap
            generate_random_market(seed=1, periods=10, branching=10)

    def test_leaf_cap_is_decided_without_the_full_power(self):
        # 2**(10**12) is never built: the refusal is immediate
        with pytest.raises(ValidationError, match="exceed 200000 leaves"):
            generate_random_market(seed=0, periods=10**12, branching=2)
        # 262 144 leaves, the first power of two past the cap
        with pytest.raises(ValidationError, match="exceed 200000 leaves"):
            generate_random_market(seed=0, periods=18, branching=2)
