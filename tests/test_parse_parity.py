"""The columnar parsers and generator against the cell- and node-by-node references.

Valid documents are mutated by hypothesis: keys dropped or renamed, values
of the wrong type, bools, NaN and infinities, duplicate ids, a second
root, unknown parents, wrong depths, leaves off the horizon, sibling sums
off by a little, shuffled node order, and several of these in one file.
Each document must give the same exception class and message from both
parsers, or bit-identical columns.  Law CSV texts are drawn the same way
(blank rows, quoted cells, CRLF, headers, ragged rows, odd numerals and a
cell past the CSV field limit) and read by the column-at-a-time law
reader and the cell-by-cell reference; so are laws of 1 000 to 3 000
rows, whose sums are long enough to leave math.fsum, with a few lines
that take the reader off its one-split path.
"""

import ast
import copy
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvport.market
from mmvport import (
    InputError,
    ParseError,
    ValidationError,
    generate_random_market,
    market_from_dict,
    market_to_dict,
)

from mmvport.cli import _read_law

from oracles import (
    reference_market_from_dict,
    reference_random_document,
    reference_random_tree,
    reference_read_law,
)

KEYS = ("id", "parent", "t", "p", "prices")
JUNK = (
    None, True, False, 0, 1, -1, 2, 1.0, 0.5, -0.5, 1.5, 0.0, -0.0, 1e308,
    "", "n0", "ghost", [], [1.0], [True], ["1.0"], [0.5, 0.5], {}, {"p": 1},
    math.nan, math.inf, -math.inf, 10**30, 2**53 + 1, -(10**20),
)
HUGE = 10**400  # past the largest double


def _nodes(doc):
    nodes = doc.get("nodes")
    return nodes if isinstance(nodes, list) else []


def _node(doc, data):
    nodes = _nodes(doc)
    return nodes[data.draw(st.integers(0, len(nodes) - 1))] if nodes else {}


def set_value(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = data.draw(st.sampled_from(JUNK))


def set_price(doc, data):
    node = _node(doc, data)
    prices = node.get("prices") if isinstance(node, dict) else None
    if isinstance(prices, list) and prices:
        k = data.draw(st.integers(0, len(node["prices"]) - 1))
        node["prices"][k] = data.draw(st.sampled_from(JUNK + (7, -3)))


def resize_prices(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict) and isinstance(node.get("prices"), list):
        node["prices"] = node["prices"] + [1.0] if data.draw(st.booleans()) else []


def drop_key(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict):
        node.pop(data.draw(st.sampled_from(KEYS)), None)


def rename_key(doc, data):
    node = _node(doc, data)
    key = data.draw(st.sampled_from(KEYS))
    if isinstance(node, dict) and key in node:
        name = data.draw(st.sampled_from(("prob", "ID", "time", "price")))
        node[name] = node.pop(key)


def duplicate_id(doc, data):
    a, b = _node(doc, data), _node(doc, data)
    if isinstance(a, dict) and isinstance(b, dict) and "id" in b:
        a["id"] = b["id"]


def second_root(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict):
        node["parent"] = None
        if data.draw(st.booleans()):
            node.pop("p", None)


def unknown_parent(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict):
        node["parent"] = data.draw(st.sampled_from(("ghost", "n9999")))


def shift_t(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict) and isinstance(node.get("t"), int):
        node["t"] += data.draw(st.sampled_from((-1, 1, 2, 10**30)))


def shift_periods(doc, data):
    if isinstance(doc.get("periods"), int):
        doc["periods"] += data.draw(st.sampled_from((-1, 1)))


def drop_node(doc, data):
    nodes = _nodes(doc)
    if nodes:
        nodes.pop(data.draw(st.integers(0, len(nodes) - 1)))


def nudge_p(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict) and isinstance(node.get("p"), float):
        node["p"] += data.draw(st.sampled_from((2e-9, -2e-9, 5e-10, -1e-6)))


def not_an_object(doc, data):
    nodes = _nodes(doc)
    if nodes:
        k = data.draw(st.integers(0, len(nodes) - 1))
        nodes[k] = data.draw(st.sampled_from(([], "node", 3, None)))


def top_level(doc, data):
    key = data.draw(st.sampled_from(("assets", "periods", "nodes", "extra")))
    if data.draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = data.draw(st.sampled_from(JUNK))


def root_probability(doc, data):
    for node in _nodes(doc):
        if isinstance(node, dict) and node.get("parent", "") is None:
            node["p"] = data.draw(st.sampled_from((0.5, 2, 0.0, -1.0, True, math.nan)))


def huge_number(doc, data):
    node = _node(doc, data)
    if isinstance(node, dict):
        if data.draw(st.booleans()) and isinstance(node.get("prices"), list):
            node["prices"] = [HUGE] * len(node["prices"])
        else:
            node["p"] = HUGE


# well-formed rewrites: the parsers must agree on these too
def shuffle(doc, data):
    doc["nodes"] = data.draw(st.permutations(doc["nodes"]))


def integer_values(doc, data):
    for node in doc["nodes"]:
        if isinstance(node, dict) and isinstance(node.get("prices"), list):
            node["prices"] = [
                int(v * 4) if isinstance(v, float) and math.isfinite(v) else v
                for v in node["prices"]
            ]


def root_p(doc, data):
    for node in doc["nodes"]:
        if isinstance(node, dict) and node.get("parent", "") is None:
            node["p"] = data.draw(st.sampled_from((1, 1.0, 1.0 + 1e-16)))


FAULTS = (
    set_value, set_price, resize_prices, drop_key, rename_key, duplicate_id,
    second_root, unknown_parent, shift_t, shift_periods, drop_node, nudge_p,
    not_an_object, top_level, root_probability, huge_number,
)
REWRITES = (shuffle, integer_values, root_p)


def outcome(parse, doc):
    try:
        return parse(copy.deepcopy(doc)), None
    except Exception as exc:  # the class and message are compared
        return None, exc


def assert_same(doc):
    got, err = outcome(market_from_dict, doc)
    ref, ref_err = outcome(reference_market_from_dict, doc)
    if isinstance(ref_err, OverflowError):
        # the one intended change: an integer past the float range is
        # refused as a parse error instead of escaping as OverflowError
        assert isinstance(err, ParseError) and "must be finite" in str(err)
        return
    if ref_err is not None or err is not None:
        assert type(err) is type(ref_err), (err, ref_err)
        assert str(err) == str(ref_err)
        return
    assert got.ids == ref["ids"]
    parents = [None if k < 0 else got.ids[k] for k in got.parent.tolist()]
    assert parents == ref["parent"]
    assert got.t.tolist() == ref["t"]
    for name in ("cond_prob", "path_prob", "prices"):
        assert getattr(got, name).tobytes() == ref[name].tobytes(), name


def base_document(data):
    b = data.draw(st.integers(2, 4))
    periods = data.draw(st.integers(1, 3))
    assets = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 10**6))
    tree = generate_random_market(
        seed=seed, periods=periods, branching=b, assets=assets
    )
    return market_to_dict(tree)


@settings(max_examples=400)
@given(st.data())
def test_mutated_documents_match_the_reference(data):
    doc = base_document(data)
    for _ in range(data.draw(st.integers(0, 2))):
        data.draw(st.sampled_from(REWRITES))(doc, data)
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from(FAULTS))(doc, data)
    assert_same(doc)


@settings(max_examples=100)
@given(st.data())
def test_rewritten_documents_match_the_reference(data):
    doc = base_document(data)
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from(REWRITES))(doc, data)
    assert_same(doc)
    assert outcome(market_from_dict, doc)[1] is None


@pytest.mark.parametrize(
    "nodes",
    [
        # a deep chain, a ragged tree and a file listing children first
        [{"id": f"c{t}", "parent": f"c{t - 1}" if t else None, "t": t, "p": 1.0,
          "prices": [1.0]} for t in range(40)],
        [
            {"id": "b2", "parent": "b", "t": 2, "p": 0.25, "prices": [0.5]},
            {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
            {"id": "b", "parent": "r", "t": 1, "p": 0.7, "prices": [1.0]},
            {"id": "a", "parent": "r", "t": 1, "p": 0.3, "prices": [2.0]},
            {"id": "a1", "parent": "a", "t": 2, "p": 1.0, "prices": [2.0]},
            {"id": "b1", "parent": "b", "t": 2, "p": 0.75, "prices": [1.5]},
        ],
    ],
)
def test_hand_written_shapes_match_the_reference(nodes):
    periods = max(n["t"] for n in nodes)
    assert_same({"assets": 1, "periods": periods, "nodes": nodes})
    tree = market_from_dict({"assets": 1, "periods": periods, "nodes": nodes})
    # children in file order, and the lazy views agree with the arrays
    for k, node in enumerate(tree.nodes):
        kids = tree.child_index[tree.child_offsets[k] : tree.child_offsets[k + 1]]
        assert node.children == tuple(tree.ids[c] for c in kids)
        assert np.array_equal(node.prices, tree.prices[k])


def _wide_then_narrow(width, fan):
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0]}]
    nodes += [
        {"id": f"a{i}", "parent": "r", "t": 1, "p": 1.0 / width,
         "prices": [1.0 + i % 3]}
        for i in range(width)
    ]
    nodes += [
        {"id": f"a{i}.{j}", "parent": f"a{i}", "t": 2, "p": 1.0 / fan,
         "prices": [float(j)]}
        for i in range(width)
        for j in range(fan)
    ]
    return {"assets": 1, "periods": 2, "nodes": nodes}


def test_wide_then_narrow_tree_matches_the_reference_in_node_sized_memory():
    # 2000 families of 2 under one family of 2000: sibling sums must not
    # pad every family to the widest one (2001 x 2000 entries)
    doc = _wide_then_narrow(2000, 2)
    assert_same(doc)
    broken = copy.deepcopy(doc)
    broken["nodes"][-1]["p"] = 0.5 + 2e-9
    assert_same(broken)
    tracemalloc.start()
    try:
        market_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # about 1.6 MB when each family is summed alone


def _doc(periods, *rows):
    nodes = []
    for nid, parent, t, p, price in rows:
        node = {"id": nid, "parent": parent, "t": t, "prices": [price]}
        if p is not None:
            node["p"] = p
        nodes.append(node)
    return {"assets": 1, "periods": periods, "nodes": nodes}


@pytest.mark.parametrize(
    "doc, message",
    [
        # a leaf listed first, past the horizon, ahead of a misplaced one
        (_doc(1, ("a1", "a", 2, 1.0, 1.0), ("r", None, 0, None, 1.0),
              ("a", "r", 1, 1.0, 1.0)), "sits beyond the horizon"),
        # a repeated id wins over an unknown parent listed before it
        (_doc(1, ("r", None, 0, None, 1.0), ("a", "ghost", 1, 0.5, 1.0),
              ("b", "r", 1, 0.5, 1.0), ("b", "r", 1, 0.5, 1.0)), "duplicate"),
        # of two families off their sum, the parent listed first is named
        (_doc(2, ("r", None, 0, None, 1.0), ("b", "r", 1, 0.5, 1.0),
              ("a", "r", 1, 0.5, 1.0), ("a1", "a", 2, 0.7, 1.0),
              ("b1", "b", 2, 0.9, 1.0)), "children of 'b'"),
        # a wrong depth wins over a later leaf off the horizon
        (_doc(2, ("r", None, 0, None, 1.0), ("a", "r", 3, 1.0, 1.0),
              ("a1", "a", 2, 1.0, 1.0)), "has t = 3"),
    ],
)
def test_first_fault_in_file_order_wins(doc, message):
    assert_same(doc)
    with pytest.raises(Exception, match=message):
        market_from_dict(doc)


@settings(max_examples=60)
@given(
    st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
    st.integers(0, 10**6), st.sampled_from((0.3, 1.7)), st.integers(0, 2),
)
def test_generator_draws_match_the_reference(
    branching, periods, assets, seed, spread, attempt
):
    # the first `attempt` draws are rejected, so the stream, and the spare
    # gauss value, must carry from one attempt to the next
    real = mmvport.market.check_viability
    calls = []

    def reject_first(tree):
        calls.append(tree)
        return len(calls) > attempt and real(tree)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmvport.market, "check_viability", reject_first)
        tree = generate_random_market(
            seed=seed, periods=periods, branching=branching, assets=assets,
            spread=spread,
        )
    ref = reference_market_from_dict(
        reference_random_document(seed, periods, branching, assets, spread, attempt)
    )
    assert tree.ids == ref["ids"]
    parents = [None if k < 0 else tree.ids[k] for k in tree.parent.tolist()]
    assert parents == ref["parent"]
    for name in ("cond_prob", "path_prob", "prices"):
        assert getattr(tree, name).tobytes() == ref[name].tobytes(), name
    # the generator's depths and children are those loading its file builds
    loaded = market_from_dict(market_to_dict(tree))
    for name in ("t", "child_offsets", "child_index"):
        got, want = getattr(tree, name), getattr(loaded, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def assert_draws_alike(rng, loop, periods, branching, assets, spread, attempts):
    """Successive one-block trees from ``rng`` equal the node-by-node ones
    from ``loop``, a copy of it, and leave the same state after each,
    the spare gauss value included."""
    for _ in range(attempts):
        got = mmvport.market._random_tree(rng, periods, branching, assets, spread)
        want = reference_random_tree(loop, periods, branching, assets, spread)
        assert got.ids == want.ids
        for name in ("parent", "t", "cond_prob", "path_prob", "prices"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert rng.getstate()[:2] == loop.getstate()[:2]
        assert repr(rng.gauss_next) == repr(loop.gauss_next)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5), st.integers(1, 4), st.integers(1, 3),
    st.integers(0, 2**32 - 1), st.sampled_from((0.3, 1.7)), st.booleans(),
)
def test_one_block_draws_equal_the_node_by_node_loop(
    branching, periods, assets, seed, spread, spare
):
    # d b odd or even, and a spare gauss value in hand or not when an
    # attempt starts, as after a rejected attempt
    rng, loop = random.Random(seed), random.Random(seed)
    if spare:
        rng.gauss(0.0, 1.0)
        loop.gauss(0.0, 1.0)
    assert_draws_alike(rng, loop, periods, branching, assets, spread, 3)


@pytest.mark.parametrize("shape", [(2, 10, 1), (3, 6, 3), (5, 4, 2), (2, 8, 3)])
def test_one_block_draws_of_larger_trees_equal_the_loop(shape):
    # enough nodes for the sums to run inside numpy
    branching, periods, assets = shape
    assert_draws_alike(random.Random(11), random.Random(11), periods, branching,
                       assets, 0.3, 2)


def test_one_block_draws_keep_the_sign_of_a_zero_gaussian():
    # a gauss radius draw of exactly 0 gives sqrt(-0.0) = -0.0, so the pair
    # is two signed zeros; the spare one must be carried with its sign.  In
    # a (3, 1, 1) tree the second pair's radius reads Mersenne Twister
    # words 20 and 21: set the state so that they are 0 (tempering maps
    # 0 to 0) and the next word read is word 0.
    version, words, _ = random.Random(3).getstate()
    words = list(words)
    words[20] = words[21] = 0
    state = (version, tuple(words[:624]) + (0,), None)
    rng, loop = random.Random(), random.Random()
    rng.setstate(state)
    loop.setstate(state)
    assert_draws_alike(rng, loop, 1, 3, 1, 0.3, 2)


SMALL_TERMS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 0.1, 0.2, 0.3, 1.0,
               -1.0, 3.0, 1e16, -1e16)
SUM_TERMS = {
    "small": SMALL_TERMS,
    "huge": SMALL_TERMS + (1e308, -1e308, 1.7e308),
    "all": SMALL_TERMS + (1e308, -1e308, 1.7e308, math.inf, -math.inf, math.nan),
}


@settings(max_examples=200)
@given(st.integers(1, 5), st.integers(1, 400), st.sampled_from(sorted(SUM_TERMS)),
       st.integers(0, 2**32 - 1))
def test_row_sums_are_math_fsum(width, rows, pool, seed):
    # the sibling and centring sums of the parser and generator: signed
    # zeros, subnormals, ties, and sums past the float range, in arrays
    # below and past the crossover of the exact sum
    rng = np.random.default_rng(seed)
    terms = rng.choice(SUM_TERMS[pool], size=(rows, width))
    try:
        want = np.array([math.fsum(row) for row in terms.tolist()])
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            mmvport.market._fsum_rows(terms)
        return
    assert mmvport.market._fsum_rows(terms).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "seed, spread", [(0, 1e300), (1, 1e308), (2, 1.7e308), (3, 1e155)]
)
def test_generator_refuses_prices_past_the_float_range_like_the_reference(seed, spread):
    doc = reference_random_document(seed, 4, 3, 2, spread)
    with pytest.raises(ParseError) as ref:
        reference_market_from_dict(doc)
    with pytest.raises(ParseError) as got:
        generate_random_market(
            seed=seed, periods=4, branching=3, assets=2, spread=spread
        )
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# law CSV files

NUMERALS = (
    "1", "-1", "2.5", "0.1", "-2.75", "3", "0", "-0", " 2 ", "1_0", "+7",
    "1e5", "1e308", "1e-300", '"4"', '" 5 "', "\t6\t",
)
ODD_CELLS = (
    "nan", "inf", "-inf", "1e999", "-1e999", "", "  ", "abc", "value", "w",
    '"1,5"', "0x10", "1__0", "--1", '"7\n"',
)
NAMES = ("value", "weight", "w", "junk", " b ", "1")
COLUMNS = (
    "value", "w", "value,w", "w,value", "0", "1", " 1 ", "0,1",
    "1,0", "0,2", "2", "5", "x", "0,1,2", ",", "value,",
)
BLANK_ROWS = ("", "   ", " , ", ",", '""', "\t")
WIDE_CELL = "1" * 200_000  # past the CSV module's field limit


@st.composite
def law_text(draw):
    width = draw(st.integers(1, 3))
    ragged = draw(st.integers(0, 5)) == 0
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        w = draw(st.integers(1, 4)) if ragged and draw(st.booleans()) else width
        cells = [
            draw(st.sampled_from(NUMERALS if draw(st.integers(0, 11)) else ODD_CELLS))
            for _ in range(w)
        ]
        rows.append(",".join(cells))
    if draw(st.booleans()):
        rows.insert(0, ",".join(draw(st.sampled_from(NAMES)) for _ in range(width)))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BLANK_ROWS)))
    if draw(st.integers(0, 29)) == 13:
        rows[draw(st.integers(0, len(rows) - 1))] = WIDE_CELL
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(rows) + (end if draw(st.booleans()) else "")


def read_outcome(read, path, col):
    """(value bits, probability bits), or the error's class and text."""
    try:
        X = read(str(path), col)
    except InputError as exc:
        return type(exc), str(exc)
    return X.values.tobytes(), X.law.probabilities.tobytes()


def assert_reads_alike(path, col):
    """The reader and the cell-by-cell reference agree on the law file."""
    want = read_outcome(reference_read_law, path, col)
    got = read_outcome(_read_law, path, col)
    if want[0] is not ValidationError or got == want:
        assert got == want
        return
    # the reference lets the law or the payoff refuse a weight or a value;
    # the reader names the cell
    assert got[0] is ValidationError
    named = re.fullmatch(
        re.escape(str(path)) + r":(\d+): (value|weight) column has "
        r"(non-finite|non-positive|underflowing) ('.*')",
        got[1],
    )
    assert named is not None, got[1]
    label = "value" if want[1].startswith("payoff") else "weight"
    assert named.group(2) == label
    cell = float(ast.literal_eval(named.group(4)))
    if named.group(3) == "non-finite":
        assert not math.isfinite(cell)
    elif named.group(3) == "non-positive":
        assert label == "weight" and cell <= 0.0
    else:  # a positive weight whose probability the law refuses as 0
        assert want[1] == "atom probabilities must be strictly positive"
        assert label == "weight" and 0.0 < cell < math.inf


@settings(max_examples=400)
@given(law_text(), st.one_of(st.none(), st.sampled_from(COLUMNS)))
def test_law_reader_matches_the_cell_by_cell_reference(tmp_path_factory, text, col):
    path = tmp_path_factory.getbasetemp() / "law.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_reads_alike(path, col)


@pytest.mark.parametrize("text, col", [
    ("value\n1\n\n2\n", None),
    ("value\n1\n2\n\n\n", None),
    ("value\n \n", None),
    ("value\n \n", "junk"),  # no data rows, before the column is looked up
    ("value\n1\n\u3000\n2\n", None),
    ("1,2\n\n3,4\n", None),  # a row of width 1 among rows of width 2
    ("1,2\n,\n3,4\n", None),
    ("value,weight\n1,1\n , \n2,1\n", "value"),
    ("a,b,c\n1,2,3\n,,\n4,5,6\n", "2"),
    ("value\n1\n\nabc\n", None),
    ("value\n1\n\nnan\n", None),
])
def test_rows_with_no_visible_text_behind_a_visible_first_line(tmp_path, text, col):
    # the reader splits such a file without screening its rows first
    path = tmp_path / "law.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_reads_alike(path, col)


# lines the csv module reads as rows with no visible text, though str.strip
# or str.splitlines would treat some of them apart
LONG_BLANK_ROWS = BLANK_ROWS + ("\x0b", "\x0c", "\x1c", " \x0c, \x1c ,", "\u3000")
# a line past the CSV field limit with commas: two cells under the limit
# (leading zeros, so the values are 1 and 2), many short cells, or one cell
# past the limit among short ones
LONG_LINES = (
    "0" * 99_999 + "1," + "0" * 99_999 + "2",
    "1," * 70_000 + "1",
    "1," + "1" * 140_000,
)
# cells that stop the one float map: a NUL, padding float does not strip,
# and what the cell-by-cell reference refuses
STOPPERS = ("1\x002", "\x1c3\x1c", "\u30004", "5\x1f", "abc", "nan", "-1", "0", "")


@st.composite
def long_law_text(draw):
    """A law file of 1 000 to 3 000 rows of drawn numbers, with a few of
    the lines that take the reader off its one-split path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 3))
    n = draw(st.integers(1000, 3000))
    cells = rng.normal(0.3, 2.0, (n, width))
    cells[:, 1:] = np.abs(cells[:, 1:]) + 0.1  # positive weights
    rows = [",".join(map(repr, row)) for row in cells.tolist()]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
        row = rows[i].split(",")
        row[j] = draw(st.sampled_from(STOPPERS))
        rows[i] = ",".join(row)
    header = draw(st.sampled_from(("none", "plain", "quoted")))
    if header != "none":
        names = ("value", "weight", "junk")[:width]
        quote = '"' if header == "quoted" else ""
        rows.insert(0, ",".join(f"{quote}{name}{quote}" for name in names))
    for _ in range(draw(st.integers(0, 6))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(LONG_BLANK_ROWS)))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(LONG_LINES)))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join(rows) + (end if draw(st.booleans()) else "")


@settings(max_examples=120, deadline=None)
@given(long_law_text(), st.one_of(st.none(), st.sampled_from(
    ("value", "weight", "value,weight", "0", "1", "0,1", "2,1"))))
def test_long_law_reader_matches_the_cell_by_cell_reference(tmp_path_factory, text, col):
    path = tmp_path_factory.getbasetemp() / "long-law.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_reads_alike(path, col)


@pytest.mark.parametrize("data", [
    b"value\n" + b"1\n" * 10_000 + b"\xff\n",  # past the first chunk read
    b"\xff\xfe1\n",
    b"value\n" + b"1\n" * 5_000 + b"1" * 140_000 + b"\n\xff",  # the cell first
])
def test_law_reader_refuses_a_non_utf8_file_like_the_reference(tmp_path, data):
    path = tmp_path / "law.csv"
    path.write_bytes(data)
    want = read_outcome(reference_read_law, path, None)
    assert want[0] is ParseError
    assert read_outcome(_read_law, path, None) == want
