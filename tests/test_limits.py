"""The paper's identities measured on the tree engine.

Fact 0, who attains what: on a market with a free cash-flow stream, the
quadratic optimum W_q attains the market's maximal Sharpe ratio and the
truncated (monotone hull) optimum W_m attains its maximal monotone Sharpe
ratio, which is also the Sharpe ratio of W_m capped at its own truncation
level.  The quadratic optimum's monotone Sharpe ratio stays below it.
The trees come from scanning generator seeds with wide price spreads,
where free cash-flow streams are common, and from i.i.d. trees whose
one-step law binds: the README's two-asset jump law and a one-asset one.

Fact 1, compounding: when every node repeats one step, the squared
maximal Sharpe ratios compound over the T periods,
1 + sr_max^2 = (1 + sr_1^2)^T and 1 + sr_m_max^2 = (1 + sr_m,1^2)^T,
with sr_1 and sr_m,1 those of the one-period market.  Such a tree has a
free cash-flow stream exactly when its one-period market has one; this
is compared on laws whose one-step gap sr_m,1 - sr_1 is exactly 0 or at
least 1e-6, clear of the vote's tolerances.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mmvport import analyze, generate_random_market, sharpe_ratio
from mmvport.monotone_sharpe import monotone_sharpe
from mmvport.probability import _capped_sharpe_ratios

from oracles import iid_tree

REL = 1e-12
TREES_PER_SHAPE = 5


def fcfs_reports(branching, periods, assets, seeds=range(100)):
    """Reports of the first markets with a free cash-flow stream, by seed."""
    reports = []
    for seed in seeds:
        report = analyze(generate_random_market(
            seed=seed, periods=periods, branching=branching, assets=assets,
            spread=1.0,
        ))
        if report.fcfs_exists:
            reports.append(report)
            if len(reports) == TREES_PER_SHAPE:
                break
    return reports


def assert_fact_0(report):
    W_q, W_m = report.quad_solution.payoff, report.hull_solution.payoff
    assert sharpe_ratio(W_q) == pytest.approx(report.sr_max, rel=REL)
    hull = monotone_sharpe(W_m)
    assert hull.sr_m == pytest.approx(report.sr_m_max, rel=REL)
    capped = _capped_sharpe_ratios(W_m, [hull.truncation_level])[0]
    assert capped == pytest.approx(report.sr_m_max, rel=REL)
    assert monotone_sharpe(W_q).sr_m <= report.sr_m_max * (1.0 + REL)


@pytest.mark.parametrize("shape", [(3, 2, 1), (4, 1, 2)], ids=["3x2x1", "4x1x2"])
def test_fact_0_each_optimum_attains_its_sharpe_ratio(shape):
    reports = fcfs_reports(*shape)
    assert len(reports) == TREES_PER_SHAPE
    for report in reports:
        assert_fact_0(report)


# (p, moves, root) of one-step laws whose truncated step binds
BINDING_LAWS = {
    # the README's two-asset law, whose rare jump makes every node bind
    "readme-jump": ([0.1, 0.4, 0.3, 0.2],
                    [[10.0, 0.2], [1.0, 1.0], [-1.0, 0.5], [0.5, -1.0]], [1.0, 1.0]),
    # one asset: E[dS] times the jump passes E[dS^2]
    "one-asset-jump": ([0.1, 0.5, 0.4], [[10.0], [0.5], [-0.1]], [1.0]),
}


@pytest.mark.parametrize("periods", [2, 3, 4])
@pytest.mark.parametrize("law", sorted(BINDING_LAWS))
def test_fact_0_on_binding_iid_trees(law, periods):
    report = analyze(iid_tree(periods, *BINDING_LAWS[law]))
    assert report.fcfs_exists
    assert_fact_0(report)


@st.composite
def one_step_laws(draw):
    """(p, moves) of a viable one-step market of one or two assets.

    The moves are priced to zero by random positive weights, as in the
    ragged markets of the CLI tests.  The first child is rare, and the first
    asset may jump there, which often gives a free cash-flow stream.
    """
    assets = draw(st.integers(1, 2))
    b = draw(st.integers(assets + 1, 4))
    weights = st.lists(st.floats(0.1, 1.0), min_size=b, max_size=b)
    p, q = np.array(draw(weights)), np.array(draw(weights))
    cells = st.lists(st.floats(-1.0, 1.0), min_size=b * assets, max_size=b * assets)
    raw = np.array(draw(cells)).reshape(b, assets)
    raw[0, 0] += draw(st.sampled_from([0.0, 4.0, 8.0, 12.0]))
    p[0], q[0] = 0.05 * p[0], 0.005 * q[0]
    moves = 0.3 * (raw - (q / q.sum()) @ raw)
    # the moves span every asset direction, well clear of degeneracy
    assume(np.linalg.svd(moves, compute_uv=False).min() > 1e-2)
    return (p / p.sum()).tolist(), moves.tolist()


@given(one_step_laws(), st.integers(2, 5))
def test_fact_1_squared_sharpe_ratios_compound(law, periods):
    p, moves = law
    root = [1.0] * len(moves[0])
    one = analyze(iid_tree(1, p, moves, root))
    many = analyze(iid_tree(periods, p, moves, root))
    for got, step in ((many.sr_max, one.sr_max), (many.sr_m_max, one.sr_m_max)):
        want = (1.0 + step**2) ** periods
        assert abs(1.0 + got**2 - want) <= REL * want


@given(one_step_laws(), st.integers(2, 5))
def test_fact_1_a_free_cash_flow_stream_exists_with_its_step(law, periods):
    p, moves = law
    root = [1.0] * len(moves[0])
    one = analyze(iid_tree(1, p, moves, root))
    assume(one.gap == 0.0 or one.gap >= 1e-6)
    many = analyze(iid_tree(periods, p, moves, root))
    assert many.fcfs_exists == one.fcfs_exists
