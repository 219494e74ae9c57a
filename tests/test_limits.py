"""The paper's identities measured on the tree engine.

Fact 0, who attains what: on a market with a free cash-flow stream, the
quadratic optimum W_q attains the market's maximal Sharpe ratio and the
truncated (monotone hull) optimum W_m attains its maximal monotone Sharpe
ratio, which is also the Sharpe ratio of W_m capped at its own truncation
level.  The quadratic optimum's monotone Sharpe ratio stays below it.
The trees come from scanning generator seeds with wide price spreads,
where free cash-flow streams are common.
"""

import pytest

from mmvport import analyze, generate_random_market, sharpe_ratio
from mmvport.monotone_sharpe import monotone_sharpe
from mmvport.probability import _capped_sharpe_ratios

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


@pytest.mark.parametrize("shape", [(3, 2, 1), (4, 1, 2)], ids=["3x2x1", "4x1x2"])
def test_fact_0_each_optimum_attains_its_sharpe_ratio(shape):
    reports = fcfs_reports(*shape)
    assert len(reports) == TREES_PER_SHAPE
    for report in reports:
        W_q, W_m = report.quad_solution.payoff, report.hull_solution.payoff
        assert sharpe_ratio(W_q) == pytest.approx(report.sr_max, rel=REL)
        hull = monotone_sharpe(W_m)
        assert hull.sr_m == pytest.approx(report.sr_m_max, rel=REL)
        capped = _capped_sharpe_ratios(W_m, [hull.truncation_level])[0]
        assert capped == pytest.approx(report.sr_m_max, rel=REL)
        assert monotone_sharpe(W_q).sr_m <= report.sr_m_max * (1.0 + REL)
