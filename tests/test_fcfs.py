"""End-to-end market analysis: closed-form quantities, the equivalence
tests, existence of free cash-flow streams, and certificate verification."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from mmvport import (
    CertificateInvalid,
    Strategy,
    ViabilityError,
    analyze,
    report_to_dict,
    terminal_wealth,
    verify_fcfs_certificate,
)

from conftest import small_tree

TRI_SR = math.sqrt(289 / 801)
TRI_SR_M = math.sqrt(29) / 4


class TestGoldenTrinomial:
    def test_values(self, trinomial):
        r = analyze(trinomial)
        assert r.u == pytest.approx(289 / 2180, abs=1e-12)
        assert r.u_m == pytest.approx(29 / 90, abs=1e-12)
        assert r.u_mv == pytest.approx(289 / 1602, abs=1e-12)
        assert r.u_mmv == pytest.approx(29 / 32, abs=1e-12)
        assert r.sr_max == pytest.approx(TRI_SR, abs=1e-12)
        assert r.sr_m_max == pytest.approx(TRI_SR_M, abs=1e-12)
        assert r.c_hat_m == pytest.approx(29 / 16, abs=1e-10)
        assert r.gap == pytest.approx(TRI_SR_M - TRI_SR, abs=1e-10)

    def test_verdict(self, trinomial):
        r = analyze(trinomial)
        assert r.equiv == {"a": False, "b": False, "c": False, "d": False}
        assert r.fcfs_exists is True
        assert r.marginal is False
        assert r.fcfs_payoff == pytest.approx([0.0, 2 / 9, 16 / 9], abs=1e-9)
        assert verify_fcfs_certificate(r) is True

    def test_densities(self, trinomial):
        r = analyze(trinomial)
        assert r.signed_density == pytest.approx(
            [-610 / 801, 920 / 801, 1260 / 801], abs=1e-10
        )
        assert r.nonneg_density == pytest.approx([0.0, 0.625, 5.0], abs=1e-9)


class TestGoldenBinomial:
    def test_values(self, binomial):
        r = analyze(binomial)
        assert r.u == pytest.approx(0.05, abs=1e-12)
        assert r.u_m == pytest.approx(0.05, abs=1e-12)
        assert r.u_mv == pytest.approx(1 / 18, abs=1e-12)
        assert r.u_mmv == pytest.approx(1 / 18, abs=1e-12)
        assert r.sr_max == pytest.approx(1 / 3, abs=1e-12)
        assert r.sr_m_max == pytest.approx(1 / 3, abs=1e-12)
        assert r.c_hat_m == pytest.approx(1 / 9, abs=1e-10)
        assert r.gap <= 1e-12

    def test_verdict(self, binomial):
        r = analyze(binomial)
        assert r.equiv == {"a": True, "b": True, "c": True, "d": True}
        assert r.fcfs_exists is False
        assert r.marginal is False
        # a candidate payoff is still reported: the hull optimum is capped
        assert r.fcfs_payoff is not None
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(r)


class TestDegenerateMarkets:
    def test_flat_tree(self, flat_tree):
        r = analyze(flat_tree)
        assert r.u == pytest.approx(0.0, abs=1e-12)
        assert r.u_m == pytest.approx(0.0, abs=1e-12)
        assert r.sr_max == pytest.approx(0.0, abs=1e-12)
        assert r.sr_m_max == pytest.approx(0.0, abs=1e-12)
        assert r.equiv == {"a": True, "b": True, "c": True, "d": True}
        assert r.fcfs_exists is False
        assert r.fcfs_payoff is None

    def test_arbitrage_rejected(self, arbitrage_tree):
        # strictly increasing prices: the martingale constraints are
        # infeasible over nonnegative densities, so no bound is reported
        with pytest.raises(ViabilityError) as info:
            analyze(arbitrage_tree)
        assert info.value.best_bound is None

    def test_boundary_market_rejected_with_bound(self):
        from mmvport import market_from_dict

        # feasible only with a zero somewhere: z_up must vanish
        tree = market_from_dict(
            {
                "assets": 1,
                "periods": 1,
                "nodes": [
                    {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                    {"id": "u", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
                    {"id": "f", "parent": "r", "t": 1, "p": 0.5, "prices": [1.0]},
                ],
            }
        )
        with pytest.raises(ViabilityError) as info:
            analyze(tree)
        assert info.value.best_bound is not None
        assert info.value.best_bound <= 1e-9


class TestInvariants:
    def test_sr_max_dominates_random_strategies(self, trinomial):
        rng = np.random.default_rng(99)
        best = -math.inf
        for _ in range(1000):
            vec = rng.normal(size=1) * 3.0
            w = terminal_wealth(trinomial, Strategy.from_vector(trinomial, vec), 0.0)
            m = float(trinomial.leaf_probabilities @ w.values)
            v = float(trinomial.leaf_probabilities @ (w.values - m) ** 2)
            if v > 0:
                best = max(best, m / math.sqrt(v))
        assert analyze(trinomial).sr_max >= best - 1e-3

    def test_ordering_and_consistency(self):
        for seed in range(20):
            tree = small_tree(seed)
            r = analyze(tree)
            assert 0.0 <= r.u <= r.u_m < 0.5
            assert r.u_mv >= r.u - 1e-12
            assert r.u_mmv >= r.u_m - 1e-12
            assert r.gap >= -1e-10
            assert r.sr_max == pytest.approx(
                math.sqrt(max(2 * r.u_mv, 0.0)), abs=1e-9
            )
            assert r.sr_m_max == pytest.approx(
                math.sqrt(max(2 * r.u_mmv, 0.0)), abs=1e-9
            )
            if not r.marginal:
                if r.fcfs_exists:
                    assert r.gap > 1e-7
                    assert verify_fcfs_certificate(r) is True
                else:
                    assert r.gap <= 1e-7


class TestBoundaryLayer:
    def test_pinned_marginal_tree(self):
        # deterministic market whose signed density dips a few 1e-5 below
        # zero: the value-based equivalence routes are blind to a dip that
        # small (the value gap grows only quadratically in the dip) while
        # the vector routes see it linearly, so the vote splits and the
        # verdict must fall to the density route, flagged as marginal
        from mmvport import generate_random_market

        tree = generate_random_market(seed=1116, periods=3, branching=4, assets=1)
        r = analyze(tree)
        assert r.marginal is True
        assert r.equiv["a"] is True and r.equiv["b"] is True
        assert r.equiv["c"] is False and r.equiv["d"] is False
        assert r.fcfs_exists is True
        # the improvement is real but smaller than the certification
        # tolerance, so the verifier honestly refuses to attest it
        assert r.u_mmv - r.u_mv > 0.0
        assert r.u_mmv - r.u_mv < 1e-9
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(r)


class TestCertificateVerification:
    def test_tampered_payoff_rejected(self, trinomial):
        r = analyze(trinomial)
        zeroed = dataclasses.replace(r, fcfs_payoff=np.zeros_like(r.fcfs_payoff))
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(zeroed)
        missing = dataclasses.replace(r, fcfs_payoff=None)
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(missing)
        negative = dataclasses.replace(
            r, fcfs_payoff=r.fcfs_payoff - 2.0 * np.max(r.fcfs_payoff)
        )
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(negative)

    def test_tampered_values_rejected(self, trinomial):
        r = analyze(trinomial)
        # claiming a smaller improved value breaks the leftover-score check
        shrunk = dataclasses.replace(r, u_mmv=r.u_mv)
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(shrunk)

    @pytest.mark.parametrize("mutation, message", [
        ("negative_atom", "certificate payoff has a negative atom"),
        ("off_by_1e-6", "certificate payoff does not match (1 - W_m)^+ from the "
                        "reported strategy"),
        ("nothing_withdrawn", "existence claimed but no cash is ever withdrawn"),
    ])
    def test_each_clause_names_itself(self, trinomial, mutation, message):
        # each mutation passes every clause before its own
        r = analyze(trinomial)
        payoff = r.fcfs_payoff.copy()
        if mutation == "negative_atom":
            payoff[np.argmin(payoff)] = -1e-3
            mutated = dataclasses.replace(r, fcfs_payoff=payoff)
        elif mutation == "off_by_1e-6":
            payoff[np.argmax(payoff)] += 1e-6
            mutated = dataclasses.replace(r, fcfs_payoff=payoff)
        else:
            # no holdings: W_m = 0, so (1 - W_m)^+ is 1 and nothing lies above 1
            held = r.allocation.hull_strategy.vector
            idle = Strategy.from_vector(trinomial, np.zeros_like(held))
            allocation = dataclasses.replace(r.allocation, hull_strategy=idle)
            mutated = dataclasses.replace(
                r, allocation=allocation, fcfs_payoff=np.ones_like(payoff))
        assert np.max(mutated.fcfs_payoff) > 0.0
        with pytest.raises(CertificateInvalid) as info:
            verify_fcfs_certificate(mutated)
        assert str(info.value) == message

    def test_nonexistence_claim_is_an_error(self, trinomial):
        r = analyze(trinomial)
        flipped = dataclasses.replace(r, fcfs_exists=False)
        with pytest.raises(CertificateInvalid):
            verify_fcfs_certificate(flipped)


class TestReportSerialization:
    EXPECTED_KEYS = {
        "u",
        "u_m",
        "u_mv",
        "u_mmv",
        "sr_max",
        "sr_m_max",
        "c_hat_m",
        "equiv",
        "fcfs_exists",
        "fcfs_payoff",
        "signed_density",
        "nonneg_density",
        "strategy",
        "marginal",
    }

    def test_key_set(self, trinomial):
        d = report_to_dict(analyze(trinomial))
        assert set(d) == self.EXPECTED_KEYS
        assert set(d["equiv"]) == {"a", "b", "c", "d"}

    def test_json_round_trip(self, trinomial, binomial):
        for tree in (trinomial, binomial):
            r = analyze(tree)
            d = report_to_dict(r)
            again = json.loads(json.dumps(d))
            assert again["u"] == pytest.approx(r.u, abs=1e-10)
            assert again["u_mmv"] == pytest.approx(r.u_mmv, abs=1e-10)
            assert again["sr_m_max"] == pytest.approx(r.sr_m_max, abs=1e-10)
            assert again["fcfs_exists"] is r.fcfs_exists
            if r.fcfs_payoff is None:
                assert again["fcfs_payoff"] is None
            else:
                assert np.allclose(again["fcfs_payoff"], r.fcfs_payoff, atol=1e-10)
            assert np.allclose(again["signed_density"], r.signed_density, atol=1e-10)

    def test_strategy_block_covers_nonterminals(self, trinomial):
        d = report_to_dict(analyze(trinomial))
        assert set(d["strategy"]) == set(trinomial.nonterminal_ids)
        vec = d["strategy"][trinomial.nonterminal_ids[0]]
        assert vec == pytest.approx([45 / 16 * 7 / 9], abs=1e-8)


def test_values_built_on_first_read_are_pinned():
    # neither CLI command reads these; the sha holds their bits as built
    # eagerly, so a value built on first read must come out the same
    from mmvport import check_viability, generate_random_market, load_packaged_market

    shapes = [(2 + i % 3, 1 + i % 3, 1 + i % 2, i) for i in range(6)]
    shapes += [(2, 8, 1, 0), (4, 4, 3, 0)]
    trees = [load_packaged_market("trinomial"), load_packaged_market("binomial")]
    trees += [generate_random_market(seed=s, periods=t, branching=b, assets=d)
              for b, t, d, s in shapes]
    digest = hashlib.sha256()
    for tree in trees:
        report = analyze(tree)
        digest.update(check_viability(tree).density.tobytes())
        for solution in (report.quad_solution, report.hull_solution):
            digest.update(np.float64(solution.gradient_norm).tobytes())
        digest.update(report.allocation.payoff.values.tobytes())
        digest.update("\n".join(report.nonneg_solution.active_set).encode())
    assert digest.hexdigest() == (
        "bef914cff258fa7f1465d90882e0d3bfdbbc690773a1dc74763275de38b7e659"
    )


class TestSweepCounts:
    @pytest.mark.parametrize("verify", [False, True])
    def test_one_analyze_sweeps_each_process_once(
        self, monkeypatch, tmp_path, capsys, verify
    ):
        # viability's backward sweep runs once per tree, one floor step per
        # family, and factors each family's bases in one call; a one-asset
        # family whose children all have a floor takes the floor-only step,
        # which builds no q; a forward sweep runs only for W_q,
        # W_m and --verify's W_m, a moment aggregation once per density
        # check, and nothing builds a value no command reads
        from mmvport import generate_random_market, induction, load_packaged_market, market
        from mmvport.cli import main
        from mmvport.induction import TreeLevels
        from mmvport.market import market_to_json

        trees = [load_packaged_market("trinomial"),
                 generate_random_market(seed=0, periods=3, branching=4, assets=2)]
        paths = []
        for k, tree in enumerate(trees):
            paths.append(tmp_path / f"m{k}.json")
            paths[-1].write_text(market_to_json(tree), encoding="utf-8")
        calls = {}

        def counted(owner, name, note=lambda result, *args: None):
            original = getattr(owner, name)

            def wrapper(*args):
                result = original(*args)
                calls.setdefault(name, []).append(note(result, *args))
                return result

            monkeypatch.setattr(owner, name, wrapper)

        counted(market, "_node_local_viability", lambda cert, levels: cert)
        counted(induction, "_family_floors", lambda _, dS, *rest: len(dS))
        counted(induction, "_one_asset_floor", lambda _, s, r: len(s))
        counted(induction, "_floor_bases", lambda _, dS: len(dS))
        counted(TreeLevels, "propagate")
        counted(TreeLevels, "increment_moments")
        argv = ["analyze", *map(str, paths)] + (["--verify"] if verify else [])
        assert main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        # both claim a free cash-flow stream, so --verify rebuilds W_m twice
        assert all(r["report"]["fcfs_exists"] for r in reports)
        nonterminal = sum(len(tree.nonterminal_ids) for tree in trees)
        # the trinomial's one family takes the floor-only step, the two-asset
        # tree's three families _family_floors, deepest first
        assert calls["_one_asset_floor"] == [len(trees[0].nonterminal_ids)]
        steps = calls["_family_floors"]
        assert steps == [16, 4, 1]
        assert sum(steps) + sum(calls["_one_asset_floor"]) == nonterminal
        families = sum(len(tree.levels.families) for tree in trees)
        assert len(steps) + len(calls["_one_asset_floor"]) == families
        # the two-asset tree's families of 16, 4 and 1 nodes, 6 bases each,
        # are each factored in one call, deepest first
        assert calls["_floor_bases"] == [16, 4, 1]
        assert len(calls["propagate"]) == 2 * (2 + verify)
        assert len(calls["increment_moments"]) == 2 * 2
        # the certificate's density product has not run
        certs = calls["_node_local_viability"]
        assert [c.viable for c in certs] == [True, True]
        assert not any("density" in vars(c) for c in certs)
