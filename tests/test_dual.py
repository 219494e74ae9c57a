"""Variance-optimal signed and nonnegative densities against exact oracles."""

from fractions import Fraction

import numpy as np
import pytest

from mmvport import (
    DualSolution,
    MeasureDensity,
    SolverFailure,
    generate_random_market,
    optimal_truncated,
    variance_optimal_nonneg,
    variance_optimal_signed,
)

from conftest import small_tree
from oracles import brute_nonneg_density, constraint_system, exact_signed_density


class TestSignedDensity:
    def test_trinomial_exact_fractions(self, trinomial):
        sol = variance_optimal_signed(trinomial)
        expected = (Fraction(-610, 801), Fraction(920, 801), Fraction(1260, 801))
        for got, want in zip(sol.density.values, expected):
            assert got == pytest.approx(float(want), abs=1e-12)
        assert sol.second_moment == pytest.approx(1090 / 801, abs=1e-12)
        assert sol.signed is True
        assert sol.active_set == ()

    def test_binomial_exact_fractions(self, binomial):
        sol = variance_optimal_signed(binomial)
        assert sol.density.values == pytest.approx([2 / 3, 4 / 3], abs=1e-12)
        assert sol.second_moment == pytest.approx(10 / 9, abs=1e-12)
        assert sol.signed is False

    def test_matches_rational_oracle(self):
        checked = 0
        for seed in range(60):
            tree = small_tree(seed)
            if tree.n_leaves > 16:
                continue  # exact rational elimination gets slow beyond this
            exact = exact_signed_density(tree)
            if exact is None:
                continue
            z_frac, second_frac = exact
            sol = variance_optimal_signed(tree)
            assert np.max(
                np.abs(sol.density.values - np.array([float(f) for f in z_frac]))
            ) < 1e-7
            assert sol.second_moment == pytest.approx(float(second_frac), rel=1e-9)
            checked += 1
        assert checked >= 30

    def test_constraints_and_self_duality(self):
        for seed in range(25):
            tree = small_tree(seed)
            sol = variance_optimal_signed(tree)
            A, b = constraint_system(tree)
            z = sol.density.values
            assert np.max(np.abs(A @ z - b)) < 1e-8
            p = tree.leaf_probabilities
            # minimal-second-moment density satisfies E[z^2] = E[z] = 1 scaled:
            # the optimum lies in the constraint affine space closest to 0, so
            # z is itself a linear image of the constraint rows and
            # E[z * z] equals the multiplier paired with the E[z] = 1 row.
            assert float(p @ (z * z)) == pytest.approx(sol.second_moment, rel=1e-12)
            assert sol.second_moment >= 1.0 - 1e-10  # Jensen: E[z^2] >= (E[z])^2


class TestNonnegDensity:
    def test_trinomial_exact(self, trinomial):
        sol = variance_optimal_nonneg(trinomial)
        assert sol.density.values == pytest.approx([0.0, 0.625, 5.0], abs=1e-10)
        assert sol.second_moment == pytest.approx(45 / 16, abs=1e-10)
        assert sol.signed is False
        assert sol.active_set == (trinomial.leaf_ids[0],)

    def test_fast_path_when_signed_is_nonneg(self, binomial):
        signed = variance_optimal_signed(binomial)
        nonneg = variance_optimal_nonneg(binomial)
        assert not signed.signed
        assert nonneg.density.values == pytest.approx(
            signed.density.values, abs=1e-12
        )
        assert nonneg.active_set == ()

    def test_matches_brute_force(self):
        checked = 0
        for seed in range(60):
            tree = small_tree(seed)
            if tree.n_leaves > 12:
                continue
            ref = brute_nonneg_density(tree)
            if ref is None:
                continue
            _, ref_second = ref
            sol = variance_optimal_nonneg(tree)
            assert sol.second_moment == pytest.approx(ref_second, rel=1e-7, abs=1e-9)
            checked += 1
        assert checked >= 30

    def test_invariants(self):
        for seed in range(40):
            tree = small_tree(seed)
            signed = variance_optimal_signed(tree)
            nonneg = variance_optimal_nonneg(tree)
            z = nonneg.density.values
            assert np.min(z) >= -1e-12
            A, b = constraint_system(tree)
            assert np.max(np.abs(A @ z - b)) < 1e-7
            # restricting the feasible set can only raise the second moment
            assert nonneg.second_moment >= signed.second_moment - 1e-9
            # leaves reported active really are pinned at zero
            index = {leaf: k for k, leaf in enumerate(tree.leaf_ids)}
            for leaf in nonneg.active_set:
                assert abs(z[index[leaf]]) <= 1e-12

    def test_degenerate_optimum_terminates(self):
        # criterion-4 suite tree 389, shape (4, 3, 2): the whole subtree
        # under n2 is zero at the optimum, so the multipliers of its
        # pinned leaves are not unique and the active set used to cycle
        tree = generate_random_market(seed=1389, periods=3, branching=4, assets=2)
        sol = variance_optimal_nonneg(tree)
        v0 = optimal_truncated(tree, 0.0).value
        assert sol.second_moment == pytest.approx(1.0 / (1.0 - 2.0 * v0), abs=1e-8)
        assert np.min(sol.density.values) >= -1e-12


def test_linalg_error_becomes_solver_failure(monkeypatch):
    # the local solve of a several-asset quadratic step is a stacked pinv
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    tree = small_tree(1)
    assert tree.assets == 2
    monkeypatch.setattr(np.linalg, "pinv", broken)
    with pytest.raises(SolverFailure, match="least-squares"):
        variance_optimal_signed(tree)


class TestZeroAtom:
    # one constant decides both: a density atom within 1e-12 of 0 is a zero
    # atom, allowed below 0 by ``nonnegative`` and listed in ``active_set``
    def density(self, trinomial, atom):
        # the nonnegative optimum (0, 5/8, 5) with its first atom moved
        return MeasureDensity.from_values(trinomial, [atom, 0.625, 5.0])

    def test_floor_admits_an_atom_at_minus_the_bound(self, trinomial):
        assert self.density(trinomial, -1e-12).nonnegative is True
        below = np.nextafter(-1e-12, -np.inf)
        assert self.density(trinomial, below).nonnegative is False

    def test_active_set_lists_an_atom_at_the_bound(self, trinomial):
        def active(atom):
            solution = DualSolution(density=self.density(trinomial, atom),
                                    second_moment=2.8125, signed=False, _nonneg=True)
            return solution.active_set

        assert active(1e-12) == ("n1",)
        assert active(np.nextafter(1e-12, np.inf)) == ()
