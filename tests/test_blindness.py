"""Holevo-chi analyzer: closed-form cases, properties, prior maximization."""
import math

import numpy as np
import pytest

from blindsim.blindness import (
    ChiReport,
    Ensemble,
    grid_search_chi,
    holevo_chi,
    maximize_chi_over_priors,
    pair_fold,
)
from blindsim.quantum import DensityMatrix, PureState, linear_entropy

from oracles import maximally_mixed

PI = math.pi


def pure(vec) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    return DensityMatrix.from_pure(
        PureState.from_amplitudes(vec / np.linalg.norm(vec))
    )


def equatorial(n: int) -> DensityMatrix:
    return DensityMatrix.from_pure(PureState.ket_theta(n * PI / 4))


def uniform(states) -> Ensemble:
    return Ensemble(list(states), np.full(len(states), 1.0 / len(states)))


class TestEnsemble:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            Ensemble([equatorial(0)], np.array([0.5]))
        with pytest.raises(ValueError):
            Ensemble([equatorial(0), equatorial(1)], np.array([1.0]))

    @pytest.mark.parametrize(
        "prior", [[math.nan, 0.5], [math.nan, math.nan], [math.inf, -math.inf]]
    )
    def test_non_finite_prior_rejected(self, prior):
        with pytest.raises(ValueError):
            Ensemble([equatorial(0), equatorial(1)], np.array(prior))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Ensemble(
                [equatorial(0), maximally_mixed(2)],
                np.array([0.5, 0.5]),
            )


class TestPairFold:
    def test_equatorial_pairs_fold_to_mixed(self):
        ens = pair_fold(uniform([equatorial(n) for n in range(8)]))
        for state in ens.states:
            np.testing.assert_allclose(state.matrix, np.eye(2) / 2, atol=1e-12)

    def test_idempotent(self):
        ens = uniform([equatorial(n) for n in range(8)])
        once = pair_fold(ens)
        twice = pair_fold(once)
        for a, b in zip(once.states, twice.states):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)

    def test_pairing_indices(self):
        # state n is averaged with state n+4
        states = [equatorial(0)] * 4 + [pure([0, 1])] * 4
        folded = pair_fold(uniform(states))
        expected = DensityMatrix.mixture([equatorial(0), pure([0, 1])])
        for n in range(8):
            np.testing.assert_allclose(
                folded.states[n].matrix, expected.matrix, atol=1e-12
            )

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            pair_fold(uniform([equatorial(0), equatorial(1)]))

    def test_eight_term_sum_equals_four_pair_form(self):
        # after folding, the uniform 8-term chi equals the 4-distinct-pair chi
        rng = np.random.default_rng(8)
        vecs = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        folded = pair_fold(uniform([pure(v) for v in vecs]))
        four = Ensemble(folded.states[:4], np.full(4, 0.25))
        assert holevo_chi(folded) == pytest.approx(holevo_chi(four), abs=1e-12)


class TestHolevoChi:
    def test_identical_states_zero(self):
        ens = uniform([equatorial(3)] * 5)
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-9)

    def test_classical_bit(self):
        ens = uniform([pure([1, 0]), pure([0, 1])])
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-9)

    def test_eight_equatorial_states_one_bit(self):
        # closed form: mean is I/2 (S=1), each state pure (S=0)
        ens = uniform([equatorial(n) for n in range(8)])
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-9)

    def test_bounded_by_mean_entropy_and_prior_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vecs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            weights = rng.dirichlet([1, 1, 1])
            ens = Ensemble([pure(v) for v in vecs], weights)
            chi = holevo_chi(ens)
            assert chi >= -1e-10
            prior_entropy = -sum(p * math.log2(p) for p in weights if p > 0)
            assert chi <= prior_entropy + 1e-9
            assert chi <= 1.0 + 1e-9  # log2 d

    def test_chi_zero_iff_states_equal(self):
        mixed = maximally_mixed(1)
        same = uniform([mixed, mixed, mixed])
        assert holevo_chi(same) == pytest.approx(0.0, abs=1e-9)
        different = uniform([mixed, equatorial(0)])
        assert holevo_chi(different) > 1e-3


class TestMaximizeChi:
    def test_identical_states(self):
        report = maximize_chi_over_priors(uniform([equatorial(1)] * 3))
        assert report.chi_maximized == pytest.approx(0.0, abs=1e-9)

    def test_two_orthogonal_states_uniform_prior(self):
        report = maximize_chi_over_priors(uniform([pure([1, 0]), pure([0, 1])]))
        assert report.chi_maximized == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(report.argmax_prior, [0.5, 0.5], atol=1e-5)

    def test_three_state_ensemble_vs_grid(self):
        # {|0>, |1>, |+>}: the optimum puts less weight on |+>
        ens = uniform([pure([1, 0]), pure([0, 1]), pure([1, 1])])
        report = maximize_chi_over_priors(ens)
        grid = grid_search_chi(ens, step=1e-3)
        assert report.chi_maximized >= report.chi_uniform - 1e-12
        assert abs(report.chi_maximized - grid) < 1e-6
        assert report.argmax_prior[2] < report.argmax_prior[0]

    def test_monotone_ge_uniform(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vecs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            ens = uniform([pure(v) for v in vecs])
            report = maximize_chi_over_priors(ens)
            assert report.chi_maximized >= report.chi_uniform - 1e-10
            grid = grid_search_chi(ens, step=2e-3)
            assert report.chi_maximized >= grid - 1e-6

    def test_boundary_optimum_lands_on_its_face(self):
        # I/2 is the even mix of |0> and |1>: weight moved from it to them
        # leaves the mean alone and raises chi linearly, up to the face p_3 = 0
        mixed = maximally_mixed(1)
        report = maximize_chi_over_priors(uniform([pure([1, 0]), pure([0, 1]), mixed]))
        assert report.converged and report.iterations <= 5
        assert report.support == (0, 1) and report.argmax_prior[2] == 0.0
        assert report.chi_maximized == pytest.approx(1.0, abs=1e-12)
        assert report.as_dict()["support"] == [0, 1]

    def test_report_json(self):
        report = maximize_chi_over_priors(uniform([pure([1, 0]), pure([0, 1])]))
        assert isinstance(report, ChiReport)
        table = report.as_dict()
        assert "chi_maximized_bits" in table
        # the keys of the printed table, in the order it has always had
        assert list(table) == sorted(table)

    def test_converged_report_certifies_its_gap(self):
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        rel_tol = 1e-8
        report = maximize_chi_over_priors(uniform([pure(v) for v in vecs]), rel_tol)
        assert report.converged
        assert 0.0 <= report.duality_gap <= rel_tol * max(report.chi_maximized, 1.0)
        assert report.as_dict()["duality_gap_bits"] == report.duality_gap

    def test_unconverged_report_keeps_its_gap(self):
        ens = uniform([pure([1, 0]), pure([0, 1]), pure([1, 1])])
        report = maximize_chi_over_priors(ens, max_iterations=2)
        assert not report.converged and report.iterations == 2
        assert report.duality_gap > 1e-8


class TestMixedness:
    def test_single_state_pure(self):
        assert linear_entropy(DensityMatrix.mixture([equatorial(0)])) == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_sweep_fully_mixed(self):
        assert linear_entropy(DensityMatrix.mixture([equatorial(n) for n in range(8)])) == pytest.approx(
            1.0, abs=1e-12
        )


class TestProtocolLevelChi:
    def test_ideal_folded_ensemble_chi_zero(self):
        # uniform theta and uniform r: every folded state is I/2
        ens = pair_fold(uniform([equatorial(n) for n in range(8)]))
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-9)
        report = maximize_chi_over_priors(ens)
        assert report.chi_maximized == pytest.approx(0.0, abs=1e-9)

    def test_broken_mask_chi_one_bit(self):
        # r forced to 0: the eight pure states leak exactly one bit
        ens = uniform([equatorial(n) for n in range(8)])
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-9)
