"""The solvers' fast kernels against the straightforward algorithms.

Each reference below is the direct form of what the kernel computes: the
prior maximizer with a full eigendecomposition of every state and of the
mean per iteration, the linear inversion as a loop over Pauli strings, and
outcome probabilities and weighted projector sums over dense projectors.
"""
import itertools
import math

import numpy as np
import pytest

from blindsim.blindness import Ensemble, maximize_chi_over_priors, pair_fold
from blindsim.clusters import BlindPhases, ClusterConfig, build_blind_cluster
from blindsim.experiments import BLINDNESS_NOISE
from blindsim.noise import apply_noise
from blindsim.quantum import DensityMatrix
from blindsim.tomography import (
    CountsTable,
    _linear_inversion,
    _measurement_model,
    _model_probabilities,
    _weighted_projector_sum,
    pauli_settings,
    setting_projectors,
)

LOG2 = math.log(2.0)


def reference_relative_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    vals_r = np.clip(np.linalg.eigh(rho)[0], 0.0, None)
    vals_s, vecs_s = np.linalg.eigh(sigma)
    log_sigma = (vecs_s * np.log(np.clip(vals_s, 1e-300, None))) @ vecs_s.conj().T
    term1 = float(sum(v * math.log(v) for v in vals_r if v > 1e-15))
    term2 = float(np.real(np.trace(rho @ log_sigma)))
    return (term1 - term2) / LOG2


def reference_maximize(ensemble: Ensemble, rel_tol=1e-8, max_iterations=100_000):
    """(prior, iterations) of the multiplicative update, every D recomputed."""
    mats = [s.matrix for s in ensemble.states]
    prior = np.full(len(mats), 1.0 / len(mats))
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        mean = sum(w * m for w, m in zip(prior, mats))
        divergences = np.array([reference_relative_entropy_bits(m, mean) for m in mats])
        chi_now = float(prior @ divergences)
        if divergences.max() - chi_now <= rel_tol * max(chi_now, 1.0):
            break
        log_weights = np.log(np.clip(prior, 1e-300, None)) + divergences * LOG2
        log_weights -= log_weights.max()
        prior = np.exp(log_weights)
        prior /= prior.sum()
    return prior, iterations


def random_density(dim: int, rank: int, rng) -> DensityMatrix:
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return DensityMatrix.from_matrix(rho / np.trace(rho).real)


def noisy_sweep_ensemble() -> Ensemble:
    """The noisy pair-folded theta_3 sweep of `run_blindness` at seed 0."""
    rng = np.random.default_rng(0)
    graph = ClusterConfig.LINEAR_LEFT.graph
    states = [
        apply_noise(build_blind_cluster(graph, BlindPhases.family(2, n)), BLINDNESS_NOISE, rng)
        for n in range(8)
    ]
    return pair_fold(Ensemble(states, np.full(8, 1.0 / 8.0)))


def assert_same_iterates(ensemble: Ensemble) -> int:
    prior, iterations = reference_maximize(ensemble)
    report = maximize_chi_over_priors(ensemble)
    assert report.iterations == iterations
    np.testing.assert_allclose(report.argmax_prior, prior, rtol=0, atol=1e-12)
    return iterations


class TestChiKernel:
    def test_noisy_sweep_ensemble(self):
        assert assert_same_iterates(noisy_sweep_ensemble()) == 5178

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_three_state_ensembles(self, dim, seed):
        rng = np.random.default_rng([dim, seed])
        states = [random_density(dim, rank, rng) for rank in (1, 2, dim)]
        assert_same_iterates(Ensemble(states, np.full(3, 1.0 / 3.0)))


def reference_linear_inversion(table: CountsTable) -> np.ndarray:
    """Pauli-expectation inversion string by string, projected to the PSD cone."""
    n = table.num_qubits
    dim = 2**n
    paulis = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    totals = table.counts.sum(axis=1)
    freqs = table.counts / np.where(totals > 0, totals, 1.0)[:, None]
    rho = np.eye(dim, dtype=complex) / dim
    for string in itertools.product("IXYZ", repeat=n):
        support = [q for q, s in enumerate(string) if s != "I"]
        if not support:
            continue
        estimates = []
        for k, setting in enumerate(table.settings):
            if all(setting[q] == string[q] for q in support):
                signs = np.array(
                    [(-1) ** sum((o >> (n - 1 - q)) & 1 for q in support) for o in range(dim)]
                )
                estimates.append(float(freqs[k] @ signs))
        if not estimates:
            continue
        op = np.array([[1.0 + 0j]])
        for s in string:
            op = np.kron(op, paulis[s])
        rho = rho + (np.mean(estimates) / dim) * op
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 1e-6, None)
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.trace(rho).real


def random_table(settings, rng) -> CountsTable:
    n = len(settings[0])
    rho = random_density(2**n, 2, rng).matrix
    probs = np.array([np.real(np.einsum("kij,ji->k", setting_projectors(s), rho)) for s in settings])
    counts = rng.poisson(500 * np.clip(probs, 0.0, None)).astype(float)
    return CountsTable(list(settings), counts, 500.0)


class TestTomographyKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("complete", [True, False])
    def test_linear_inversion(self, n, complete):
        rng = np.random.default_rng(n)
        settings = pauli_settings(n)
        if not complete:  # drops every setting with Z on qubit 1
            settings = [s for s in settings if s[0] != "Z"]
        table = random_table(settings, rng)
        np.testing.assert_allclose(
            _linear_inversion(table), reference_linear_inversion(table), rtol=0, atol=1e-12
        )
        assert _measurement_model(tuple(settings)).complete == complete

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_probabilities_and_gradient_sum(self, n):
        rng = np.random.default_rng([n, 1])
        settings = tuple(pauli_settings(n))
        model = _measurement_model(settings)
        projectors = np.concatenate([setting_projectors(s) for s in settings])
        rho = random_density(2**n, 2**n, rng).matrix
        np.testing.assert_allclose(
            _model_probabilities(model, rho),
            np.real(np.einsum("kij,ji->k", projectors, rho)),
            rtol=0,
            atol=1e-12,
        )
        weights = rng.normal(size=len(projectors))
        np.testing.assert_allclose(
            _weighted_projector_sum(model, weights),
            np.einsum("k,kij->ij", weights, projectors),
            rtol=0,
            atol=1e-12,
        )

    def test_model_arrays_read_only(self):
        model = _measurement_model(tuple(pauli_settings(2)))
        arrays = [field for field in model if isinstance(field, np.ndarray)]
        assert len(arrays) == 6
        for array in arrays:
            with pytest.raises(ValueError):
                array.reshape(-1)[0] = 0

    def test_model_built_once_per_settings(self):
        settings = tuple(pauli_settings(3))
        assert _measurement_model(settings) is _measurement_model(settings)
