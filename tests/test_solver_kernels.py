"""The solvers' fast kernels against the straightforward algorithms.

Each reference below is the direct form of what the kernel computes or
certifies: the multiplicative (Blahut-Arimoto) prior update with a full
eigendecomposition of every state and of the mean per iteration, the linear
inversion as a loop over Pauli strings, and outcome probabilities and
weighted projector sums over dense outcome vectors and dense projectors.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindsim import experiments
from blindsim.blindness import Ensemble, holevo_chi, maximize_chi_over_priors, pair_fold
from blindsim.clusters import BlindPhases, ClusterConfig, build_blind_cluster, lab_family_state
from blindsim.experiments import BLINDNESS_NOISE, run_blindness
from blindsim.noise import NoiseParams, apply_noise
from blindsim import tomography
from blindsim.quantum import DensityMatrix, von_neumann_entropy
from blindsim.tomography import (
    CountsTable,
    _gap,
    _linear_inversion,
    _measurement_model,
    _model_of,
    _model_probabilities,
    _PoissonLikelihood,
    _weighted_projector_sum,
    measurement_rank,
    mle_reconstruct,
    exact_counts,
    pauli_settings,
    setting_projectors,
    simulate_counts,
)

from oracles import (
    gradient_oracle,
    likelihood_at_oracle,
    model_probabilities_oracle,
    weighted_projector_sum_oracle,
)

LOG2 = math.log(2.0)


def reference_relative_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    vals_r = np.clip(np.linalg.eigh(rho)[0], 0.0, None)
    vals_s, vecs_s = np.linalg.eigh(sigma)
    log_sigma = (vecs_s * np.log(np.clip(vals_s, 1e-300, None))) @ vecs_s.conj().T
    term1 = float(sum(v * math.log(v) for v in vals_r if v > 1e-15))
    term2 = float(np.real(np.trace(rho @ log_sigma)))
    return (term1 - term2) / LOG2


def reference_divergences(ensemble: Ensemble, prior: np.ndarray) -> tuple[np.ndarray, float]:
    """D(rho_j || mean) for every j, and chi = sum_j p_j D_j, in bits."""
    mats = [s.matrix for s in ensemble.states]
    mean = sum(w * m for w, m in zip(prior, mats))
    divergences = np.array([reference_relative_entropy_bits(m, mean) for m in mats])
    return divergences, float(prior @ divergences)


def reference_maximize(ensemble: Ensemble, rel_tol=1e-8, max_iterations=100_000):
    """(prior, iterations, chi, gap) of the multiplicative update.

    chi at any iterate is a lower bound on the maximum, and chi + gap an
    upper bound, so an unconverged run still brackets the optimum.
    """
    prior = np.full(ensemble.size, 1.0 / ensemble.size)
    iterations = 0
    while True:
        iterations += 1
        divergences, chi_now = reference_divergences(ensemble, prior)
        gap = float(divergences.max() - chi_now)
        if gap <= rel_tol * max(chi_now, 1.0) or iterations == max_iterations:
            return prior, iterations, chi_now, gap
        log_weights = np.log(np.clip(prior, 1e-300, None)) + divergences * LOG2
        log_weights -= log_weights.max()
        prior = np.exp(log_weights)
        prior /= prior.sum()


def random_density(dim: int, rank: int, rng) -> DensityMatrix:
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return DensityMatrix.from_matrix(rho / np.trace(rho).real)


def noisy_sweep_ensemble(seed: int = 0) -> Ensemble:
    """The noisy pair-folded theta_3 sweep of `run_blindness` at `seed`."""
    rng = np.random.default_rng(seed)
    graph = ClusterConfig.LINEAR_LEFT.graph
    states = [
        apply_noise(build_blind_cluster(graph, BlindPhases.family(2, n)), BLINDNESS_NOISE, rng)
        for n in range(8)
    ]
    return pair_fold(Ensemble(states, np.full(8, 1.0 / 8.0)))


def ideal_sweep_ensemble() -> Ensemble:
    """The pure pair-folded theta_3 sweep."""
    graph = ClusterConfig.LINEAR_LEFT.graph
    states = [
        DensityMatrix.from_pure(build_blind_cluster(graph, BlindPhases.family(2, n)))
        for n in range(8)
    ]
    return pair_fold(Ensemble(states, np.full(8, 1.0 / 8.0)))


def per_state_chi(ensemble: Ensemble) -> float:
    """chi with each state's entropy from its own eigendecomposition."""
    mean = ensemble.mean_state()
    avg_entropy = sum(
        p * von_neumann_entropy(s) for p, s in zip(ensemble.prior, ensemble.states) if p > 0.0
    )
    return von_neumann_entropy(mean) - float(avg_entropy)


def assert_kkt(ensemble: Ensemble, report) -> None:
    """The optimality conditions at the returned prior, evaluated directly:
    D_j <= chi + gap for every j, and D_j = chi on the support."""
    prior = report.argmax_prior
    divergences, chi = reference_divergences(ensemble, prior)
    assert report.support == tuple(np.flatnonzero(prior > 0.0))
    assert divergences.max() <= chi + report.duality_gap + 1e-12
    support = list(report.support)
    assert np.abs(divergences[support] - chi).max() <= 1e-8
    assert abs(report.chi_maximized - chi) <= 1e-12


def assert_matches_oracle(ensemble: Ensemble, report, max_iterations=100_000) -> int:
    """chi within the multiplicative update's bracket, to float rounding;
    returns the update's iteration count."""
    _, iterations, chi_ba, gap_ba = reference_maximize(ensemble, max_iterations=max_iterations)
    assert chi_ba - 1e-12 <= report.chi_maximized <= chi_ba + gap_ba + 1e-12
    return iterations


class TestChiKernel:
    def test_noisy_sweep_ensemble(self):
        # the prior is not compared: folded states n and n + 4 are identical,
        # so the maximizing prior is not unique
        ensemble = noisy_sweep_ensemble()
        report = maximize_chi_over_priors(ensemble)
        assert report.converged
        assert assert_matches_oracle(ensemble, report) == 5178
        assert_kkt(ensemble, report)

    @pytest.mark.parametrize("seed", range(7))
    def test_drift_seeds_converge_in_few_newton_iterations(self, seed):
        ensemble = noisy_sweep_ensemble(seed)
        report = maximize_chi_over_priors(ensemble)
        assert report.converged and report.iterations <= 10
        assert_kkt(ensemble, report)

    @pytest.mark.parametrize("seed", range(7))
    def test_chi_equals_the_per_state_formula(self, seed, monkeypatch):
        # the ideal, mask-broken and noisy ensembles that run_blindness builds
        ensembles = []

        def recording(solver):
            def run(ensemble):
                ensembles.append(ensemble)
                return solver(ensemble)

            return run

        monkeypatch.setattr(
            experiments, "maximize_chi_over_priors", recording(maximize_chi_over_priors)
        )
        monkeypatch.setattr(experiments, "holevo_chi", recording(holevo_chi))
        run_blindness(seed=seed, noise=BLINDNESS_NOISE)
        assert len(ensembles) == 3
        for ensemble in ensembles:
            assert holevo_chi(ensemble) == per_state_chi(ensemble)
            report = maximize_chi_over_priors(ensemble)
            uniform = np.full(ensemble.size, 1.0 / ensemble.size)
            chi_uniform = per_state_chi(ensemble.with_prior(uniform))
            assert report.chi_uniform == chi_uniform
            chi_final = per_state_chi(ensemble.with_prior(report.argmax_prior))
            assert report.chi_maximized == max(chi_final, chi_uniform)

    @pytest.mark.parametrize("ensemble", [ideal_sweep_ensemble, noisy_sweep_ensemble])
    def test_each_state_decomposed_once(self, ensemble, monkeypatch):
        # one batched call for the states, and for the mean at the uniform
        # and at the final prior one to validate it and one for its entropy
        ensemble = ensemble()
        calls = 0
        eigvalsh = np.linalg.eigvalsh

        def counting(*args):
            nonlocal calls
            calls += 1
            return eigvalsh(*args)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        maximize_chi_over_priors(ensemble)
        assert calls == 5

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_three_state_ensembles(self, dim, seed):
        rng = np.random.default_rng([dim, seed])
        states = [random_density(dim, rank, rng) for rank in (1, 2, dim)]
        ensemble = Ensemble(states, np.full(3, 1.0 / 3.0))
        report = maximize_chi_over_priors(ensemble)
        assert report.converged
        assert_matches_oracle(ensemble, report)
        assert_kkt(ensemble, report)

    @pytest.mark.parametrize(
        "ranks, seed",
        [
            # a rank-3 mean whose null eigenvalue rounds to about +-1e-17: its
            # logarithm once held the gap at 8e-9 through every iteration
            ([1, 2], 1722402953),
            # three pure states span a 3-dim subspace; dropping the fourth
            # state from the prior leaves its weight outside the mean's
            # support, so D_4 is infinite and the prior must keep it
            ([1, 1, 1, 4], 3722102450),
        ],
    )
    def test_rank_deficient_means(self, ranks, seed):
        rng = np.random.default_rng(seed)
        states = [random_density(4, rank, rng) for rank in ranks]
        ensemble = Ensemble(states, np.full(len(states), 1.0 / len(states)))
        report = maximize_chi_over_priors(ensemble, rel_tol=1e-10)
        assert report.converged and report.iterations <= 50
        assert report.support == tuple(range(len(states)))
        assert_kkt(ensemble, report)
        assert_matches_oracle(ensemble, report, max_iterations=300)

    @settings(max_examples=40, deadline=None)
    @example(dim=4, ranks=[0, 2], confined=False, seed=1722402953)
    @example(dim=4, ranks=[0, 1, 1, 4], confined=False, seed=3722102450)
    @given(
        dim=st.sampled_from([2, 4]),
        # rank 0 repeats an earlier state
        ranks=st.lists(st.integers(0, 4), min_size=2, max_size=8),
        confined=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_ensembles(self, dim, ranks, confined, seed):
        # confined: every state lives on the first two basis states, so at
        # dim 4 the mean is rank deficient
        rng = np.random.default_rng(seed)
        space = 2 if confined else dim
        states = []
        for rank in ranks:
            if rank == 0 and states:
                states.append(states[int(rng.integers(len(states)))])
                continue
            small = random_density(space, min(max(rank, 1), space), rng).matrix
            full = np.zeros((dim, dim), dtype=complex)
            full[:space, :space] = small
            states.append(DensityMatrix.from_matrix(full))
        ensemble = Ensemble(states, np.full(len(states), 1.0 / len(states)))
        # a gap well under 1e-8 keeps D_j within 1e-8 of chi on the support
        report = maximize_chi_over_priors(ensemble, rel_tol=1e-10)
        assert report.converged and report.iterations <= 50
        assert_kkt(ensemble, report)
        assert_matches_oracle(ensemble, report, max_iterations=300)


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
            _linear_inversion(table, _model_of(table)).floored(),
            reference_linear_inversion(table),
            rtol=0,
            atol=1e-12,
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

    @given(
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 1e4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_counts_match_the_dense_born_rule(self, n, seed, exposure, data):
        # settings complete or not, the incomplete [("Z",) * n] always among
        # the draws; each outcome's probability as <v|rho|v> over the Kronecker
        # product of the local eigenvectors
        every = pauli_settings(n)
        chosen = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=len(every)))
        rng = np.random.default_rng(seed)
        rho = random_density(2**n, int(rng.integers(1, 2**n + 1)), rng)
        eigenvectors = {
            "X": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
            "Y": np.array([[1, 1], [1j, -1j]]) / math.sqrt(2),
            "Z": np.eye(2),
        }
        for settings_ in ([("Z",) * n], chosen):
            table = exact_counts(rho, settings_, exposure)
            assert table.settings == list(settings_) and table.exposure == exposure
            for k, setting in enumerate(settings_):
                vectors = np.ones((1, 1))
                for axis in setting:
                    vectors = np.kron(vectors, eigenvectors[axis])
                born = np.einsum("io,ij,jo->o", vectors.conj(), rho.matrix, vectors).real
                expected = np.clip(born, 0.0, None) * exposure
                np.testing.assert_allclose(table.counts[k], expected, rtol=0, atol=1e-15 * exposure)

    def test_model_arrays_read_only(self):
        model = _measurement_model(tuple(pauli_settings(2)))
        arrays = {
            name: field
            for name, field in zip(model._fields, model)
            if isinstance(field, np.ndarray)
        }
        assert set(arrays) == {
            "walsh",
            "string_index",
            "string_counts",
            "phase",
            "xor_index",
            "real_index",
            "real_sign",
            "upper_index",
        }
        for array in arrays.values():
            with pytest.raises(ValueError):
                array.reshape(-1)[0] = 0

    def test_model_built_once_per_settings(self):
        settings = tuple(pauli_settings(3))
        assert _measurement_model(settings) is _measurement_model(settings)


# the dense model: outcome vector v of (setting k, outcome o) is row k 2^n + o
LOCAL_EIGENVECTORS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1j], [1, -1j]], dtype=complex) / math.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}  # row b is the outcome-b (eigenvalue (-1)^b) eigenvector


def oracle_vectors(settings) -> np.ndarray:
    rows = []
    for setting in settings:
        for outcome in itertools.product((0, 1), repeat=len(setting)):
            v = np.ones(1, dtype=complex)
            for axis, b in zip(setting, outcome):
                v = np.kron(v, LOCAL_EIGENVECTORS[axis][b])
            rows.append(v)
    return np.array(rows)


def oracle_probabilities(vectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<v|rho|v> for every outcome vector: Re rowsum((conj(V) rho) * V)."""
    return np.real(((vectors.conj() @ rho) * vectors).sum(axis=1))


def oracle_weighted_sum(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k |v_k><v_k| = V^T diag(w) conj(V)."""
    return (vectors.T * weights) @ vectors.conj()


@st.composite
def setting_lists(draw, sizes):
    """Settings of n qubits: random lists, with repeats and usually
    incomplete, or all 3^n settings plus a few repeats."""
    n = draw(sizes)
    setting = st.tuples(*[st.sampled_from("XYZ")] * n)
    if draw(st.booleans()):
        return draw(st.lists(setting, min_size=1, max_size=3**n + 2))
    extra = draw(st.lists(setting, max_size=3))
    return pauli_settings(n) + extra


class TestPauliBasisKernels:
    """The Pauli-basis kernels against the dense outcome-vector model."""

    def check_against_oracle(self, settings, seed):
        n = len(settings[0])
        dim = 2**n
        rng = np.random.default_rng(seed)
        model = _measurement_model(tuple(settings))
        vectors = oracle_vectors(settings)
        rho = random_density(dim, int(rng.integers(1, dim + 1)), rng).matrix
        weights = rng.normal(size=len(vectors))
        probs = _model_probabilities(model, rho)
        np.testing.assert_allclose(probs, oracle_probabilities(vectors, rho), rtol=0, atol=1e-12)
        weighted = _weighted_projector_sum(model, weights)
        np.testing.assert_allclose(
            weighted, oracle_weighted_sum(vectors, weights), rtol=0, atol=1e-12
        )
        # the adjoint identity: sum_k w_k p_k(rho) = Re Tr(rho G(w))
        assert abs(weights @ probs - np.real(np.trace(rho @ weighted))) <= 1e-12
        assert model.complete == (measurement_rank(settings, dim) >= dim * dim)

    @settings(max_examples=60, deadline=None)
    @given(settings_=setting_lists(st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
    def test_small_registers(self, settings_, seed):
        self.check_against_oracle(settings_, seed)

    @settings(max_examples=8, deadline=None)
    @given(settings_=setting_lists(st.just(4)), seed=st.integers(0, 2**32 - 1))
    def test_four_qubits(self, settings_, seed):
        self.check_against_oracle(settings_, seed)

    def test_mle_iterates_match_the_dense_kernels(self, monkeypatch):
        # the noisy (2,3) laboratory-basis state, as `run_tomography` measures it
        rho_true = apply_noise(lab_family_state(2, 3), NoiseParams())
        settings = pauli_settings(4)
        table = simulate_counts(rho_true, settings, 1e4, np.random.default_rng(21))
        fast = mle_reconstruct(table)
        vectors = oracle_vectors(settings)
        monkeypatch.setattr(
            tomography, "_model_probabilities", lambda _, rho: oracle_probabilities(vectors, rho)
        )
        monkeypatch.setattr(
            tomography, "_weighted_projector_sum", lambda _, w: oracle_weighted_sum(vectors, w)
        )
        dense = mle_reconstruct(table)
        assert fast.converged and dense.converged
        assert (fast.iterations, fast.line_search_halvings) == (
            dense.iterations,
            dense.line_search_halvings,
        )
        np.testing.assert_allclose(
            fast.rho_hat.matrix, dense.rho_hat.matrix, rtol=0, atol=1e-12
        )


class TestEvaluationKernels:
    """The MLE's likelihood evaluation against its earlier forms
    (`oracles.*_oracle`), bit for bit, and the certificate's Rayleigh
    shortcut against the eigvalsh it skips."""

    @staticmethod
    def poisson_likelihood(settings_, seed, exposure):
        dim = 2 ** len(settings_[0])
        rng = np.random.default_rng(seed)
        model = _measurement_model(tuple(settings_))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), rng).matrix
        probs = _model_probabilities(model, rho).reshape(len(settings_), dim)
        counts = rng.poisson(exposure * np.clip(probs, 0.0, None))
        table = CountsTable(list(settings_), counts, exposure)
        return rng, rho, table, _PoissonLikelihood.of(table)

    @settings(max_examples=60, deadline=None)
    @given(
        settings_=setting_lists(st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        exposure=st.floats(1.0, 1e6),
    )
    def test_bit_identical_to_the_earlier_forms(self, settings_, seed, exposure):
        rng, rho, table, likelihood = self.poisson_likelihood(settings_, seed, exposure)
        model, dim = likelihood.model, len(rho)
        assert (
            _model_probabilities(model, rho).tobytes()
            == model_probabilities_oracle(model, rho).tobytes()
        )
        weights = rng.normal(size=table.counts.size)
        assert (
            _weighted_projector_sum(model, weights).tobytes()
            == weighted_projector_sum_oracle(model, weights).tobytes()
        )
        # a Cholesky factor as the ascent's trial steps make them: complex,
        # lower triangular
        t_mat = np.tril(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        point, oracle = likelihood.at(t_mat), likelihood_at_oracle(likelihood, t_mat)
        for field, ours, theirs in zip(point._fields, point, oracle):
            assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), field
        assert likelihood.gradient(point).tobytes() == gradient_oracle(likelihood, oracle).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        exposure=st.floats(1.0, 1e6),
        exact=st.booleans(),
    )
    def test_rayleigh_bound_never_exceeds_the_certificate(self, n, seed, exposure, exact):
        # so skipping the eigvalsh when the bound clears the stopping gain
        # leaves the certify-or-ascend decision as the full certificate makes it
        settings_ = pauli_settings(n)
        _, rho, table, likelihood = self.poisson_likelihood(settings_, seed, exposure)
        if exact:
            table = exact_counts(DensityMatrix.from_matrix(rho), settings_, exposure)
            likelihood = _PoissonLikelihood.of(table)
        seed_ = _linear_inversion(table, likelihood.model)
        log_likelihood, grad_rho = likelihood.rho_gradient(seed_.projected)
        gap = _gap(seed_.projected, grad_rho)
        assert seed_.gap_below(grad_rho) <= gap
        assert likelihood.certificate(seed_.projected) == (log_likelihood, gap)
