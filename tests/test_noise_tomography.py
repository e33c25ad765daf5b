"""Noise channel behavior, Poisson count simulation, MLE reconstruction,
Monte Carlo error bars."""
import hashlib
import math

import numpy as np
import pytest

from blindsim.clusters import (
    BlindPhases,
    ClusterConfig,
    blind_cluster_batch,
    build_blind_cluster,
    lab_family_state,
)
from blindsim.noise import NoiseParams, apply_noise, dephasing_flips
from blindsim.quantum import (
    DensityMatrix,
    PureState,
    fidelity_pure,
    linear_entropy,
)
from blindsim.tomography import (
    CountsTable,
    exact_counts,
    exact_counts_batch,
    measurement_rank,
    mle_reconstruct,
    mle_reconstruct_batch,
    monte_carlo_errors,
    pauli_settings,
    setting_projectors,
    simulate_counts,
)

from oracles import gradient_oracle, likelihood_at_oracle, maximally_mixed

PI = math.pi


def born_probabilities(rho: DensityMatrix, setting) -> np.ndarray:
    """Dense oracle: Tr(Pi_o rho) over the setting's outcome projectors."""
    projectors = setting_projectors(setting)
    return np.real(np.einsum("kij,ji->k", projectors, rho.matrix))


PIN_NOISE = (
    NoiseParams(),
    NoiseParams(1.0, 1.0, 0.0),
    NoiseParams(0.7, 0.95, 0.3),
    NoiseParams(phase_drift_sigma=0.15),
    NoiseParams(0.8, 0.6, 0.05),
)


def _apply_noise_digest(rng) -> str:
    """SHA-256 of apply_noise's matrices over PIN_NOISE and family states of
    every configuration, drawing the drift from `rng` when one is given."""
    states = [lab_family_state(2, 3)] + [
        build_blind_cluster(c.graph, BlindPhases.family(n2, n3))
        for c in ClusterConfig
        for n2, n3 in ((2, 0), (5, 7))
    ]
    digest = hashlib.sha256()
    for params in PIN_NOISE:
        for state in states:
            digest.update(np.ascontiguousarray(apply_noise(state, params, rng).matrix).tobytes())
    return digest.hexdigest()


def random_pure(num_qubits: int, rng) -> PureState:
    vec = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return PureState.from_amplitudes(vec / np.linalg.norm(vec))


class TestNoiseParams:
    def test_defaults(self):
        params = NoiseParams()
        assert params.bell_visibility == 0.9
        assert params.interference_visibility == 0.85
        assert params.phase_drift_sigma == 0.0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            NoiseParams(bell_visibility=1.2)
        with pytest.raises(ValueError):
            NoiseParams(phase_drift_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_drift_refused(self, sigma):
        # NaN would slip past `sigma < 0` and silently apply no drift at all
        with pytest.raises(ValueError, match="phase_drift_sigma"):
            NoiseParams(phase_drift_sigma=sigma)


class TestApplyNoise:
    def test_ideal_params_leave_state_pure(self):
        psi = lab_family_state(2, 3)
        rho = apply_noise(psi, NoiseParams(1.0, 1.0, 0.0))
        assert fidelity_pure(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_output_is_valid_density_matrix(self):
        rho = apply_noise(lab_family_state(2, 3), NoiseParams(0.8, 0.7, 0.4))
        assert isinstance(rho, DensityMatrix)  # invariants checked on build

    def test_fidelity_monotone_in_each_knob(self):
        psi = lab_family_state(2, 3)
        base = fidelity_pure(apply_noise(psi, NoiseParams(0.9, 0.85, 0.1)), psi)
        worse_bell = fidelity_pure(apply_noise(psi, NoiseParams(0.8, 0.85, 0.1)), psi)
        worse_int = fidelity_pure(apply_noise(psi, NoiseParams(0.9, 0.75, 0.1)), psi)
        worse_drift = fidelity_pure(apply_noise(psi, NoiseParams(0.9, 0.85, 0.5)), psi)
        assert worse_bell < base
        assert worse_int < base
        assert worse_drift < base

    def test_default_fidelity_band(self):
        # defaults land in the same coarse band as the reported apparatus
        psi = lab_family_state(2, 3)
        fid = fidelity_pure(apply_noise(psi, NoiseParams()), psi)
        assert 0.6 < fid < 0.8

    def test_relabeling_symmetry(self):
        # the model treats the two source pairs identically: swapping the
        # pairs (1,2)<->(3,4) commutes with the channel on family states
        psi_a = lab_family_state(2, 6)
        psi_b = lab_family_state(6, 2)  # the swapped-family partner
        fid_a = fidelity_pure(apply_noise(psi_a, NoiseParams()), psi_a)
        fid_b = fidelity_pure(apply_noise(psi_b, NoiseParams()), psi_b)
        assert fid_a == pytest.approx(fid_b, abs=1e-12)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            apply_noise(PureState.plus(), NoiseParams())

    def test_matrices_pinned(self):
        # SHA-256 of the matrices below, computed before the flip mixture
        # read the same channel list: apply_noise must not move a bit
        assert _apply_noise_digest(None) == (
            "b394389eafe333003b5cc5ae48d3c6ff246db4e0e5a40129b42bd623cf923da2"
        )
        assert _apply_noise_digest(np.random.default_rng(14)) == (
            "575290653a829f5f363e9f083653bf4dbd2d446950a56f616c2c679a55174960"
        )


class TestDephasingFlips:
    @pytest.mark.parametrize("params", PIN_NOISE)
    def test_mixture_of_flipped_clusters_is_apply_noise(self, params):
        offsets, weights = dephasing_flips(params)
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert set(offsets.ravel()) <= {0, 4} and not offsets[:, 3].any()
        assert len(np.unique(offsets, axis=0)) == len(offsets) <= 8
        for config in ClusterConfig:
            for n2, n3 in ((0, 0), (2, 5), (7, 3)):
                theta = np.array([0, n2, n3, 0])
                psi = blind_cluster_batch(config.graph, theta + offsets)
                mixture = np.einsum("f,fi,fj->ij", weights, psi, psi.conj())
                phases = BlindPhases.family(n2, n3)
                noisy = apply_noise(build_blind_cluster(config.graph, phases), params)
                np.testing.assert_allclose(mixture, noisy.matrix, rtol=0, atol=1e-15)

    def test_flip_probabilities_combine_per_qubit(self):
        # default drift sigma 0: qubit 1 sees (1 - 0.9)/2, qubit 2
        # (1 - 0.85)/2, qubit 3 both
        offsets, weights = dephasing_flips(NoiseParams())
        flip = weights @ (offsets // 4)
        p_bell, p_int = 0.05, 0.075
        np.testing.assert_allclose(
            flip, [p_bell, p_int, p_bell + p_int - 2 * p_bell * p_int, 0], atol=1e-15
        )

    def test_ideal_params_are_one_unflipped_state(self):
        offsets, weights = dephasing_flips(NoiseParams(1.0, 1.0, 0.0))
        np.testing.assert_array_equal(offsets, np.zeros((1, 4)))
        np.testing.assert_array_equal(weights, [1.0])


class TestCounts:
    def test_zero_probability_outcome_never_counted(self):
        rho = DensityMatrix.from_pure(PureState.computational(1, 0))
        rng = np.random.default_rng(0)
        table = simulate_counts(rho, [("Z",)], 10_000, rng)
        assert table.counts[0, 1] == 0.0

    def test_exact_mode_matches_born(self):
        rho = DensityMatrix.from_pure(PureState.ket_theta(PI / 4))
        table = exact_counts(rho, pauli_settings(1))
        for k, setting in enumerate(table.settings):
            np.testing.assert_allclose(
                table.counts[k], born_probabilities(rho, setting), atol=1e-12
            )

    @pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(0.8, 0.7, 0.1)])
    def test_noisy_draws_match_the_dense_loop(self, noise):
        # the one model evaluation draws the same counts as one dense Born
        # evaluation and Poisson draw per setting, in setting order
        rho = apply_noise(lab_family_state(2, 3), noise)
        settings = pauli_settings(4)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expected = np.array(
                [rng.poisson(10_000 * np.clip(born_probabilities(rho, s), 0.0, None)) for s in settings]
            )
            table = simulate_counts(rho, settings, 10_000, np.random.default_rng(seed))
            np.testing.assert_array_equal(table.counts, expected)

    @pytest.mark.parametrize("mean_total", [-5.0, 1e20, math.nan])
    def test_mean_total_beyond_the_poisson_sampler_refused(self, mean_total):
        # numpy's sampler refuses means above ~9.22e18 with "lam value too large"
        rho = maximally_mixed(1)
        with pytest.raises(ValueError, match="mean_total"):
            simulate_counts(rho, [("Z",)], mean_total, np.random.default_rng(0))

    def test_poisson_scale(self):
        rho = maximally_mixed(1)
        rng = np.random.default_rng(42)
        table = simulate_counts(rho, [("Z",)], 10_000, rng)
        for o in (0, 1):
            assert abs(table.counts[0, o] - 5000) < 350  # ~5 sigma


class TestMle:
    def test_under_complete_rejected(self):
        rho = maximally_mixed(1)
        table = exact_counts(rho, [("Z",)])
        with pytest.raises(ValueError, match="complete"):
            mle_reconstruct(table)

    def test_rank_full_for_pauli_settings(self):
        assert measurement_rank(pauli_settings(1), 2) == 4
        assert measurement_rank(pauli_settings(2), 4) == 16

    def test_exact_probabilities_recover_pure_state(self):
        rng = np.random.default_rng(3)
        for num_qubits in (1, 2):
            for _ in range(5):
                target = random_pure(num_qubits, rng)
                table = exact_counts(
                    DensityMatrix.from_pure(target), pauli_settings(num_qubits)
                )
                result = mle_reconstruct(table, target=target)
                assert result.fidelity_to_target >= 0.999

    def test_recovers_maximally_mixed(self):
        rng = np.random.default_rng(11)
        table = simulate_counts(
            maximally_mixed(1), pauli_settings(1), 20_000, rng
        )
        result = mle_reconstruct(table)
        assert linear_entropy(result.rho_hat) >= 0.99

    def test_output_always_physical(self):
        rng = np.random.default_rng(5)
        table = simulate_counts(
            DensityMatrix.from_pure(random_pure(2, rng)), pauli_settings(2), 200, rng
        )
        result = mle_reconstruct(table)
        vals = np.linalg.eigvalsh(result.rho_hat.matrix)
        assert vals.min() >= -1e-9
        assert np.trace(result.rho_hat.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_gradient_norm_reported(self):
        rng = np.random.default_rng(7)
        table = simulate_counts(
            DensityMatrix.from_pure(random_pure(2, rng)), pauli_settings(2), 1000, rng
        )
        result = mle_reconstruct(table)
        assert math.isfinite(result.gradient_norm) and result.gradient_norm >= 0.0

    def test_seed_clipped_eigenvalues_reported(self):
        mixed = mle_reconstruct(exact_counts(maximally_mixed(2), pauli_settings(2)))
        assert mixed.seed_clipped_eigenvalues == 0
        pure = DensityMatrix.from_pure(random_pure(2, np.random.default_rng(2)))
        result = mle_reconstruct(exact_counts(pure, pauli_settings(2)))
        assert result.seed_clipped_eigenvalues > 0

    def test_line_search_halvings_reported(self, monkeypatch):
        # Deutsch's verdict qubit from exact counts.  The public call
        # certifies the clipped linear-inversion estimate at iteration 0, with
        # one model evaluation; the ascent from the floored seed runs 3
        # iterations, the last of which halves its step until the step's
        # first-order gain is under the stopping gain, 9 halvings in all
        import blindsim.tomography as tomography
        from blindsim.experiments import deutsch_output_state

        evaluations = 0
        model_probabilities = tomography._model_probabilities

        def counting(*args):
            nonlocal evaluations
            evaluations += 1
            return model_probabilities(*args)

        output = deutsch_output_state("constant", 2, 3)
        table = exact_counts(DensityMatrix.from_pure(output), pauli_settings(1))
        monkeypatch.setattr(tomography, "_model_probabilities", counting)
        result = mle_reconstruct(table)
        assert result.converged and result.iterations == 0
        assert result.line_search_halvings == 0 and math.isnan(result.gradient_norm)
        assert evaluations == 1

        evaluations = 0
        run = tomography._ascend(
            tomography._PoissonLikelihood.of(table),
            tomography._linear_inversion(table, tomography._model_of(table)).floored(),
            max_iterations=2000,
            improvement_tol=1e-9,
        )
        assert run.converged and (run.iterations, run.halvings) == (3, 9)
        # one likelihood for the seed, one per halving and one per accepted
        # step (the first two iterations); each gradient reuses the
        # evaluation at its point
        assert evaluations == 1 + run.halvings + 2 == 12

    def test_gradient_is_the_slope_along_itself(self):
        # the line search's stop rests on |G|^2 being the slope of log L
        # along G; checked by finite differences on a four-qubit input
        from blindsim.tomography import _PoissonLikelihood, _linear_inversion, _model_of

        rho_true = apply_noise(lab_family_state(2, 3), NoiseParams())
        table = simulate_counts(rho_true, pauli_settings(4), 10_000, np.random.default_rng(3))
        likelihood = _PoissonLikelihood.of(table)
        t_mat = np.linalg.cholesky(
            _linear_inversion(table, _model_of(table)).floored() + 1e-9 * np.eye(16)
        )
        point = likelihood.at(t_mat)
        grad = likelihood.gradient(point)
        assert np.array_equal(grad, np.tril(grad))
        slope = float(np.vdot(grad, grad).real)
        eps = 1e-8
        up = likelihood.at(t_mat + eps * grad).log_likelihood
        down = likelihood.at(t_mat - eps * grad).log_likelihood
        forward = (up - likelihood.value(point.rho)) / (eps * slope)
        central = (up - down) / (2.0 * eps * slope)
        assert abs(forward - 1.0) <= 0.01
        assert abs(central - 1.0) <= 1e-5

    def test_likelihood_dominates_linear_inversion(self):
        from blindsim.tomography import _linear_inversion, _model_of

        rng = np.random.default_rng(13)
        target = random_pure(2, rng)
        table = simulate_counts(
            DensityMatrix.from_pure(target), pauli_settings(2), 1000, rng
        )
        result = mle_reconstruct(table)
        seed = _linear_inversion(table, _model_of(table)).floored()
        projectors = np.concatenate(
            [born_probabilities(DensityMatrix.from_matrix(seed), s) for s in table.settings]
        )
        mu = np.clip(table.exposure * projectors, 1e-15, None)
        ll_seed = float(np.sum(table.counts.reshape(-1) * np.log(mu) - mu))
        assert result.log_likelihood >= ll_seed - 1e-6


def random_density(num_qubits: int, rank: int, rng) -> DensityMatrix:
    dim = 2**num_qubits
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return DensityMatrix.from_matrix(rho / np.trace(rho).real)


def _rho_digest(result) -> str:
    return hashlib.sha256(np.ascontiguousarray(result.rho_hat.matrix).tobytes()).hexdigest()[:16]


def _poisson_table(name: str) -> CountsTable:
    """The noisy (2,3) four-qubit input of `run_tomography` at seeds 0-4,
    and TestMle's Poisson tables."""
    if name.startswith("four"):
        rho = apply_noise(lab_family_state(2, 3), NoiseParams())
        rng = np.random.default_rng(int(name[-1]))
        return simulate_counts(rho, pauli_settings(4), 10_000, rng)
    if name == "mixed1":
        rng = np.random.default_rng(11)
        return simulate_counts(maximally_mixed(1), pauli_settings(1), 20_000, rng)
    seed, total = {"pure2_5": (5, 200), "pure2_7": (7, 1000), "pure2_13": (13, 1000)}[name]
    rng = np.random.default_rng(seed)
    rho = DensityMatrix.from_pure(random_pure(2, rng))
    return simulate_counts(rho, pauli_settings(2), total, rng)


# (iterations, line_search_halvings, log_likelihood, SHA-256 prefix of
# rho_hat), computed before the certified return existed: the ascent's
# iterates are unchanged bit for bit.  The one-qubit settings measure each
# Pauli string once, so there the physical linear-inversion estimate matches
# the observed frequencies, is the optimum, and certifies; its
# log-likelihood is the one the ascent reached after its single iteration.
POISSON_PINS = {
    "four0": (16, 7, 4603507.744798769, "ed9533de018f7080"),
    "four1": (19, 9, 4595548.398813337, "9436571238dfdd06"),
    "four2": (18, 10, 4605223.713975541, "7933a00594d3251c"),
    "four3": (19, 9, 4600253.365597522, "730f141ad5dd7216"),
    "four4": (18, 8, 4608368.005278522, "775cb64a4f56abe1"),
    "mixed1": (0, 0, 490587.3575571381, "007802b2f7948ece"),
    "pure2_5": (34, 25, 6161.817188036035, "9b06785534d5e601"),
    "pure2_7": (32, 32, 44416.216765526246, "370553ebfd912b22"),
    "pure2_13": (60, 61, 43405.21771862587, "6cb3f32d8e142fb8"),
}


class TestCertifiedStop:
    @staticmethod
    def noise_free_states() -> list[DensityMatrix]:
        from blindsim.experiments import deutsch_output_state
        from blindsim.verification import ALIGNED10

        rng = np.random.default_rng(17)
        states = [
            random_density(n, rank, rng)
            for n in (1, 2, 3)
            for rank in sorted({1, 2, 2**n})
        ]
        return states + [
            DensityMatrix.from_pure(deutsch_output_state(oracle, n2, n3))
            for oracle in ("constant", "balanced")
            for n2, n3 in ALIGNED10
        ]

    def test_exact_counts_certify_the_true_state(self):
        # the returned state is the true one, and no random state, nor one
        # mixed slightly into the estimate, is more likely by over the
        # stopping gain
        from blindsim.tomography import _PoissonLikelihood

        rng = np.random.default_rng(29)
        for rho in self.noise_free_states():
            num_qubits = int(rho.dim).bit_length() - 1
            table = exact_counts(rho, pauli_settings(num_qubits))
            result = mle_reconstruct(table)
            assert result.converged and result.iterations == 0
            assert result.line_search_halvings == 0 and math.isnan(result.gradient_norm)
            assert np.abs(result.rho_hat.matrix - rho.matrix).max() <= 1e-9
            likelihood = _PoissonLikelihood.of(table)
            tolerance = 1e-9 * max(abs(result.log_likelihood), 1.0)
            for _ in range(20):
                sigma = random_density(num_qubits, int(rng.integers(1, rho.dim + 1)), rng)
                nearby = 0.999 * result.rho_hat.matrix + 0.001 * sigma.matrix
                for candidate in (sigma.matrix, nearby):
                    assert likelihood.value(candidate) <= result.log_likelihood + tolerance

    @pytest.mark.parametrize("name", sorted(POISSON_PINS))
    def test_poisson_tables_pinned(self, name):
        result = mle_reconstruct(_poisson_table(name))
        assert result.converged
        pinned = (result.iterations, result.line_search_halvings, result.log_likelihood)
        assert pinned + (_rho_digest(result),) == POISSON_PINS[name]


def _ascend_oracle(likelihood, seed, max_iterations=2000, improvement_tol=1e-9):
    """The ascent loop as it was before its evaluations were made cheaper,
    on the oracle evaluations: every point it evaluates, in order, and the
    point it ends at."""
    point = likelihood_at_oracle(likelihood, np.linalg.cholesky(seed + 1e-9 * np.eye(len(seed))))
    points = [point]
    step = prev_t = prev_grad = None
    for _ in range(max_iterations):
        grad_t = gradient_oracle(likelihood, point)
        norm = float(np.linalg.norm(grad_t))
        if norm < 1e-14:
            break
        if prev_t is not None:
            dt = (point.t_mat - prev_t).reshape(-1)
            dg = (grad_t - prev_grad).reshape(-1)
            curvature = -np.real(np.vdot(dt, dg))
            if curvature > 1e-30:
                step = float(np.real(np.vdot(dt, dt)) / curvature)
        if step is None:
            step = 1.0 / norm
        prev_t, prev_grad = point.t_mat, grad_t
        trial = abs(step)
        improved = False
        for _ in range(60):
            if trial * norm**2 < improvement_tol * max(abs(point.log_likelihood), 1.0):
                break
            candidate = likelihood_at_oracle(likelihood, point.t_mat + trial * grad_t)
            points.append(candidate)
            if candidate.log_likelihood > point.log_likelihood:
                improved = True
                break
            trial /= 2.0
        if not improved:
            break
        gain = candidate.log_likelihood - point.log_likelihood
        point = candidate
        if gain < improvement_tol * max(abs(point.log_likelihood), 1.0):
            break
    return points, point


class TestEvaluationReplay:
    @pytest.mark.parametrize("name", ["four0", "four1", "four2", "four3", "four4"])
    def test_ascent_replays_the_earlier_loop(self, name):
        # every point the ascent evaluates, bit for bit and in order, as
        # the loop before the cheaper evaluations evaluated it
        from blindsim import tomography

        table = _poisson_table(name)
        evaluated = []

        class Recording(tomography._PoissonLikelihood):
            def at(self, t_mat):
                evaluated.append(super().at(t_mat))
                return evaluated[-1]

        likelihood = Recording(*tomography._PoissonLikelihood.of(table))
        seed = tomography._linear_inversion(table, likelihood.model).floored()
        run = tomography._ascend(likelihood, seed, max_iterations=2000, improvement_tol=1e-9)
        replayed, end = _ascend_oracle(likelihood, seed)
        assert len(evaluated) == len(replayed) > run.iterations
        for ours, theirs in zip(evaluated, replayed):
            for field, a, b in zip(ours._fields, ours, theirs):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field
        assert run.rho.tobytes() == end.rho.tobytes()
        assert run.log_likelihood == end.log_likelihood

    def test_tomography_run_pinned(self, monkeypatch):
        # run_tomography(seed=0, mc_trials=3), pinned before the evaluations
        # were made cheaper: the reconstruction and the three Monte Carlo
        # resamples' MLEs, bit for bit
        from blindsim import experiments

        results = []

        def recording(*args, **kwargs):
            results.append(mle_reconstruct(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "mle_reconstruct", recording)
        out = experiments.run_tomography(seed=0, mc_trials=3)
        first = results[0]
        assert (
            float.hex(out["fidelity_to_ideal"]),
            float.hex(out["error_bars"]["fidelity_to_target"]),
            float.hex(first.log_likelihood),
            first.iterations,
            hashlib.sha256(np.ascontiguousarray(first.rho_hat.matrix).tobytes()).hexdigest(),
        ) == (
            "0x1.8f0a62e2fa934p-1",
            "0x1.3a0be74eb97f1p-11",
            "0x1.18f9cefaac875p+22",
            16,
            "ed9533de018f7080fbc6ce8028f232c373b6e45d5385b30f2b25c743ea8bc192",
        )
        assert [(r.iterations, r.line_search_halvings, float.hex(r.log_likelihood)) for r in results] == [
            (16, 7, "0x1.18f9cefaac875p+22"),
            (18, 10, "0x1.188345c3f4748p+22"),
            (20, 10, "0x1.190acf8eba8f0p+22"),
            (18, 10, "0x1.192fc4d6e16d6p+22"),
        ]


def _result_fields(result) -> tuple:
    """Every field of an MLEResult, floats by their bits (NaN included)."""
    hexed = lambda x: None if x is None else float.hex(x)
    return (
        result.rho_hat.matrix.tobytes(),
        result.rho_hat.num_qubits,
        hexed(result.log_likelihood),
        hexed(result.fidelity_to_target),
        result.error_bars,
        result.converged,
        result.iterations,
        hexed(result.gradient_norm),
        result.line_search_halvings,
        result.seed_clipped_eigenvalues,
    )


class TestBatch:
    """`mle_reconstruct_batch` and `exact_counts_batch` against their
    batches of one, field by field and bit for bit."""

    @staticmethod
    def assert_matches_batches_of_one(tables, target=None):
        batched = mle_reconstruct_batch(tables, target)
        assert len(batched) == len(tables)
        for table, result in zip(tables, batched):
            assert _result_fields(result) == _result_fields(mle_reconstruct(table, target))
        return batched

    @staticmethod
    def exact_tables(states):
        settings = pauli_settings(states[0].num_qubits)
        tables = exact_counts_batch(states, settings)
        for rho, table in zip(states, tables):
            alone = exact_counts(rho, settings)
            assert table.settings == alone.settings and table.exposure == alone.exposure
            assert table.counts.tobytes() == alone.counts.tobytes()
        return tables

    def test_deutsch_tables(self):
        from blindsim.experiments import deutsch_output_state
        from blindsim.verification import ALIGNED10

        states = [
            DensityMatrix.from_pure(deutsch_output_state(oracle, n2, n3))
            for oracle in ("constant", "balanced")
            for n2, n3 in ALIGNED10
        ]
        results = self.assert_matches_batches_of_one(self.exact_tables(states))
        assert all(r.converged and r.iterations == 0 for r in results)

    def test_noise_free_states(self):
        states = TestCertifiedStop.noise_free_states()
        for num_qubits in (1, 2, 3):
            group = [rho for rho in states if rho.num_qubits == num_qubits]
            target = PureState.computational(num_qubits, 1)
            self.assert_matches_batches_of_one(self.exact_tables(group), target)

    def test_four_qubit_poisson_tables(self):
        tables = [_poisson_table(f"four{seed}") for seed in range(5)]
        results = self.assert_matches_batches_of_one(tables, lab_family_state(2, 3))
        assert all(r.iterations > 0 for r in results)

    def test_certified_and_uncertified_tables_mixed(self):
        rng = np.random.default_rng(31)
        exact = self.exact_tables([random_density(2, rank, rng) for rank in (1, 2, 4)])
        poisson = [_poisson_table(name) for name in ("pure2_5", "pure2_7", "pure2_13")]
        tables = [exact[0], poisson[0], poisson[1], exact[1], poisson[2], exact[2]]
        results = self.assert_matches_batches_of_one(tables)
        assert [r.iterations == 0 for r in results] == [True, False, False, True, False, True]

    def test_empty_batch_refused(self):
        with pytest.raises(ValueError, match="no tables"):
            mle_reconstruct_batch([])
        with pytest.raises(ValueError, match="no states"):
            exact_counts_batch([], pauli_settings(1))

    def test_mixed_settings_refused(self):
        rho = maximally_mixed(1)
        tables = [exact_counts(rho, pauli_settings(1)), exact_counts(rho, [("Z",), ("Y",), ("X",)])]
        with pytest.raises(ValueError, match="one settings tuple"):
            mle_reconstruct_batch(tables)
        wide = exact_counts(maximally_mixed(2), pauli_settings(2))
        with pytest.raises(ValueError, match="one settings tuple"):
            mle_reconstruct_batch([tables[0], wide])

    def test_deutsch_tomography_runs_each_step_once(self, monkeypatch):
        # ten outputs: one evaluation for the counts and one at the seeds,
        # one eigh for the seeds, one eigvalsh for the certificates and one
        # for the checks of the estimates, and no one-matrix validation
        import blindsim.tomography as tomography
        from blindsim.experiments import run_deutsch

        calls = {"probabilities": 0, "eigh": 0, "eigvalsh": 0, "from_matrix": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            tomography, "_model_probabilities", counted("probabilities", tomography._model_probabilities)
        )
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(
            DensityMatrix, "from_matrix", counted("from_matrix", DensityMatrix.from_matrix)
        )
        assert run_deutsch("balanced")["verdicts_correct"]
        assert calls == {"probabilities": 2, "eigh": 1, "eigvalsh": 2, "from_matrix": 0}


class TestWidths:
    """A state or target whose number of qubits is not the settings' is
    refused, with both widths named."""

    def test_exact_counts_of_a_wider_state(self):
        rho = DensityMatrix.from_pure(PureState.computational(2, 1))
        with pytest.raises(ValueError, match="a state of width 2: the settings have width 1"):
            exact_counts(rho, pauli_settings(1))

    def test_exact_counts_of_a_narrower_state(self):
        with pytest.raises(ValueError, match="a state of width 1: the settings have width 2"):
            exact_counts(maximally_mixed(1), pauli_settings(2))

    def test_batch_with_one_state_of_another_width(self):
        states = [maximally_mixed(1), maximally_mixed(2), maximally_mixed(1)]
        with pytest.raises(ValueError, match="a state of width 2: the settings have width 1"):
            exact_counts_batch(states, pauli_settings(1))

    def test_simulated_counts_of_a_narrower_state(self):
        with pytest.raises(ValueError, match="a state of width 1: the settings have width 2"):
            simulate_counts(maximally_mixed(1), pauli_settings(2), 100.0, np.random.default_rng(0))

    def test_simulated_counts_of_a_wider_state(self):
        with pytest.raises(ValueError, match="a state of width 2: the settings have width 1"):
            simulate_counts(maximally_mixed(2), pauli_settings(1), 100.0, np.random.default_rng(0))

    @pytest.mark.parametrize("num_qubits", [1, 3])
    def test_mle_target_of_another_width(self, num_qubits):
        table = exact_counts(maximally_mixed(2), pauli_settings(2))
        with pytest.raises(
            ValueError, match=f"a target of width {num_qubits}: the settings have width 2"
        ):
            mle_reconstruct(table, target=PureState.computational(num_qubits, 0))


class TestMalformedTables:
    """`CountsTable` refuses what no likelihood can be built on, naming the
    field, and `mle_reconstruct` refuses a table with nothing to maximise."""

    GOOD = (pauli_settings(1), np.full((3, 2), 5.0), 10.0)

    @pytest.mark.parametrize("exposure", [-1.0, math.nan, math.inf, -math.inf])
    def test_exposure_not_finite_and_nonnegative(self, exposure):
        with pytest.raises(ValueError, match="exposure"):
            CountsTable(self.GOOD[0], self.GOOD[1], exposure)

    @pytest.mark.parametrize("entry", [-1.0, math.nan, math.inf, -math.inf])
    def test_counts_not_finite_and_nonnegative(self, entry):
        counts = self.GOOD[1].copy()
        counts[2, 1] = entry
        with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
            CountsTable(self.GOOD[0], counts, 10.0)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 1), (3,), (3, 2, 1), (2, 2)])
    def test_counts_not_one_row_of_2_to_the_n_per_setting(self, shape):
        with pytest.raises(ValueError, match="counts"):
            CountsTable(self.GOOD[0], np.ones(shape), 10.0)

    def test_empty_settings(self):
        with pytest.raises(ValueError, match="settings"):
            CountsTable([], np.ones((0, 2)), 10.0)

    @pytest.mark.parametrize("settings_", [[("X", "Y"), ("Z",)], [(), ()]])
    def test_settings_of_unequal_or_zero_length(self, settings_):
        with pytest.raises(ValueError, match="settings"):
            CountsTable(settings_, np.ones((2, 2)), 10.0)

    @pytest.mark.parametrize("axis", ["W", "x", "XY", 0])
    def test_settings_with_an_axis_outside_xyz(self, axis):
        with pytest.raises(ValueError, match="settings"):
            CountsTable([("X",), (axis,)], np.ones((2, 2)), 10.0)

    @pytest.mark.parametrize("exposure", [-1.0, math.nan, math.inf])
    def test_exact_tables_of_a_bad_exposure(self, exposure):
        # each table of a batch goes through the constructor's checks
        for states in ([maximally_mixed(1)], [maximally_mixed(1)] * 2):
            with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
                exact_counts_batch(states, pauli_settings(1), exposure)

    def test_mle_refuses_exposure_zero(self):
        table = simulate_counts(maximally_mixed(1), pauli_settings(1), 0, np.random.default_rng(0))
        assert table.exposure == 0 and not table.counts.any()
        with pytest.raises(ValueError, match="exposure"):
            mle_reconstruct(table)

    def test_simulated_settings_checked_before_the_model(self):
        with pytest.raises(ValueError, match="settings"):
            simulate_counts(maximally_mixed(1), [], 10.0, np.random.default_rng(0))


class TestMonteCarlo:
    def test_constant_extractor_zero_spread(self):
        rho = maximally_mixed(1)
        table = exact_counts(rho, pauli_settings(1), exposure=100)
        rng = np.random.default_rng(0)
        assert monte_carlo_errors(table, 20, lambda t: 1.23, rng) == 0.0

    def test_fewer_than_two_trials_refused(self):
        # the spread of one resampling is 0 whatever the counts
        table = exact_counts(maximally_mixed(1), pauli_settings(1), exposure=100)
        for n_trials in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2"):
                monte_carlo_errors(table, n_trials, lambda t: 1.23, np.random.default_rng(0))

    def test_error_bars_shrink_with_counts(self):
        target = PureState.ket_theta(PI / 4)
        rho = DensityMatrix.from_pure(target)
        rng = np.random.default_rng(21)

        def fidelity_extractor(t: CountsTable) -> float:
            return mle_reconstruct(t, target=target).fidelity_to_target

        spreads = []
        for mean_total in (200, 20_000):
            table = simulate_counts(rho, pauli_settings(1), mean_total, rng)
            spreads.append(
                monte_carlo_errors(table, 30, fidelity_extractor, rng)
            )
        # 100x the counts should shrink the bars roughly 10x; allow slack
        assert spreads[1] < spreads[0] / 3
