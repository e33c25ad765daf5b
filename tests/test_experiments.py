"""Experiment runners: ideal values, algorithm hiding, reproducibility, CLI."""
import json
import math
import os
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blindsim
from blindsim.angles import Angle8
from blindsim.cli import main
from blindsim.experiments import (
    BLINDNESS_NOISE,
    DEUTSCH_ORACLE_ANGLES,
    ExperimentConfig,
    GROVER_TAG_ANGLES,
    grover_decode,
    instruction_pair_distribution,
    run_blindness,
    run_bulk_branches,
    run_deutsch,
    run_fig3c,
    run_fig3d,
    run_grover,
    run_grover_sessions,
    run_quantumness,
    run_tomography,
    _noisy_outputs,
)
from blindsim.blindness import (
    Ensemble,
    holevo_chi,
    maximize_chi_over_priors,
    mixedness_check,
    pair_fold,
)
from blindsim.clusters import BlindPhases, ClusterConfig, build_blind_cluster
from blindsim.mbqc import pattern_for
from blindsim.noise import NoiseParams, apply_noise
from blindsim.quantum import HADAMARD, DensityMatrix, PureState, fidelity_pure, phase_gate, rx, rz

A = Angle8
PI = math.pi


def grover_circuit_state(tag: str) -> PureState:
    """Independent oracle: the two-qubit Grover circuit before readout.

    Builds oracle-then-mapping gate algebra on |+>|+>: the tagging operation
    (Rz(a pi) x Rz(b pi)) CPhase followed by
    (I x H) CPhase (H Rz(-pi/2) x I).
    """
    a = 1 - int(tag[1])
    b = 1 - int(tag[0])
    plus = PureState.plus().amplitudes
    cz = np.diag([1.0, 1, 1, -1]).astype(complex)
    psi = cz @ np.kron(plus, plus)
    psi = np.kron(phase_gate(a * PI), phase_gate(b * PI)) @ psi
    psi = np.kron(HADAMARD @ phase_gate(-PI / 2), np.eye(2)) @ psi
    psi = cz @ psi
    psi = np.kron(np.eye(2), HADAMARD) @ psi
    return PureState.from_amplitudes(psi)


def grover_circuit_readout(tag: str) -> tuple[int, int]:
    """Measure the circuit-model output in the |±_i> x |±_i> basis."""
    psi = grover_circuit_state(tag)
    for m1 in (0, 1):
        for m4 in (0, 1):
            p1, rest = psi.project_delta(1, PI / 2, m1)
            if rest is None:
                continue
            p4, _ = rest.project_delta(1, PI / 2, m4)
            if p1 * p4 > 1 - 1e-9:
                return (m1, m4)
    raise AssertionError("circuit readout is not deterministic")


def _noisy_divergences_bits(seed: int, prior: np.ndarray) -> np.ndarray:
    """D(rho_j || mean) in bits over the noisy folded sweep `blindness --seed` builds."""
    rng = np.random.default_rng(seed)
    graph = ClusterConfig.LINEAR_LEFT.graph
    states = [
        apply_noise(build_blind_cluster(graph, BlindPhases.family(2, n)), BLINDNESS_NOISE, rng)
        for n in range(8)
    ]
    folded = [(states[n].matrix + states[(n + 4) % 8].matrix) / 2 for n in range(8)]
    vals, vecs = np.linalg.eigh(sum(p * s for p, s in zip(prior, folded)))
    log_mean = (vecs * np.log2(np.clip(vals, 1e-300, None))) @ vecs.conj().T
    divergences = []
    for s in folded:
        own = np.linalg.eigvalsh(s)
        own = own[own > 1e-15]
        divergences.append(float(own @ np.log2(own)) - float(np.real(np.trace(s @ log_mean))))
    return np.array(divergences)


class TestGrover:
    def test_all_tags_ideal(self):
        for tag in sorted(GROVER_TAG_ANGLES):
            table = run_grover(tag)
            assert table["success_min"] >= 1.0 - 1e-9
            assert table["classical_bound"] == 0.5

    def test_tag01_angle_anchor(self):
        # tagging |01> uses measurement angles -pi/2 and pi
        phi2, phi3 = GROVER_TAG_ANGLES["01"]
        assert {phi2.eighths, phi3.eighths} == {6, 4}

    def test_engine_vs_circuit_readout_frame(self):
        # engine readout = bitwise NOT of the circuit-model readout; both
        # decode to the same tag
        from blindsim.clusters import BlindPhases
        from blindsim.mbqc import cluster_state_for, enumerate_adaptive, pattern_for

        for tag in sorted(GROVER_TAG_ANGLES):
            m1, m4 = grover_circuit_readout(tag)
            phi2, phi3 = GROVER_TAG_ANGLES[tag]
            phi = {1: A(2), 4: A(2), 2: phi2, 3: phi3}
            pattern = pattern_for(ClusterConfig.TRIANGLE, phi=phi)
            phases = BlindPhases.family(4, 5)
            state = cluster_state_for(ClusterConfig.TRIANGLE, phases)
            branch = next(
                b
                for b in enumerate_adaptive(state, pattern, phases, {})
                if not b.impossible
            )
            assert (branch.interpreted[1], branch.interpreted[4]) == (
                1 - m1,
                1 - m4,
            )
            assert grover_decode(branch.interpreted) == tag

    def test_live_sessions_decode(self):
        for tag in ("00", "11"):
            decoded = run_grover_sessions(tag, seed=5, n_sessions=8)
            assert decoded == [tag] * 8

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            run_grover("21")


class TestDeutsch:
    def test_both_oracles(self):
        for oracle in ("constant", "balanced"):
            table = run_deutsch(oracle)
            assert table["success_min"] >= 1.0 - 1e-9
            assert table["verdicts_correct"]

    def test_tables_pinned(self):
        # the success probabilities are the engine's, bit for bit; the
        # verdicts come from the tomography's certified estimate
        nearer_one = {(2, 1), (2, 5)}
        for oracle in ("constant", "balanced"):
            for row in run_deutsch(oracle)["rows"]:
                pinned = "0x1.ffffffffffffbp-1" if (row["n2"], row["n3"]) in nearer_one else (
                    "0x1.ffffffffffffap-1"
                )
                assert row["success_probability"].hex() == pinned
                assert row["tomography_verdict"] == oracle
                assert abs(row["verdict_fidelity"] - 1.0) <= 1e-12

    def test_verdict_states_orthogonal(self):
        assert DEUTSCH_ORACLE_ANGLES["constant"] != DEUTSCH_ORACLE_ANGLES["balanced"]

    def test_unknown_oracle(self):
        with pytest.raises(ValueError):
            run_deutsch("both")


class TestAlgorithmHiding:
    def test_delta_distribution_identical_across_computations(self):
        """Constant Deutsch, balanced Deutsch, and every Grover tag induce
        the same uniform (delta2, delta3) message distribution."""
        reference = None
        computations = [
            {2: A(0), 3: DEUTSCH_ORACLE_ANGLES["constant"]},
            {2: A(0), 3: DEUTSCH_ORACLE_ANGLES["balanced"]},
        ] + [
            {2: pair[0], 3: pair[1]} for pair in GROVER_TAG_ANGLES.values()
        ]
        for phi in computations:
            dist = instruction_pair_distribution(ClusterConfig.STAIRCASE, phi)
            assert len(dist) == 64
            assert all(abs(p - 1 / 64) < 1e-12 for p in dist.values())
            if reference is None:
                reference = dist
            else:
                assert dist == reference


class TestFigures:
    def test_fig3c_table(self):
        table = run_fig3c()
        assert table["average_linear_entropy"] == pytest.approx(1.0, abs=1e-9)
        assert all(
            row["fidelity_to_target"] == pytest.approx(1.0, abs=1e-9)
            for row in table["rows"]
        )
        avg = np.array(
            [[complex(re, im) for re, im in row] for row in table["average_density"]]
        )
        np.testing.assert_allclose(avg, np.eye(2) / 2, atol=1e-9)

    def test_fig3c_noisy_entropy_still_high(self):
        table = run_fig3c(ExperimentConfig("fig3c", noise=NoiseParams()))
        assert table["noisy_average_linear_entropy"] >= 0.95

    def test_fig3d_table(self):
        table = run_fig3d()
        assert table["average_linear_entropy"] == pytest.approx(1.0, abs=1e-9)
        assert table["single_state_linear_entropy"] == pytest.approx(0.0, abs=1e-9)
        rotations = {row["hidden_rotation"] for row in table["rows"]}
        # the hidden family: Rz(pi/2 + a pi) x Rz(pi/2 + b pi)
        assert rotations == {
            "Rz(2pi/4) x Rz(0pi/4 + pi/2)",
            "Rz(2pi/4) x Rz(4pi/4 + pi/2)",
            "Rz(6pi/4) x Rz(0pi/4 + pi/2)",
            "Rz(6pi/4) x Rz(4pi/4 + pi/2)",
        }

    def test_reproducible_given_seed(self):
        a = run_fig3c(ExperimentConfig("fig3c", seed=9))
        b = run_fig3c(ExperimentConfig("fig3c", seed=9))
        assert json.dumps(a, default=str) == json.dumps(b, default=str)


NOISE_SETTINGS = (
    NoiseParams(1.0, 1.0, 0.0),
    NoiseParams(),
    NoiseParams(0.7, 0.95, 0.3),
    NoiseParams(0.8, 0.6, 0.05),
)


def _walker_output(config, phases, deltas, noise):
    """Oracle: the density-matrix walk the noisy figure outputs were once
    computed by.  Dephase the cluster, project each measured qubit in turn
    onto outcome 0 of its instruction, then unwind theta and apply the frame
    (the all-zero branch needs no Pauli correction)."""
    psi = build_blind_cluster(config.graph, phases)
    rho = apply_noise(psi, noise).matrix
    remaining = [1, 2, 3, 4]
    for qubit in config.measure_order:
        pos, dim = remaining.index(qubit), len(remaining)
        bra = np.array([1.0, np.exp(1j * deltas[qubit].radians)]).conj() / math.sqrt(2)
        tensor = rho.reshape([2] * (2 * dim))
        tensor = np.tensordot(bra, tensor, axes=([0], [pos]))
        tensor = np.tensordot(bra.conj(), tensor, axes=([0], [dim - 1 + pos]))
        rho = tensor.reshape(2 ** (dim - 1), 2 ** (dim - 1))
        rho = rho / np.trace(rho).real
        remaining.remove(qubit)
    pattern = pattern_for(config)
    outputs = sorted(pattern.outputs)
    n = len(outputs)

    def apply(rho, axis, u):
        tensor = rho.reshape([2] * (2 * n))
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [axis])), 0, axis)
        tensor = np.tensordot(u.conj(), tensor, axes=([1], [n + axis]))
        return np.moveaxis(tensor, 0, n + axis).reshape(rho.shape)

    for q in pattern.theta_unwind:
        rho = apply(rho, outputs.index(q), rz(-phases[q].radians))
    for q in pattern.frame:
        rho = apply(rho, outputs.index(q), HADAMARD)
    return rho


class TestNoisyOutputs:
    @pytest.mark.parametrize(
        "config", [c for c in ClusterConfig if c.outputs], ids=lambda c: c.value
    )
    def test_engine_mixture_matches_the_walker(self, config):
        rng = np.random.default_rng(1403)
        states = [(n2, n3) for n2 in range(8) for n3 in range(8)]
        for _ in range(3):
            deltas = {q: A(int(rng.integers(8))) for q in config.measure_order}
            # a linear cluster's first measurement is at its delta, not in Z
            pattern = pattern_for(config, input_prep=deltas[config.measure_order[0]])
            for noise in NOISE_SETTINGS:
                engine = _noisy_outputs(pattern, deltas, states, noise)
                for (n2, n3), rho in zip(states, engine):
                    oracle = _walker_output(config, BlindPhases.family(n2, n3), deltas, noise)
                    np.testing.assert_allclose(rho.matrix, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise", NOISE_SETTINGS[1:])
    def test_noisy_fig3c_matches_the_walker(self, noise):
        table = run_fig3c(ExperimentConfig("fig3c", noise=noise))
        deltas = {4: A(2), 3: A(6), 2: A(6)}
        psi_in = np.array([1.0, 1j]) / math.sqrt(2)
        walked = []
        for row in table["rows"]:
            n3 = row["n3"]
            rho = DensityMatrix.from_matrix(
                _walker_output(ClusterConfig.LINEAR_LEFT, BlindPhases.family(2, n3), deltas, noise)
            )
            walked.append(rho)
            target = PureState.from_amplitudes(rx(PI) @ rz(n3 * PI / 4 + PI / 2) @ psi_in)
            assert row["noisy_fidelity_to_target"] == pytest.approx(
                fidelity_pure(rho, target), abs=1e-12
            )
        assert table["noisy_average_linear_entropy"] == pytest.approx(
            mixedness_check(walked), abs=1e-12
        )

    @pytest.mark.parametrize("noise", NOISE_SETTINGS[1:])
    def test_noisy_fig3d_matches_the_walker(self, noise):
        table = run_fig3d(ExperimentConfig("fig3d", noise=noise))
        deltas = {2: A(0), 3: A(6)}
        cz_plus_plus = np.array([1.0, 1.0, 1.0, -1.0]) / 2
        walked = []
        for row in table["rows"]:
            n2, n3 = row["n2"], row["n3"]
            rho = DensityMatrix.from_matrix(
                _walker_output(ClusterConfig.HORSESHOE, BlindPhases.family(n2, n3), deltas, noise)
            )
            walked.append(rho)
            target = PureState.from_amplitudes(
                np.kron(rz(n2 * PI / 4), rz(n3 * PI / 4 + PI / 2)) @ cz_plus_plus
            )
            assert row["noisy_fidelity_to_target"] == pytest.approx(
                fidelity_pure(rho, target), abs=1e-12
            )
        assert table["noisy_average_linear_entropy"] == pytest.approx(
            mixedness_check(walked), abs=1e-12
        )
        assert all(row["noisy_fidelity_to_target"] < 1.0 for row in table["rows"])


class TestBlindnessExperiment:
    def test_ideal_and_broken(self):
        table = run_blindness(ExperimentConfig("blindness"))
        assert table["ideal"]["chi_uniform_bits"] == pytest.approx(0.0, abs=1e-9)
        assert table["ideal"]["chi_maximized_bits"] == pytest.approx(0.0, abs=1e-9)
        assert table["r_broken_chi_uniform_bits"] == pytest.approx(1.0, abs=1e-6)

    def test_noisy_leaks_a_little(self):
        table = run_blindness()
        assert 0.0 < table["noisy"]["chi_uniform_bits"] < 0.5
        assert (
            table["noisy"]["chi_maximized_bits"]
            >= table["noisy"]["chi_uniform_bits"] - 1e-9
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_reports_match_per_state_ensembles(self, seed):
        # oracle: each state built on its own and folded by hand
        def report(states):
            folded = pair_fold(Ensemble(states, np.full(8, 1.0 / 8.0)))
            return json.loads(maximize_chi_over_priors(folded).to_json())

        graph = ClusterConfig.LINEAR_LEFT.graph
        pure = [build_blind_cluster(graph, BlindPhases.family(2, n)) for n in range(8)]
        states = [DensityMatrix.from_pure(psi) for psi in pure]
        rng = np.random.default_rng(seed)
        noisy = [apply_noise(psi, BLINDNESS_NOISE, rng) for psi in pure]
        table = run_blindness(ExperimentConfig("blindness", seed=seed, noise=BLINDNESS_NOISE))
        assert table["ideal"] == report(states)
        assert table["r_broken_chi_uniform_bits"] == holevo_chi(
            Ensemble(states, np.full(8, 1.0 / 8.0))
        )
        assert table["noisy"] == report(noisy)


class TestTomographyExperiment:
    def test_fig3b_analogue_structure(self):
        table = run_tomography(
            ExperimentConfig("tomography", noise=NoiseParams()), mc_trials=5
        )
        assert table["error_bars"]["fidelity_to_target"] > 0.0
        assert table["converged"]
        # real part dominated by the four corner terms of the lab-basis state
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in table["rho_hat"]]
        ).real
        corners = {0, 3, 12, 15}
        on = np.mean([abs(mat[i, j]) for i in corners for j in corners])
        off = np.mean(
            [
                abs(mat[i, j])
                for i in range(16)
                for j in range(16)
                if not (i in corners and j in corners)
            ]
        )
        assert on > 20 * off


class TestBulk:
    def test_bulk_rows(self):
        table = run_bulk_branches()
        assert table["row_count"] == 10 * 16
        total = sum(r["probability"] for r in table["rows"])
        assert total == pytest.approx(10.0, abs=1e-9)


class TestQuantumnessExperiment:
    def test_small_run(self):
        table = run_quantumness(
            ExperimentConfig("quantumness", seed=3), rounds=500, stub_trials=5
        )
        assert table["honest"]["verdict"] == "quantum-consistent"
        assert table["stub_rejection_rate"] == 1.0
        assert table["classical_guess_risk"] == pytest.approx(0.125, abs=1e-12)


class TestCli:
    def test_exit_codes(self, tmp_path):
        out = tmp_path / "grover.json"
        assert main(["grover", "--tag", "11", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert table["success_min"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("command", ["grover", "deutsch", "quantumness", "bulk"])
    def test_ideal_commands_refuse_noise_flags(self, command, capsys):
        # these runners compute ideal values, so a noise flag would be ignored
        with pytest.raises(SystemExit) as refused:
            main([command, "--noisy"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --noisy" in capsys.readouterr().err

    def test_csv_output(self, capsys):
        assert main(["deutsch", "--oracle", "balanced", "--csv"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("n2,n3,success_probability")

    def test_seed_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("BLINDSIM_SEED", "123")
        assert main(["fig3d"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["config"]["seed"] == 123

    def test_blindness_seed_zero_reproduces_default_table(self, tmp_path):
        out = tmp_path / "blindness.json"
        assert main(["blindness", "--seed", "0", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert table["config"]["seed"] == 0
        assert table["config"]["noise"]["phase_drift_sigma"] == 0.15
        noisy = table["noisy"]
        assert noisy["iterations"] <= 10 and noisy["converged"]
        assert noisy["chi_uniform_bits"] == pytest.approx(0.012769709637880267, abs=1e-12)
        # the multiplicative update stopped at 0.014591718451348434 with a
        # certified gap of 1e-8, so the maximum lies in that bracket
        chi = noisy["chi_maximized_bits"]
        assert 0.014591718451348434 - 1e-12 <= chi <= 0.014591718451348434 + 1e-8
        assert chi == pytest.approx(0.014591721163778049, abs=1e-12)
        # KKT on the prior; the prior itself is not unique, because the
        # folded states n and n + 4 are identical
        prior = np.array(noisy["argmax_prior"])
        assert noisy["support"] == np.flatnonzero(prior > 0.0).tolist()
        divergences = _noisy_divergences_bits(0, prior)
        assert divergences.max() <= chi + noisy["duality_gap_bits"] + 1e-12
        assert np.abs(divergences[noisy["support"]] - chi).max() <= 1e-8

    @pytest.mark.parametrize(
        "flaw", [{"converged": False}, {"duality_gap_bits": 2e-6}], ids=["unconverged", "wide_gap"]
    )
    def test_blindness_fails_without_a_noisy_certificate(self, flaw, monkeypatch, tmp_path):
        import blindsim.cli as cli

        table = run_blindness(ExperimentConfig("blindness", noise=BLINDNESS_NOISE))
        flawed = {**table, "noisy": {**table["noisy"], **flaw}}
        monkeypatch.setattr(cli, "run_blindness", lambda config: flawed)
        assert main(["blindness", "--out", str(tmp_path / "blindness.json")]) == 2

    def test_tomography_fails_on_an_unconverged_mle(self, monkeypatch, tmp_path):
        import blindsim.cli as cli

        table = run_tomography(mc_trials=1)
        assert table["converged"]
        flawed = {**table, "converged": False}
        monkeypatch.setattr(cli, "run_tomography", lambda config, **kwargs: flawed)
        assert main(["tomography", "--out", str(tmp_path / "tomography.json")]) == 2

    def test_blindness_seed_draws_the_drift(self, tmp_path):
        chis = []
        for seed in (0, 1):
            out = tmp_path / f"blindness-{seed}.json"
            assert main(["blindness", "--seed", str(seed), "--out", str(out)]) == 0
            table = json.loads(out.read_text())
            assert table["config"]["seed"] == seed
            chis.append(table["noisy"]["chi_maximized_bits"])
        assert abs(chis[0] - chis[1]) > 1e-6

    def test_serve_announces_address_through_a_pipe(self):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(blindsim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "blindsim.cli", "serve", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 5.0)
            assert ready, "no output within 5 s"
            line = proc.stdout.readline().decode()
            assert line.startswith("listening on 127.0.0.1:")
            assert int(line.rsplit(":", 1)[1]) > 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_bulk(self, capsys):
        assert main(["bulk", "--csv"]) == 0
        assert capsys.readouterr().out.startswith("setting,n2,n3,outcome")
