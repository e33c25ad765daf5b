"""Experiment runners: ideal values, algorithm hiding, reproducibility, CLI."""
import copy
import functools
import hashlib
import json
import math
import os
import select
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import blindsim
from blindsim.angles import Angle8
from blindsim.cli import main
import blindsim.experiments as experiments
from blindsim.experiments import (
    BLINDNESS_NOISE,
    DEUTSCH_ORACLE_ANGLES,
    GROVER_TAG_ANGLES,
    deutsch_output_state,
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
    _figure_outputs,
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
from blindsim.protocol import ClientSecrets, run_session
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

    def test_live_session_streams_are_independent(self, monkeypatch):
        # no server replays the client's stream, and seed 5's session 1 does
        # not share a server stream with seed 6's session 0
        def first_draws(seed):
            return tuple(np.random.default_rng(copy.deepcopy(seed)).integers(2**32, size=4))

        draws = []

        def recording(secrets, server_seed):
            draws.append(first_draws(server_seed))
            return run_session(secrets, server_seed)

        monkeypatch.setattr(experiments, "run_session", recording)
        for seed in (5, 6):
            draws.append(first_draws(seed))  # the client's secrets
            assert run_grover_sessions("01", seed=seed, n_sessions=2) == ["01", "01"]
        assert len(draws) == 6 and len(set(draws)) == 6

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

    def test_output_states_pinned(self):
        # every corrected output of the family, bit for bit
        digest = hashlib.sha256()
        for oracle in ("constant", "balanced"):
            for n2 in range(8):
                for n3 in range(8):
                    digest.update(deutsch_output_state(oracle, n2, n3).amplitudes.tobytes())
        assert digest.hexdigest() == (
            "2c72eaf6e8d9f8624312ead470076f668e0b76582bdb424099a7e4405526c446"
        )

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
        table = run_fig3c(noise=NoiseParams())
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

    def test_fig3c_is_reproducible(self):
        a, b = run_fig3c(), run_fig3c()
        assert json.dumps(a, default=str) == json.dumps(b, default=str)

    @pytest.mark.parametrize(
        "experiment, run",
        [
            ("fig3c", run_fig3c),
            ("fig3d", run_fig3d),
            ("grover", functools.partial(run_grover, "01")),
            ("deutsch", functools.partial(run_deutsch, "constant")),
            ("bulk", run_bulk_branches),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_exact_runners_have_no_seed(self, experiment, run):
        # exact tables sample nothing, so there is no seed to take or echo
        with pytest.raises(TypeError, match="seed"):
            run(seed=0)
        config = run()["config"]
        assert config["experiment"] == experiment and "seed" not in config


def _session_outputs(config, deltas, states):
    """Oracle: the per-state session loop the ideal figure outputs were once
    computed by.  With r = 0 the client picks phi = delta - theta, so the
    server is told exactly the fixed deltas; a linear cluster's first
    measurement prepares the input at its delta."""
    linear = config in (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT)
    outputs = []
    for k, (n2, n3) in enumerate(states):
        phases = BlindPhases.family(n2, n3)
        phi = {q: deltas[q] - phases[q] for q in config.measure_order}
        prep = phi[config.measure_order[0]] if linear else "Z"
        secrets = ClientSecrets(config, phases, {q: 0 for q in phi}, phi, input_prep=prep)
        _, result = run_session(secrets, server_seed=k)
        outputs.append(DensityMatrix.from_pure(result.output_state))
    return outputs


class TestFiguresComeFromOneEngineCall:
    @pytest.mark.parametrize("noise", [None, NoiseParams()], ids=["ideal", "noisy"])
    def test_one_engine_call_per_figure_agrees_with_the_session_loop(self, noise, monkeypatch):
        calls = 0
        measure_batch = experiments._measure_batch

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return measure_batch(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a figure runner ran a protocol session")

        monkeypatch.setattr(experiments, "_measure_batch", counting)
        monkeypatch.setattr(experiments, "run_session", refuse)
        fig3c = run_fig3c(noise=noise)
        assert calls == 1
        fig3d = run_fig3d(noise=noise)
        assert calls == 2
        monkeypatch.undo()

        sessions = _session_outputs(
            ClusterConfig.LINEAR_LEFT, {4: A(2), 3: A(6), 2: A(6)}, [(2, n) for n in range(8)]
        )
        for row, rho in zip(fig3c["rows"], sessions, strict=True):
            density = np.array([[complex(re, im) for re, im in r] for r in row["output_density"]])
            np.testing.assert_allclose(density, rho.matrix, rtol=0, atol=1e-12)
        sessions = _session_outputs(ClusterConfig.HORSESHOE, {2: A(0), 3: A(6)}, fig3d["states"])
        cz_plus_plus = np.array([1.0, 1.0, 1.0, -1.0]) / 2
        for row, rho in zip(fig3d["rows"], sessions, strict=True):
            target = PureState.from_amplitudes(
                np.kron(rz(row["n2"] * PI / 4), rz(row["n3"] * PI / 4 + PI / 2)) @ cz_plus_plus
            )
            assert row["fidelity_to_target"] == pytest.approx(fidelity_pure(rho, target), abs=1e-12)


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
            linear = config in (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT)
            prep = deltas[config.measure_order[0]] if linear else "Z"
            pattern = pattern_for(config, input_prep=prep)
            for noise in NOISE_SETTINGS:
                _, engine = _figure_outputs(pattern, deltas, states, noise)
                for (n2, n3), rho in zip(states, engine):
                    oracle = _walker_output(config, BlindPhases.family(n2, n3), deltas, noise)
                    np.testing.assert_allclose(rho.matrix, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise", NOISE_SETTINGS[1:])
    def test_noisy_fig3c_matches_the_walker(self, noise):
        table = run_fig3c(noise=noise)
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
        table = run_fig3d(noise=noise)
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
        table = run_blindness(noise=None)
        assert "noisy" not in table
        assert table["config"] == {"experiment": "blindness", "seed": 0, "noise": None}
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
            return maximize_chi_over_priors(folded).as_dict()

        graph = ClusterConfig.LINEAR_LEFT.graph
        pure = [build_blind_cluster(graph, BlindPhases.family(2, n)) for n in range(8)]
        states = [DensityMatrix.from_pure(psi) for psi in pure]
        rng = np.random.default_rng(seed)
        noisy = [apply_noise(psi, BLINDNESS_NOISE, rng) for psi in pure]
        table = run_blindness(seed=seed, noise=BLINDNESS_NOISE)
        assert table["ideal"] == report(states)
        assert table["r_broken_chi_uniform_bits"] == holevo_chi(
            Ensemble(states, np.full(8, 1.0 / 8.0))
        )
        assert table["noisy"] == report(noisy)


class TestTomographyExperiment:
    def test_fig3b_analogue_structure(self):
        table = run_tomography(noise=NoiseParams(), mc_trials=5)
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
        table = run_quantumness(seed=3, rounds=500, stub_trials=5)
        assert table["honest"]["verdict"] == "quantum-consistent"
        assert table["stub_rejection_rate"] == 1.0
        assert table["classical_guess_risk"] == pytest.approx(0.125, abs=1e-12)


# a cheap passing invocation of every experiment command
PASSING_ARGV = [
    ["fig3c"],
    ["fig3d"],
    ["grover"],
    ["deutsch"],
    ["quantumness", "--rounds", "500"],
    ["tomography", "--mc-trials", "2"],
    ["blindness"],
    ["bulk"],
]

# command -> its table's `config` keys: the experiment and the inputs its runner reads
CONFIG_KEYS = {
    "fig3c": {"experiment", "noise"},
    "fig3d": {"experiment", "noise"},
    "grover": {"experiment"},
    "deutsch": {"experiment"},
    "quantumness": {"experiment", "seed"},
    "tomography": {"experiment", "seed", "noise"},
    "blindness": {"experiment", "seed", "noise"},
    "bulk": {"experiment"},
}

# the commands whose runners draw nothing at random, so they take no --seed
EXACT_COMMANDS = ["fig3c", "fig3d", "grover", "deutsch", "bulk"]


# (argv, runner, flaw applied to the runner's passing table, the check it fails)
FORCED_FAILURES = [
    (["fig3c"], "run_fig3c", lambda t: {**t, "average_linear_entropy": 0.9},
     "average_linear_entropy"),
    (["fig3d"], "run_fig3d",
     lambda t: {**t, "rows": [{**r, "fidelity_to_target": 0.9} for r in t["rows"]]},
     "rows.fidelity_to_target"),
    (["grover"], "run_grover", lambda t: {**t, "success_min": 0.5}, "success_min"),
    (["deutsch", "--csv"], "run_deutsch", lambda t: {**t, "success_min": 0.5}, "success_min"),
    (["quantumness", "--rounds", "500"], "run_quantumness",
     lambda t: {**t, "honest": {**t["honest"], "verdict": "classical-suspect"}}, "honest.verdict"),
    (["quantumness", "--rounds", "500"], "run_quantumness",
     lambda t: {**t, "classical_guess_risk": 0.1}, "classical_guess_risk"),
    (["quantumness", "--rounds", "500", "--stub-trials", "2"], "run_quantumness",
     lambda t: {**t, "stub_rejection_rate": 0.5}, "stub_rejection_rate"),
    (["tomography", "--mc-trials", "2"], "run_tomography",
     lambda t: {**t, "fidelity_to_ideal": t["true_fidelity"] - 0.06}, "fidelity_to_ideal"),
    (["blindness"], "run_blindness",
     lambda t: {**t, "ideal": {**t["ideal"], "chi_uniform_bits": 1e-8}}, "ideal.chi_uniform_bits"),
    (["blindness"], "run_blindness",
     lambda t: {**t, "ideal": {**t["ideal"], "chi_maximized_bits": 1e-8}},
     "ideal.chi_maximized_bits"),
    (["blindness"], "run_blindness", lambda t: {**t, "r_broken_chi_uniform_bits": 0.99},
     "r_broken_chi_uniform_bits"),
    (["bulk", "--csv"], "run_bulk_branches", lambda t: {**t, "row_count": 0}, "row_count"),
]


# (argv, the usage error's message): flag values out of range
BAD_FLAG_VALUES = [
    (["quantumness", "--rounds", "0"], "argument --rounds: expected an integer >= 1"),
    (["quantumness", "--stub-trials", "-1"], "argument --stub-trials: expected an integer >= 0"),
    (["quantumness", "--seed", "-1"], "argument --seed: expected an integer >= 0"),
    (["blindness", "--seed", "1.5"], "argument --seed: expected an integer >= 0"),
    (["serve", "--listen", "127.0.0.1:0", "--seed", "-3"], "argument --seed: expected an integer >= 0"),
    (["tomography", "--mc-trials", "0"], "argument --mc-trials: expected an integer >= 2"),
    (["tomography", "--mc-trials", "1"], "argument --mc-trials: expected an integer >= 2"),
    (["tomography", "--mean-total", "-5"], "argument --mean-total: expected a finite number > 0"),
    (["tomography", "--mean-total", "nan"], "argument --mean-total: expected a finite number"),
    (["tomography", "--mean-total", "inf"], "argument --mean-total: expected a finite number"),
    (
        ["tomography", "--mean-total", "1e20"],
        "argument --mean-total: expected a finite number > 0 and <= 9e+18",
    ),
    (["fig3c", "--noisy", "--bell-visibility", "2"], "bell_visibility = 2.0 outside [0, 1]"),
    (["blindness", "--noisy", "--phase-drift-sigma", "nan"], "phase_drift_sigma must be finite"),
    (["fig3c", "--noisy", "--phase-drift-sigma", "inf"], "phase_drift_sigma must be finite"),
    (["serve", "--listen", "abc"], "argument --listen: expected [HOST]:PORT with PORT in 0..65535"),
    (["serve", "--listen", "127.0.0.1:99999"], "argument --listen: expected [HOST]:PORT"),
    (["client", "--connect", "127.0.0.1:xyz"], "argument --connect: expected [HOST]:PORT"),
    (["client", "--connect", "localhost:-1"], "argument --connect: expected [HOST]:PORT"),
]


class TestPackage:
    def test_all_is_every_name_the_package_imports(self):
        namespace: dict = {}
        exec("from blindsim import *", namespace)  # every name in __all__ resolves
        imported = {
            name for name, value in vars(blindsim).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert len(blindsim.__all__) == len(set(blindsim.__all__))
        assert set(namespace) - {"__builtins__"} == set(blindsim.__all__) == imported


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

    @pytest.mark.parametrize(
        "argv",
        [["fig3c"], ["fig3d"], ["blindness"], ["quantumness"], ["tomography"],
         ["client", "--connect", "127.0.0.1:9"]],
        ids=lambda argv: argv[0],
    )
    def test_commands_without_a_csv_form_refuse_csv(self, argv, capsys):
        with pytest.raises(SystemExit) as refused:
            main([*argv, "--csv"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["2", "a,b", "9,0"])
    def test_client_refuses_a_theta_off_the_grid(self, theta, capsys):
        # a usage error before any connection is tried
        with pytest.raises(SystemExit) as refused:
            main(["client", "--connect", "127.0.0.1:9", "--theta", theta])
        assert refused.value.code == 2
        assert "argument --theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("fig3c", "--bell-visibility"),
            ("fig3d", "--interference-visibility"),
            ("blindness", "--phase-drift-sigma"),
            ("tomography", "--bell-visibility"),
        ],
    )
    def test_noise_flags_need_noisy(self, command, flag, capsys):
        # without --noisy the runner would ignore the value and echo another
        with pytest.raises(SystemExit) as refused:
            main([command, flag, "0.5"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} needs --noisy" in captured.err

    def test_tomography_runs_at_a_large_mean_total(self, capsys):
        assert main(["tomography", "--mean-total", "1e12", "--mc-trials", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["mean_total"] == 1e12

    def test_tomography_echoes_the_noise_it_applies(self, capsys):
        assert main(["tomography", "--seed", "0", "--mc-trials", "2"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["config"]["noise"]["bell_visibility"] == 0.9

    def test_csv_output(self, capsys):
        assert main(["deutsch", "--oracle", "balanced", "--csv"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("n2,n3,success_probability")

    def test_seed_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("BLINDSIM_SEED", "123")
        assert main(["quantumness", "--rounds", "500"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["config"]["seed"] == 123

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_a_bad_seed_env_is_a_usage_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("BLINDSIM_SEED", value)
        with pytest.raises(SystemExit) as refused:
            main(["quantumness", "--rounds", "500"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: blindsim")
        assert f"BLINDSIM_SEED: expected an integer >= 0, got {value!r}" in captured.err

    def test_exact_commands_ignore_the_seed_env(self, monkeypatch, capsys):
        # they read no seed, so a value that a seeded command refuses is not read
        monkeypatch.setenv("BLINDSIM_SEED", "abc")
        assert main(["bulk"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {"experiment": "bulk"}

    @pytest.mark.parametrize("command", EXACT_COMMANDS)
    def test_exact_commands_refuse_seed(self, command, capsys):
        with pytest.raises(SystemExit) as refused:
            main([command, "--seed", "0"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: blindsim")
        assert "unrecognized arguments: --seed 0" in captured.err

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
    def test_blindness_fails_without_a_noisy_certificate(
        self, flaw, monkeypatch, tmp_path, capsys
    ):
        import blindsim.cli as cli

        table = run_blindness(noise=BLINDNESS_NOISE)
        flawed = {**table, "noisy": {**table["noisy"], **flaw}}
        monkeypatch.setattr(cli, "run_blindness", lambda **kwargs: flawed)
        assert main(["blindness", "--out", str(tmp_path / "blindness.json")]) == 2
        assert capsys.readouterr().err == f"check failed: noisy.{next(iter(flaw))}\n"

    def test_tomography_fails_on_an_unconverged_mle(self, monkeypatch, tmp_path, capsys):
        import blindsim.cli as cli

        table = run_tomography(mc_trials=2)
        assert table["converged"]
        flawed = {**table, "converged": False}
        monkeypatch.setattr(cli, "run_tomography", lambda **kwargs: flawed)
        assert main(["tomography", "--out", str(tmp_path / "tomography.json")]) == 2
        assert capsys.readouterr().err == "check failed: converged\n"

    @pytest.mark.parametrize("argv", PASSING_ARGV, ids=" ".join)
    def test_passing_runs_are_silent_on_stderr(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert set(json.loads(captured.out)["config"]) == CONFIG_KEYS[argv[0]]

    @pytest.mark.parametrize(
        "argv, runner, flaw, check",
        FORCED_FAILURES,
        ids=[f"{argv[0]}-{check}" for argv, _, _, check in FORCED_FAILURES],
    )
    def test_a_failed_check_is_named_on_stderr(
        self, argv, runner, flaw, check, monkeypatch, capsys
    ):
        import blindsim.cli as cli

        real = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda *args, **kwargs: flaw(real(*args, **kwargs)))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"check failed: {check}\n"

    @pytest.mark.parametrize(
        "argv, message", BAD_FLAG_VALUES, ids=[" ".join(argv) for argv, _ in BAD_FLAG_VALUES]
    )
    def test_bad_flag_values_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: blindsim") and message in err

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
