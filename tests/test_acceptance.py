"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not calibrated anywhere else.
"""
import itertools
import math
import time

import numpy as np
import pytest

from blindsim.angles import Angle8
from blindsim.blindness import (
    Ensemble,
    grid_search_chi,
    holevo_chi,
    maximize_chi_over_priors,
    pair_fold,
)
from blindsim.clusters import (
    BlindPhases,
    ClusterConfig,
    build_blind_cluster,
    linear_family_state,
    lab_family_state,
    path_graph,
)
from blindsim.experiments import (
    GROVER_TAG_ANGLES,
    run_deutsch,
    run_fig3c,
    run_fig3d,
    run_grover,
)
from blindsim.mbqc import (
    cluster_state_for,
    enumerate_adaptive,
    pattern_for,
)
from blindsim.protocol import (
    ClientSecrets,
    TcpServer,
    run_session,
    run_session_tcp,
)
from blindsim.quantum import (
    HADAMARD,
    DensityMatrix,
    PureState,
    rx,
    rz,
    states_equal_up_to_phase,
)
from blindsim.tomography import (
    exact_counts,
    mle_reconstruct,
    monte_carlo_errors,
    pauli_settings,
    simulate_counts,
)
from blindsim.verification import (
    SWEEP8,
    classical_guess_risk,
    classical_stub_round,
    honest_protocol_round,
    run_quantumness_test,
)

from oracles import circuit_oracle, conditional_transmitted_state, phase_insensitive_fidelity

PI = math.pi
A = Angle8


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} PASS: {text}")


def all_64():
    return itertools.product(range(8), repeat=2)


def test_criterion_01_family_construction():
    start = time.time()
    for n2, n3 in all_64():
        built = build_blind_cluster(path_graph(4), BlindPhases.family(n2, n3))
        family = linear_family_state(n2, n3)
        assert states_equal_up_to_phase(built, family, tol=1e-10)
        mapped = (
            lab_family_state(n2, n3)
            .apply_single(1, HADAMARD)
            .apply_single(4, HADAMARD)
        )
        assert states_equal_up_to_phase(mapped, family, tol=1e-10)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(
        1,
        "blind-cluster build matches the explicit linear-family amplitudes "
        f"and the lab-basis form for all 64 states in {elapsed:.2f}s",
    )


def _fig3c_branches(n3: int):
    phases = BlindPhases.family(2, n3)
    deltas = {4: A(2), 3: A(6), 2: A(6)}
    phi = {q: deltas[q] - phases[q] for q in (4, 3, 2)}
    pattern = pattern_for(ClusterConfig.LINEAR_LEFT, phi=phi, input_prep=phi[4])
    state = cluster_state_for(ClusterConfig.LINEAR_LEFT, phases)
    return enumerate_adaptive(state, pattern, phases, {})


def _fig3d_branches(n2: int, n3: int):
    phases = BlindPhases.family(n2, n3)
    deltas = {2: A(0), 3: A(6)}
    phi = {q: deltas[q] - phases[q] for q in (2, 3)}
    pattern = pattern_for(ClusterConfig.HORSESHOE, phi=phi)
    state = cluster_state_for(ClusterConfig.HORSESHOE, phases)
    return enumerate_adaptive(state, pattern, phases, {})


def test_criterion_02_gate_identities():
    start = time.time()
    psi_in = PureState.from_amplitudes(np.array([1.0, 1j]) / math.sqrt(2))
    for n3 in range(8):
        target = PureState.from_amplitudes(
            rx(PI) @ rz(n3 * PI / 4 + PI / 2) @ psi_in.amplitudes
        )
        for branch in _fig3c_branches(n3):
            if branch.impossible:
                continue
            fid = phase_insensitive_fidelity(branch.corrected_state, target)
            assert fid >= 1.0 - 1e-9
    cz = np.diag([1.0, 1, 1, -1]).astype(complex)
    pp = np.kron(PureState.plus().amplitudes, PureState.plus().amplitudes)
    for n2, n3 in [(2, 0), (2, 4), (6, 0), (6, 4)]:
        target = PureState.from_amplitudes(
            np.kron(rz(n2 * PI / 4), rz(n3 * PI / 4 + PI / 2)) @ cz @ pp
        )
        for branch in _fig3d_branches(n2, n3):
            if branch.impossible:
                continue
            fid = phase_insensitive_fidelity(branch.corrected_state, target)
            assert fid >= 1.0 - 1e-9
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        2,
        "blind Z-rotation and two-qubit gate identities hold on every "
        f"branch (fidelity >= 1-1e-9) in {elapsed:.2f}s",
    )


def test_criterion_03_mixedness():
    table_c = run_fig3c()
    assert table_c["average_linear_entropy"] == pytest.approx(1.0, abs=1e-9)
    table_d = run_fig3d()
    assert table_d["average_linear_entropy"] == pytest.approx(1.0, abs=1e-9)
    report(
        3,
        "theta-averaged outputs fully mixed: rotation-sweep entropy "
        f"{table_c['average_linear_entropy']:.12f}, two-qubit sweep "
        f"{table_d['average_linear_entropy']:.12f} "
        "(reported apparatus values 0.989/0.955 annotated)",
    )


def _assert_deterministic_and_oracle(config, phi, input_prep, n2, n3):
    phases = BlindPhases.family(n2, n3)
    state = cluster_state_for(config, phases)
    pattern = pattern_for(config, phi=phi, input_prep=input_prep)
    reference = None
    for branch in enumerate_adaptive(state, pattern, phases, {}):
        if branch.impossible:
            continue
        if reference is None:
            reference = branch.corrected_state
        else:
            assert states_equal_up_to_phase(
                branch.corrected_state, reference, tol=1e-9
            )
    oracle = circuit_oracle(config, phi, input_prep=input_prep)
    assert states_equal_up_to_phase(reference, oracle, tol=1e-9)


def test_criterion_04_feedforward_equivalence():
    start = time.time()
    checks = 0
    for n2, n3 in all_64():
        for p2, p3 in itertools.product(range(8), repeat=2):
            phi = {2: A(p2), 3: A(p3)}
            _assert_deterministic_and_oracle(
                ClusterConfig.LINEAR_RIGHT, phi, "X", n2, n3
            )
            _assert_deterministic_and_oracle(
                ClusterConfig.LINEAR_LEFT, phi, A(2), n2, n3
            )
            _assert_deterministic_and_oracle(
                ClusterConfig.HORSESHOE, phi, "Z", n2, n3
            )
            checks += 3
    # input-preparation variants on a theta slice
    for prep in ("X", "Y", "Z", A(5)):
        for p2, p3 in itertools.product(range(0, 8, 3), repeat=2):
            _assert_deterministic_and_oracle(
                ClusterConfig.LINEAR_RIGHT, {2: A(p2), 3: A(p3)}, prep, 3, 6
            )
            checks += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(
        4,
        f"feed-forward determinism + oracle equivalence across {checks} "
        f"(config, theta, phi) points, all branches, in {elapsed:.1f}s",
    )


def test_criterion_05_grover():
    for tag in sorted(GROVER_TAG_ANGLES):
        table = run_grover(tag)
        assert len(table["rows"]) == 64
        assert table["success_min"] >= 1.0 - 1e-9
    report(
        5,
        "Grover succeeds with probability 1 for all 4 tags on all 64 "
        "triangle states (reported apparatus avg 0.720, max 0.850, classical 0.5 "
        "annotated)",
    )


def test_criterion_06_deutsch():
    for oracle in ("constant", "balanced"):
        table = run_deutsch(oracle)
        assert len(table["rows"]) == 10
        assert table["success_min"] >= 1.0 - 1e-9
    report(
        6,
        "Deutsch verdict correct with probability 1 for both oracles on the "
        "aligned states (reported apparatus values 0.899/0.895 annotated)",
    )


def test_criterion_07_blindness_chi():
    equatorial = [
        DensityMatrix.from_pure(PureState.ket_theta(n * PI / 4)) for n in range(8)
    ]
    uniform = np.full(8, 1.0 / 8.0)
    ideal = pair_fold(Ensemble(equatorial, uniform))
    assert holevo_chi(ideal) == pytest.approx(0.0, abs=1e-9)
    ideal_report = maximize_chi_over_priors(ideal)
    assert ideal_report.chi_maximized == pytest.approx(0.0, abs=1e-9)

    broken = Ensemble(equatorial, uniform)
    assert holevo_chi(broken) == pytest.approx(1.0, abs=1e-6)

    def qubit_pure(vec):
        vec = np.asarray(vec, dtype=complex)
        return DensityMatrix.from_pure(
            PureState.from_amplitudes(vec / np.linalg.norm(vec))
        )

    rng = np.random.default_rng(1234)
    ensembles = [
        Ensemble(
            [qubit_pure([1, 0]), qubit_pure([0, 1]), qubit_pure([1, 1])],
            np.full(3, 1 / 3),
        )
    ]
    for _ in range(2):
        vecs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        ensembles.append(Ensemble([qubit_pure(v) for v in vecs], np.full(3, 1 / 3)))
    for ensemble in ensembles:
        ba = maximize_chi_over_priors(ensemble)
        grid = grid_search_chi(ensemble, step=1e-3)
        assert abs(ba.chi_maximized - grid) < 1e-6
    report(
        7,
        "ideal chi = 0 (uniform and maximized), mask-broken chi = 1 bit, "
        "prior maximization matches 1e-3 grid search within 1e-6 "
        "(the reported 0.169/0.185 are apparatus-specific annotations)",
    )


def test_criterion_08_blindness_proof_property():
    for phi_n, delta_n in itertools.product(range(8), repeat=2):
        rho = conditional_transmitted_state(A(delta_n), A(phi_n))
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12
    # structural transcript hygiene on sessions covering every message type
    phi = {2: A(3), 3: A(6)}
    secrets = ClientSecrets(
        ClusterConfig.HORSESHOE,
        BlindPhases.family(5, 1),
        {2: 1, 3: 0},
        phi,
    )
    transcript, _ = run_session(secrets, server_seed=2)
    allowed = {
        "config", "qubit_count", "qubit_id", "amplitudes",
        "delta_eighths", "pauli", "bit", "qubit_ids", "status",
    }
    text = transcript.to_ndjson()
    for message in transcript.server_view():
        assert set(message.body) <= allowed
    for forbidden in ('"theta', '"phi', '"r"', '"r_', 'theta_eighths'):
        assert forbidden not in text
    report(
        8,
        "conditional transmitted state is I/2 (< 1e-12) for every delta; "
        "server view carries no theta/r/phi fields",
    )


def test_criterion_09_quantumness():
    start = time.time()
    rounds = 10_000
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        honest = run_quantumness_test(honest_protocol_round, rounds, rng)
        assert honest.verdict == "quantum-consistent"
        assert honest.impossible_hits == 0
        assert honest.tv_marginal < 3.0 / math.sqrt(rounds)
    rng = np.random.default_rng(99)
    rejected = 0
    for _ in range(100):
        stub = run_quantumness_test(classical_stub_round, 1000, rng)
        rejected += stub.verdict == "classical-suspect"
    assert rejected >= 95
    # uniform guessing matches the actual quantum outcome with probability
    # exactly 1/16, whatever the state mixture is
    from blindsim.verification import distribution_table

    table = distribution_table(SWEEP8)
    hit_rate = float((table.mean(axis=0) * (1.0 / 16.0)).sum())
    assert hit_rate == pytest.approx(1.0 / 16.0, abs=1e-12)
    risk = classical_guess_risk(states=SWEEP8)
    assert risk >= 0.125 - 1e-12
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        9,
        f"honest server consistent at 3 seeds (TV < {3/math.sqrt(rounds):.3f}), "
        f"uniform stub rejected {rejected}/100, guess risk {risk:.3f} >= 1/8, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_10_tomography():
    start = time.time()
    rng = np.random.default_rng(2024)
    settings2 = pauli_settings(2)
    worst = 1.0
    for _ in range(100):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        target = PureState.from_amplitudes(vec / np.linalg.norm(vec))
        table = exact_counts(DensityMatrix.from_pure(target), settings2)
        result = mle_reconstruct(table, target=target)
        worst = min(worst, result.fidelity_to_target)
    assert worst >= 0.999

    target4 = lab_family_state(2, 3)
    counts = simulate_counts(
        DensityMatrix.from_pure(target4), pauli_settings(4), 10_000, rng
    )
    result = mle_reconstruct(counts, target=target4)
    eigenvalues = np.linalg.eigvalsh(result.rho_hat.matrix)
    assert eigenvalues.min() >= -1e-9
    assert np.trace(result.rho_hat.matrix).real == pytest.approx(1.0, abs=1e-9)
    error_bar = monte_carlo_errors(
        counts,
        25,
        lambda t: mle_reconstruct(t, target=target4).fidelity_to_target,
        rng,
    )
    assert error_bar > 0.0
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        10,
        f"MLE: worst exact-probability fidelity {worst:.6f} over 100 random "
        f"2-qubit states; (2,3) lab-state reconstruction physical with "
        f"fidelity {result.fidelity_to_target:.4f} +/- {error_bar:.4f}, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_11_wire_protocol():
    phi2, phi3 = GROVER_TAG_ANGLES["01"]
    phi = {1: A(2), 4: A(2), 2: phi2, 3: phi3}
    secrets = ClientSecrets(
        ClusterConfig.TRIANGLE,
        BlindPhases.family(4, 7),
        {1: 0, 2: 1, 3: 0, 4: 1},
        phi,
    )
    server = TcpServer(("127.0.0.1", 0), seed=31)
    try:
        server.start_background()
        tcp_transcript, tcp_result = run_session_tcp(secrets, server.server_address)
    finally:
        server.shutdown()
        server.server_close()

    from test_protocol import run_session_with_rng

    mem_transcript, mem_result = run_session_with_rng(
        secrets, np.random.default_rng(np.random.SeedSequence(31, spawn_key=(0,)))
    )
    assert tcp_transcript.to_ndjson() == mem_transcript.to_ndjson()
    assert tcp_result.outcomes == mem_result.outcomes
    from blindsim.experiments import grover_decode

    assert grover_decode(tcp_result.interpreted) == "01"
    report(
        11,
        "a full Grover session over TCP is byte-identical in message content "
        "to the in-process transport at the same seed",
    )
