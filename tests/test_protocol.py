"""Client/server protocol: sessions over both transports, transcript hygiene,
instruction-distribution blindness, and the conditional I/2 property."""
import hashlib
import itertools
import json
import math
import select
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim import protocol
from blindsim.angles import Angle8
from blindsim.blindness import holevo_chi, server_view_ensemble
from blindsim.clusters import BlindPhases, ClusterConfig, linear_family_state
from blindsim.mbqc import (
    _GRID_BRAS,
    _PAULI_BRAS,
    MeasurementPattern,
    MeasurementStep,
    pattern_for,
)
from blindsim.protocol import (
    MAX_LINE_BYTES,
    ClientSecrets,
    ClientSession,
    Message,
    ProtocolError,
    ServerSession,
    TcpServer,
    Transcript,
    _GRID_KETS,
    amplitudes_to_wire,
    run_session,
    run_session_tcp,
    server_entangle,
    validate_blind_structure,
)
from blindsim.quantum import (
    DensityMatrix,
    PureState,
    project_qubit,
    states_equal_up_to_phase,
)

from oracles import circuit_oracle, conditional_transmitted_state

PI = math.pi
A = Angle8


def secrets_for(
    config, phi, n2, n3, r=None, input_prep="Z"
) -> ClientSecrets:
    r = r or {}
    return ClientSecrets(
        config=config,
        phases=BlindPhases.family(n2, n3),
        r={q: r.get(q, 0) for q in config.measure_order},
        phi=phi,
        input_prep=input_prep,
    )


class TestClientPrepare:
    def test_theta_zero_is_plus(self):
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 0, 0)
        qubits = ClientSession(secrets).prepared_qubits()
        for q in qubits:
            assert states_equal_up_to_phase(q, PureState.plus())

    def test_theta_pi_over_4(self):
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 1, 0)
        q2 = ClientSession(secrets).prepared_qubits()[1]
        expected = PureState.from_amplitudes(
            np.array([1.0, np.exp(1j * PI / 4)]) / math.sqrt(2)
        )
        assert states_equal_up_to_phase(q2, expected)

    def test_family_2_3(self):
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 2, 3)
        qubits = ClientSession(secrets).prepared_qubits()
        for q, target in zip(qubits, (0.0, PI / 2, 3 * PI / 4, 0.0)):
            assert states_equal_up_to_phase(q, PureState.ket_theta(target))

    def test_no_entanglement_client_side(self):
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 5, 2)
        qubits = ClientSession(secrets).prepared_qubits()
        assert all(q.num_qubits == 1 for q in qubits)

    def test_grid_ket_table_is_ket_theta_bit_for_bit_and_read_only(self):
        assert len(_GRID_KETS) == 8
        for e, ket in enumerate(_GRID_KETS):
            reference = PureState.ket_theta(A(e).radians)
            assert ket.amplitudes.tobytes() == reference.amplitudes.tobytes()
            assert ket.num_qubits == 1
            assert not ket.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                ket.amplitudes[0] = 0.0

    def test_prepared_qubits_are_the_shared_table_entries(self):
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 5, 2)
        qubits = ClientSession(secrets).prepared_qubits()
        assert [q is _GRID_KETS[e] for q, e in zip(qubits, (0, 5, 2, 0))] == [True] * 4


class TestServerEntangle:
    def test_matches_build_blind_cluster(self):
        from blindsim.clusters import build_blind_cluster, path_graph

        for n2, n3 in [(0, 0), (3, 5)]:
            phases = BlindPhases.family(n2, n3)
            qubits = [
                PureState.ket_theta(phases[q].radians) for q in range(1, 5)
            ]
            entangled = server_entangle(qubits, ClusterConfig.LINEAR_RIGHT)
            reference = build_blind_cluster(path_graph(4), phases)
            assert states_equal_up_to_phase(entangled, reference, tol=1e-10)

    def test_single_qubit_identity(self):
        # a degenerate 1-qubit "session": entangling is a no-op
        psi = PureState.ket_theta(PI / 4)
        # path graph on one vertex has no edges; emulate via tensor of one
        state = psi
        assert states_equal_up_to_phase(state, psi)

    def test_triangle_graph_edges(self):
        phases = BlindPhases.family(2, 3)
        qubits = [PureState.ket_theta(phases[q].radians) for q in range(1, 5)]
        entangled = server_entangle(qubits, ClusterConfig.TRIANGLE)
        from blindsim.clusters import build_blind_cluster, triangle_cluster_graph

        reference = build_blind_cluster(triangle_cluster_graph(), phases)
        assert states_equal_up_to_phase(entangled, reference, tol=1e-10)


# a one-qubit state as the real and imaginary parts of its two amplitudes
QUBIT = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: math.hypot(*v) > 0.1)


def _qubit(parts) -> PureState:
    vec = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    return PureState.from_amplitudes(vec / np.linalg.norm(vec))


class TestServerKernels:
    @given(
        st.sampled_from(list(ClusterConfig)),
        st.lists(QUBIT, min_size=4, max_size=4),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_formula_and_projection_match_the_dense_forms(self, config, parts, pos):
        qubits = [_qubit(p) for p in parts]
        dense = qubits[0].amplitudes
        for q in qubits[1:]:
            dense = np.kron(dense, q.amplitudes)
        dense = dense.reshape(2, 2, 2, 2)
        for i, j in config.graph.edges:
            sel = [slice(None)] * 4
            sel[i - 1] = sel[j - 1] = 1
            dense[tuple(sel)] *= -1.0
        state = server_entangle(qubits, config)
        np.testing.assert_allclose(state.amplitudes, dense.reshape(-1), rtol=0, atol=1e-15)

        # every instruction, a Pauli axis or a delta, at qubit position pos + 1,
        # against the qubit's axis moved to the front and one tensordot
        moved = np.moveaxis(state.amplitudes.reshape(2, 2, 2, 2), pos, 0)
        for bras in [*_PAULI_BRAS.values(), *_GRID_BRAS]:
            prob, branches = project_qubit(state, pos, bras)
            for bit in (0, 1):
                ref_branch = np.tensordot(bras[bit], moved, axes=([0], [0])).reshape(-1)
                assert abs(prob[bit] - float(np.linalg.norm(ref_branch) ** 2)) <= 1e-15
                np.testing.assert_allclose(branches[bit], ref_branch, rtol=0, atol=1e-15)


class TestCliffordRule:
    def test_non_clifford_after_blind_rejected(self):
        pattern = pattern_for(
            ClusterConfig.STAIRCASE, phi={1: A(1), 2: A(0), 3: A(3)}
        )
        with pytest.raises(ProtocolError, match="non-Clifford"):
            validate_blind_structure(pattern, (2, 3))

    def test_clifford_after_blind_accepted(self):
        pattern = pattern_for(
            ClusterConfig.STAIRCASE, phi={1: A(2), 2: A(0), 3: A(3)}
        )
        validate_blind_structure(pattern, (2, 3))

    def test_blind_steps_unrestricted(self):
        pattern = pattern_for(
            ClusterConfig.LINEAR_RIGHT, phi={2: A(1), 3: A(3)}, input_prep="Y"
        )
        validate_blind_structure(pattern, (2, 3))

    def test_arithmetic_example(self):
        # first blind step, phi = pi/2, theta = pi/4, r = 1 -> delta = 7pi/4
        secrets = secrets_for(
            ClusterConfig.HORSESHOE, {2: A(2), 3: A(0)}, 1, 0, r={2: 1}
        )
        client = ClientSession(secrets)
        messages = client.start()
        instruction = messages[-1]
        assert instruction.type == "measure_instruction"
        assert instruction.body == {"qubit_id": 2, "delta_eighths": 7}


class TestSessionInProcess:
    def test_degenerate_outcome_deterministic(self):
        # |0> as qubit 1 of linear_right stays |0> under the CPhase gates, so
        # a Z measurement of it reports bit 0 whatever the server's seed
        zero = [[1.0, 0.0], [0.0, 0.0]]
        plus = amplitudes_to_wire(PureState.plus())
        for seed in range(50):
            server = ServerSession(seed=seed)
            server.handle(Message(1, "session_init", {"config": "linear_right", "qubit_count": 4}))
            for q in range(1, 5):
                amplitudes = zero if q == 1 else plus
                server.handle(Message(1 + q, "qubit_transfer", {"qubit_id": q, "amplitudes": amplitudes}))
            (report,) = server.handle(Message(6, "measure_instruction", {"qubit_id": 1, "pauli": "Z"}))
            assert report.body == {"qubit_id": 1, "bit": 0}

    def test_full_horseshoe_session_correct_output(self):
        phi = {2: A(3), 3: A(6)}
        for seed, (n2, n3) in enumerate([(0, 0), (2, 3), (7, 5)]):
            secrets = secrets_for(
                ClusterConfig.HORSESHOE, phi, n2, n3, r={2: 1, 3: 0}
            )
            _, result = run_session(secrets, server_seed=seed)
            oracle = circuit_oracle(ClusterConfig.HORSESHOE, phi)
            assert states_equal_up_to_phase(result.output_state, oracle, tol=1e-9)

    def test_fig3c_session(self):
        # LinearLeft with fixed instructions delta4=pi/2, delta3=-pi/2,
        # delta2=-pi/2 realizes Rx(pi) Rz(theta3+pi/2) on the prepared input
        from blindsim.quantum import rx, rz

        for n3 in range(8):
            phases = BlindPhases.family(2, n3)
            phi = {
                4: A(2),
                3: A(6) - A(n3),
                2: A(6) - A(2),
            }
            secrets = ClientSecrets(
                ClusterConfig.LINEAR_LEFT, phases,
                {4: 0, 3: 0, 2: 0}, phi, input_prep=A(2),
            )
            _, result = run_session(secrets, server_seed=n3)
            psi_in = PureState.from_amplitudes(
                np.array([1.0, 1j]) / math.sqrt(2)
            )
            expected = PureState.from_amplitudes(
                rx(PI) @ rz(n3 * PI / 4 + PI / 2) @ psi_in.amplitudes
            )
            assert states_equal_up_to_phase(result.output_state, expected, tol=1e-9)

    def test_outcome_interpretation_independent_of_r(self):
        phi = {2: A(3), 3: A(6)}
        outputs = []
        for r2, r3 in itertools.product((0, 1), repeat=2):
            secrets = secrets_for(
                ClusterConfig.HORSESHOE, phi, 4, 1, r={2: r2, 3: r3}
            )
            _, result = run_session(secrets, server_seed=17)
            outputs.append(result.output_state)
        for out in outputs[1:]:
            assert states_equal_up_to_phase(out, outputs[0], tol=1e-9)

    def test_session_determinism_and_replay(self):
        phi = {2: A(1), 3: A(5)}
        secrets = secrets_for(ClusterConfig.HORSESHOE, phi, 3, 3, r={2: 1})
        t1, r1 = run_session(secrets, server_seed=5)
        t2, r2 = run_session(secrets, server_seed=5)
        assert t1.to_ndjson() == t2.to_ndjson()
        assert r1.outcomes == r2.outcomes
        # replay: parsing the transcript reproduces identical outcomes
        replayed = [Message.from_json(line) for line in t1.to_ndjson().splitlines()]
        outcomes = {
            m.body["qubit_id"]: m.body["bit"] for m in replayed if m.type == "outcome_report"
        }
        assert outcomes == r1.outcomes

    def test_out_of_order_rejected(self):
        server = ServerSession()
        with pytest.raises(ProtocolError):
            server.handle(Message(1, "qubit_transfer", {"qubit_id": 1, "amplitudes": [[1, 0], [0, 0]]}))
        server2 = ServerSession()
        server2.handle(Message(1, "session_init", {"config": "horseshoe", "qubit_count": 4}))
        with pytest.raises(ProtocolError, match="before all qubits"):
            server2.handle(Message(2, "measure_instruction", {"qubit_id": 2, "delta_eighths": 0}))

    def test_ignored_input_preparation_refused(self):
        # only the linear configurations measure an input; the others would drop it
        for prep in ("W", "X", A(3)):
            secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 0, 0, input_prep=prep)
            with pytest.raises(ValueError, match="takes no input preparation"):
                ClientSession(secrets)

    def test_secrets_refuse_a_mask_bit_that_is_not_0_or_1(self):
        # a session would complete on it and report interpreted == {2: 3, 3: 3}
        with pytest.raises(ValueError, match="mask bits must be 0 or 1"):
            ClientSecrets(
                ClusterConfig.HORSESHOE, BlindPhases.family(2, 3), {2: 2, 3: 3}, {2: A(0), 3: A(0)}
            )

    def test_secrets_refuse_a_missing_hiding_phase(self):
        # a session would escape with KeyError: 3
        phases = BlindPhases({1: A(0), 2: A(2), 4: A(0)})
        with pytest.raises(ValueError, match=r"phase missing for vertices \[3\]"):
            ClientSecrets(ClusterConfig.HORSESHOE, phases, {2: 0, 3: 0}, {2: A(0), 3: A(0)})

    @pytest.mark.parametrize("config", list(ClusterConfig), ids=lambda c: c.value)
    def test_secrets_refuse_a_rotation_on_a_qubit_that_is_never_measured(self, config):
        # on the horseshoe, phi_1 = 3 pi/4 ran as if it were absent
        phases = BlindPhases.family(2, 3)
        measured = {q: A(0) for q in config.measure_order}
        ClientSecrets(config, phases, {}, measured)
        for q in config.outputs:
            with pytest.raises(ValueError, match=rf"target rotations on unmeasured qubits \[{q}\]"):
                ClientSecrets(config, phases, {}, {**measured, q: A(3)})
        with pytest.raises(ValueError, match=r"unmeasured qubits \[5\]"):
            ClientSecrets(config, phases, {}, {5: A(0)})

    def test_unknown_qubit_rejected(self):
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 0, 0)
        client = ClientSession(secrets)
        server = ServerSession()
        for msg in client.start():
            server.handle(msg)
        with pytest.raises(ProtocolError, match="unknown"):
            server.handle(Message(99, "measure_instruction", {"qubit_id": 7, "delta_eighths": 0}))


class TestTranscriptHygiene:
    def test_no_secret_fields_on_the_wire(self):
        phi = {2: A(3), 3: A(6)}
        secrets = secrets_for(ClusterConfig.HORSESHOE, phi, 5, 6, r={2: 1, 3: 1})
        transcript, _ = run_session(secrets, server_seed=3)
        text = transcript.to_ndjson()
        for message in transcript.server_view():
            body = message.body
            assert "theta" not in json.dumps(body)
            assert "phi" not in json.dumps(body)
            assert '"r"' not in json.dumps(body)
        assert "theta" not in text and '"phi"' not in text and '"r":' not in text

    def test_structural_keys(self):
        secrets = secrets_for(ClusterConfig.LINEAR_RIGHT, {2: A(1), 3: A(2)}, 1, 1)
        transcript, _ = run_session(secrets, server_seed=0)
        allowed = {
            "config", "qubit_count", "qubit_id", "amplitudes",
            "delta_eighths", "pauli", "bit", "qubit_ids", "status",
        }
        for message in transcript.server_view():
            assert set(message.body) <= allowed


class TestDeltaIndependence:
    def test_instruction_distribution_same_for_all_phi(self):
        """Over uniform (theta, r) the (delta2, delta3) message pair is
        uniform on the 64-point grid whatever the computation is."""
        for phi in ({2: A(0), 3: A(0)}, {2: A(3), 3: A(6)}, {2: A(7), 3: A(1)}):
            counts = {}
            for n2, n3, r2, r3 in itertools.product(range(8), range(8), (0, 1), (0, 1)):
                secrets = secrets_for(
                    ClusterConfig.HORSESHOE, phi, n2, n3, r={2: r2, 3: r3}
                )
                client = ClientSession(secrets)
                msgs = client.start()
                d2 = msgs[-1].body["delta_eighths"]
                reply = client.on_message(
                    Message(1, "outcome_report", {"qubit_id": 2, "bit": 0})
                )
                d3 = reply[0].body["delta_eighths"]
                counts[(d2, d3)] = counts.get((d2, d3), 0) + 1
            assert len(counts) == 64
            assert set(counts.values()) == {4}  # exactly uniform

    def test_conditional_transmitted_state_is_identity_over_two(self):
        for phi_n, delta_n in itertools.product(range(8), repeat=2):
            rho = conditional_transmitted_state(A(delta_n), A(phi_n))
            np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


class TestServerViewEnsemble:
    def test_ideal_folded_is_identity(self):
        states = {
            n: DensityMatrix.from_pure(PureState.ket_theta(n * PI / 4))
            for n in range(8)
        }
        ens = server_view_ensemble(states, r_uniform=True)
        for state in ens.states:
            np.testing.assert_allclose(state.matrix, np.eye(2) / 2, atol=1e-12)
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-9)

    def test_broken_mask_leaks_one_bit(self):
        states = {
            n: DensityMatrix.from_pure(PureState.ket_theta(n * PI / 4))
            for n in range(8)
        }
        ens = server_view_ensemble(states, r_uniform=False)
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-9)

    def test_full_cluster_sweep_chi_zero_when_folded(self):
        states = {
            n: DensityMatrix.from_pure(linear_family_state(2, n)) for n in range(8)
        }
        ens = server_view_ensemble(states, r_uniform=True)
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-9)
        unfolded = server_view_ensemble(states, r_uniform=False)
        assert holevo_chi(unfolded) == pytest.approx(1.0, abs=1e-9)


class TestTcpTransport:
    def test_output_bearing_configs_over_tcp(self):
        # the final instruction is answered by an outcome report AND the
        # output return; the client must drain both
        cases = [
            (ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}),
            (ClusterConfig.LINEAR_RIGHT, {2: A(1), 3: A(2)}),
            (ClusterConfig.ROTATED_HORSESHOE, {1: A(2), 4: A(5)}),
            (ClusterConfig.STAIRCASE, {1: A(2), 2: A(0), 3: A(6)}),
        ]
        for config, phi in cases:
            secrets = ClientSecrets(
                config,
                BlindPhases.family(2, 3),
                {q: (q % 2) for q in config.measure_order},
                phi,
            )
            server = TcpServer(("127.0.0.1", 0), seed=3)
            try:
                server.start_background()
                _, result = run_session_tcp(
                    secrets, server.server_address, timeout=10
                )
            finally:
                server.shutdown()
                server.server_close()
            oracle = circuit_oracle(config, phi)
            assert states_equal_up_to_phase(result.output_state, oracle, tol=1e-9)

    def test_concurrent_sessions_isolated(self):
        # one server process, several client sessions in parallel threads;
        # each must complete with a valid oracle-matching output
        import threading

        phi = {2: A(3), 3: A(6)}
        oracle = circuit_oracle(ClusterConfig.HORSESHOE, phi)
        server = TcpServer(("127.0.0.1", 0), seed=7)
        results = [None] * 4
        errors = []

        def worker(k):
            secrets = secrets_for(
                ClusterConfig.HORSESHOE, phi, (2 * k) % 8, (3 * k) % 8,
                r={2: k % 2, 3: (k >> 1) % 2},
            )
            try:
                _, results[k] = run_session_tcp(
                    secrets, server.server_address, timeout=10
                )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        try:
            server.start_background()
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            server.shutdown()
            server.server_close()
        assert not errors
        for result in results:
            assert states_equal_up_to_phase(result.output_state, oracle, tol=1e-9)

    def test_sequence_numbers_monotone_per_sender(self):
        secrets = secrets_for(ClusterConfig.LINEAR_RIGHT, {2: A(1), 3: A(2)}, 3, 3)
        transcript, _ = run_session(secrets, server_seed=4)
        client_types = {
            "session_init", "qubit_transfer", "measure_instruction", "session_close",
        }
        client_seqs = [m.seq for m in transcript.messages if m.type in client_types]
        server_seqs = [m.seq for m in transcript.messages if m.type not in client_types]
        assert client_seqs == sorted(client_seqs)
        assert server_seqs == sorted(server_seqs)
        assert len(set(client_seqs)) == len(client_seqs)

    def test_transcript_byte_identical_to_in_process(self):
        phi = {2: A(6), 3: A(4), 1: A(2), 4: A(2)}
        secrets = secrets_for(
            ClusterConfig.TRIANGLE, phi, 3, 5, r={1: 1, 2: 0, 3: 1, 4: 0}
        )
        server = TcpServer(("127.0.0.1", 0), seed=11)
        try:
            server.start_background()
            tcp_transcript, result_tcp = run_session_tcp(
                secrets, server.server_address
            )
        finally:
            server.shutdown()
            server.server_close()
        # the TCP server derives its first session stream from child 0 of
        # SeedSequence(seed); an in-process run with the identical stream must
        # match byte for byte
        mem_transcript, result_ref = run_session_with_rng(
            secrets, np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0,)))
        )
        assert tcp_transcript.to_ndjson() == mem_transcript.to_ndjson()
        assert result_tcp.outcomes == result_ref.outcomes

    def test_first_session_stream_is_not_the_clients(self):
        # `client --seed S` draws its secrets from default_rng(S); no session
        # of `serve --seed S` may replay that stream, or another session's
        server = TcpServer(("127.0.0.1", 0), seed=7)
        try:
            streams = [np.random.default_rng(7), server.session_seed(), server.session_seed()]
        finally:
            server.server_close()
        draws = [tuple(rng.integers(2**32, size=4)) for rng in streams]
        assert len(set(draws)) == 3


def _line(seq, type_, body) -> bytes:
    return (Message(seq, type_, body).canonical_json() + "\n").encode()


PLUS = [[2**-0.5, 0.0], [2**-0.5, 0.0]]
INIT = _line(1, "session_init", {"config": "linear_right", "qubit_count": 4})
OPENING = [INIT] + [
    _line(q + 1, "qubit_transfer", {"qubit_id": q, "amplitudes": PLUS}) for q in range(1, 5)
]
MEASURE_ALL_SCHEDULED = [
    _line(5 + q, "measure_instruction", {"qubit_id": q, "delta_eighths": 0}) for q in (1, 2, 3)
]

# name -> (lines a client sends, reason of the error reply to the last one)
HOSTILE = {
    "bad_json": ([b'{"seq": 1, "type": \n'], "bad_json"),
    "deep_json": ([b"[" * 2000 + b"]" * 2000 + b"\n"], "bad_json"),
    "not_an_object": ([b"[1, 2]\n"], "bad_message"),
    "missing_key": ([_line(1, "session_init", {"config": "linear_right"})], "bad_message"),
    "unknown_config": (
        [_line(1, "session_init", {"config": "moebius", "qubit_count": 4})],
        "unknown_config",
    ),
    "unknown_type": ([INIT, _line(2, "teleport", {})], "unknown_type"),
    "qubit_count_5": (
        [_line(1, "session_init", {"config": "linear_right", "qubit_count": 5})],
        "bad_qubit_count",
    ),
    "qubit_id_9": (
        [INIT, _line(2, "qubit_transfer", {"qubit_id": 9, "amplitudes": PLUS})],
        "bad_qubit",
    ),
    "duplicate_transfer": (
        [
            INIT,
            _line(2, "qubit_transfer", {"qubit_id": 1, "amplitudes": PLUS}),
            _line(3, "qubit_transfer", {"qubit_id": 1, "amplitudes": PLUS}),
        ],
        "bad_qubit",
    ),
    "two_qubit_transfer": (
        [INIT, _line(2, "qubit_transfer", {"qubit_id": 1, "amplitudes": [[0.5, 0.0]] * 4})],
        "bad_qubit",
    ),
    "nan_amplitude": (
        [INIT, _line(2, "qubit_transfer", {"qubit_id": 1, "amplitudes": [[math.nan, 0.0]] * 2})],
        "bad_message",
    ),
    "remeasure_output": (
        OPENING
        + MEASURE_ALL_SCHEDULED
        + [_line(9, "measure_instruction", {"qubit_id": 4, "delta_eighths": 0})],
        "bad_qubit",
    ),
    "remeasure_scheduled": (
        OPENING
        + MEASURE_ALL_SCHEDULED
        + [_line(9, "measure_instruction", {"qubit_id": 3, "delta_eighths": 0})],
        "bad_qubit",
    ),
    "seq_replay": (
        [INIT, _line(1, "qubit_transfer", {"qubit_id": 1, "amplitudes": PLUS})],
        "bad_seq",
    ),
    # numbers and ids are JSON integers: no float, string or bool stands in
    "qubit_count_text": (
        [_line(1, "session_init", {"config": "linear_right", "qubit_count": "4"})],
        "bad_message",
    ),
    "qubit_id_float": (
        [INIT, _line(2, "qubit_transfer", {"qubit_id": 1.9, "amplitudes": PLUS})],
        "bad_message",
    ),
    "qubit_id_bool": (
        OPENING + [_line(6, "measure_instruction", {"qubit_id": True, "delta_eighths": 0})],
        "bad_message",
    ),
    "delta_float": (
        OPENING + [_line(6, "measure_instruction", {"qubit_id": 1, "delta_eighths": 2.7})],
        "bad_message",
    ),
    "delta_text": (
        OPENING + [_line(6, "measure_instruction", {"qubit_id": 1, "delta_eighths": "3"})],
        "bad_message",
    ),
    "bool_amplitude": (
        [INIT, _line(2, "qubit_transfer", {"qubit_id": 1, "amplitudes": [[True, 0], [0, 0]]})],
        "bad_message",
    ),
    "unknown_pauli_axis": (
        OPENING + [_line(6, "measure_instruction", {"qubit_id": 1, "pauli": "Q"})],
        "bad_message",
    ),
    # a 401-digit JSON integer, past float range
    "huge_amplitude": (
        [INIT, _line(2, "qubit_transfer", {"qubit_id": 1, "amplitudes": [[10**400, 0], [0, 0]]})],
        "bad_message",
    ),
}
# two qubits' amplitudes, the first a 401-digit JSON integer
HUGE_AMPLITUDES = [[10**400, 0], [0, 0], [0, 0], [0, 0]]
OVER_LONG = ([b'{"seq": 1, ' + b" " * (3 * MAX_LINE_BYTES) + b"}\n"], "line_too_long")

# server replies a client cannot read, given the qubit it waits on
MALFORMED_REPLIES = {
    "empty_outcome_report": lambda qid: ("outcome_report", {}),
    "missing_bit": lambda qid: ("outcome_report", {"qubit_id": qid}),
    "bit_2": lambda qid: ("outcome_report", {"qubit_id": qid, "bit": 2}),
    "text_bit": lambda qid: ("outcome_report", {"qubit_id": qid, "bit": "1"}),
    "float_bit": lambda qid: ("outcome_report", {"qubit_id": qid, "bit": 1.0}),
    "float_qubit_id": lambda qid: ("outcome_report", {"qubit_id": float(qid), "bit": 0}),
    "text_qubit_id": lambda qid: ("outcome_report", {"qubit_id": str(qid), "bit": 0}),
    "output_before_outcomes": lambda qid: (
        "output_return", {"qubit_ids": [4], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    ),
    "text_amplitudes": lambda qid: ("output_return", {"qubit_ids": [4], "amplitudes": "junk"}),
}


def _quantumness_round_client() -> ClientSession:
    """The quantumness round's client: Z on qubit 1, qubits 2 and 3 at fixed
    angles, and qubit 4 returned with no output dependencies."""
    steps = (MeasurementStep(1, pauli_override="Z"), MeasurementStep(2, A(2)), MeasurementStep(3, A(3)))
    pattern = MeasurementPattern(steps, (4,), ClusterConfig.LINEAR_RIGHT)
    secrets = ClientSecrets(ClusterConfig.LINEAR_RIGHT, BlindPhases.family(2, 3), {}, {})
    return ClientSession(secrets, pattern=pattern)


def _triangle_client() -> ClientSession:
    phi = {2: A(6), 3: A(4), 1: A(2), 4: A(2)}
    return ClientSession(secrets_for(ClusterConfig.TRIANGLE, phi, 3, 5))


# output_return sent right after start(): (client, qubit_ids, reason); the
# ids are checked first, then that every outcome has been reported
EARLY_OUTPUT_RETURNS = {
    "quantumness_ids_9_9": (_quantumness_round_client, [9, 9], "bad_message"),
    "quantumness_right_ids": (_quantumness_round_client, [4], "out_of_order"),
    "triangle_ids_9_9": (_triangle_client, [9, 9], "bad_message"),
    "triangle_no_ids": (_triangle_client, [], "out_of_order"),
}

# outcome reports for a qubit the horseshoe client (steps 2 then 3, outputs
# 1 and 4) is not waiting on: the ids a server reports in reply to the
# instruction for qubit q, and the client's reason.  An id outside the
# pattern's qubits is `bad_qubit`; any other id out of turn, including
# after the last outcome, is `out_of_order`
STRAY_OUTCOMES = {
    "later_step": (lambda q: [3], "out_of_order"),
    "output_qubit": (lambda q: [1], "out_of_order"),
    "repeated_step": (lambda q: [q, q], "out_of_order"),
    "after_the_last": (lambda q: [q] if q == 2 else [3, 2], "out_of_order"),
    "unknown_qubit": (lambda q: [9], "bad_qubit"),
    "qubit_0": (lambda q: [0], "bad_qubit"),
    "unknown_after_the_last": (lambda q: [q] if q == 2 else [3, 5], "bad_qubit"),
}


def _stray_outcome_server(case):
    """A ServerSession.handle that answers each instruction with the case's reports."""
    ids_for, _ = STRAY_OUTCOMES[case]

    def handle(self, message):
        if message.type != "measure_instruction":
            return []
        ids = ids_for(message.body["qubit_id"])
        return [self._msg("outcome_report", {"qubit_id": q, "bit": 0}) for q in ids]

    return handle


@pytest.fixture(scope="module")
def tcp_server():
    server = TcpServer(("127.0.0.1", 0), seed=5)
    server.start_background()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def sends(monkeypatch):
    """Every write on a socket: (local port, peer port, TCP_NODELAY, bytes)."""
    log = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def recorded(sock, data, *args, _original=original):
            log.append((
                sock.getsockname()[1],
                sock.getpeername()[1],
                sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY),
                bytes(data),
            ))
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, recorded)
    return log


def _raw_exchange(address, lines):
    """Send raw lines in one write; read every reply until the server closes."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"".join(lines))
        with sock.makefile("rb") as reader:
            return [Message.from_json(line) for line in reader]


def _check_next_session_succeeds(server):
    phi = {2: A(3), 3: A(6)}
    secrets = secrets_for(ClusterConfig.HORSESHOE, phi, 2, 5, r={2: 1, 3: 0})
    _, result = run_session_tcp(secrets, server.server_address, timeout=10)
    oracle = circuit_oracle(ClusterConfig.HORSESHOE, phi)
    assert states_equal_up_to_phase(result.output_state, oracle, tol=1e-9)


class TestWire:
    def test_one_write_per_batch_with_nagle_off(self, tcp_server, sends):
        client_types = {
            "session_init", "qubit_transfer", "measure_instruction", "session_close",
        }
        port = tcp_server.server_address[1]
        last_reply_lines = {}
        for config, phi in [
            (ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}),
            (ClusterConfig.TRIANGLE, {2: A(6), 3: A(4), 1: A(2), 4: A(2)}),
        ]:
            sends.clear()
            secrets = secrets_for(config, phi, 3, 5, r={q: 1 for q in config.measure_order})
            transcript, _ = run_session_tcp(secrets, tcp_server.server_address, timeout=10)
            # runs of messages from one sender: each client run is one batch,
            # each server run the replies to one instruction
            runs = {True: [], False: []}
            for from_client, group in itertools.groupby(
                transcript.messages, key=lambda m: m.type in client_types
            ):
                runs[from_client].append(
                    b"".join((m.canonical_json() + "\n").encode() for m in group)
                )
            client_writes = [data for _, peer, _, data in sends if peer == port]
            server_writes = [data for local, _, _, data in sends if local == port]
            assert client_writes == runs[True]
            assert server_writes == runs[False]
            assert all(nodelay for *_, nodelay, _ in sends)
            last_reply_lines[config] = server_writes[-1].count(b"\n")
        # outcome_report and output_return share the last write
        assert last_reply_lines == {ClusterConfig.HORSESHOE: 2, ClusterConfig.TRIANGLE: 1}

    @pytest.mark.parametrize("case", [*HOSTILE, "over_long_line"])
    def test_hostile_input_gets_error_reply(self, case, tcp_server, capfd):
        lines, reason = OVER_LONG if case == "over_long_line" else HOSTILE[case]
        replies = _raw_exchange(tcp_server.server_address, lines)
        assert replies[-1].type == "error"
        assert replies[-1].body == {"reason": reason}
        assert all(r.type in ("outcome_report", "output_return") for r in replies[:-1])
        _check_next_session_succeeds(tcp_server)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("case", list(HOSTILE))
    def test_hostile_input_raises_in_process(self, case):
        lines, reason = HOSTILE[case]
        server = ServerSession()
        for line in lines[:-1]:
            server.handle(Message.from_json(line))
        with pytest.raises(ProtocolError) as info:
            server.handle(Message.from_json(lines[-1]))
        assert info.value.reason == reason

    @pytest.mark.parametrize("case", list(MALFORMED_REPLIES))
    def test_client_refuses_a_malformed_reply_in_process(self, case):
        client = ClientSession(secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5))
        pending = client.start()[-1].body["qubit_id"]
        type_, body = MALFORMED_REPLIES[case](pending)
        with pytest.raises(ProtocolError) as info:
            client.on_message(Message(1, type_, body))
        assert info.value.reason == "bad_message"

    @pytest.mark.parametrize("case", list(EARLY_OUTPUT_RETURNS))
    def test_client_refuses_an_output_return_right_after_start(self, case):
        make_client, ids, reason = EARLY_OUTPUT_RETURNS[case]
        client = make_client()
        client.start()
        body = {"qubit_ids": ids, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ProtocolError) as info:
            client.on_message(Message(1, "output_return", body))
        assert info.value.reason == reason
        assert not client.done

    @pytest.mark.parametrize(
        "qid, reason", [(3, "out_of_order"), (1, "out_of_order"), (9, "bad_qubit"), (0, "bad_qubit")]
    )
    def test_client_names_the_fault_of_an_outcome_right_after_start(self, qid, reason):
        client = ClientSession(secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5))
        assert client.start()[-1].body["qubit_id"] == 2
        with pytest.raises(ProtocolError) as info:
            client.on_message(Message(1, "outcome_report", {"qubit_id": qid, "bit": 0}))
        assert info.value.reason == reason
        assert not client.done

    @pytest.mark.parametrize("case", list(STRAY_OUTCOMES))
    def test_client_names_the_fault_of_a_stray_outcome_in_process(self, case, monkeypatch):
        monkeypatch.setattr(ServerSession, "handle", _stray_outcome_server(case))
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5)
        with pytest.raises(ProtocolError) as info:
            run_session(secrets)
        assert info.value.reason == STRAY_OUTCOMES[case][1]

    @pytest.mark.parametrize("case", list(STRAY_OUTCOMES))
    def test_client_names_the_fault_of_a_stray_outcome_over_tcp(
        self, case, tcp_server, monkeypatch, capfd
    ):
        monkeypatch.setattr(ServerSession, "handle", _stray_outcome_server(case))
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5)
        with pytest.raises(ProtocolError) as info:
            run_session_tcp(secrets, tcp_server.server_address, timeout=10)
        assert info.value.reason == STRAY_OUTCOMES[case][1]
        monkeypatch.undo()
        _check_next_session_succeeds(tcp_server)
        assert capfd.readouterr().err == ""

    def test_client_takes_one_output_return_with_the_sorted_outputs_after_every_outcome(self):
        client = ClientSession(secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5))
        server = ServerSession(seed=3)
        batch, output_return = client.start(), None
        while batch:
            replies = [r for m in batch for r in server.handle(m)]
            batch = []
            for reply in replies:
                if reply.type == "output_return":
                    output_return = reply
                else:
                    batch += client.on_message(reply)
        assert output_return is not None and output_return.body["qubit_ids"] == [1, 4]
        amplitudes = output_return.body["amplitudes"]
        for ids in ([4, 1], [1], [1, 4, 4], [1.0, 4], [True, 4], "1,4"):
            with pytest.raises(ProtocolError) as info:
                client.on_message(Message(9, "output_return", {"qubit_ids": ids, "amplitudes": amplitudes}))
            assert info.value.reason == "bad_message"
            assert not client.done
        assert client.on_message(output_return)[0].type == "session_close"
        assert client.done
        with pytest.raises(ProtocolError) as info:
            client.on_message(output_return)
        assert info.value.reason == "out_of_order"

    def test_client_refuses_an_output_amplitude_past_float_range_in_process(self):
        client = ClientSession(secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5))
        server = ServerSession(seed=3)
        batch = client.start()
        while batch:
            replies = [r for m in batch for r in server.handle(m)]
            batch = [m for r in replies if r.type != "output_return" for m in client.on_message(r)]
        huge = Message(9, "output_return", {"qubit_ids": [1, 4], "amplitudes": HUGE_AMPLITUDES})
        with pytest.raises(ProtocolError) as info:
            client.on_message(huge)
        assert info.value.reason == "bad_message"
        assert not client.done

    def test_client_refuses_an_output_amplitude_past_float_range_over_tcp(
        self, tcp_server, monkeypatch, capfd
    ):
        handle = ServerSession.handle

        def huge_output(self, message):
            return [
                Message(r.seq, r.type, {**r.body, "amplitudes": HUGE_AMPLITUDES})
                if r.type == "output_return" else r
                for r in handle(self, message)
            ]

        monkeypatch.setattr(ServerSession, "handle", huge_output)
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(3), 3: A(6)}, 2, 5)
        with pytest.raises(ProtocolError) as info:
            run_session_tcp(secrets, tcp_server.server_address, timeout=10)
        assert info.value.reason == "bad_message"
        monkeypatch.undo()
        _check_next_session_succeeds(tcp_server)
        assert capfd.readouterr().err == ""

    def test_client_refuses_a_malformed_reply_over_tcp(self, tcp_server, monkeypatch, capfd):
        def malformed(self, message):
            return [Message(1, "outcome_report", {})]

        monkeypatch.setattr(ServerSession, "handle", malformed)
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 0, 0)
        with pytest.raises(ProtocolError) as info:
            run_session_tcp(secrets, tcp_server.server_address, timeout=10)
        assert info.value.reason == "bad_message"
        monkeypatch.undo()
        _check_next_session_succeeds(tcp_server)
        assert capfd.readouterr().err == ""

    def test_idle_connections_are_refused_and_closed(self, tcp_server, monkeypatch, capfd):
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.2)
        threads_before = threading.active_count()
        idle = [socket.create_connection(tcp_server.server_address, timeout=10) for _ in range(2)]
        try:
            for sock in idle:
                with sock.makefile("rb") as reader:
                    replies = [Message.from_json(line) for line in reader]
                assert [(r.type, r.body) for r in replies] == [
                    ("error", {"reason": "idle_timeout"})
                ]
        finally:
            for sock in idle:
                sock.close()
        deadline = time.monotonic() + 5.0
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads_before
        _check_next_session_succeeds(tcp_server)
        assert capfd.readouterr().err == ""

    def test_trickled_line_is_refused_by_its_deadline(self, tcp_server, monkeypatch, capfd):
        # each byte comes well inside the timeout; the line never ends
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.3)
        threads_before = threading.active_count()
        with socket.create_connection(tcp_server.server_address, timeout=10) as sock:
            start = time.monotonic()
            while time.monotonic() - start < 5.0:
                readable, _, _ = select.select([sock], [], [], 0.05)
                if readable:
                    break
                sock.sendall(b" ")
            elapsed = time.monotonic() - start
            with sock.makefile("rb") as reader:
                replies = [Message.from_json(line) for line in reader]
        assert [(r.type, r.body) for r in replies] == [("error", {"reason": "idle_timeout"})]
        assert elapsed < 1.0
        deadline = time.monotonic() + 5.0
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads_before
        _check_next_session_succeeds(tcp_server)
        assert capfd.readouterr().err == ""

    def test_client_raises_the_servers_reason(self, tcp_server, monkeypatch):
        def refuse(self, message):
            raise ProtocolError("refused", reason="bad_qubit")

        monkeypatch.setattr(ServerSession, "handle", refuse)
        secrets = secrets_for(ClusterConfig.HORSESHOE, {2: A(0), 3: A(0)}, 0, 0)
        with pytest.raises(ProtocolError, match="bad_qubit") as info:
            run_session_tcp(secrets, tcp_server.server_address, timeout=10)
        assert info.value.reason == "bad_qubit"


def run_session_with_rng(secrets, rng):
    """In-process session with an explicit server rng stream."""
    client = ClientSession(secrets)
    server = ServerSession(seed=rng)
    transcript = Transcript()
    queue = list(client.start())
    for msg in queue:
        transcript.record(msg)
    while queue and not client.done:
        outbound, queue = queue, []
        replies = []
        for msg in outbound:
            replies.extend(server.handle(msg))
        for reply in replies:
            transcript.record(reply)
            for follow_up in client.on_message(reply):
                transcript.record(follow_up)
                queue.append(follow_up)
    for msg in queue:
        server.handle(msg)
    return transcript, client.result()


def _wire_secrets(config: ClusterConfig, rng: np.random.Generator) -> ClientSecrets:
    """Grid rotations on every measured qubit, and a drawn input preparation
    on the linear configurations; secrets the client refuses are drawn again."""
    while True:
        phi = {q: A(int(rng.integers(8))) for q in config.measure_order}
        choice = int(rng.integers(9))
        prep = "Z" if choice == 8 else A(choice)
        if config not in (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT):
            prep = "Z"
        secrets = ClientSecrets.random(config, phi, rng, input_prep=prep)
        try:
            ClientSession(secrets)
        except ProtocolError:
            continue
        return secrets


class TestWirePin:
    def test_sixty_sessions_send_what_they_sent_before(self):
        # SHA-256 over 10 sessions per configuration of each message's seq,
        # type and body without its amplitudes, then the session's outcomes
        # and interpreted bits; computed before the grid-ket table, the
        # identity skip and the single projection kernel went in
        digest = hashlib.sha256()
        rng = np.random.default_rng(7)
        for config in ClusterConfig:
            for _ in range(10):
                secrets = _wire_secrets(config, rng)
                transcript, result = run_session(secrets, server_seed=int(rng.integers(2**32)))
                for m in transcript.messages:
                    body = {k: v for k, v in m.body.items() if k != "amplitudes"}
                    digest.update(json.dumps([m.seq, m.type, body], sort_keys=True).encode())
                digest.update(
                    json.dumps([sorted(result.outcomes.items()), sorted(result.interpreted.items())]).encode()
                )
                if config.outputs:
                    oracle = circuit_oracle(config, secrets.phi, secrets.input_prep)
                    assert abs(abs(result.output_state.overlap(oracle)) - 1.0) <= 1e-12
                else:
                    assert result.output_state is None
        assert digest.hexdigest() == (
            "c1f5abd7c5a6d8222bd3535638b77459a29d8e8c8b7bc2a6aeb997ae146cb379"
        )
