"""The batched measurement engine against the recursive branch walk it
replaced, batch consistency, read-only outputs, validation at the trust
boundary, and an exhaustive determinism scan of every pattern."""
import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blindsim.angles import Angle8
from blindsim.clusters import BlindPhases, ClusterConfig, blind_cluster_batch
from blindsim import mbqc
from blindsim.mbqc import (
    MeasurementPattern,
    MeasurementStep,
    _measure_batch,
    adapt_angle,
    circuit_oracle,
    cluster_state_for,
    correct_output,
    enumerate_adaptive,
    enumerate_branches,
    pattern_for,
)
from blindsim.protocol import (
    ClientSecrets,
    ClientSession,
    ProtocolError,
    amplitudes_from_wire,
    run_session,
    validate_deterministic,
)
from blindsim.quantum import (
    HADAMARD,
    IMPOSSIBLE_BRANCH,
    PAULI_X,
    PAULI_Z,
    PureState,
    rz,
)
from blindsim.verification import SWEEP8, _round_client, honest_protocol_round, standard_test_setting

A = Angle8
PREPS = ("Z", "X", "Y") + tuple(A(e) for e in range(8))
THETAS64 = list(itertools.product(range(8), repeat=2))


# ---------------------------------------------------------------- reference
# The recursive walk the engine replaced, kept verbatim in behaviour: one
# PureState per node, one projection per branch, gates applied one by one.


def _ref_measure(state, remaining, qubit, delta, override, bit):
    pos = remaining.index(qubit) + 1
    if override == "Z":
        # the Z bra <bit| keeps the slice where the qubit reads `bit`
        tensor = state.amplitudes.reshape([2] * state.num_qubits)
        reduced = np.moveaxis(tensor, pos - 1, 0)[bit].reshape(-1)
        prob = float(np.linalg.norm(reduced) ** 2)
        if prob < IMPOSSIBLE_BRANCH:
            return prob, None
        return prob, PureState.from_amplitudes(reduced / np.sqrt(prob))
    if override is not None:
        delta = A({"X": 0, "Y": 2}[override])  # the equatorial angles of X and Y
    return state.project_delta(pos, delta.radians, bit)


def _ref_correct(pattern, interpreted, raw_output, phases):
    out = raw_output
    outputs = sorted(pattern.outputs)
    for q in pattern.theta_unwind:
        if phases is None:
            raise ValueError("theta unwind requires the hiding phases")
        out = out.apply_single(outputs.index(q) + 1, rz(-phases[q].radians))
    for q in outputs:
        pos = outputs.index(q) + 1
        x_par = sum(interpreted[d] for d in pattern.output_x_deps.get(q, ())) % 2
        z_par = sum(interpreted[d] for d in pattern.output_z_deps.get(q, ())) % 2
        if x_par:
            out = out.apply_single(pos, PAULI_X)
        if z_par:
            out = out.apply_single(pos, PAULI_Z)
    for q, name in pattern.frame.items():
        assert name == "H"
        out = out.apply_single(outputs.index(q) + 1, HADAMARD)
    return out


def _ref_adaptive(state, pattern, phases, r):
    records = []

    def walk(idx, state, remaining, prob, outcomes, interpreted, used):
        if idx == len(pattern.steps):
            corrected = None
            if state is not None and pattern.outputs:
                corrected = _ref_correct(pattern, interpreted, state, phases)
            records.append(
                (dict(outcomes), dict(interpreted), dict(used), prob,
                 prob < IMPOSSIBLE_BRANCH,
                 state if pattern.outputs else None, corrected)
            )
            return
        step = pattern.steps[idx]
        if step.pauli_override is not None:
            delta = None
        else:
            delta = adapt_angle(step, phases[step.qubit], r.get(step.qubit, 0), interpreted)
        for bit in (0, 1):
            interp_bit = bit ^ (r.get(step.qubit, 0) if delta is not None else 0)
            nxt_out = {**outcomes, step.qubit: bit}
            nxt_int = {**interpreted, step.qubit: interp_bit}
            nxt_used = {**used, step.qubit: delta}
            if state is None:
                walk(idx + 1, None, remaining, 0.0, nxt_out, nxt_int, nxt_used)
                continue
            p, rest = _ref_measure(state, remaining, step.qubit, delta, step.pauli_override, bit)
            nxt_rem = [q for q in remaining if q != step.qubit]
            walk(idx + 1, rest, nxt_rem, prob * p, nxt_out, nxt_int, nxt_used)

    walk(0, state, list(range(1, pattern.num_qubits + 1)), 1.0, {}, {}, {})
    return records


def _ref_fixed(state, pattern, deltas):
    records = []

    def walk(idx, state, remaining, prob, outcomes):
        if idx == len(pattern.steps):
            records.append(
                (dict(outcomes), dict(outcomes),
                 {s.qubit: (None if s.pauli_override else deltas[s.qubit]) for s in pattern.steps},
                 prob, prob < IMPOSSIBLE_BRANCH, None, None)
            )
            return
        step = pattern.steps[idx]
        for bit in (0, 1):
            if state is None:
                walk(idx + 1, None, remaining, 0.0, {**outcomes, step.qubit: bit})
                continue
            p, rest = _ref_measure(
                state, remaining, step.qubit, deltas.get(step.qubit), step.pauli_override, bit
            )
            nxt = [q for q in remaining if q != step.qubit]
            walk(idx + 1, rest, nxt, prob * p, {**outcomes, step.qubit: bit})

    walk(0, state, list(range(1, pattern.num_qubits + 1)), 1.0, {})
    return records


def _ref_sample(state, pattern, phases, r, seed):
    rng = np.random.default_rng(seed)
    remaining = list(range(1, pattern.num_qubits + 1))
    outcomes, interpreted, used, prob = {}, {}, {}, 1.0
    for step in pattern.steps:
        delta = None
        if step.pauli_override is None:
            delta = adapt_angle(step, phases[step.qubit], r.get(step.qubit, 0), interpreted)
        p0, rest0 = _ref_measure(state, remaining, step.qubit, delta, step.pauli_override, 0)
        bit = 0 if rng.random() < p0 else 1
        p, rest = (p0, rest0) if bit == 0 else _ref_measure(
            state, remaining, step.qubit, delta, step.pauli_override, 1
        )
        outcomes[step.qubit] = bit
        interpreted[step.qubit] = bit ^ (r.get(step.qubit, 0) if delta is not None else 0)
        used[step.qubit] = delta
        prob *= p
        state = rest
        remaining.remove(step.qubit)
    corrected = _ref_correct(pattern, interpreted, state, phases) if pattern.outputs else None
    return outcomes, interpreted, used, prob, corrected


def _same_up_to_phase(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    overlap = np.vdot(a, b)
    if abs(overlap) == 0.0:
        return np.abs(a - b).max() <= tol
    return np.abs(a * (overlap / abs(overlap)) - b).max() <= tol


def _assert_records_match(records, reference):
    assert len(records) == len(reference)
    for rec, (outcomes, interpreted, deltas, prob, impossible, output, corrected) in zip(
        records, reference
    ):
        assert rec.outcomes == outcomes
        assert rec.interpreted == interpreted
        assert rec.deltas == deltas
        assert rec.impossible == impossible
        assert abs(rec.probability - prob) <= 1e-12
        assert (rec.output_state is None) == (output is None)
        if output is not None:
            assert _same_up_to_phase(rec.output_state.amplitudes, output.amplitudes, 1e-12)
        assert (rec.corrected_state is None) == (corrected is None)
        if corrected is not None:
            assert _same_up_to_phase(rec.corrected_state.amplitudes, corrected.amplitudes, 1e-12)


# ---------------------------------------------------------------- draws


@st.composite
def computations(draw):
    """A configuration with target rotations, input preparation, theta and r."""
    config = draw(st.sampled_from(list(ClusterConfig)))
    order = config.measure_order
    linear = config in (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT)
    phi = {q: A(draw(st.integers(0, 7))) for q in (order[1:] if linear else order)}
    prep = draw(st.sampled_from(PREPS)) if linear else "Z"
    n2, n3 = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    r = {q: draw(st.integers(0, 1)) for q in order}
    return config, phi, prep, (n2, n3), r


class TestAgainstRecursiveWalk:
    @given(computations())
    @settings(max_examples=150, deadline=None)
    def test_enumerate_adaptive(self, drawn):
        config, phi, prep, (n2, n3), r = drawn
        pattern = pattern_for(config, phi=phi, input_prep=prep)
        phases = BlindPhases.family(n2, n3)
        state = cluster_state_for(config, phases)
        _assert_records_match(
            enumerate_adaptive(state, pattern, phases, r),
            _ref_adaptive(state, pattern, phases, r),
        )

    @given(computations(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_session_follows_the_sampled_walk(self, drawn, seed):
        # a sampled run is a protocol session; its server draws one number
        # per step from its seed, as the walk does
        config, phi, prep, (n2, n3), r = drawn
        secrets = ClientSecrets(config, BlindPhases.family(n2, n3), r, phi, prep)
        try:
            ClientSession(secrets)
        except ProtocolError:
            assume(False)  # secrets the client refuses never reach a server
        _, result = run_session(secrets, server_seed=seed)
        pattern = pattern_for(config, phi=phi, input_prep=prep)
        state = cluster_state_for(config, secrets.phases)
        outcomes, interpreted, used, _, corrected = _ref_sample(
            state, pattern, secrets.phases, r, seed
        )
        assert (result.outcomes, result.interpreted, result.deltas) == (outcomes, interpreted, used)
        assert (result.output_state is None) == (corrected is None)
        if corrected is not None:
            assert _same_up_to_phase(result.output_state.amplitudes, corrected.amplitudes, 1e-12)

    @given(st.integers(0, 7), st.integers(0, 7), st.lists(st.integers(0, 7), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_enumerate_branches(self, n2, n3, eighths):
        setting = standard_test_setting()
        pattern = setting.pattern()
        deltas = {1: None, 2: A(eighths[0]), 3: A(eighths[1]), 4: A(eighths[2])}
        state = cluster_state_for(ClusterConfig.LINEAR_RIGHT, BlindPhases.family(n2, n3))
        _assert_records_match(
            enumerate_branches(state, pattern, deltas), _ref_fixed(state, pattern, deltas)
        )

    def test_pruned_branches_keep_their_instructions(self):
        # |+>|+>|+>: with r_1 = 1 qubit 1 is measured at pi, so its bit 0
        # is impossible and both branches below it are pruned
        state = PureState.from_amplitudes(np.full(8, 8**-0.5))
        pattern = MeasurementPattern(
            (MeasurementStep(1, A(0)), MeasurementStep(2, A(1), x_deps=frozenset({1}))),
            (3,),
            output_x_deps={3: frozenset({2})},
        )
        phases = BlindPhases({1: A(0), 2: A(3), 3: A(0)})
        records = enumerate_adaptive(state, pattern, phases, {1: 1})
        _assert_records_match(records, _ref_adaptive(state, pattern, phases, {1: 1}))
        pruned = [rec for rec in records if rec.outcomes[1] == 0]
        assert [rec.probability for rec in pruned] == [0.0, 0.0]
        assert all(rec.output_state is None and rec.corrected_state is None for rec in pruned)
        assert {rec.deltas[2] for rec in pruned} == {A(2)}  # -phi_2 + theta_2


class TestBatch:
    @given(computations(), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                              st.integers(0, 1), st.integers(0, 1)),
                                    min_size=2, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_one_batched_call_equals_single_calls(self, drawn, rows):
        config, phi, prep, _, _ = drawn
        pattern = pattern_for(config, phi=phi, input_prep=prep)
        theta = np.array([[0, n2, n3, 0] for n2, n3, _, _ in rows])
        r = np.array([[r2, r2, r3, r3] for _, _, r2, r3 in rows])
        states = blind_cluster_batch(config.graph, theta)
        whole = _measure_batch(pattern, states, theta, r)
        for b in range(len(rows)):
            one = _measure_batch(pattern, states[b : b + 1], theta[b : b + 1], r[b : b + 1])
            for name in ("outcomes", "interpreted", "deltas", "live"):
                np.testing.assert_array_equal(getattr(whole, name)[b], getattr(one, name)[0])
            np.testing.assert_allclose(whole.probability[b], one.probability[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(whole.output[b], one.output[0], rtol=0, atol=1e-12)
            if whole.corrected is not None:
                np.testing.assert_allclose(whole.corrected[b], one.corrected[0], rtol=0, atol=1e-12)

    def test_outputs_are_read_only(self):
        pattern = pattern_for(ClusterConfig.HORSESHOE, phi={2: A(1), 3: A(6)})
        theta = np.array([[0, 3, 5, 0], [0, 1, 2, 0]])
        branches = _measure_batch(pattern, blind_cluster_batch(pattern.config.graph, theta), theta)
        arrays = [v for v in vars(branches).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 7
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        phases = BlindPhases.family(3, 5)
        for record in enumerate_adaptive(
            cluster_state_for(ClusterConfig.HORSESHOE, phases), pattern, phases, {}
        ):
            for state in (record.output_state, record.corrected_state):
                if state is not None:
                    assert not state.amplitudes.flags.writeable
        assert not cluster_state_for(ClusterConfig.HORSESHOE, phases).amplitudes.flags.writeable

    def test_unnormalized_batch_rejected(self):
        pattern = pattern_for(ClusterConfig.HORSESHOE)
        theta = np.zeros((2, 4), dtype=int)
        states = blind_cluster_batch(pattern.config.graph, theta) * np.array([[1.0], [1.1]])
        with pytest.raises(ValueError, match="sum to"):
            _measure_batch(pattern, states, theta)
        nan = blind_cluster_batch(pattern.config.graph, theta).copy()
        nan[1, 0] = np.nan
        with pytest.raises(ValueError, match="sum to"):
            _measure_batch(pattern, nan, theta)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="qubit"):
            _measure_batch(pattern_for(ClusterConfig.HORSESHOE), np.ones((1, 8)) / np.sqrt(8), np.zeros((1, 4)))


class TestInstructionTable:
    @given(computations(), st.lists(st.integers(0, 7), min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_every_branch_follows_adapt_angle(self, drawn, theta_row):
        # random theta on all four qubits; each branch's row of instructions
        # is adapt_angle along that branch's interpreted prefix, -1 on Pauli steps
        config, phi, prep, _, r = drawn
        pattern = pattern_for(config, phi=phi, input_prep=prep)
        k = len(pattern.steps)
        theta = np.array([theta_row])
        r_row = np.array([[r.get(q, 0) for q in range(1, 5)]])
        states = blind_cluster_batch(config.graph, theta)
        every = _measure_batch(pattern, states, theta, r_row)
        assert every.deltas.shape == (1, 2**k, k)
        for m, deltas in enumerate(every.deltas[0]):
            prefix = {}
            for i, step in enumerate(pattern.steps):
                bit = (m >> (k - 1 - i)) & 1
                if step.pauli_override is None:
                    theta_q, r_q = A(theta_row[step.qubit - 1]), r.get(step.qubit, 0)
                    assert deltas[i] == adapt_angle(step, theta_q, r_q, prefix).eighths
                    bit ^= r_q
                else:
                    assert deltas[i] == -1
                prefix[step.qubit] = bit

    def test_engine_arrays_are_pinned(self):
        # SHA-256 of every array of every run below, as the engine that
        # derived each step's instruction from per-step parities produced
        # them: all configurations and preparations, 16 random theta and r
        # rows each, in enumerate and fixed-instruction modes
        digest = hashlib.sha256()
        rng = np.random.default_rng(1110_1381)
        for config in ClusterConfig:
            for prep in PREPS if _linear(config) else ("Z",):
                phi = {q: A(int(e)) for q, e in zip(config.measure_order, rng.integers(0, 8, 4))}
                pattern = pattern_for(config, phi=phi, input_prep=prep)
                theta = rng.integers(0, 8, size=(16, 4))
                r = rng.integers(0, 2, size=(16, 4))
                states = blind_cluster_batch(config.graph, theta)
                equatorial = [s.qubit for s in pattern.steps if s.pauli_override is None]
                fixed = {q: A(int(rng.integers(8))) for q in equatorial}
                rng.integers(2**32)  # a seed no run reads, drawn so the rows stay as pinned
                for branches in (
                    _measure_batch(pattern, states, theta, r),
                    _measure_batch(pattern, states, theta, deltas=fixed),
                ):
                    for name, value in vars(branches).items():
                        if isinstance(value, np.ndarray):
                            digest.update(f"{name}{value.shape}{value.dtype.str}".encode())
                            digest.update(np.ascontiguousarray(value).tobytes())
        assert digest.hexdigest() == (
            "c406f2956f901a3e1a498a46851869451ece4bd893bc9891d42edf83314af5d7"
        )

    def test_batch_of_one_records_are_pinned(self):
        # SHA-256 of every field of every record of the batch-of-one front
        # ends, types included: all configurations and preparations, 16
        # random theta and r rows each, enumerate_adaptive with the row's
        # secrets and enumerate_branches with fixed instructions, with and
        # without the phases
        def entries(mapping):
            return [(type(q).__name__, q, type(v).__name__, v) for q, v in mapping.items()]

        def state_bytes(state):
            if state is None:
                return b"None"
            amps = state.amplitudes
            head = f"{state.num_qubits}{amps.shape}{amps.dtype.str}{amps.flags.writeable}"
            return head.encode() + np.ascontiguousarray(amps).tobytes()

        digest = hashlib.sha256()
        rng = np.random.default_rng(1110_1381_1)
        for config in ClusterConfig:
            for prep in PREPS if _linear(config) else ("Z",):
                phi = {q: A(int(e)) for q, e in zip(config.measure_order, rng.integers(0, 8, 4))}
                pattern = pattern_for(config, phi=phi, input_prep=prep)
                equatorial = [s.qubit for s in pattern.steps if s.pauli_override is None]
                for b, (theta, r) in enumerate(
                    zip(rng.integers(0, 8, size=(16, 4)), rng.integers(0, 2, size=(16, 4)))
                ):
                    phases = BlindPhases({q: A(int(e)) for q, e in zip(range(1, 5), theta)})
                    state = cluster_state_for(config, phases)
                    masks = {q: int(r[q - 1]) for q in config.measure_order}
                    fixed = {q: A(int(rng.integers(8))) for q in equatorial}
                    for records in (
                        enumerate_adaptive(state, pattern, phases, masks),
                        enumerate_branches(state, pattern, fixed, phases if b % 2 else None),
                    ):
                        digest.update(f"{len(records)}".encode())
                        for rec in records:
                            fields = [entries(rec.outcomes), entries(rec.interpreted), entries(rec.deltas)]
                            fields.append((type(rec.probability).__name__, rec.probability.hex()))
                            fields.append((type(rec.impossible).__name__, rec.impossible))
                            digest.update(repr(fields).encode())
                            digest.update(state_bytes(rec.output_state))
                            digest.update(state_bytes(rec.corrected_state))
        assert digest.hexdigest() == (
            "fff09ee81a3da53795b0a910af378bb77f2a7ca4e29da7b3f34d9ab51a05631f"
        )


def _per_call_tables(pattern, theta, r, deltas=None):
    """Every branch's interpreted outcomes, instructed eighths and output
    gates, derived per call as the engine did before its plan held them:
    `interp @ deps & 1` parities, `adapt_angle`'s eighths, and _BYPRODUCTS
    then frames then the theta unwind."""
    steps, outputs = pattern.steps, sorted(pattern.outputs)
    k, width = len(steps), len(outputs)
    qubits = [s.qubit for s in steps]
    pauli = np.array([s.pauli_override is not None for s in steps], dtype=bool)
    rmask = np.zeros((len(theta), k), dtype=np.int64)
    if deltas is None:
        rmask[:, ~pauli] = r[:, [q - 1 for q, p in zip(qubits, pauli) if not p]]
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    interp = bits ^ rmask[:, None, :]
    sets = [s.x_deps for s in steps] + [s.z_deps for s in steps]
    sets += [pattern.output_x_deps.get(q, frozenset()) for q in outputs]
    sets += [pattern.output_z_deps.get(q, frozenset()) for q in outputs]
    deps = np.array([[q in d for d in sets] for q in qubits], dtype=np.int64).reshape(k, -1)
    parity = interp @ deps & 1
    table = np.empty(interp.shape, dtype=np.int64)
    if deltas is None:
        phi = np.array([s.phi.eighths for s in steps], dtype=np.int64)
        hiding = theta[:, None, [q - 1 for q in qubits]]
        flip = 1 - 2 * parity[..., :k]
        np.remainder(phi * flip + hiding + 4 * (rmask[:, None, :] ^ parity[..., k : 2 * k]), 8, out=table)
    else:
        table[...] = [0 if p else deltas[q].eighths for q, p in zip(qubits, pauli)]
    table[..., pauli] = -1
    gates = mbqc._BYPRODUCTS[2 * parity[..., 2 * k : 2 * k + width] + parity[..., 2 * k + width :]]
    if pattern.frame:
        gates = np.array([HADAMARD if q in pattern.frame else np.eye(2) for q in outputs]) @ gates
    if pattern.theta_unwind:
        unwound = [q in pattern.theta_unwind for q in outputs]
        half = np.where(unwound, theta[:, [q - 1 for q in outputs]], 0) * (np.pi / 8.0)
        unwind = np.stack([np.exp(1j * half), np.exp(-1j * half)], axis=-1)
        gates = gates * unwind[:, None, :, None, :]
    return bits, interp, table, gates


@st.composite
def mask_batches(draw):
    """A computation and up to 8 (theta, r) rows with distinct r rows."""
    config, phi, prep, _, _ = draw(computations())
    rows = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 7)] * 4), st.tuples(*[st.integers(0, 1)] * 4)),
        min_size=1, max_size=8, unique_by=lambda row: row[1],
    ))
    theta, r = (np.array([row[i] for row in rows]) for i in (0, 1))
    return pattern_for(config, phi=phi, input_prep=prep), theta, r


class TestMaskTables:
    """The plan's mask-indexed tables against the per-call derivation they replaced."""

    @staticmethod
    def _assert_matches(pattern, branches, reference):
        bits, interp, table, gates = reference
        np.testing.assert_array_equal(branches.outcomes, np.broadcast_to(bits, interp.shape))
        np.testing.assert_array_equal(branches.interpreted, interp)
        np.testing.assert_array_equal(branches.deltas, table)
        if pattern.outputs:
            batch, count = branches.output.shape[:2]
            t = branches.output.reshape((batch, count) + (2,) * len(pattern.outputs))
            operands = [gates[..., i, :, :] for i in range(len(pattern.outputs))]
            corrected = np.einsum(pattern._correction.spec, *operands, t).reshape(batch, count, -1)
            np.testing.assert_array_equal(branches.corrected, corrected)

    @given(mask_batches(), st.lists(st.integers(0, 7), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_engine_reads_the_per_call_derivation(self, drawn, fixed_eighths):
        pattern, theta, r = drawn
        states = blind_cluster_batch(pattern.config.graph, theta)
        reference = _per_call_tables(pattern, theta, r)
        self._assert_matches(pattern, _measure_batch(pattern, states, theta, r), reference)
        deltas = {s.qubit: A(e) for s, e in zip(pattern.steps, fixed_eighths) if s.pauli_override is None}
        fixed = _measure_batch(pattern, states, theta, r, deltas=deltas)
        self._assert_matches(pattern, fixed, _per_call_tables(pattern, theta, r, deltas))
        plan = pattern._plan
        tables = [v for v in (*plan, *plan.correction) if isinstance(v, np.ndarray)]
        assert len(tables) >= 9
        for array in tables:
            assert not array.flags.writeable


class TestPlan:
    """What the engine derives from a pattern alone is built once per pattern
    and kept on it, outside the dataclass fields."""

    def _run(self, pattern):
        rng = np.random.default_rng(0)
        theta = rng.integers(0, 8, size=(5, 4))
        r = rng.integers(0, 2, size=(5, 4))
        return _measure_batch(pattern, blind_cluster_batch(pattern.config.graph, theta), theta, r)

    def test_built_once_per_pattern(self):
        pattern = pattern_for(ClusterConfig.LINEAR_RIGHT, phi={2: A(1), 3: A(6)}, input_prep="X")
        assert pattern._plan is pattern._plan
        self._run(pattern)
        assert pattern._plan is pattern._plan

    def test_replace_gets_a_fresh_plan(self):
        config, prep = ClusterConfig.LINEAR_LEFT, A(3)
        pattern = pattern_for(config, phi={3: A(1), 2: A(6)}, input_prep=prep)
        before = self._run(pattern)
        steps = pattern_for(config, phi={3: A(5), 2: A(2)}, input_prep=prep).steps
        swapped = dataclasses.replace(pattern, steps=steps)
        assert swapped._plan is not pattern._plan
        after = self._run(swapped)
        fresh = self._run(pattern_for(config, phi={3: A(5), 2: A(2)}, input_prep=prep))
        assert not np.array_equal(after.deltas, before.deltas)
        for name, value in vars(fresh).items():
            if isinstance(value, np.ndarray):
                assert getattr(after, name).tobytes() == value.tobytes(), name

    def test_equality_and_repr_ignore_the_plan(self):
        # fresh copies: the shared pattern may carry its plan from an earlier call
        shared = pattern_for(ClusterConfig.HORSESHOE, phi={2: A(3), 3: A(7)})
        built, bare = dataclasses.replace(shared), dataclasses.replace(shared)
        self._run(built)
        assert "_plan" in vars(built) and "_plan" not in vars(bare)
        assert built == bare and bare == built
        assert repr(built) == repr(bare)
        assert "_plan" not in {f.name for f in dataclasses.fields(built)}

    def test_correct_output_builds_only_the_correction(self):
        # a session corrects one output, so it builds no more of the plan
        pattern = dataclasses.replace(pattern_for(ClusterConfig.ROTATED_HORSESHOE, phi={1: A(3), 4: A(5)}))
        raw = PureState.from_amplitudes(np.full(4, 0.5))
        correct_output(pattern, {1: 1, 4: 0}, raw, BlindPhases.family(2, 3))
        assert "_correction" in vars(pattern) and "_plan" not in vars(pattern)
        assert pattern._plan.correction is pattern._correction

    @pytest.mark.parametrize("config", list(ClusterConfig), ids=lambda c: c.value)
    def test_plan_arrays_are_read_only(self, config):
        plan = pattern_for(config, input_prep="Y" if _linear(config) else "Z")._plan
        arrays = [v for v in (*plan, *plan.correction) if isinstance(v, np.ndarray)]
        arrays += [bras for bras in plan.bras if bras is not None]
        assert len(arrays) >= 8
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0


class TestCorrectOutput:
    @pytest.mark.parametrize("config", [c for c in ClusterConfig if c.outputs], ids=lambda c: c.value)
    def test_identity_skip_and_einsum_both_match_the_gate_by_gate_reference(self, config, monkeypatch):
        einsum_calls = []

        def counted(*args):
            einsum_calls.append(args)
            return correct(*args)

        correct = mbqc._correct
        monkeypatch.setattr(mbqc, "_correct", counted)
        corrected = pattern_for(config, phi={q: A(q + 2) for q in config.measure_order})
        # the same steps and outputs, with nothing to correct
        identity = MeasurementPattern(corrected.steps, corrected.outputs, config)
        assert corrected.corrects_outputs and not identity.corrects_outputs
        rng = np.random.default_rng(len(config.value))
        dim = 2 ** len(config.outputs)
        for bits in itertools.product((0, 1), repeat=len(corrected.steps)):
            interpreted = dict(zip((s.qubit for s in corrected.steps), bits))
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            raw = PureState.from_amplitudes(vec / np.linalg.norm(vec))
            phases = BlindPhases.family(*map(int, rng.integers(0, 8, size=2)))

            out = correct_output(identity, interpreted, raw, phases)
            assert out is raw and not einsum_calls
            ref = _ref_correct(identity, interpreted, raw, phases)
            np.testing.assert_allclose(out.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)

            out = correct_output(corrected, interpreted, raw, phases)
            assert len(einsum_calls) == 1
            einsum_calls.clear()
            ref = _ref_correct(corrected, interpreted, raw, phases)
            np.testing.assert_allclose(out.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)

    def test_the_quantumness_round_pattern_is_an_identity_correction(self):
        steps = (MeasurementStep(1, pauli_override="Z"), MeasurementStep(2), MeasurementStep(3))
        pattern = MeasurementPattern(steps, (4,), ClusterConfig.LINEAR_RIGHT)
        assert not pattern.corrects_outputs
        assert not MeasurementPattern(steps, (4,), output_x_deps={4: frozenset()}).corrects_outputs
        for extra in ({"output_z_deps": {4: frozenset({2})}}, {"frame": {4: "H"}}, {"theta_unwind": frozenset({4})}):
            assert MeasurementPattern(steps, (4,), **extra).corrects_outputs
        raw = PureState.ket_theta(0.3)
        assert correct_output(pattern, {1: 1, 2: 0, 3: 1}, raw) is raw
        with pytest.raises(ValueError, match="outputs"):
            correct_output(pattern, {1: 1, 2: 0, 3: 1}, PureState.from_amplitudes(np.full(4, 0.5)))


class TestTrustBoundary:
    @pytest.mark.parametrize("amplitudes", [
        [np.nan, 0.0],
        [1.0, np.nan],
        [1.0, 1.0],
        [0.5, 0.5],
        [np.inf, 0.0],
    ])
    def test_invalid_amplitudes_rejected(self, amplitudes):
        with pytest.raises(ValueError, match="norm"):
            PureState.from_amplitudes(amplitudes)
        with pytest.raises(ValueError, match="norm"):
            amplitudes_from_wire([[a, 0.0] for a in amplitudes])

    def test_mask_bits_and_hiding_phases_off_their_grids_rejected(self):
        # a mask bit picks a row of the plan's tables, so 2 or -1 would read another row
        config = ClusterConfig.LINEAR_RIGHT
        pattern = pattern_for(config, phi={2: A(1), 3: A(6)}, input_prep=A(2))
        phases = BlindPhases.family(2, 5)
        state = cluster_state_for(config, phases)
        for r in ({1: 2}, {1: 5, 2: -1}):
            with pytest.raises(ValueError, match="mask bits"):
                enumerate_adaptive(state, pattern, phases, r)
        theta = np.array([[0, 2, 5, 0]])
        states = blind_cluster_batch(config.graph, theta)
        for bad in (2, -1):
            with pytest.raises(ValueError, match="mask bits"):
                _measure_batch(pattern, states, theta, np.array([[0, bad, 0, 0]]))
        for bad in (8, -1):
            off_grid = np.array([[0, 2, bad, 0]])
            with pytest.raises(ValueError, match="hiding phases"):
                _measure_batch(pattern, states, off_grid, np.zeros((1, 4), dtype=int))
            with pytest.raises(ValueError, match="hiding phases"):
                _measure_batch(pattern, states, off_grid, deltas={1: A(2), 2: A(0), 3: A(0)})

    def test_secrets_of_another_shape_than_the_batch_rejected(self):
        # one row of theta and r for three states would be read for all three
        pattern = pattern_for(ClusterConfig.HORSESHOE, phi={2: A(1), 3: A(6)})
        theta = np.array([[0, 3, 5, 0], [0, 1, 2, 0], [0, 7, 4, 0]])
        r = np.zeros((3, 4), dtype=int)
        states = blind_cluster_batch(pattern.config.graph, theta)
        for bad in (theta[:1], theta[:, :3], theta[0]):
            with pytest.raises(ValueError, match="hiding phases of shape"):
                _measure_batch(pattern, states, bad, r)
            with pytest.raises(ValueError, match="hiding phases of shape"):
                _measure_batch(pattern, states, bad, deltas={2: A(0), 3: A(0)})
        for bad in (r[:1], r[:, :3], r[0]):
            with pytest.raises(ValueError, match="mask bits of shape"):
                _measure_batch(pattern, states, theta, bad)


# ------------------------------------------------------- exhaustive scan


def _linear(config):
    return config in (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT)


def _staircase_rule(phi):
    return phi[1].eighths % 4 != 0 and phi[2].eighths % 4 != 0


def _scan(config):
    """Per pattern: (phi, prep, deterministic, matches the circuit oracle).

    One engine call per pattern covers all 64 theta with r = 0 and with
    r = all ones on the measured qubits."""
    order = config.measure_order
    free = order[1:] if _linear(config) else order
    theta = np.array([[0, n2, n3, 0] for n2, n3 in THETAS64] * 2)
    r = np.zeros((128, 4), dtype=int)
    r[64:, [q - 1 for q in order]] = 1
    states = blind_cluster_batch(config.graph, theta)
    out = []
    for eighths in itertools.product(range(8), repeat=len(free)):
        phi = {q: A(e) for q, e in zip(free, eighths)}
        for prep in PREPS if _linear(config) else ("Z",):
            pattern = pattern_for(config, phi=phi, input_prep=prep)
            branches = _measure_batch(pattern, states, theta, r)
            possible = ~branches.impossible
            first = branches.corrected[np.arange(128), np.argmax(possible, axis=1)]
            agree = np.abs(np.einsum("bmi,bi->bm", branches.corrected, first.conj()))
            deterministic = bool(np.all(np.abs(agree - 1.0)[possible] < 1e-9))
            oracle = circuit_oracle(config, phi, input_prep=prep).amplitudes
            fidelity = np.abs(branches.corrected @ oracle.conj())
            matches = bool(np.all(np.abs(fidelity - 1.0)[possible] < 1e-9))
            out.append((phi, prep, deterministic, matches))
    return out


class TestExhaustiveDeterminism:
    @pytest.mark.parametrize("config", [c for c in ClusterConfig if c.outputs], ids=lambda c: c.value)
    def test_every_accepted_pattern_is_deterministic_and_matches_the_oracle(self, config):
        scan = _scan(config)
        expected = 8 ** (2 if _linear(config) else len(config.measure_order))
        assert len(scan) == expected * (len(PREPS) if _linear(config) else 1)
        for phi, prep, deterministic, matches in scan:
            rejected = config is ClusterConfig.STAIRCASE and _staircase_rule(phi)
            if rejected:
                assert not deterministic, (phi, prep)
            else:
                assert deterministic and matches, (config, phi, prep)

    def test_rejected_staircase_secrets_are_exactly_the_rule(self):
        scan = _scan(ClusterConfig.STAIRCASE)

        def key(phi):
            return phi[1].eighths, phi[2].eighths, phi[3].eighths

        not_deterministic = {key(phi) for phi, _, det, _ in scan if not det}
        rule = {key(phi) for phi, _, _, _ in scan if _staircase_rule(phi)}
        assert not_deterministic == rule and len(rule) == 288
        # once the Clifford rule for phi_1 applies, 96 of them are left to reject
        assert len({k for k in rule if k[0] % 2 == 0}) == 96
        phases = BlindPhases.family(0, 0)
        for phi, _, _, _ in scan:
            pattern = pattern_for(ClusterConfig.STAIRCASE, phi=phi)
            secrets = ClientSecrets(ClusterConfig.STAIRCASE, phases, {}, phi)
            # the determinism rule alone, then the client, which adds the Clifford rule
            for check, expect in (
                (lambda: validate_deterministic(pattern), key(phi) in rule),
                (lambda: ClientSession(secrets), key(phi) in rule or key(phi)[0] % 2 == 1),
            ):
                try:
                    check()
                except ProtocolError:
                    assert expect, phi
                else:
                    assert not expect, phi

    @pytest.mark.parametrize(
        "config",
        [c for c in ClusterConfig if c.outputs and c is not ClusterConfig.STAIRCASE],
        ids=lambda c: c.value,
    )
    def test_every_non_staircase_pattern_is_accepted(self, config):
        for phi, prep, deterministic, _ in _scan(config):
            assert deterministic, (phi, prep)
            validate_deterministic(pattern_for(config, phi=phi, input_prep=prep))

    def test_a_flow_pattern_without_its_x_sets_is_refused(self):
        pattern = pattern_for(ClusterConfig.LINEAR_RIGHT, phi={2: A(1), 3: A(3)})
        broken = dataclasses.replace(
            pattern,
            steps=tuple(dataclasses.replace(s, x_deps=frozenset()) for s in pattern.steps),
            output_x_deps={},
        )
        validate_deterministic(pattern)
        with pytest.raises(ProtocolError, match=r"linear_right with phi \{1: 0, 2: 1, 3: 3\}"):
            validate_deterministic(broken)

    @pytest.mark.parametrize("theta", SWEEP8)
    def test_uncorrected_quantumness_rounds_stay_out_of_scope(self, theta):
        # the client measures qubit 4 raw, so its live outputs differ by design
        setting = standard_test_setting()
        assert not _round_client(theta, setting)[1].corrects_outputs
        outcome = honest_protocol_round(theta, setting, np.random.default_rng(list(theta)))
        assert outcome in range(16)
