"""Measurement-engine tests: adaptation rule, branch enumeration, feed-forward
determinism, and circuit-oracle equivalence."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim.angles import Angle8
from blindsim.clusters import BlindPhases, ClusterConfig, GraphSpec, build_blind_cluster
from blindsim.mbqc import (
    MeasurementPattern,
    MeasurementStep,
    adapt_angle,
    circuit_oracle,
    cluster_state_for,
    enumerate_adaptive,
    enumerate_branches,
    input_prep_state,
    pattern_for,
    _causal_flow,
    _prep_step,
)
from blindsim.quantum import HADAMARD, PureState, phase_gate, states_equal_up_to_phase

PI = math.pi
A = Angle8


def family_state(config, n2, n3):
    return cluster_state_for(config, BlindPhases.family(n2, n3))


class TestAdaptAngle:
    def test_no_deps_zero_theta(self):
        step = MeasurementStep(2, phi=A(2))
        assert adapt_angle(step, A(0), 0, {}) == A(2)

    def test_r_and_theta_offsets(self):
        # phi = pi/2, theta = pi/4, r = 1 -> delta = 7pi/4
        step = MeasurementStep(2, phi=A(2))
        assert adapt_angle(step, A(1), 1, {}) == A(7)

    def test_x_parity_sign_flip(self):
        step = MeasurementStep(3, phi=A(1), x_deps=frozenset({2}))
        assert adapt_angle(step, A(0), 0, {2: 1}) == A(7)
        assert adapt_angle(step, A(0), 0, {2: 0}) == A(1)

    def test_z_parity_adds_pi(self):
        step = MeasurementStep(3, phi=A(1), z_deps=frozenset({1}))
        assert adapt_angle(step, A(0), 0, {1: 1}) == A(5)

    def test_missing_dependency(self):
        step = MeasurementStep(3, phi=A(0), x_deps=frozenset({2}))
        with pytest.raises(ValueError, match="unmeasured"):
            adapt_angle(step, A(0), 0, {})

    def test_override_step_has_no_angle(self):
        step = MeasurementStep(1, pauli_override="Z")
        with pytest.raises(ValueError):
            adapt_angle(step, A(0), 0, {})


class TestPatternFor:
    def test_orders_and_outputs_match_config(self):
        for config in ClusterConfig:
            pattern = pattern_for(config)
            assert tuple(s.qubit for s in pattern.steps) == config.measure_order
            assert tuple(sorted(pattern.outputs)) == tuple(sorted(config.outputs))

    def test_equal_arguments_share_one_pattern(self):
        phi = {2: A(1), 3: A(6)}
        for config, prep in ((ClusterConfig.LINEAR_RIGHT, A(3)), (ClusterConfig.HORSESHOE, "Z")):
            pattern = pattern_for(config, phi=phi, input_prep=prep)
            assert pattern_for(config, phi=dict(phi), input_prep=prep) is pattern
            # a rotation on an output is no part of the key, and a missing one is 0
            assert pattern_for(config, phi={**phi, 4: A(5)}, input_prep=prep) is pattern
            assert pattern_for(config, input_prep=prep) is pattern_for(config, {2: A(0)}, prep)
            assert pattern_for(config, {2: A(2), 3: A(6)}, prep) is not pattern
        right = ClusterConfig.LINEAR_RIGHT
        assert pattern_for(right, phi, A(4)) is not pattern_for(right, phi, A(3))
        assert pattern_for(right, phi, "Z") is not pattern_for(right, phi, A(3))
        # the key is the input step, so a Pauli name and its angle agree
        assert pattern_for(right, phi, "X") is pattern_for(right, phi, A(0))

    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                (MeasurementStep(1), MeasurementStep(2)), (2, 3)
            )

    def test_forward_dependency_rejected(self):
        with pytest.raises(ValueError, match="later"):
            MeasurementPattern(
                (
                    MeasurementStep(1, x_deps=frozenset({2})),
                    MeasurementStep(2),
                ),
                (),
            )

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"frame": {1: "S", 4: "bogus"}}, "unknown frame 'S'"),
            ({"frame": {1: "H", 4: "bogus"}}, "unknown frame 'bogus'"),
            ({"frame": {1: ["H"]}}, "unknown frame"),
            ({"frame": {2: "H"}}, "not an output"),
            ({"theta_unwind": frozenset({2})}, "not an output"),
            ({"theta_unwind": frozenset({1, 5})}, "not an output"),
        ],
    )
    def test_frame_and_unwind_must_name_known_gates_on_outputs(self, edit, match):
        # the horseshoe's outputs are 1 and 4, each in the H frame
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(pattern_for(ClusterConfig.HORSESHOE), **edit)


LINEAR = (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT)
PREPS = ("X", "Y", "Z", *(A(e) for e in range(8)))


def hand_table_pattern(config, phi=None, input_prep="Z"):
    """The dependency sets, frames and unwinds typed in per configuration:
    the oracle of the causal-flow derivation in `pattern_for`."""
    phi = dict(phi or {})

    def ang(q):
        return phi.get(q, A(0))

    fs = frozenset
    if config is ClusterConfig.LINEAR_RIGHT:
        prep = _prep_step(1, input_prep)
        z_prep = prep.pauli_override == "Z"
        steps = (
            prep,
            MeasurementStep(
                2, ang(2), x_deps=fs() if z_prep else fs({1}),
                z_deps=fs({1}) if z_prep else fs(),
            ),
            MeasurementStep(
                3, ang(3), x_deps=fs({2}), z_deps=fs() if z_prep else fs({1})
            ),
        )
        return MeasurementPattern(
            steps, (4,), config,
            output_x_deps={4: fs({3})}, output_z_deps={4: fs({2})},
        )
    if config is ClusterConfig.LINEAR_LEFT:
        prep = _prep_step(4, input_prep)
        z_prep = prep.pauli_override == "Z"
        steps = (
            prep,
            MeasurementStep(
                3, ang(3), x_deps=fs() if z_prep else fs({4}),
                z_deps=fs({4}) if z_prep else fs(),
            ),
            MeasurementStep(
                2, ang(2), x_deps=fs({3}), z_deps=fs() if z_prep else fs({4})
            ),
        )
        return MeasurementPattern(
            steps, (1,), config,
            output_x_deps={1: fs({2})}, output_z_deps={1: fs({3})},
        )
    if config is ClusterConfig.HORSESHOE:
        steps = (MeasurementStep(2, ang(2)), MeasurementStep(3, ang(3)))
        return MeasurementPattern(
            steps, (1, 4), config,
            output_x_deps={1: fs({2}), 4: fs({3})},
            frame={1: "H", 4: "H"},
        )
    if config is ClusterConfig.ROTATED_HORSESHOE:
        steps = (MeasurementStep(1, ang(1)), MeasurementStep(4, ang(4)))
        return MeasurementPattern(
            steps, (2, 3), config,
            output_x_deps={2: fs({1}), 3: fs({4})},
            output_z_deps={2: fs({4}), 3: fs({1})},
            theta_unwind=fs({2, 3}),
        )
    if config is ClusterConfig.STAIRCASE:
        steps = (
            MeasurementStep(2, ang(2)),
            MeasurementStep(3, ang(3)),
            MeasurementStep(1, ang(1), x_deps=fs({2})),
        )
        return MeasurementPattern(
            steps, (4,), config, output_x_deps={4: fs({1, 3})}
        )
    if config is ClusterConfig.TRIANGLE:
        steps = (
            MeasurementStep(2, ang(2)),
            MeasurementStep(3, ang(3), z_deps=fs({2})),
            MeasurementStep(1, ang(1), x_deps=fs({2})),
            MeasurementStep(4, ang(4), x_deps=fs({3})),
        )
        return MeasurementPattern(steps, (), config)
    raise ValueError(f"unknown configuration {config!r}")


class TestCausalFlow:
    def test_derived_patterns_equal_the_hand_table(self):
        checked = 0
        for config in ClusterConfig:
            preps = PREPS if config in LINEAR else ("Z",)
            for eighths in itertools.product(range(8), repeat=len(config.measure_order)):
                phi = {q: A(e) for q, e in zip(config.measure_order, eighths)}
                for prep in preps:
                    derived = pattern_for(config, phi, prep)
                    oracle = hand_table_pattern(config, phi, prep)
                    assert derived == oracle, (config, phi, prep)
                    assert repr(derived) == repr(oracle), (config, phi, prep)
                    checked += 1
        assert checked == 16_000

    @staticmethod
    def flow_of(config, z_input):
        """(graph, order, outputs, f): the flow `pattern_for` derives from,
        with a Z-measured input out of the graph."""
        graph, order, outputs = config.graph, config.measure_order, config.outputs
        if z_input and config in LINEAR:
            graph = GraphSpec(4, frozenset(e for e in graph.edges if order[0] not in e))
            order = order[1:]
        f = _causal_flow(graph, order, outputs)
        return graph, tuple(f), tuple(q for q in order if q not in f) + outputs, f

    @pytest.mark.parametrize("z_input", [False, True])
    @pytest.mark.parametrize(
        "config",
        [c for c in ClusterConfig if c is not ClusterConfig.STAIRCASE],
        ids=lambda c: c.value,
    )
    def test_flow_meets_the_causal_flow_conditions(self, config, z_input):
        graph, order, outputs, f = self.flow_of(config, z_input)
        rank = {q: t for t, q in enumerate(order + outputs)}
        z_measured = {config.measure_order[0]} if z_input and config in LINEAR else set()
        assert set(rank) == {1, 2, 3, 4} - z_measured
        for i, j in f.items():
            assert j in graph.neighbors(i)
            assert rank[i] < rank[j]
            assert all(rank[i] < rank[k] for k in graph.neighbors(j) - {i})

    def test_staircase_order_has_no_causal_flow(self):
        staircase = ClusterConfig.STAIRCASE
        assert _causal_flow(staircase.graph, staircase.measure_order, staircase.outputs) is None

    def test_triangle_flow_ends_in_its_last_two_readouts(self):
        _, order, outputs, f = self.flow_of(ClusterConfig.TRIANGLE, False)
        assert (order, outputs, f) == ((2, 3), (1, 4), {2: 1, 3: 4})

    def test_latest_neighbour_breaks_the_tie(self):
        # 2's neighbours 1 and 3 both qualify on the horseshoe; 1 is read last
        assert self.flow_of(ClusterConfig.HORSESHOE, False)[3] == {2: 1, 3: 4}

    @pytest.mark.parametrize(
        "config", [c for c in ClusterConfig if c not in LINEAR], ids=lambda c: c.value
    )
    def test_configurations_without_an_input_step_refuse_a_preparation(self, config):
        for prep in ("X", "Y", "W", A(0), A(5)):
            for build in (pattern_for, circuit_oracle):
                with pytest.raises(ValueError, match="takes no input preparation"):
                    build(config, {}, input_prep=prep)


class TestEnumerateBranches:
    def test_plus_plus_single_live_branch(self):
        state = PureState.from_amplitudes(np.full(4, 0.5))
        pattern = MeasurementPattern(
            (MeasurementStep(1), MeasurementStep(2)), ()
        )
        branches = enumerate_branches(state, pattern, {1: A(0), 2: A(0)})
        assert len(branches) == 4
        alive = [b for b in branches if not b.impossible]
        assert len(alive) == 1
        assert alive[0].probability == pytest.approx(1.0, abs=1e-12)
        assert alive[0].outcomes == {1: 0, 2: 0}

    def test_family_three_measurements_sum_to_one(self):
        pattern = pattern_for(ClusterConfig.LINEAR_RIGHT, input_prep=A(0))
        state = family_state(ClusterConfig.LINEAR_RIGHT, 0, 0)
        branches = enumerate_branches(
            state, pattern, {1: A(0), 2: A(0), 3: A(0)}
        )
        assert len(branches) == 8
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)

    def test_missing_instruction(self):
        pattern = pattern_for(ClusterConfig.HORSESHOE)
        state = family_state(ClusterConfig.HORSESHOE, 0, 0)
        with pytest.raises(ValueError, match="instruction"):
            enumerate_branches(state, pattern, {2: A(0)})


def assert_feedforward_deterministic(config, phi, input_prep, n2, n3, r=None):
    """All branches of the adaptive run must agree after correction."""
    pattern = pattern_for(config, phi=phi, input_prep=input_prep)
    phases = BlindPhases.family(n2, n3)
    state = cluster_state_for(config, phases)
    branches = enumerate_adaptive(state, pattern, phases, r or {})
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)
    reference = None
    for branch in branches:
        if branch.impossible:
            continue
        assert branch.corrected_state is not None
        if reference is None:
            reference = branch.corrected_state
        else:
            assert states_equal_up_to_phase(
                branch.corrected_state, reference, tol=1e-9
            )
    return reference


class TestFeedForwardDeterminism:
    def test_linear_right_spot_grid(self):
        for prep in ("X", "Y", "Z", A(3)):
            for (p2, p3), (n2, n3) in zip(
                [(0, 0), (1, 5), (3, 7), (6, 2)], [(0, 0), (2, 3), (5, 1), (7, 6)]
            ):
                assert_feedforward_deterministic(
                    ClusterConfig.LINEAR_RIGHT, {2: A(p2), 3: A(p3)}, prep, n2, n3
                )

    def test_linear_left_spot_grid(self):
        for (p2, p3, p4), (n2, n3) in zip(
            [(0, 0, 0), (1, 5, 2), (3, 7, 6)], [(0, 0), (2, 3), (4, 4)]
        ):
            assert_feedforward_deterministic(
                ClusterConfig.LINEAR_LEFT, {2: A(p2), 3: A(p3)}, A(p4), n2, n3
            )

    def test_horseshoe_spot_grid(self):
        for (p2, p3), (n2, n3) in zip(
            [(0, 0), (2, 6), (1, 3), (5, 7)], [(0, 0), (2, 3), (6, 4), (1, 1)]
        ):
            assert_feedforward_deterministic(
                ClusterConfig.HORSESHOE, {2: A(p2), 3: A(p3)}, "Z", n2, n3
            )

    def test_rotated_horseshoe_spot_grid(self):
        for (p1, p4), (n2, n3) in zip(
            [(0, 0), (2, 6), (3, 5)], [(0, 0), (2, 3), (7, 2)]
        ):
            assert_feedforward_deterministic(
                ClusterConfig.ROTATED_HORSESHOE, {1: A(p1), 4: A(p4)}, "Z", n2, n3
            )

    def test_staircase_requires_pi_multiple_on_qubit2(self):
        # deterministic for phi_2 in {0, pi}; any phi_1, phi_3
        for p2 in (0, 4):
            for (p1, p3), (n2, n3) in zip(
                [(2, 6), (2, 1), (6, 3)], [(0, 0), (2, 3), (5, 6)]
            ):
                assert_feedforward_deterministic(
                    ClusterConfig.STAIRCASE,
                    {1: A(p1), 2: A(p2), 3: A(p3)},
                    "Z",
                    n2,
                    n3,
                )

    def test_masking_consistency(self):
        # same phi under different (theta, r) gives the same corrected output
        phi = {2: A(3), 3: A(6)}
        outs = []
        for (n2, n3), r in [
            ((0, 0), {2: 0, 3: 0}),
            ((5, 2), {2: 1, 3: 0}),
            ((7, 7), {2: 1, 3: 1}),
            ((3, 1), {2: 0, 3: 1}),
        ]:
            outs.append(
                assert_feedforward_deterministic(
                    ClusterConfig.HORSESHOE, phi, "Z", n2, n3, r=r
                )
            )
        for other in outs[1:]:
            assert states_equal_up_to_phase(outs[0], other, tol=1e-9)

    @given(
        st.integers(0, 7), st.integers(0, 7),       # secrets theta
        st.integers(0, 7), st.integers(0, 7),       # computation phi
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),  # masks r
    )
    @settings(max_examples=30, deadline=None)
    def test_masking_consistency_property(self, n2, n3, p2, p3, r1, r2, r3):
        phi = {2: A(p2), 3: A(p3)}
        masked = assert_feedforward_deterministic(
            ClusterConfig.LINEAR_RIGHT, phi, "X", n2, n3,
            r={1: r1, 2: r2, 3: r3},
        )
        bare = assert_feedforward_deterministic(
            ClusterConfig.LINEAR_RIGHT, phi, "X", 0, 0, r={}
        )
        assert states_equal_up_to_phase(masked, bare, tol=1e-9)

    def test_triangle_logical_readout_deterministic(self):
        phi = {1: A(2), 4: A(2), 2: A(6), 3: A(4)}
        pattern = pattern_for(ClusterConfig.TRIANGLE, phi=phi)
        for n2, n3 in [(0, 0), (2, 3), (5, 7), (6, 4)]:
            phases = BlindPhases.family(n2, n3)
            state = cluster_state_for(ClusterConfig.TRIANGLE, phases)
            branches = enumerate_adaptive(state, pattern, phases, {})
            readouts = {
                (b.interpreted[1], b.interpreted[4])
                for b in branches
                if not b.impossible
            }
            assert len(readouts) == 1


class TestOracleEquivalence:
    def check(self, config, phi, prep, n2, n3):
        corrected = assert_feedforward_deterministic(config, phi, prep, n2, n3)
        oracle = circuit_oracle(config, phi, input_prep=prep)
        assert states_equal_up_to_phase(corrected, oracle, tol=1e-9)

    def test_linear_right(self):
        for prep in ("X", "Y", "Z", A(5)):
            self.check(
                ClusterConfig.LINEAR_RIGHT, {2: A(1), 3: A(6)}, prep, 3, 4
            )

    def test_linear_right_identity_rotations(self):
        # phi2 = phi3 = 0 on input |+> leaves |+>
        out = assert_feedforward_deterministic(
            ClusterConfig.LINEAR_RIGHT, {2: A(0), 3: A(0)}, "Z", 5, 1
        )
        assert states_equal_up_to_phase(out, PureState.plus(), tol=1e-9)

    def test_linear_left(self):
        for prep in ("X", A(2)):
            self.check(
                ClusterConfig.LINEAR_LEFT, {2: A(7), 3: A(2)}, prep, 6, 1
            )

    def test_horseshoe(self):
        self.check(ClusterConfig.HORSESHOE, {2: A(3), 3: A(5)}, "Z", 4, 2)

    def test_rotated_horseshoe(self):
        self.check(
            ClusterConfig.ROTATED_HORSESHOE, {1: A(1), 4: A(6)}, "Z", 2, 7
        )

    def test_staircase(self):
        self.check(
            ClusterConfig.STAIRCASE, {1: A(2), 2: A(0), 3: A(3)}, "Z", 4, 1
        )
        self.check(
            ClusterConfig.STAIRCASE, {1: A(6), 2: A(4), 3: A(7)}, "Z", 1, 5
        )

    def test_triangle_pre_readout_formula(self):
        # the closed-form oracle equals measuring only qubits 2,3 of the
        # triangle cluster with corrections
        phi = {2: A(6), 3: A(4)}
        steps = (MeasurementStep(2, A(6)), MeasurementStep(3, A(4), z_deps=frozenset({2})))
        pattern = MeasurementPattern(
            steps, (1, 4), ClusterConfig.TRIANGLE,
            output_x_deps={1: frozenset({2}), 4: frozenset({3})},
        )
        for n2, n3 in [(0, 0), (3, 6), (7, 1)]:
            phases = BlindPhases.family(n2, n3)
            state = cluster_state_for(ClusterConfig.TRIANGLE, phases)
            branches = enumerate_adaptive(state, pattern, phases, {})
            oracle = circuit_oracle(ClusterConfig.TRIANGLE, phi)
            for b in branches:
                if not b.impossible:
                    assert states_equal_up_to_phase(
                        b.corrected_state, oracle, tol=1e-9
                    )


class TestFirstQubitIdentity:
    def test_two_qubit_blind_cluster_rotation(self):
        # measuring qubit 1 at delta with outcome 0 applies H Rz(-delta+theta)
        from blindsim.clusters import GraphSpec
        from blindsim.quantum import HADAMARD, rz

        for nt, nd in itertools.product(range(8), repeat=2):
            theta, delta = nt * PI / 4, nd * PI / 4
            graph = GraphSpec.from_edges(2, [(1, 2)])
            phases = BlindPhases({1: A(nt), 2: A(0)})
            state = build_blind_cluster(graph, phases)
            p, rest = state.project_delta(1, delta, 0)
            expected = PureState.from_amplitudes(
                HADAMARD @ rz(-delta + theta) @ PureState.plus().amplitudes
            )
            assert states_equal_up_to_phase(rest, expected, tol=1e-10)


class TestInputPrep:
    def test_pauli_preps(self):
        assert states_equal_up_to_phase(
            input_prep_state("X"), PureState.computational(1, 0)
        )
        assert states_equal_up_to_phase(
            input_prep_state("Y"),
            PureState.from_amplitudes(np.array([1, 1j]) / math.sqrt(2)),
        )
        assert states_equal_up_to_phase(input_prep_state("Z"), PureState.plus())

    def test_state_and_step_share_one_parser(self):
        for prep in ("X", "Y", *(A(e) for e in range(8))):
            angle = A(0) if prep == "X" else A(2) if prep == "Y" else prep
            assert _prep_step(1, prep) == MeasurementStep(1, phi=angle)
            expected = HADAMARD @ phase_gate(-angle.radians) @ PureState.plus().amplitudes
            np.testing.assert_array_equal(input_prep_state(prep).amplitudes, expected)
        assert _prep_step(4, "Z") == MeasurementStep(4, pauli_override="Z")
        for bad in ("W", "z", 2, None, 0.5):
            for parse in (input_prep_state, lambda p: _prep_step(1, p)):
                with pytest.raises(ValueError, match="unknown input preparation"):
                    parse(bad)
