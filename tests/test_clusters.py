"""Blind cluster construction, the linear-family identities, local complementation."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim.angles import Angle8
from blindsim.clusters import (
    BlindPhases,
    GraphSpec,
    blind_triangle_lc_state,
    build_blind_cluster,
    linear_family_state,
    lab_family_state,
    graph_from_json,
    graph_to_json,
    lc_unitary,
    lc_unitary_check,
    local_complement,
    path_graph,
    triangle_cluster_graph,
)
from blindsim.quantum import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PureState,
    states_equal_up_to_phase,
)

PI = math.pi


class TestGraphSpec:
    def test_canonical_edges(self):
        g = GraphSpec.from_edges(3, [(2, 1), (3, 2)])
        assert (1, 2) in g.edges and (2, 3) in g.edges

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphSpec.from_edges(2, [(1, 1)])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            GraphSpec.from_edges(2, [(1, 3)])

    def test_neighbors(self):
        g = path_graph(4)
        assert g.neighbors(2) == frozenset({1, 3})
        assert g.neighbors(4) == frozenset({3})

    def test_json_roundtrip(self):
        g = triangle_cluster_graph()
        phases = BlindPhases.family(2, 5)
        g2, p2 = graph_from_json(graph_to_json(g, phases))
        assert g2 == g
        assert p2.theta == phases.theta


class TestBuildBlindCluster:
    def test_single_vertex_zero_phase(self):
        g = GraphSpec.from_edges(1, [])
        psi = build_blind_cluster(g, BlindPhases({1: Angle8(0)}))
        assert states_equal_up_to_phase(psi, PureState.plus())

    def test_two_vertex_cluster(self):
        g = GraphSpec.from_edges(2, [(1, 2)])
        psi = build_blind_cluster(g, BlindPhases({1: Angle8(0), 2: Angle8(0)}))
        expected = PureState.from_amplitudes(np.array([1, 1, 1, -1]) / 2.0)
        assert states_equal_up_to_phase(psi, expected)

    def test_missing_phase(self):
        with pytest.raises(ValueError):
            build_blind_cluster(path_graph(4), BlindPhases({1: Angle8(0)}))

    def test_edge_order_irrelevant(self):
        phases = BlindPhases.family(3, 7)
        base = None
        edge_lists = itertools.permutations([(1, 2), (2, 3), (3, 4)])
        for edges in edge_lists:
            # the dense form: a kron chain, then one sign flip per edge
            state = PureState.ket_theta(0.0).amplitudes
            for v in (2, 3, 4):
                state = np.kron(state, PureState.ket_theta(phases[v].radians).amplitudes)
            state = state.reshape(2, 2, 2, 2)
            for i, j in edges:
                sel = [slice(None)] * 4
                sel[i - 1] = sel[j - 1] = 1
                state[tuple(sel)] *= -1.0
            if base is None:
                base = state
            np.testing.assert_allclose(state, base, atol=1e-12)

    def test_zero_phase_path_is_standard_cluster(self):
        # stabilizer check: K_j = X_j prod_{k in N(j)} Z_k fixes the state
        g = path_graph(4)
        psi = build_blind_cluster(
            g, BlindPhases({v: Angle8(0) for v in range(1, 5)})
        )
        for j in range(1, 5):
            stabilized = psi.apply_single(j, PAULI_X)
            for k in g.neighbors(j):
                stabilized = stabilized.apply_single(k, PAULI_Z)
            np.testing.assert_allclose(
                stabilized.amplitudes, psi.amplitudes, atol=1e-10
            )


class TestLinearFamily:
    def test_family_matches_build_all_64(self):
        for n2, n3 in itertools.product(range(8), repeat=2):
            built = build_blind_cluster(path_graph(4), BlindPhases.family(n2, n3))
            assert states_equal_up_to_phase(built, linear_family_state(n2, n3), tol=1e-10)

    def test_family_normalized(self):
        for n2, n3 in [(0, 0), (3, 5), (7, 7)]:
            assert np.linalg.norm(linear_family_state(n2, n3).amplitudes) == pytest.approx(1.0)

    def test_lab_family_zero_phases_ghz_like(self):
        vec = np.zeros(16, dtype=complex)
        vec[0b0000] = vec[0b0011] = vec[0b1100] = 0.5
        vec[0b1111] = -0.5
        assert states_equal_up_to_phase(
            lab_family_state(0, 0), PureState.from_amplitudes(vec)
        )

    def test_h_sandwich_relates_lab_to_linear_all_64(self):
        for n2, n3 in itertools.product(range(8), repeat=2):
            mapped = (
                lab_family_state(n2, n3)
                .apply_single(1, HADAMARD)
                .apply_single(4, HADAMARD)
            )
            assert states_equal_up_to_phase(mapped, linear_family_state(n2, n3), tol=1e-10)


class TestLocalComplement:
    def test_triangle_at_2_gives_path(self):
        tri = GraphSpec.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        assert local_complement(tri, 2).edges == frozenset({(1, 2), (2, 3)})

    def test_path3_at_2_gives_triangle(self):
        p3 = GraphSpec.from_edges(3, [(1, 2), (2, 3)])
        assert local_complement(p3, 2).edges == frozenset(
            {(1, 2), (2, 3), (1, 3)}
        )

    def test_horseshoe_graph_at_2_gives_triangle_cluster(self):
        assert local_complement(path_graph(4), 2) == triangle_cluster_graph()

    @given(st.integers(1, 4), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_outside_degrees(self, v, mask):
        all_pairs = list(itertools.combinations(range(1, 5), 2))
        edges = [e for k, e in enumerate(all_pairs) if mask >> k & 1]
        g = GraphSpec.from_edges(4, edges)
        lc = local_complement(g, v)
        assert local_complement(lc, v) == g
        untouched = set(range(1, 5)) - set(g.neighbors(v)) - {v}
        for w in untouched:
            assert lc.degree(w) == g.degree(w)


class TestLcUnitary:
    def test_all_64(self):
        for n2, n3 in itertools.product(range(8), repeat=2):
            assert lc_unitary_check(n2, n3)

    def test_wrong_unitary_fails(self):
        wrong = np.eye(16, dtype=complex)
        failures = sum(
            not lc_unitary_check(n2, n3, unitary=wrong)
            for n2, n3 in itertools.product(range(8), repeat=2)
        )
        assert failures > 0

    def test_zero_phase_case_is_pure_graph_state_relation(self):
        tri = build_blind_cluster(
            triangle_cluster_graph(), BlindPhases.family(0, 0)
        )
        mapped = PureState.from_amplitudes(lc_unitary() @ tri.amplitudes)
        assert states_equal_up_to_phase(mapped, linear_family_state(0, 0))

    def test_vertex_phase_triangle_differs_from_lc_frame_for_generic_theta(self):
        # with a nonzero theta_2 the two bookkeepings of the hiding phase
        # genuinely differ; the LC relation holds only in the sqrt(X) frame
        vertex = build_blind_cluster(
            triangle_cluster_graph(), BlindPhases.family(2, 0)
        )
        mapped = PureState.from_amplitudes(lc_unitary() @ vertex.amplitudes)
        assert not states_equal_up_to_phase(mapped, linear_family_state(2, 0))
        assert states_equal_up_to_phase(
            PureState.from_amplitudes(
                lc_unitary() @ blind_triangle_lc_state(2, 0).amplitudes
            ),
            linear_family_state(2, 0),
        )
