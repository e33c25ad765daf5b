"""Blind cluster states: graphs, per-vertex hiding phases, the four-qubit
linear blind cluster family, and local complementation.

A blind cluster state is built by preparing every vertex j in
|theta_j> = (|0> + e^{i theta_j}|1>)/sqrt(2) and applying one CPhase per
graph edge.  The four-qubit family fixes theta_1 = theta_4 = 0 and is indexed
by theta_hat = (n2, n3) with theta_j = n_j pi/4.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .angles import Angle8
from .quantum import (
    IDENTITY,
    SQRT_X,
    SQRT_Z,
    PureState,
    basis_bits,
    rz,
    states_equal_up_to_phase,
)

PI = math.pi


@dataclass(frozen=True)
class GraphSpec:
    """Undirected simple graph on vertices 1..vertex_count."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        canon = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.vertex_count and 1 <= j <= self.vertex_count):
                raise ValueError(f"edge ({i},{j}) references unknown vertex")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "GraphSpec":
        return cls(vertex_count, frozenset(tuple(e) for e in edges))

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(
            j if i == v else i for i, j in self.edges if v in (i, j)
        )


def path_graph(n: int = 4) -> GraphSpec:
    return GraphSpec.from_edges(n, [(i, i + 1) for i in range(1, n)])


def triangle_cluster_graph() -> GraphSpec:
    """Triangle on {1,2,3} plus the pendant edge (3,4).

    This is the local complement of the four-qubit path at vertex 2.
    """
    return GraphSpec.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])


def local_complement(graph: GraphSpec, v: int) -> GraphSpec:
    """Complement the edge set among the neighbors of v."""
    nbrs = sorted(graph.neighbors(v))
    edges = set(graph.edges)
    for a in range(len(nbrs)):
        for b in range(a + 1, len(nbrs)):
            e = (nbrs[a], nbrs[b])
            if e in edges:
                edges.remove(e)
            else:
                edges.add(e)
    return GraphSpec.from_edges(graph.vertex_count, edges)


class ClusterConfig(Enum):
    """The six measurement configurations of the four-qubit family.

    Each fixes a resource graph, a temporal measurement order, and the set
    of output qubits; order and outputs partition {1,2,3,4}.
    """

    LINEAR_RIGHT = "linear_right"
    LINEAR_LEFT = "linear_left"
    HORSESHOE = "horseshoe"
    ROTATED_HORSESHOE = "rotated_horseshoe"
    STAIRCASE = "staircase"
    TRIANGLE = "triangle"

    @property
    def graph(self) -> GraphSpec:
        return _CONFIG_TABLE[self][0]

    @property
    def measure_order(self) -> tuple[int, ...]:
        return _CONFIG_TABLE[self][1]

    @property
    def outputs(self) -> tuple[int, ...]:
        return _CONFIG_TABLE[self][2]

    @property
    def blind_qubits(self) -> tuple[int, ...]:
        """Qubits whose hiding phase is secret (theta_1 = theta_4 = 0)."""
        return (2, 3)


# graph, measurement order and outputs; the graphs are built once and shared
_PATH4 = path_graph(4)
_CONFIG_TABLE: dict[ClusterConfig, tuple[GraphSpec, tuple[int, ...], tuple[int, ...]]] = {
    ClusterConfig.LINEAR_RIGHT: (_PATH4, (1, 2, 3), (4,)),
    ClusterConfig.LINEAR_LEFT: (_PATH4, (4, 3, 2), (1,)),
    ClusterConfig.HORSESHOE: (_PATH4, (2, 3), (1, 4)),
    ClusterConfig.ROTATED_HORSESHOE: (_PATH4, (1, 4), (2, 3)),
    ClusterConfig.STAIRCASE: (_PATH4, (2, 3, 1), (4,)),
    ClusterConfig.TRIANGLE: (triangle_cluster_graph(), (2, 3, 1, 4), ()),
}


@dataclass(frozen=True)
class BlindPhases:
    """Per-vertex hiding phases theta_j on the pi/4 grid."""

    theta: Mapping[int, Angle8]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", dict(self.theta))

    @classmethod
    def family(cls, n2: int, n3: int) -> "BlindPhases":
        """The four-qubit family: theta_1 = theta_4 = 0, indexed (n2, n3)."""
        return cls(
            {1: Angle8(0), 2: Angle8(n2), 3: Angle8(n3), 4: Angle8(0)}
        )

    def __getitem__(self, vertex: int) -> Angle8:
        return self.theta[vertex]


# e^{i e pi/4} for every e on the pi/4 grid
_GRID_PHASES = np.exp(1j * np.arange(8) * (PI / 4.0))
_GRID_PHASES.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _cphase_signs(graph: GraphSpec) -> np.ndarray:
    """Per basis label b, the CPhase sign (-1)^{sum over edges of b_i b_j}
    in eighth-turns (0 or 4)."""
    n = graph.vertex_count
    bits = basis_bits(n)
    edge_sum = sum((bits[:, i - 1] & bits[:, j - 1] for i, j in graph.edges), np.zeros(2**n, int))
    signs = 4 * (edge_sum % 2)
    signs.setflags(write=False)
    return signs


def blind_cluster_batch(graph: GraphSpec, theta: np.ndarray) -> np.ndarray:
    """Amplitudes of a batch of blind cluster states in one formula.

    `theta` holds hiding phases in eighth-turns, shape (B, n), vertex j in
    column j-1.  Row b is

        <x|Phi_b> = e^{i sum_j theta_j x_j} (-1)^{sum over edges of x_i x_j} / 2^{n/2},

    the product of the |theta_j> followed by one CPhase per edge.  Phases
    are summed on the grid, so every amplitude is one table entry.
    """
    bits = basis_bits(graph.vertex_count)
    eighths = np.asarray(theta) @ bits.T + _cphase_signs(graph)
    out = _GRID_PHASES[eighths % 8] / math.sqrt(2**graph.vertex_count)
    out.setflags(write=False)
    return out


def family_theta(states: Sequence[tuple[int, int]]) -> np.ndarray:
    """(B, 4) hiding eighths of the four-qubit family states (n2, n3)."""
    theta = np.zeros((len(states), 4), dtype=np.int64)
    theta[:, 1:3] = states
    return theta


def _check_phases(graph: GraphSpec, phases: BlindPhases) -> None:
    missing = [v for v in range(1, graph.vertex_count + 1) if v not in phases.theta]
    if missing:
        raise ValueError(f"phase missing for vertices {missing}")


def build_blind_cluster(graph: GraphSpec, phases: BlindPhases) -> PureState:
    """Tensor |theta_j> over vertices, then CPhase along every edge.

    CPhase gates commute, so the edge application order is irrelevant.
    """
    _check_phases(graph, phases)
    theta = [[phases[v].eighths for v in range(1, graph.vertex_count + 1)]]
    return PureState._trusted(blind_cluster_batch(graph, theta)[0])


def linear_family_state(n2: int, n3: int) -> PureState:
    """The four-qubit linear blind cluster, written out amplitude by amplitude:

    (|+00+> + e^{i t3}|+01-> + e^{i t2}|-10+> - e^{i(t2+t3)}|-11->) / 2
    """
    t2, t3 = n2 * PI / 4.0, n3 * PI / 4.0
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    k0 = np.array([1.0, 0.0])
    k1 = np.array([0.0, 1.0])

    def term(a, b, c, d):
        return np.kron(np.kron(np.kron(a, b), c), d)

    vec = (
        term(plus, k0, k0, plus)
        + np.exp(1j * t3) * term(plus, k0, k1, minus)
        + np.exp(1j * t2) * term(minus, k1, k0, plus)
        - np.exp(1j * (t2 + t3)) * term(minus, k1, k1, minus)
    ) / 2.0
    return PureState.from_amplitudes(vec)


def lab_family_state(n2: int, n3: int) -> PureState:
    """The same family in the laboratory basis:

    (|0000> + e^{i t3}|0011> + e^{i t2}|1100> - e^{i(t2+t3)}|1111>) / 2
    """
    t2, t3 = n2 * PI / 4.0, n3 * PI / 4.0
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = 1.0
    vec[0b0011] = np.exp(1j * t3)
    vec[0b1100] = np.exp(1j * t2)
    vec[0b1111] = -np.exp(1j * (t2 + t3))
    return PureState.from_amplitudes(vec / 2.0)


def lc_unitary() -> np.ndarray:
    """sqrt(Z) (x) sqrt(X) (x) sqrt(Z) (x) I as a 16x16 matrix."""
    out = np.kron(np.kron(np.kron(SQRT_Z, SQRT_X), SQRT_Z), IDENTITY)
    return out


def blind_triangle_lc_state(n2: int, n3: int) -> PureState:
    """The triangle-frame blind state related to the linear family by the
    local-complementation unitary.

    On the bare triangle graph state the hiding phase of vertex 2 appears
    conjugated into the sqrt(X) frame, so it is a rotation about the axis
    sqrt(X)^dag z sqrt(X) rather than about z.
    """
    t2, t3 = n2 * PI / 4.0, n3 * PI / 4.0
    state = build_blind_cluster(
        triangle_cluster_graph(),
        BlindPhases({v: Angle8(0) for v in (1, 2, 3, 4)}),
    )
    v2 = SQRT_X.conj().T @ rz(t2) @ SQRT_X
    state = state.apply_single(2, v2)
    state = state.apply_single(3, rz(t3))
    return state


def lc_unitary_check(n2: int, n3: int, unitary: np.ndarray | None = None) -> bool:
    """Verify U |Phi_triangle> == |Phi_horseshoe> up to global phase.

    Both sides are constructed independently: the left from the bare triangle
    graph state with frame-conjugated hiding rotations, the right from the
    explicit linear-family amplitudes.
    """
    u = lc_unitary() if unitary is None else unitary
    tri = blind_triangle_lc_state(n2, n3)
    mapped = PureState.from_amplitudes(u @ tri.amplitudes)
    return states_equal_up_to_phase(mapped, linear_family_state(n2, n3))

