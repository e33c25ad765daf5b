"""Reference code that only the tests run.

`circuit_oracle` is the circuit-model cross-check of the measurement
engine, and `conditional_transmitted_state` is the blindness invariant in
executable form: the server's view of one blind qubit given its delta.
`amplitudes_from_wire_oracle` is the two-pass wire parse that the one-pass
`protocol.amplitudes_from_wire` replaced.
The three small helpers stand in for what a library caller reaches with
one public expression.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from blindsim.angles import Angle8
from blindsim.clusters import ClusterConfig, GraphSpec
from blindsim.mbqc import _input_steps, _prep_step
from blindsim.protocol import _GRID_KETS
from blindsim.quantum import HADAMARD, DensityMatrix, PureState, phase_gate, rx, rz


def phase_insensitive_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; equality up to global phase scores 1."""
    return abs(a.overlap(b)) ** 2


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    dim = 2**num_qubits
    return DensityMatrix.from_matrix(np.eye(dim) / dim)


def degree(graph: GraphSpec, v: int) -> int:
    return len(graph.neighbors(v))


def input_prep_state(prep: str | Angle8) -> PureState:
    """Logical input produced by the first-qubit measurement (outcome 0).

    Pauli X, Y, Z measurements prepare |0>, |+_i>, |+>; an equatorial prep
    at angle phi prepares H Rz(-phi)|+>.
    """
    step = _prep_step(1, prep)
    if step.pauli_override is not None:
        return PureState.plus()
    vec = HADAMARD @ phase_gate(-step.phi.radians) @ PureState.plus().amplitudes
    return PureState.from_amplitudes(vec)


def circuit_oracle(
    config: ClusterConfig,
    phi: Mapping[int, Angle8],
    input_prep: str | Angle8 = "Z",
) -> PureState:
    """Brute-force circuit-model reference for each configuration's output.

    Every expression below is built from plain gate algebra, independent of
    the measurement engine, so the two can cross-check each other.  Like
    `pattern_for`, it refuses an input preparation it would ignore.
    """
    _input_steps(config, input_prep)
    phi = {q: a for q, a in phi.items()}

    def ang(q: int) -> float:
        return phi.get(q, Angle8(0)).radians

    plus = PureState.plus().amplitudes
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

    if config is ClusterConfig.LINEAR_RIGHT:
        psi_in = input_prep_state(input_prep).amplitudes
        out = rx(-ang(3)) @ rz(-ang(2)) @ psi_in
        return PureState.from_amplitudes(out)
    if config is ClusterConfig.LINEAR_LEFT:
        psi_in = input_prep_state(input_prep).amplitudes
        out = rx(-ang(2)) @ rz(-ang(3)) @ psi_in
        return PureState.from_amplitudes(out)
    if config is ClusterConfig.HORSESHOE:
        out = np.kron(phase_gate(-ang(2)), phase_gate(-ang(3))) @ cz @ np.kron(plus, plus)
        return PureState.from_amplitudes(out)
    if config is ClusterConfig.ROTATED_HORSESHOE:
        wire = lambda a: HADAMARD @ phase_gate(-a) @ plus
        out = cz @ np.kron(wire(ang(1)), wire(ang(4)))
        return PureState.from_amplitudes(out)
    if config is ClusterConfig.STAIRCASE:
        pre = np.kron(HADAMARD @ phase_gate(-ang(2)), HADAMARD @ phase_gate(-ang(3))) @ cz @ np.kron(plus, plus)
        bra = np.array([1.0, np.exp(1j * ang(1))]).conj() / math.sqrt(2)
        out = np.tensordot(bra, pre.reshape(2, 2), axes=([0], [0]))
        return PureState.from_amplitudes(out / np.linalg.norm(out))
    if config is ClusterConfig.TRIANGLE:
        # pre-readout state on qubits (1,4) after ideally measuring 2 and 3
        ea, eb = np.exp(-1j * ang(2)), np.exp(-1j * ang(3))
        vec = np.array(
            [
                (1 + ea) + eb * (1 - ea),
                (1 + ea) - eb * (1 - ea),
                (1 - ea) - eb * (1 + ea),
                (1 - ea) + eb * (1 + ea),
            ],
            dtype=complex,
        )
        return PureState.from_amplitudes(vec / np.linalg.norm(vec))
    raise ValueError(f"unknown configuration {config!r}")


def amplitudes_from_wire_oracle(pairs) -> PureState:
    """A state from [re, im] pairs of JSON numbers; a bool or a string is
    refused, and an integer past float range raises OverflowError."""
    if not all({type(re), type(im)} <= {int, float} for re, im in pairs):
        raise TypeError("an amplitude is not a pair of numbers")
    return PureState.from_amplitudes([complex(re, im) for re, im in pairs])


def conditional_transmitted_state(delta: Angle8, phi: Angle8) -> DensityMatrix:
    """Server's knowledge of one blind qubit given the delta message.

    Averages |theta> over the (theta, r) pairs consistent with
    delta = phi + theta + pi r; with r uniform this is I/2 for every delta.
    """
    rhos = []
    for n in range(8):
        for r in (0, 1):
            if (phi + Angle8(n)).add_pi(r) == delta:
                rhos.append(DensityMatrix.from_pure(_GRID_KETS[n]))
    if not rhos:
        raise ValueError("no (theta, r) pair is consistent with this delta")
    return DensityMatrix.mixture(rhos)
