"""Reference code that only the tests run.

`circuit_oracle` is the circuit-model cross-check of the measurement
engine, and `conditional_transmitted_state` is the blindness invariant in
executable form: the server's view of one blind qubit given its delta.
`amplitudes_from_wire_oracle` is the two-pass wire parse that the one-pass
`protocol.amplitudes_from_wire` replaced.  The `*_oracle` likelihood
evaluations are the MLE's earlier forms (a complex phase product and its
real part, a gather by Pauli string, out-of-place arithmetic and the numpy
wrappers), which the fewer-call kernels of `tomography` must match bit for
bit.  `deutsch_oracle` is `run_deutsch` with one `exact_counts` and one
`mle_reconstruct` per output, the loop the batched tomography replaced.
The three small helpers stand in for what a library caller reaches with
one public expression.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from blindsim.angles import Angle8
from blindsim.clusters import ClusterConfig, GraphSpec
from blindsim.experiments import (
    DEUTSCH_ORACLE_ANGLES,
    DEUTSCH_PHI,
    DEUTSCH_VERDICT_STATE,
    REPORTED_VALUES,
    _deutsch_outputs,
)
from blindsim.mbqc import _input_steps, _prep_step
from blindsim.protocol import _GRID_KETS
from blindsim.quantum import (
    HADAMARD,
    DensityMatrix,
    PureState,
    fidelity_pure,
    phase_gate,
    rx,
    rz,
)
from blindsim.tomography import (
    _MeasurementModel,
    _Point,
    _PoissonLikelihood,
    exact_counts,
    mle_reconstruct,
    pauli_settings,
)
from blindsim.verification import ALIGNED10


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


def _walsh_times_oracle(model: _MeasurementModel, mat: np.ndarray) -> np.ndarray:
    pairs = mat.astype(np.complex128, copy=False).view(np.float64)
    return (model.walsh @ pairs).view(np.complex128)


def model_probabilities_oracle(model: _MeasurementModel, rho: np.ndarray) -> np.ndarray:
    scaled = (model.phase * _walsh_times_oracle(model, rho.take(model.xor_index))).real
    return (scaled.take(model.string_index) @ model.walsh).reshape(-1)


def weighted_projector_sum_oracle(model: _MeasurementModel, weights: np.ndarray) -> np.ndarray:
    dim = len(model.walsh)
    per_string = np.bincount(
        model.string_index.reshape(-1),
        weights=(weights.reshape(-1, dim) @ model.walsh).reshape(-1),
        minlength=dim * dim,
    )
    q_mat = _walsh_times_oracle(model, per_string.reshape(dim, dim) * model.phase)
    return q_mat.take(model.xor_index).T


def value_at_oracle(likelihood: _PoissonLikelihood, probabilities: np.ndarray) -> float:
    mu = likelihood.exposure * probabilities
    return float(np.sum(likelihood.counts * np.log(mu) - mu))


def likelihood_at_oracle(likelihood: _PoissonLikelihood, t_mat: np.ndarray) -> _Point:
    product = t_mat @ t_mat.conj().T
    trace = np.trace(product).real
    rho = product / trace
    probabilities = np.maximum(model_probabilities_oracle(likelihood.model, rho), 1e-15)
    return _Point(t_mat, rho, trace, probabilities, value_at_oracle(likelihood, probabilities))


def gradient_oracle(likelihood: _PoissonLikelihood, point: _Point) -> np.ndarray:
    weights = likelihood.counts / point.probabilities - likelihood.exposure
    grad_rho = weighted_projector_sum_oracle(likelihood.model, weights)
    mean_shift = np.real(np.trace(grad_rho @ point.rho))
    grad_t = (2.0 / point.trace) * (grad_rho @ point.t_mat - mean_shift * point.t_mat)
    return np.where(np.tri(len(grad_t), dtype=bool), grad_t, 0.0)


def deutsch_oracle(oracle: str) -> dict:
    """`run_deutsch`'s table, its tomography one table at a time."""
    if oracle not in DEUTSCH_ORACLE_ANGLES:
        raise ValueError("oracle must be 'constant' or 'balanced'")
    phi = DEUTSCH_PHI[oracle]
    verdict = DEUTSCH_VERDICT_STATE[oracle].amplitudes
    settings1 = pauli_settings(1)
    branches, outputs = _deutsch_outputs(oracle, ALIGNED10)
    fidelity = np.abs(branches.corrected @ verdict.conj()) ** 2
    success = np.where(~branches.impossible, branches.probability * fidelity, 0.0).sum(axis=1)
    rows = []
    for b, (n2, n3) in enumerate(ALIGNED10):
        output = PureState.from_amplitudes(outputs[b])
        counts = exact_counts(DensityMatrix.from_pure(output), settings1)
        rho_hat = mle_reconstruct(counts).rho_hat
        f_constant = fidelity_pure(rho_hat, DEUTSCH_VERDICT_STATE["constant"])
        f_balanced = fidelity_pure(rho_hat, DEUTSCH_VERDICT_STATE["balanced"])
        rows.append(
            {
                "n2": n2,
                "n3": n3,
                "success_probability": float(success[b]),
                "tomography_verdict": "constant" if f_constant >= f_balanced else "balanced",
                "verdict_fidelity": max(f_constant, f_balanced),
            }
        )
    successes = [row["success_probability"] for row in rows]
    return {
        "config": {"experiment": "deutsch"},
        "oracle": oracle,
        "phi_eighths": {str(q): angle.eighths for q, angle in phi.items()},
        "rows": rows,
        "success_min": min(successes),
        "verdicts_correct": all(r["tomography_verdict"] == oracle for r in rows),
        "reported_reference": REPORTED_VALUES[f"deutsch_{oracle}_success"],
    }
