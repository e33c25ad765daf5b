"""Dense exact simulation of small multi-qubit systems.

Convention: qubit 1 is the most significant bit of the basis index, so the
basis label of a four-qubit amplitude reads |q1 q2 q3 q4>.  States are
immutable; every operation returns a fresh value.  Amplitudes are validated
where they enter: arrays in `PureState.from_amplitudes`, and [re, im] pairs
off the wire in `protocol.amplitudes_from_wire`, which reads them in one
pass.  Both apply one norm rule, `checked_norm`.  States that are
normalized by construction (a renormalized projection, a blind cluster
built by its product formula, the outer product of a validated state, the
eight grid kets |k pi/4> built once at import) skip the check.

One kernel, `project_qubit`, measures a qubit: the state reshaped to
(2^pos, 2, rest) and contracted with one row per outcome.  The server and
`PureState.project_delta` both use it.

The equatorial measurement basis is
    |b_delta> = (|0> + (-1)^b e^{i delta} |1>) / sqrt(2),   b in {0, 1},
so bit 0 always labels the "+" element of |±_delta>.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
IMPOSSIBLE_BRANCH = 1e-12


@functools.lru_cache(maxsize=None)
def basis_bits(n: int) -> np.ndarray:
    """(2^n, n) read-only bits of every basis index, qubit 1 (column 0) most
    significant."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


# single-qubit gate constants
IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
SQRT_Z = np.diag([1.0, 1.0j]).astype(complex)
# Branch chosen so that SQRT_Z (x) SQRT_X (x) SQRT_Z (x) I maps the
# triangle-cluster graph state onto the linear one (see clusters module).
SQRT_X = HADAMARD @ np.diag([1.0, -1.0j]).astype(complex) @ HADAMARD


def rz(phi: float) -> np.ndarray:
    """R_z(phi) = exp(-i phi Z / 2)."""
    return np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]])


def rx(alpha: float) -> np.ndarray:
    """R_x(alpha) = exp(-i alpha X / 2)."""
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def phase_gate(delta: float) -> np.ndarray:
    """diag(1, e^{i delta}), which is R_z(delta) up to global phase."""
    return np.diag([1.0, np.exp(1j * delta)]).astype(complex)


def is_unitary(gate: np.ndarray, tol: float = 1e-10) -> bool:
    gate = np.asarray(gate, dtype=complex)
    return gate.shape == (2, 2) and np.allclose(
        gate.conj().T @ gate, np.eye(2), atol=tol
    )


def _check_gate(gate: np.ndarray) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    if not is_unitary(gate):
        raise ValueError("gate is not a 2x2 unitary")
    return gate


def equatorial_bra(delta: float, bit: int) -> np.ndarray:
    """Projection row vector <b_delta| for the |±_delta> basis."""
    return np.array([1.0, (-1) ** bit * np.exp(1j * delta)]).conj() / math.sqrt(2)


def checked_norm(size: int, norm_sq: float) -> float:
    """The norm of `size` amplitudes whose squared moduli sum to `norm_sq`,
    once the vector passes the one check every state from outside passes:
    a power-of-2 length and a norm within NORM_TOL of 1."""
    if size < 1 or size & (size - 1):
        raise ValueError(f"amplitude vector length {size} is not a power of 2")
    norm = math.sqrt(norm_sq)
    if not abs(norm - 1.0) <= NORM_TOL:  # written so that NaN fails
        raise ValueError(f"state norm {norm} deviates from 1")
    return norm


@functools.lru_cache(maxsize=64)
def _equatorial_row(delta: float, bit: int) -> np.ndarray:
    """equatorial_bra(delta, bit) as a read-only (1, 2) row, built once per
    angle: a client measures its outputs at a few angles, many times."""
    row = equatorial_bra(delta, bit)[None]
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class PureState:
    """Normalized complex state vector on `num_qubits` qubits."""

    amplitudes: np.ndarray
    num_qubits: int

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "PureState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls._trusted(vec / checked_norm(vec.size, np.vdot(vec, vec).real))

    @classmethod
    def _trusted(cls, vec: np.ndarray) -> "PureState":
        """Wrap a 1-D unit vector of length 2^n that is normalized by construction."""
        vec.setflags(write=False)
        return cls(vec, vec.size.bit_length() - 1)

    @classmethod
    def computational(cls, num_qubits: int, index: int = 0) -> "PureState":
        vec = np.zeros(2**num_qubits, dtype=complex)
        vec[index] = 1.0
        return cls.from_amplitudes(vec)

    @classmethod
    def ket_theta(cls, theta: float) -> "PureState":
        """|theta> = (|0> + e^{i theta}|1>)/sqrt(2)."""
        return cls.from_amplitudes([1.0, np.exp(1j * theta)] / np.sqrt(2))

    @classmethod
    def plus(cls) -> "PureState":
        return cls.ket_theta(0.0)

    def _axis(self, qubit: int) -> int:
        if not 1 <= qubit <= self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range 1..{self.num_qubits}")
        return qubit - 1

    def apply_single(self, qubit: int, gate: np.ndarray) -> "PureState":
        """Apply a single-qubit unitary to the given tensor factor (1-based)."""
        gate = _check_gate(gate)
        ax = self._axis(qubit)
        tensor = self.amplitudes.reshape([2] * self.num_qubits)
        tensor = np.moveaxis(tensor, ax, 0)
        tensor = np.tensordot(gate, tensor, axes=([1], [0]))
        tensor = np.moveaxis(tensor, 0, ax)
        return PureState.from_amplitudes(tensor.reshape(-1))

    def project_delta(
        self, qubit: int, delta: float, bit: int
    ) -> tuple[float, "PureState | None"]:
        """Measure `qubit` in |±_delta>; returns (probability, residual state).

        The residual state has the measured qubit removed and is renormalized.
        A branch with probability below 1e-12 returns None for the state so
        the caller can prune it.
        """
        probs, branches = project_qubit(self, self._axis(qubit), _equatorial_row(delta, bit))
        prob = float(probs[0])
        if prob < IMPOSSIBLE_BRANCH:
            return prob, None
        return prob, PureState._trusted(branches[0] / math.sqrt(prob))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def project_qubit(state: PureState, pos: int, bras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure the qubit at 0-based `pos` with each row of `bras`: the
    probability and the unnormalized residual state of each outcome, row b
    for row b, from one einsum on the state reshaped to (2^pos, 2, rest)."""
    psi = state.amplitudes.reshape(2**pos, 2, -1)
    branches = np.einsum("bc,lcr->blr", bras, psi).reshape(len(bras), -1)
    flat = branches.view(np.float64)  # real and imaginary parts side by side
    return np.einsum("bi,bi->b", flat, flat), branches


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    return abs(abs(a.overlap(b)) - 1.0) < tol


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits."""

    matrix: np.ndarray
    num_qubits: int

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityMatrix":
        mat = np.asarray(matrix, dtype=complex)
        dim = mat.shape[0]
        n = int(round(math.log2(dim)))
        if mat.shape != (dim, dim) or 2**n != dim:
            raise ValueError(f"density matrix shape {mat.shape} is not 2^n x 2^n")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has a non-finite entry")
        adjoint = mat.conj().T  # np.allclose's |a - b| <= atol + 1e-5 |b|, fused
        if not (np.abs(mat - adjoint) <= HERMITIAN_TOL + 1e-5 * np.abs(adjoint)).all():
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"trace {np.trace(mat)} deviates from 1")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {eigenvalues.min()}")
        mat = mat.copy()
        mat.setflags(write=False)
        return cls(mat, n)

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        """|psi><psi|, which is a density matrix by construction."""
        vec = psi.amplitudes
        mat = np.outer(vec, vec.conj())
        mat.setflags(write=False)
        return cls(mat, psi.num_qubits)

    @classmethod
    def mixture(
        cls, states: Iterable["DensityMatrix"], weights: Iterable[float] | None = None
    ) -> "DensityMatrix":
        mats = [s.matrix for s in states]
        if weights is None:
            weights = [1.0 / len(mats)] * len(mats)
        acc = sum(w * m for w, m in zip(weights, mats))
        return cls.from_matrix(acc)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> for a pure target."""
    vec = psi.amplitudes
    return float(np.real(vec.conj() @ rho.matrix @ vec))


def linear_entropy(rho: DensityMatrix) -> float:
    """(d/(d-1)) (1 - Tr rho^2): 0 for pure states, 1 for I/d."""
    d = rho.dim
    purity = float(np.real(np.trace(rho.matrix @ rho.matrix)))
    return (d / (d - 1.0)) * (1.0 - purity)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log2 rho) with 0 log 0 := 0."""
    eigenvalues = np.linalg.eigvalsh(rho.matrix)
    eigenvalues = eigenvalues[eigenvalues > 1e-12]
    return float(-(eigenvalues * np.log2(eigenvalues)).sum())
