"""Phenomenological noise for the four-qubit family.

The model is keyed to two interference-contrast parameters: the source pairs
(qubits 1,2 and 3,4) carry a phase-damping channel of strength
(1 - bell_visibility)/2, the inner qubits 2 and 3 (the ones overlapped at the
beam splitters, and the ones carrying the hiding phases) a second channel of
strength (1 - interference_visibility)/2.

Slow drift of the hiding phases is a Gaussian jitter of width
phase_drift_sigma on theta_2 and theta_3.  Without an rng it enters in closed
form as the exact exp(-sigma^2/2) coherence damping, a state-independent
channel, which provably cannot leak hiding-phase information.  With an rng
the realized offsets are sampled once per preparation, modeling a
miscalibrated apparatus whose produced state depends on the setting; this is
the mechanism that makes the leakage analysis report a nonzero chi.

Every closed-form channel is Z-dephasing of qubits 1-3, and Z on a cluster
qubit turns theta_q into theta_q + pi, so `dephasing_flips` writes the same
channels as an exact mixture of at most 8 grid cluster states.

Deliberately phenomenological: it reproduces qualitative fidelity degradation,
not any particular apparatus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import DensityMatrix, PureState, basis_bits


@dataclass(frozen=True)
class NoiseParams:
    bell_visibility: float = 0.9
    interference_visibility: float = 0.85
    phase_drift_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bell_visibility", "interference_visibility"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value} outside [0, 1]")
        if not (0.0 <= self.phase_drift_sigma < math.inf):  # NaN fails too
            raise ValueError("phase_drift_sigma must be finite and nonnegative")

    @property
    def ideal(self) -> bool:
        return (
            self.bell_visibility == 1.0
            and self.interference_visibility == 1.0
            and self.phase_drift_sigma == 0.0
        )


def _dephase(rho: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    """rho -> (1-p) rho + p Z_q rho Z_q."""
    if p == 0.0:
        return rho
    signs = 1.0 - 2.0 * basis_bits(n)[:, qubit - 1]
    return (1.0 - p) * rho + p * (rho * np.outer(signs, signs))


PAIR_QUBITS = (1, 3)  # one qubit per source pair (1,2) and (3,4)
INTERFERED_QUBITS = (2, 3)


def _phase_kick(rho: np.ndarray, qubit: int, angle: float, n: int) -> np.ndarray:
    """Unitary Rz(angle) on one qubit of a density matrix."""
    phases = np.where(basis_bits(n)[:, qubit - 1] == 1, np.exp(1j * angle), 1.0 + 0j)
    return rho * np.outer(phases, phases.conj())


def _dephasing_channels(params: NoiseParams, averaged: bool = True) -> list[tuple[int, float]]:
    """The (qubit, p) Z-dephasing channels in the order `apply_noise` applies
    them, the drift's closed-form damping included when `averaged`."""
    p_bell = (1.0 - params.bell_visibility) / 2.0
    p_int = (1.0 - params.interference_visibility) / 2.0
    channels = [(q, p_bell) for q in PAIR_QUBITS] + [(q, p_int) for q in INTERFERED_QUBITS]
    if params.phase_drift_sigma > 0.0 and averaged:
        damping = math.exp(-params.phase_drift_sigma**2 / 2.0)
        channels += [(q, (1.0 - damping) / 2.0) for q in INTERFERED_QUBITS]
    return channels


def dephasing_flips(params: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form channels as a mixture of Z-flip patterns: the dephased
    cluster of phases theta is sum_f weights[f] |psi(theta + offsets[f])><.|.

    `offsets` is (F, 4) eighths, 4 on a flipped qubit (column q-1); row 0
    flips nothing.  Each qubit's channels combine into one flip probability
    p_a + p_b - 2 p_a p_b, and only qubits that can flip get patterns, so F
    is 1 when ideal.
    """
    flip = np.zeros(4)
    for q, p in _dephasing_channels(params):
        flip[q - 1] += p - 2.0 * flip[q - 1] * p
    qubits = np.flatnonzero(flip)
    bits = (np.arange(2 ** len(qubits))[:, None] >> np.arange(len(qubits))) & 1
    offsets = np.zeros((len(bits), 4), dtype=np.int64)
    offsets[:, qubits] = 4 * bits
    return offsets, np.prod(np.where(bits, flip[qubits], 1.0 - flip[qubits]), axis=1)


def apply_noise(
    state: PureState,
    params: NoiseParams,
    rng: np.random.Generator | None = None,
) -> DensityMatrix:
    """Noisy version of a four-qubit family state as a density matrix.

    With `rng`, the phase drift is a sampled offset of the prepared hiding
    phases (deterministic given the generator state); without it, the drift
    is averaged in closed form.
    """
    if state.num_qubits != 4:
        raise ValueError("the noise model is defined on the four-qubit family")
    n = state.num_qubits
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for q, p in _dephasing_channels(params, averaged=rng is None):
        rho = _dephase(rho, q, p, n)
    if params.phase_drift_sigma > 0.0 and rng is not None:
        for q in INTERFERED_QUBITS:
            offset = float(rng.normal(0.0, params.phase_drift_sigma))
            rho = _phase_kick(rho, q, offset, n)
    return DensityMatrix.from_matrix(rho)
