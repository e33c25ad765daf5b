"""Over-complete Pauli tomography with Poissonian counts and
maximum-likelihood reconstruction.

Settings are all 3^n products of local X/Y/Z bases (over-complete for the
sizes used here).  Counts are Poisson with mean exposure * Born probability.
The estimate maximizes the Poisson log-likelihood over rho = T^dag T / Tr,
T lower-triangular, by gradient ascent with backtracking line search.
Before the ascent, the linear-inversion estimate with its negative
eigenvalues clipped to 0 is checked against the likelihood's concavity
certificate, which bounds how far below the maximum it lies; when that
bound is within the stopping gain (noise-free counts), the estimate is
returned at iteration 0.
Error bars come from re-running an extractor on Poisson-resampled counts.

The measurement model lives in the Pauli basis.  Each outcome projector of
a product-Pauli setting is a signed sum of the 2^n Pauli strings that the
setting measures, so outcome probabilities are Walsh transforms of the 4^n
Pauli expectations Tr(rho P), and the likelihood gradient's weighted
projector sum is one Pauli sum.  The settings are informationally complete
exactly when together they measure every one of the 4^n strings.  One
read-only model per settings tuple (the string tables, the Walsh and phase
tables and the permutation to the layout they act on) is built once and
shared by the MLE, its linear-inversion seed, the Monte Carlo resamples,
`exact_counts` and `simulate_counts`, which read every setting's
probabilities from it in one evaluation; no dense projector or
outcome-vector stack is built for them.  The dense `setting_projectors` and
`measurement_rank` remain only as names that the benchmark harness
(bench/tracing.py) traces.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quantum import DensityMatrix, PureState, fidelity_pure

_EIGENBASES = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex).T / math.sqrt(2),
    "Y": np.array([[1, 1j], [1, -1j]], dtype=complex).T / math.sqrt(2),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex).T,
}
# column b of _EIGENBASES[axis] is the outcome-b eigenvector (b=0 <-> +1)

# below numpy's Poisson limit (~9.22e18) by more than a probability rounded past 1
MAX_MEAN_TOTAL = 9e18


def pauli_settings(num_qubits: int) -> list[tuple[str, ...]]:
    return list(itertools.product("XYZ", repeat=num_qubits))


def _tensor_products(factors: np.ndarray) -> np.ndarray:
    """(M, n, a, b) local factors -> (M, a^n, b^n) Kronecker products."""
    out = np.ones((factors.shape[0], 1, 1), dtype=factors.dtype)
    for q in range(factors.shape[1]):
        local = factors[:, q]
        out = out[:, :, None, :, None] * local[:, None, :, None, :]
        rows, cols = out.shape[1] * out.shape[2], out.shape[3] * out.shape[4]
        out = out.reshape(-1, rows, cols)
    return out


def _outcome_vectors(settings: Sequence[Sequence[str]]) -> np.ndarray:
    """(K, 2^n, 2^n): row o of block k is outcome o's vector of setting k."""
    factors = np.array([[_EIGENBASES[axis] for axis in s] for s in settings])
    return _tensor_products(factors).transpose(0, 2, 1)


def setting_projectors(setting: Sequence[str]) -> np.ndarray:
    """(2^n, d, d) stack of outcome projectors; qubit 1 is the MSB."""
    vectors = _outcome_vectors([setting])[0]
    return vectors[:, :, None] * vectors[:, None, :].conj()


@dataclass(frozen=True)
class CountsTable:
    settings: list[tuple[str, ...]]
    counts: np.ndarray  # (n_settings, 2^n)
    exposure: float  # mean total events per setting

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape[0] != len(self.settings):
            raise ValueError("counts rows must match settings")
        if not np.isfinite(counts).all() or (counts < 0).any():
            raise ValueError("counts must be finite and nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def num_qubits(self) -> int:
        return len(self.settings[0])


def simulate_counts(
    rho: DensityMatrix,
    settings: Sequence[tuple[str, ...]],
    mean_total: float,
    rng: np.random.Generator,
) -> CountsTable:
    """Poisson counts with mean = mean_total * Born probability, every
    setting's probabilities read from the Pauli-basis model in one evaluation.

    Probabilities under 1e-15 in magnitude are rounding of exact zeros, so
    they are set to 0: a zero mean draws nothing from `rng`.
    """
    if not 0.0 <= mean_total <= MAX_MEAN_TOTAL:  # NaN fails too
        raise ValueError(f"mean_total = {mean_total} outside [0, {MAX_MEAN_TOTAL:g}]")
    model = _measurement_model(tuple(tuple(s) for s in settings))
    probs = _model_probabilities(model, rho.matrix).reshape(len(settings), -1)
    probs = np.clip(np.where(np.abs(probs) < 1e-15, 0.0, probs), 0.0, None)
    return CountsTable(list(settings), rng.poisson(mean_total * probs), mean_total)


def exact_counts(
    rho: DensityMatrix, settings: Sequence[tuple[str, ...]], exposure: float = 1.0
) -> CountsTable:
    """Infinite-statistics limit: counts equal exposure * probabilities, all
    read from the settings' Pauli-basis model in one evaluation."""
    model = _measurement_model(tuple(tuple(s) for s in settings))
    probs = _model_probabilities(model, rho.matrix).reshape(len(settings), -1)
    return CountsTable(list(settings), np.clip(probs, 0.0, None) * exposure, exposure)


@dataclass(frozen=True)
class MLEResult:
    rho_hat: DensityMatrix
    log_likelihood: float
    fidelity_to_target: float | None
    error_bars: dict[str, float]
    converged: bool
    iterations: int
    gradient_norm: float  # |grad_T log L| at the last iterate it was taken, else NaN
    line_search_halvings: int  # step halvings over all iterations
    seed_clipped_eigenvalues: int  # seed eigenvalues raised to the 1e-6 floor


class _MeasurementModel(NamedTuple):
    """Settings in the Pauli basis.  A Pauli string is indexed z 2^n + x by
    its Z-bits and X-bits (qubit 1 most significant): on qubit q it is I, X,
    Z or Y as (x_q, z_q) is (0,0), (1,0), (0,1) or (1,1), and its only
    nonzero entries are P[a ^ x, a] = i^popcount(x & z) (-1)^popcount(z & a).
    """

    complete: bool  # every Pauli string is measured by some setting
    walsh: np.ndarray  # (2^n, 2^n): [o, m] = (-1)^{popcount(o & m)}
    string_index: np.ndarray  # (K, 2^n): Pauli string of (setting k, subset m)
    string_counts: np.ndarray  # (4^n,): how many (k, m) measure each string
    phase: np.ndarray  # (2^n, 2^n): [z, x] = i^{popcount(x & z)} / 2^n
    xor_index: np.ndarray  # (2^n, 2^n): [a, x] = a 2^n + (a ^ x), its own inverse


@functools.lru_cache(maxsize=8)
def _measurement_model(settings: tuple[tuple[str, ...], ...]) -> _MeasurementModel:
    """The read-only model of one settings tuple, built once per tuple.

    Setting k's outcome-o projector is (1/d) sum_m (-1)^{popcount(o & m)}
    P_{k,m}, where P_{k,m} has setting k's axis on the qubits of subset m
    (qubit q <-> bit n-1-q of m) and I elsewhere.  So the projectors of one
    setting span its 2^n strings, and the settings are informationally
    complete exactly when together they measure all 4^n strings.
    """
    n = len(settings[0])
    dim = 2**n
    walsh = _tensor_products(np.tile([[1.0, 1.0], [1.0, -1.0]], (1, n, 1, 1)))[0]
    # the 1/d of every projector, folded in exactly: d is a power of two
    phase = _tensor_products(np.tile([[1.0, 1.0], [1.0, 1j]], (1, n, 1, 1)))[0] / dim
    bit = 1 << np.arange(n - 1, -1, -1)
    x_bits = np.array([[a in "XY" for a in s] for s in settings]) @ bit
    z_bits = np.array([[a in "YZ" for a in s] for s in settings]) @ bit
    subsets = np.arange(dim)
    string_index = (z_bits[:, None] & subsets) * dim + (x_bits[:, None] & subsets)
    string_counts = np.bincount(string_index.reshape(-1), minlength=dim * dim)
    xor_index = subsets[:, None] * dim + (subsets[:, None] ^ subsets[None, :])
    model = _MeasurementModel(
        bool(string_counts.all()), walsh, string_index, string_counts, phase, xor_index
    )
    for field in model:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
    return model


def _model_of(table: CountsTable) -> _MeasurementModel:
    return _measurement_model(tuple(tuple(s) for s in table.settings))


def _walsh_times(model: _MeasurementModel, mat: np.ndarray) -> np.ndarray:
    """walsh @ mat for a C-ordered mat, as one real product over the
    interleaved real and imaginary parts."""
    pairs = mat.astype(np.complex128, copy=False).view(np.float64)
    return (model.walsh @ pairs).view(np.complex128)


def _model_probabilities(model: _MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Every outcome's probability, from the 4^n Pauli expectations
    Tr(rho P)[z, x] = Re(i^{popcount(x & z)} (walsh @ M)[z, x]), where
    M[a, x] = rho[a, a ^ x]; here each is divided by d."""
    scaled = (model.phase * _walsh_times(model, rho.take(model.xor_index))).real
    return (scaled.take(model.string_index) @ model.walsh).reshape(-1)


def _pauli_sum(model: _MeasurementModel, coefficients: np.ndarray) -> np.ndarray:
    """G = (1/d) sum_s c_s P_s for real c.  With C[z, x] = c_{z 2^n + x},
    G[a ^ x, a] = (walsh @ (C * i^{popcount(x & z)}))[a, x] / d."""
    dim = len(model.walsh)
    q_mat = _walsh_times(model, coefficients.reshape(dim, dim) * model.phase)
    return q_mat.take(model.xor_index).T


def _weighted_projector_sum(model: _MeasurementModel, weights: np.ndarray) -> np.ndarray:
    """sum_{k,o} w_{k,o} Pi_{k,o}, the adjoint of `_model_probabilities`."""
    dim = len(model.walsh)
    per_string = np.bincount(
        model.string_index.reshape(-1),
        weights=(weights.reshape(-1, dim) @ model.walsh).reshape(-1),
        minlength=dim * dim,
    )
    return _pauli_sum(model, per_string)


class _Seed(NamedTuple):
    """The linear-inversion estimate's eigendecomposition, projected to the
    PSD cone two ways: clipped at once, floored only for an ascent."""

    vals: np.ndarray
    vecs: np.ndarray
    projected: np.ndarray  # eigenvalues clipped at 0: the certified candidate
    clipped: int  # eigenvalues the floor raises

    def floored(self) -> np.ndarray:
        """Eigenvalues raised to 1e-6: the ascent's start."""
        floored = (self.vecs * np.clip(self.vals, 1e-6, None)) @ self.vecs.conj().T
        return floored / np.trace(floored).real


def _linear_inversion(table: CountsTable) -> _Seed:
    """Pauli-expectation inversion, projected to the PSD cone; MLE seed.

    Each Pauli string's expectation is the mean of its estimates over every
    setting that measures it, each estimate a parity of the outcome bits.
    """
    model = _model_of(table)
    totals = table.counts.sum(axis=1)
    freqs = table.counts / np.where(totals > 0, totals, 1.0)[:, None]
    sums = np.bincount(
        model.string_index.reshape(-1),
        weights=(freqs @ model.walsh).reshape(-1),
        minlength=len(model.string_counts),
    )
    means = sums / np.maximum(model.string_counts, 1)
    means[0] = 1.0  # the identity string: Tr rho = 1
    vals, vecs = np.linalg.eigh(_pauli_sum(model, means))
    projected = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    clipped = int(np.count_nonzero(vals < 1e-6))
    return _Seed(vals, vecs, projected / np.trace(projected).real, clipped)


def measurement_rank(settings: Sequence[tuple[str, ...]], dim: int) -> int:
    vectors = _outcome_vectors(settings).reshape(-1, dim)
    rows = (vectors[:, :, None] * vectors[:, None, :].conj()).reshape(len(vectors), -1)
    return int(np.linalg.matrix_rank(rows, tol=1e-9))


@functools.lru_cache(maxsize=8)
def _lower_triangle(dim: int) -> np.ndarray:
    """The read-only mask that np.tril applies to a dim x dim matrix."""
    mask = np.tri(dim, dtype=bool)
    mask.setflags(write=False)
    return mask


class _Point(NamedTuple):  # one likelihood evaluation at a Cholesky factor T
    t_mat: np.ndarray
    rho: np.ndarray  # T T^dagger / Tr(T T^dagger), physical for every T
    trace: float  # Tr(T T^dagger)
    probabilities: np.ndarray  # clipped at 1e-15
    log_likelihood: float


class _PoissonLikelihood(NamedTuple):
    """log L(rho) = sum_k n_k ln(mu_k) - mu_k, with mu_k = exposure * p_k(rho)."""

    model: _MeasurementModel
    counts: np.ndarray
    exposure: float

    @classmethod
    def of(cls, table: CountsTable) -> "_PoissonLikelihood":
        return cls(_model_of(table), table.counts.reshape(-1), table.exposure)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return np.maximum(_model_probabilities(self.model, rho), 1e-15)

    def value(self, rho: np.ndarray) -> float:
        return self._value_at(self.probabilities(rho))

    def _value_at(self, probabilities: np.ndarray) -> float:
        mu = self.exposure * probabilities
        return float(np.sum(self.counts * np.log(mu) - mu))

    def at(self, t_mat: np.ndarray) -> _Point:
        """The one evaluation at T: a line-search trial's, then the next gradient's."""
        product = t_mat @ t_mat.conj().T
        trace = np.trace(product).real
        rho = product / trace
        probabilities = self.probabilities(rho)
        return _Point(t_mat, rho, trace, probabilities, self._value_at(probabilities))

    def certificate(self, rho: np.ndarray) -> tuple[float, float]:
        """log L(rho) and the bound lambda_max(R) - Tr(rho R) on log L* -
        log L(rho), where R = sum_k (n_k / p_k - exposure) Pi_k is log L's
        gradient in rho.  log L is concave in rho, so log L(sigma) <= log
        L(rho) + Tr((sigma - rho) R) for every state sigma, and the right
        side is largest at R's top eigenvector (Glancy, Knill and Girard,
        New J. Phys. 14, 095017, 2012)."""
        probabilities = self.probabilities(rho)
        grad_rho = _weighted_projector_sum(
            self.model, self.counts / probabilities - self.exposure
        )
        top = np.linalg.eigvalsh(grad_rho)[-1]
        return self._value_at(probabilities), float(top - np.vdot(rho, grad_rho).real)

    def gradient(self, point: _Point) -> np.ndarray:
        """Ascent direction G in T's lower triangle, scaled so that the
        slope of log L along G is |G|^2."""
        weights = self.counts / point.probabilities - self.exposure
        grad_rho = _weighted_projector_sum(self.model, weights)
        mean_shift = np.real(np.trace(grad_rho @ point.rho))
        grad_t = (2.0 / point.trace) * (grad_rho @ point.t_mat - mean_shift * point.t_mat)
        return np.where(_lower_triangle(len(grad_t)), grad_t, 0.0)


class _Ascent(NamedTuple):
    rho: np.ndarray
    log_likelihood: float
    converged: bool
    iterations: int
    gradient_norm: float
    halvings: int


def _ascend(
    likelihood: _PoissonLikelihood,
    seed: np.ndarray,
    max_iterations: int,
    improvement_tol: float,
) -> _Ascent:
    """Gradient ascent in T from a full-rank seed: a Barzilai-Borwein step
    guess, halved until the likelihood improves.

    The stopping gain is relative: count-scale likelihoods sit at ~1e6,
    where an absolute 1e-9 window is finer than float64 can resolve.
    """
    point = likelihood.at(np.linalg.cholesky(seed + 1e-9 * np.eye(len(seed))))  # T lower triangular

    step: float | None = None
    prev_t: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    converged = False
    iterations = 0
    halvings = 0
    norm = math.nan
    for iterations in range(1, max_iterations + 1):
        grad_t = likelihood.gradient(point)
        norm = float(np.linalg.norm(grad_t))
        if norm < 1e-14:
            converged = True
            break
        if prev_t is not None:
            dt = (point.t_mat - prev_t).reshape(-1)
            dg = (grad_t - prev_grad).reshape(-1)
            curvature = -np.real(np.vdot(dt, dg))
            if curvature > 1e-30:
                step = float(np.real(np.vdot(dt, dt)) / curvature)
        if step is None:
            step = 1.0 / norm
        prev_t, prev_grad = point.t_mat, grad_t
        trial = abs(step)
        improved = False
        for _ in range(60):
            # norm**2 is the slope of the likelihood along grad_t: a step
            # whose first-order gain is under the stopping gain ends the run
            if trial * norm**2 < improvement_tol * max(abs(point.log_likelihood), 1.0):
                break
            candidate = likelihood.at(point.t_mat + trial * grad_t)
            if candidate.log_likelihood > point.log_likelihood:
                improved = True
                break
            trial /= 2.0
            halvings += 1
        if not improved:
            converged = True
            break
        gain = candidate.log_likelihood - point.log_likelihood
        point = candidate
        if gain < improvement_tol * max(abs(point.log_likelihood), 1.0):
            converged = True
            break
    return _Ascent(point.rho, point.log_likelihood, converged, iterations, norm, halvings)


def mle_reconstruct(
    table: CountsTable,
    target: PureState | None = None,
    max_iterations: int = 2000,
    improvement_tol: float = 1e-9,
) -> MLEResult:
    """Most likely physical density matrix under the Poisson count model.

    The linear-inversion estimate with its negative eigenvalues clipped to 0
    is returned at once, converged at iteration 0, when the concavity
    certificate (`_PoissonLikelihood.certificate`) proves it within the
    stopping gain improvement_tol * max(|log L|, 1) of the maximum.  Noise-
    free counts certify this way.  Otherwise, as for Poisson counts, the
    ascent runs from the estimate with its eigenvalues floored at 1e-6.
    """
    likelihood = _PoissonLikelihood.of(table)
    if not likelihood.model.complete:
        raise ValueError("settings are not informationally complete")

    seed = _linear_inversion(table)
    ll, bound = likelihood.certificate(seed.projected)
    if bound <= improvement_tol * max(abs(ll), 1.0):
        run = _Ascent(seed.projected, ll, True, 0, math.nan, 0)
    else:
        run = _ascend(likelihood, seed.floored(), max_iterations, improvement_tol)

    rho_hat = DensityMatrix.from_matrix(run.rho)
    fid = fidelity_pure(rho_hat, target) if target is not None else None
    return MLEResult(
        rho_hat=rho_hat,
        log_likelihood=run.log_likelihood,
        fidelity_to_target=fid,
        error_bars={},
        converged=run.converged,
        iterations=run.iterations,
        gradient_norm=run.gradient_norm,
        line_search_halvings=run.halvings,
        seed_clipped_eigenvalues=seed.clipped,
    )


def monte_carlo_errors(
    table: CountsTable,
    n_trials: int,
    extract: Callable[[CountsTable], float],
    rng: np.random.Generator,
) -> float:
    """Std-dev of `extract` over at least two Poisson resamplings of the counts."""
    if n_trials < 2:
        raise ValueError(f"n_trials = {n_trials}: an error bar needs at least 2 resamplings")
    values = []
    for _ in range(n_trials):
        resampled = CountsTable(
            table.settings, rng.poisson(table.counts), table.exposure
        )
        values.append(extract(resampled))
    return float(np.std(values))
