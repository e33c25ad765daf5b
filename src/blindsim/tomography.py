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
returned at iteration 0.  On three or more qubits the bound's top
eigenvalue is found only when the gradient's Rayleigh quotients on the
estimate's eigenvectors, a lower bound on it, do not already rule the
return out, as they do on Poisson counts.
`mle_reconstruct_batch` certifies many tables of one settings tuple at
once: the seeds' eigh, the likelihood and its gradient at the clipped
seeds, the certificate's eigvalsh and the checks of the estimates each
run once over the (B, d, d) stack, and only the tables left uncertified
run the ascent, one at a time.  `mle_reconstruct` is its batch of one, and
`exact_counts_batch` likewise builds many exact tables from one stacked
evaluation, so Deutsch's ten verdict tomographies are one call each.
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
outcome-vector stack is built for them.  An evaluation reads the real
parts of the measured Pauli expectations with one gather from the
interleaved float64 view of the Walsh product, each scaled by +-1/d, which
is exactly what the real part of the complex phase product rounds to.
The dense `setting_projectors` and
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
# the ascent's iteration cap, and its stopping gain relative to |log L|,
# which the certificate also has to meet
MAX_ITERATIONS = 2000
IMPROVEMENT_TOL = 1e-9


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


def _checked_width(settings: Sequence[Sequence[str]]) -> int:
    """The number of qubits the settings measure, refused unless the list
    is non-empty and every setting names that many axes, each X, Y or Z."""
    if not settings:
        raise ValueError("settings must not be empty")
    n = len(settings[0])
    if n == 0 or any(len(s) != n for s in settings):
        raise ValueError("settings must all measure the same nonzero number of qubits")
    if not set().union(*settings) <= set("XYZ"):
        raise ValueError("settings may name only the axes X, Y and Z")
    return n


@dataclass(frozen=True)
class CountsTable:
    settings: list[tuple[str, ...]]
    counts: np.ndarray  # (n_settings, 2^n)
    exposure: float  # mean total events per setting

    def __post_init__(self) -> None:
        n = _checked_width(self.settings)
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (len(self.settings), 2**n):
            raise ValueError(
                f"counts of shape {counts.shape}: need {(len(self.settings), 2**n)},"
                f" a row of 2^{n} outcomes per setting"
            )
        if not (counts.min() >= 0 and counts.max() < math.inf):  # NaN fails both
            raise ValueError("counts must be finite and nonnegative")
        if not (math.isfinite(self.exposure) and self.exposure >= 0):
            raise ValueError(f"exposure = {self.exposure}: must be finite and nonnegative")
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
    model = _measurement_model(_settings_key(settings))
    _check_width(model, [rho.num_qubits], "state")
    probs = _model_probabilities(model, rho.matrix).reshape(len(settings), -1)
    probs = np.clip(np.where(np.abs(probs) < 1e-15, 0.0, probs), 0.0, None)
    return CountsTable(list(settings), rng.poisson(mean_total * probs), mean_total)


def exact_counts(
    rho: DensityMatrix, settings: Sequence[tuple[str, ...]], exposure: float = 1.0
) -> CountsTable:
    """Infinite-statistics limit: counts equal exposure * probabilities, all
    read from the settings' Pauli-basis model in one evaluation."""
    return exact_counts_batch([rho], settings, exposure)[0]


def exact_counts_batch(
    states: Sequence[DensityMatrix], settings: Sequence[tuple[str, ...]], exposure: float = 1.0
) -> list[CountsTable]:
    """`exact_counts` of each state, every state's probabilities read from
    the settings' model in one evaluation over the stacked matrices."""
    if not states:
        raise ValueError("no states to count")
    model = _measurement_model(_settings_key(settings))
    _check_width(model, [rho.num_qubits for rho in states], "state")
    probs = _model_probabilities(model, np.array([rho.matrix for rho in states]))
    counts = (np.clip(probs, 0.0, None) * exposure).reshape(len(states), len(settings), -1)
    return [CountsTable(list(settings), rows, exposure) for rows in counts]


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
    real_index: np.ndarray  # (K, 2^n): where Re(phase W) of string_index sits in W's float64 view
    real_sign: np.ndarray  # (K, 2^n): +-1/2^n, so Re(phase W) = real_sign * that entry
    upper_index: np.ndarray  # flat indices of the strict upper triangle of a 2^n x 2^n matrix


@functools.lru_cache(maxsize=8)
def _measurement_model(settings: tuple[tuple[str, ...], ...]) -> _MeasurementModel:
    """The read-only model of one settings tuple, built once per tuple.

    Setting k's outcome-o projector is (1/d) sum_m (-1)^{popcount(o & m)}
    P_{k,m}, where P_{k,m} has setting k's axis on the qubits of subset m
    (qubit q <-> bit n-1-q of m) and I elsewhere.  So the projectors of one
    setting span its 2^n strings, and the settings are informationally
    complete exactly when together they measure all 4^n strings.

    Each phase is i^k / d, so Re(phase (a + ib)) is a/d, -b/d, -a/d or b/d
    for k = 0, 1, 2, 3: one entry of W's interleaved float64 view scaled by
    +-1/d, exactly as the complex product rounds it.
    """
    n = _checked_width(settings)
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
    imaginary = (phase.imag != 0).reshape(-1)
    real_index = 2 * string_index + imaginary.take(string_index)
    real_sign = (phase.real - phase.imag).take(string_index)
    upper_index = np.flatnonzero(~np.tri(dim, dtype=bool))
    model = _MeasurementModel(
        bool(string_counts.all()), walsh, string_index, string_counts, phase, xor_index,
        real_index, real_sign, upper_index,
    )
    for field in model:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
    return model


def _settings_key(settings: Sequence[Sequence[str]]) -> tuple[tuple[str, ...], ...]:
    """The settings as the hashable tuple that `_measurement_model` caches by."""
    return tuple(map(tuple, settings))


def _model_of(table: CountsTable) -> _MeasurementModel:
    return _measurement_model(_settings_key(table.settings))


def _check_width(model: _MeasurementModel, widths: Sequence[int], what: str) -> None:
    """Refuse a state or target whose width is not the settings' width."""
    width = len(model.walsh).bit_length() - 1
    for num_qubits in widths:
        if num_qubits != width:
            raise ValueError(f"a {what} of width {num_qubits}: the settings have width {width}")


# The kernels below take one matrix or a (B, ...) stack of them.  Each
# matrix of a stack goes through the same BLAS calls as alone, and one
# matrix takes no call that a kernel for one alone would not make.


def _model_probabilities(model: _MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Every outcome's probability, from the 4^n Pauli expectations
    Tr(rho P)[z, x] = Re(i^{popcount(x & z)} W[z, x]), W = walsh @ M, where
    M[a, x] = rho[a, a ^ x]; here each is divided by d.  W is one real
    product over M's interleaved real and imaginary parts, and every
    measured expectation is one gather from it.  A stack gives one row of
    probabilities per matrix."""
    if rho.ndim == 2:
        pairs = rho.take(model.xor_index)
    else:  # a stack: each matrix gathered from its own entries
        pairs = rho.reshape(len(rho), -1).take(model.xor_index, axis=1)
    products = model.walsh @ pairs.astype(np.complex128, copy=False).view(np.float64)
    if rho.ndim == 2:
        scaled = products.take(model.real_index)
    else:
        scaled = products.reshape(len(rho), -1).take(model.real_index, axis=1)
    scaled *= model.real_sign
    probabilities = scaled @ model.walsh
    return probabilities.reshape(-1) if rho.ndim == 2 else probabilities.reshape(len(rho), -1)


def _pauli_sum(model: _MeasurementModel, coefficients: np.ndarray) -> np.ndarray:
    """G = (1/d) sum_s c_s P_s for real c, given as C[z, x] = c_{z 2^n + x}
    (or a stack of such C): G[a ^ x, a] = (walsh @ (C * i^{popcount(x &
    z)}))[a, x] / d, the product taken over C's interleaved real and
    imaginary parts."""
    pairs = (coefficients * model.phase).view(np.float64)
    products = (model.walsh @ pairs).view(np.complex128)
    if coefficients.ndim == 2:
        return products.take(model.xor_index).T
    return products.reshape(len(products), -1).take(model.xor_index, axis=1).swapaxes(1, 2)


def _string_sums(model: _MeasurementModel, rows: np.ndarray) -> np.ndarray:
    """Per-setting rows (K, 2^n), or a stack of them, to each Pauli string's
    sum of the rows' Walsh transforms over the (setting, subset) pairs that
    measure it, added in that order by one bincount: string z 2^n + x at
    [z, x] of a (2^n, 2^n) array, or of one per table of a stack."""
    dim = len(model.walsh)
    index = model.string_index.reshape(-1)
    walshed = (rows @ model.walsh).reshape(-1)
    if rows.ndim == 2:
        return np.bincount(index, weights=walshed, minlength=dim * dim).reshape(dim, dim)
    tables = len(rows)
    if tables > 1:  # each table's strings in bins of their own
        index = (np.arange(tables)[:, None] * (dim * dim) + index).reshape(-1)
    sums = np.bincount(index, weights=walshed, minlength=tables * dim * dim)
    return sums.reshape(tables, dim, dim)


def _weighted_projector_sum(model: _MeasurementModel, weights: np.ndarray) -> np.ndarray:
    """sum_{k,o} w_{k,o} Pi_{k,o}, the adjoint of `_model_probabilities`."""
    dim = len(model.walsh)
    rows = (
        weights.reshape(-1, dim) if weights.ndim == 1 else weights.reshape(len(weights), -1, dim)
    )
    return _pauli_sum(model, _string_sums(model, rows))


class _Seed(NamedTuple):
    """A linear-inversion estimate's eigendecomposition, projected to the
    PSD cone two ways: clipped at once, floored only for an ascent.  From a
    stack of tables the fields are stacked too, and `tables` splits them."""

    vals: np.ndarray
    vecs: np.ndarray
    projected: np.ndarray  # eigenvalues clipped at 0: the certified candidate
    clipped: int | np.ndarray  # eigenvalues the floor raises

    def tables(self) -> list["_Seed"]:
        """One seed per table, each of a stack a view of its entries."""
        if self.vals.ndim == 1:
            return [self]
        return list(map(_Seed, self.vals, self.vecs, self.projected, self.clipped.tolist()))

    def floored(self) -> np.ndarray:
        """Eigenvalues raised to 1e-6: the ascent's start."""
        floored = (self.vecs * np.maximum(self.vals, 1e-6)) @ self.vecs.conj().T
        floored /= floored.trace().real
        return floored

    def gap_below(self, grad_rho: np.ndarray) -> float:
        """A lower bound on `_gap(projected, grad_rho)` without its eigvalsh:
        lambda_max(R) is at least each Rayleigh quotient of R on the seed's
        eigenvectors, less a margin far above the rounding of either side
        (1e-9 |R|_F, the vectors being orthonormal)."""
        applied = grad_rho @ self.vecs
        quotients = (self.vecs.conj() * applied).sum(axis=0).real
        margin = 1e-9 * math.sqrt(np.vdot(applied, applied).real)
        return float(quotients.max() - np.vdot(self.projected, grad_rho).real - margin)


def _linear_inversions(counts: np.ndarray, model: _MeasurementModel) -> _Seed:
    """Pauli-expectation inversion of one table's counts (K 2^n of them, in
    setting order), or of each table of a stack of them with one eigh,
    projected to the PSD cone: the MLE's seeds.

    Each Pauli string's expectation is the mean of its estimates over every
    setting that measures it, each estimate a parity of the outcome bits.
    """
    dim = len(model.walsh)
    rows = counts.reshape(counts.shape[:-1] + (-1, dim))
    totals = rows.sum(axis=-1)
    freqs = rows / np.where(totals > 0, totals, 1.0)[..., None]
    means = _string_sums(model, freqs) / np.maximum(model.string_counts, 1).reshape(dim, dim)
    means[..., 0, 0] = 1.0  # the identity string: Tr rho = 1
    vals, vecs = np.linalg.eigh(_pauli_sum(model, means))
    # np.maximum is the ufunc np.clip calls for a floor alone, without its wrappers
    projected = (vecs * np.maximum(vals, 0.0)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    projected /= projected.trace(axis1=-2, axis2=-1).real[..., None, None]
    return _Seed(vals, vecs, projected, (vals < 1e-6).sum(axis=-1))


def _linear_inversion(table: CountsTable, model: _MeasurementModel) -> _Seed:
    """One table's seed."""
    return _linear_inversions(table.counts.reshape(-1), model)


def measurement_rank(settings: Sequence[tuple[str, ...]], dim: int) -> int:
    vectors = _outcome_vectors(settings).reshape(-1, dim)
    rows = (vectors[:, :, None] * vectors[:, None, :].conj()).reshape(len(vectors), -1)
    return int(np.linalg.matrix_rank(rows, tol=1e-9))


class _Point(NamedTuple):  # one likelihood evaluation at a Cholesky factor T
    t_mat: np.ndarray
    rho: np.ndarray  # T T^dagger / Tr(T T^dagger), physical for every T
    trace: float  # Tr(T T^dagger)
    probabilities: np.ndarray  # clipped at 1e-15
    log_likelihood: float


def _gap(rho: np.ndarray, grad_rho: np.ndarray) -> float:
    """lambda_max(R) - Tr(rho R), the certificate's bound on log L* - log L(rho)."""
    return _gaps(rho[None], grad_rho[None])[0]


def _gaps(rhos: np.ndarray, grad_rhos: np.ndarray) -> list[float]:
    """`_gap` of each pair of two (B, d, d) stacks, with one eigvalsh."""
    tops = np.linalg.eigvalsh(grad_rhos)[:, -1]
    return [float(top - np.vdot(rho, grad).real) for top, rho, grad in zip(tops, rhos, grad_rhos)]


class _PoissonLikelihood(NamedTuple):
    """log L(rho) = sum_k n_k ln(mu_k) - mu_k, with mu_k = exposure * p_k(rho).

    With counts (B, K 2^n) and exposures (B, 1) it is B likelihoods,
    evaluated at a (B, d, d) stack of states (`stacked`), and `table`
    takes one of them."""

    model: _MeasurementModel
    counts: np.ndarray
    exposure: float | np.ndarray

    @classmethod
    def of(
        cls, table: CountsTable, model: _MeasurementModel | None = None
    ) -> "_PoissonLikelihood":
        """One table's likelihood, under its settings' model unless given."""
        return cls(model or _model_of(table), table.counts.reshape(-1), table.exposure)

    @classmethod
    def stacked(
        cls, tables: Sequence[CountsTable], model: _MeasurementModel
    ) -> "_PoissonLikelihood":
        """One table's likelihood, or the B likelihoods of many on their stack."""
        if len(tables) == 1:
            return cls.of(tables[0], model)
        counts = np.array([table.counts.reshape(-1) for table in tables])
        return cls(model, counts, np.array([[table.exposure] for table in tables]))

    def table(self, b: int) -> "_PoissonLikelihood":
        """Table b's likelihood."""
        if self.counts.ndim == 1:
            return self
        return _PoissonLikelihood(self.model, self.counts[b], float(self.exposure[b, 0]))

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        probabilities = _model_probabilities(self.model, rho)
        return np.maximum(probabilities, 1e-15, out=probabilities)

    def value(self, rho: np.ndarray) -> float:
        return float(self._value_at(self.probabilities(rho)))

    def _value_at(self, probabilities: np.ndarray) -> np.ndarray:
        """log L of each table: a 0-d array for one."""
        mu = probabilities * self.exposure
        terms = np.log(mu)
        terms *= self.counts
        terms -= mu
        return np.add.reduce(terms, axis=-1)  # ndarray.sum's reduction, unwrapped

    def _rho_gradient_at(self, probabilities: np.ndarray) -> np.ndarray:
        """R = sum_k (n_k / p_k - exposure) Pi_k, log L's gradient in rho."""
        weights = self.counts / probabilities
        weights -= self.exposure
        return _weighted_projector_sum(self.model, weights)

    def at(self, t_mat: np.ndarray) -> _Point:
        """The one evaluation at T: a line-search trial's, then the next gradient's."""
        rho = t_mat @ t_mat.conj().T
        trace = rho.trace().real
        rho /= trace
        probabilities = self.probabilities(rho)
        return _Point(t_mat, rho, trace, probabilities, float(self._value_at(probabilities)))

    def rho_gradient(self, rho: np.ndarray) -> tuple[float, np.ndarray]:
        """log L(rho) and R, from one evaluation."""
        probabilities = self.probabilities(rho)
        return float(self._value_at(probabilities)), self._rho_gradient_at(probabilities)

    def certificate(self, rho: np.ndarray) -> tuple[float, float]:
        """log L(rho) and the bound lambda_max(R) - Tr(rho R) on log L* -
        log L(rho).  log L is concave in rho, so log L(sigma) <= log L(rho)
        + Tr((sigma - rho) R) for every state sigma, and the right side is
        largest at R's top eigenvector (Glancy, Knill and Girard, New J.
        Phys. 14, 095017, 2012)."""
        log_likelihood, grad_rho = self.rho_gradient(rho)
        return log_likelihood, _gap(rho, grad_rho)

    def gradient(self, point: _Point) -> np.ndarray:
        """Ascent direction G in T's lower triangle, scaled so that the
        slope of log L along G is |G|^2."""
        grad_rho = self._rho_gradient_at(point.probabilities)
        mean_shift = (grad_rho @ point.rho).trace().real
        grad_t = grad_rho @ point.t_mat
        grad_t -= mean_shift * point.t_mat
        grad_t *= 2.0 / point.trace
        grad_t.put(self.model.upper_index, 0.0)
        return grad_t


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
    stop = improvement_tol * max(abs(point.log_likelihood), 1.0)  # the stopping gain at point

    step: float | None = None
    prev_t: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    converged = False
    iterations = 0
    halvings = 0
    norm = math.nan
    for iterations in range(1, max_iterations + 1):
        grad_t = likelihood.gradient(point)
        flat = grad_t.reshape(-1)
        re, im = flat.real, flat.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's sum, inline
        if norm < 1e-14:
            converged = True
            break
        if prev_t is not None:
            dt = (point.t_mat - prev_t).reshape(-1)
            dg = (grad_t - prev_grad).reshape(-1)
            curvature = -np.vdot(dt, dg).real
            if curvature > 1e-30:
                step = float(np.vdot(dt, dt).real / curvature)
        if step is None:
            step = 1.0 / norm
        prev_t, prev_grad = point.t_mat, grad_t
        trial = abs(step)
        # norm**2 is the slope of the likelihood along grad_t: a step whose
        # first-order gain is under the stopping gain ends the run
        slope = norm**2
        improved = False
        for _ in range(60):
            if trial * slope < stop:
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
        stop = improvement_tol * max(abs(point.log_likelihood), 1.0)
        if gain < stop:
            converged = True
            break
    return _Ascent(point.rho, point.log_likelihood, converged, iterations, norm, halvings)


def mle_reconstruct(table: CountsTable, target: PureState | None = None) -> MLEResult:
    """Most likely physical density matrix under the Poisson count model:
    the batch of one of `mle_reconstruct_batch`.

    The linear-inversion estimate with its negative eigenvalues clipped to 0
    is returned at once, converged at iteration 0, when the concavity
    certificate (`_PoissonLikelihood.certificate`) proves it within the
    stopping gain IMPROVEMENT_TOL * max(|log L|, 1) of the maximum.  Noise-
    free counts certify this way.  Otherwise, as for Poisson counts, the
    ascent runs from the estimate with its eigenvalues floored at 1e-6.
    """
    return mle_reconstruct_batch([table], target)[0]


def mle_reconstruct_batch(
    tables: Sequence[CountsTable], target: PureState | None = None
) -> list[MLEResult]:
    """`mle_reconstruct` of each table, for tables of one settings tuple.

    The linear-inversion seeds, the likelihood and its gradient R at the
    clipped seeds, the certificates' top eigenvalues and the checks of the
    estimates each run once over the (B, d, d) stack; a batch of one runs
    them on its own (d, d) matrices, with no stack to build.  The tables
    that the certificate does not settle run the ascent one at a time, in
    order.
    """
    if not tables:
        raise ValueError("no tables to reconstruct")
    keys = [_settings_key(table.settings) for table in tables]
    if keys.count(keys[0]) < len(keys):
        raise ValueError("the tables must share one settings tuple")
    if any(table.exposure == 0 for table in tables):
        raise ValueError("exposure = 0: the counts have no likelihood to maximise")
    model = _measurement_model(keys[0])
    if not model.complete:
        raise ValueError("settings are not informationally complete")
    if target is not None:
        _check_width(model, [target.num_qubits], "target")

    # one table runs on its own arrays and many on their stack: each step
    # below takes either, each matrix of a stack as it runs alone
    likelihoods = _PoissonLikelihood.stacked(tables, model)
    stacked = _linear_inversions(likelihoods.counts, model)
    probabilities = likelihoods.probabilities(stacked.projected)
    lls = likelihoods._value_at(probabilities).reshape(-1).tolist()
    grad_rho = likelihoods._rho_gradient_at(probabilities)
    grads = [grad_rho] if grad_rho.ndim == 2 else list(grad_rho)
    seeds = stacked.tables()
    stops = [IMPROVEMENT_TOL * max(abs(ll), 1.0) for ll in lls]
    # the Rayleigh bound settles most tables that cannot certify, and from
    # d = 8 on it costs less than the eigvalsh it skips
    open_ = [
        b for b, (seed, grad, stop) in enumerate(zip(seeds, grads, stops))
        if len(model.walsh) < 8 or not seed.gap_below(grad) > stop
    ]
    gaps = {}
    if open_:
        candidates = np.array([seeds[b].projected for b in open_])
        gaps = dict(zip(open_, _gaps(candidates, np.array([grads[b] for b in open_]))))
    runs = [
        _Ascent(seed.projected, ll, True, 0, math.nan, 0) if gaps.get(b, math.inf) <= stop
        else _ascend(likelihoods.table(b), seed.floored(), MAX_ITERATIONS, IMPROVEMENT_TOL)
        for b, (seed, ll, stop) in enumerate(zip(seeds, lls, stops))
    ]

    rhos = runs[0].rho if len(runs) == 1 else np.array([run.rho for run in runs])
    rho_hats = DensityMatrix.from_matrices(rhos)
    return [
        MLEResult(
            rho_hat=rho_hat,
            log_likelihood=run.log_likelihood,
            fidelity_to_target=fidelity_pure(rho_hat, target) if target is not None else None,
            error_bars={},
            converged=run.converged,
            iterations=run.iterations,
            gradient_norm=run.gradient_norm,
            line_search_halvings=run.halvings,
            seed_clipped_eigenvalues=int(seed.clipped),
        )
        for rho_hat, run, seed in zip(rho_hats, runs, seeds)
    ]


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
