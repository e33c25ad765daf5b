"""Leakage quantification: Holevo information of the server's view.

For an ensemble {p(theta), rho_theta} the extractable classical information
is bounded by

    chi = S(sum_theta p_theta rho_theta) - sum_theta p_theta S(rho_theta)

in bits.  The mean state inside the first entropy is the prior-weighted
average; with eight equally weighted hiding phases chi runs from 0 (perfect
blindness) to 3 bits.  When the protocol masks outcomes with uniform r, each
state is first folded with its pi-shifted partner,
rho_theta = (rho'_theta + rho'_{theta+pi}) / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .quantum import (
    EIGENVALUE_FLOOR,
    HERMITIAN_TOL,
    DensityMatrix,
    linear_entropy,
    von_neumann_entropy,
)

LOG2 = math.log(2.0)
# eigenvalues of a prior's mean at or below this lie outside its support
SUPPORT_CUTOFF = 1e-12
# ln of a null eigenvalue, charged per unit of weight outside the support
OFF_SUPPORT_LOG = math.log(1e-300)
# a Newton step may lower chi by this much (bits): float rounding, not a loss
CHI_ROUNDING = 1e-14
# halvings of a Newton step before one multiplicative step replaces it
MAX_HALVINGS = 30


@dataclass(frozen=True)
class Ensemble:
    states: list[DensityMatrix]
    prior: np.ndarray

    def __post_init__(self) -> None:
        prior = np.asarray(self.prior, dtype=float)
        if prior.ndim != 1 or len(prior) != len(self.states):
            raise ValueError("prior length must match the number of states")
        # written so that a NaN or infinite entry fails
        if (prior < -1e-12).any() or not abs(prior.sum() - 1.0) <= 1e-9:
            raise ValueError("prior must be a probability vector")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValueError("ensemble states must share one dimension")
        prior = np.clip(prior, 0.0, None)
        prior = prior / prior.sum()
        prior.setflags(write=False)
        object.__setattr__(self, "prior", prior)

    @property
    def size(self) -> int:
        return len(self.states)

    def with_prior(self, prior: np.ndarray) -> "Ensemble":
        return Ensemble(self.states, prior)

    def mean_state(self) -> DensityMatrix:
        return DensityMatrix.mixture(self.states, list(self.prior))


@dataclass(frozen=True)
class ChiReport:
    chi_uniform: float
    chi_maximized: float
    argmax_prior: np.ndarray
    iterations: int
    converged: bool
    duality_gap: float  # max_j D(rho_j || mean) - chi at the last iterate, bits
    support: tuple[int, ...]  # indices j with argmax_prior[j] > 0

    def as_dict(self) -> dict:
        """The report's fields under their table keys, in sorted order."""
        return {
            "argmax_prior": [float(p) for p in self.argmax_prior],
            "chi_maximized_bits": self.chi_maximized,
            "chi_uniform_bits": self.chi_uniform,
            "converged": self.converged,
            "duality_gap_bits": self.duality_gap,
            "iterations": self.iterations,
            "support": list(self.support),
        }


def pair_fold(ensemble: Ensemble) -> Ensemble:
    """Replace each rho'_n by the equal mix with its pi-shifted partner.

    The grid index n maps theta = n pi/4, so partners are (n, n+4) mod 8.
    Folding is idempotent.  After folding, state n equals state n+4, so the
    8-term uniform Holevo sum double-counts each pair; it is nonetheless
    numerically identical to the sum over the 4 distinct folded pairs with
    weight 1/4, and the 8-term form is what this module evaluates.
    """
    if ensemble.size != 8:
        raise ValueError("pair folding is defined on the 8-point grid")
    folded = [
        DensityMatrix.mixture([ensemble.states[n], ensemble.states[(n + 4) % 8]])
        for n in range(8)
    ]
    return Ensemble(folded, ensemble.prior)


def _state_entropies(spectra: np.ndarray) -> list[float]:
    """Each S(rho_j) in bits from row j, as von_neumann_entropy takes it."""
    kept = [row[row > 1e-12] for row in spectra]
    return [float(-(k * np.log2(k)).sum()) for k in kept]


def _chi(ensemble: Ensemble, entropies: list[float]) -> float:
    avg_entropy = sum(p * s for p, s in zip(ensemble.prior, entropies) if p > 0.0)
    return von_neumann_entropy(ensemble.mean_state()) - float(avg_entropy)


def holevo_chi(ensemble: Ensemble) -> float:
    """chi = S(mean) - sum p_theta S(rho_theta), in bits."""
    stack = np.stack([s.matrix for s in ensemble.states])
    return _chi(ensemble, _state_entropies(np.linalg.eigvalsh(stack)))


def _evaluate(
    prior: np.ndarray, stack: np.ndarray, neg_entropy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean's eigh, validated as a density matrix, and every D(rho_j ||
    mean) in bits: Tr(rho_j ln rho_j) - Tr(rho_j ln mean), one mat-vec.

    ln(mean) is taken on the mean's support, as in _entropy_hessian.  The
    states in the prior's support have only rounding-sized weight outside
    it, which a null eigenvalue's logarithm (-690 for one rounded to -1e-17)
    would turn into noise in chi above a tight tolerance.  D_j is infinite
    for a state with more weight outside the support; that weight is
    charged OFF_SUPPORT_LOG per unit, so the state joins the active set."""
    vals, vecs = np.linalg.eigh(np.tensordot(prior, stack, axes=1))
    if vals[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {vals[0]}")
    if not abs(vals.sum() - 1.0) <= HERMITIAN_TOL:
        raise ValueError(f"trace {vals.sum()} deviates from 1")
    keep = vals > SUPPORT_CUTOFF
    support = vecs[:, keep]
    log_mean = (support * np.log(vals[keep])) @ support.conj().T
    # Tr(rho_j ln mean) = sum_ik rho_j[i, k] ln(mean)[k, i]
    flat = stack.reshape(len(stack), -1)
    cross = np.real(flat @ log_mean.T.reshape(-1))
    if not keep.all():
        null = vecs[:, ~keep]
        off = np.real(flat @ (null @ null.conj().T).T.reshape(-1))
        cross += OFF_SUPPORT_LOG * np.where(off > SUPPORT_CUTOFF, off, 0.0)
    return vals, vecs, (neg_entropy - cross) / LOG2


def _entropy_hessian(vals: np.ndarray, vecs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """H_jk = d^2 S(mean) / dp_j dp_k = -Tr(rho_j Dlog_mean[rho_k]), in nats.

    In the mean's eigenbasis the Frechet derivative of the logarithm scales
    entry (a, b) by the divided difference (ln l_a - ln l_b) / (l_a - l_b),
    or 1 / l_a when l_a = l_b (Daleckii-Krein).  The mean is often rank
    deficient, so the basis is restricted to its support.
    """
    keep = vals > SUPPORT_CUTOFF
    lam, basis = vals[keep], vecs[:, keep]
    flat = (basis.conj().T @ stack @ basis).reshape(len(stack), -1)
    ratio = lam[:, None] / lam[None, :] - 1.0  # log1p keeps close pairs exact
    with np.errstate(divide="ignore", invalid="ignore"):
        divided = np.where(
            ratio != 0.0, np.log1p(ratio) / (ratio * lam[None, :]), 1.0 / lam[None, :]
        )
    return -np.real((flat.conj() * divided.reshape(-1)) @ flat.T)


def _newton_direction(
    hessian: np.ndarray, grad: np.ndarray, prior: np.ndarray, active: np.ndarray, flat_tol: float
) -> np.ndarray:
    """Newton direction for chi on the active face of the simplex.

    This is the least-squares solution of the KKT system [H 1; 1^T 0] with
    gradient grad, taken in the eigenbasis of H projected onto sum-zero
    steps.  H is singular: identical states, or states whose weighted sum
    cancels, leave the mean unchanged along some steps.  Along such a step
    chi is linear, so when its slope exceeds `flat_tol` the direction also
    runs along it to the face.  A zero weight that the direction would make
    negative leaves the active set, and the system is solved again.
    """
    while True:
        idx = np.flatnonzero(active)
        center = np.eye(len(idx)) - 1.0 / len(idx)
        face = hessian[np.ix_(idx, idx)]
        curvature, modes = np.linalg.eigh(-(center @ face @ center))
        slopes = modes.T @ (center @ grad[idx])
        # H's rows average to -1 under the prior, so its scale is at least 1
        curved = curvature > 1e-12 * np.abs(face).max()
        newton = np.zeros(len(prior))
        newton[idx] = modes[:, curved] @ (slopes[curved] / curvature[curved])
        linear = np.zeros(len(prior))
        linear[idx] = modes[:, ~curved] @ slopes[~curved]
        if np.abs(linear).max() <= flat_tol:
            linear[:] = 0.0
        blocked = active & (prior == 0.0) & ((newton < 0.0) | (linear < 0.0))
        if not blocked.any():
            break
        active = active & ~blocked
    falling = linear < 0.0
    if falling.any():
        newton += linear * np.min(-prior[falling] / linear[falling])
    return newton


def maximize_chi_over_priors(
    ensemble: Ensemble,
    rel_tol: float = 1e-8,
    max_iterations: int = 100_000,
) -> ChiReport:
    """Maximize chi over the probability simplex by active-set Newton steps.

    chi(p) is concave in p, and its gradient is D_j = D(rho_j || mean(p))
    up to a constant.  The optimum often lies on the simplex boundary, where
    the multiplicative (Blahut-Arimoto) update only crawls toward a zero
    weight; Newton's method on the active face lands on it.

    The states are decomposed once, for Tr(rho_j ln rho_j) and the S(rho_j)
    of chi at the uniform and final priors, and the mean once per iteration.  Then
        D(rho_j || mean) = Tr(rho_j ln rho_j) - Tr(rho_j ln mean)
    for all j is one matrix-vector product, and chi(p) = sum_j p_j D_j.
    The iteration stops when the duality gap max_j D_j - chi(p), an upper
    bound on the remaining error, is at most rel_tol * max(chi, 1) bits.
    Otherwise the active set is every j with p_j > 0 or D_j > chi, and the
    Newton direction on it (see _newton_direction) is capped at the nearest
    face of the simplex and halved until chi does not fall.  If no halving
    succeeds, one multiplicative step p_j <- p_j 2^{D_j} / Z is taken
    instead, so chi rises monotonically either way.  `iterations` counts the
    gap tests, and `support` lists the j with p_j > 0.
    """
    stack = np.stack([s.matrix for s in ensemble.states])
    spectra = np.linalg.eigvalsh(stack)
    entropies = _state_entropies(spectra)
    prior = np.full(ensemble.size, 1.0 / ensemble.size)
    chi_uniform = _chi(ensemble.with_prior(prior), entropies)
    kept = np.where(spectra > 1e-15, spectra, 1.0)  # 1 ln 1 = 0 drops the rest
    neg_entropy = (kept * np.log(kept)).sum(axis=1)
    vals, vecs, divergences = _evaluate(prior, stack, neg_entropy)
    iterations = 0
    converged = False
    gap = math.inf
    while iterations < max_iterations:
        iterations += 1
        chi_now = float(prior @ divergences)
        gap = float(divergences.max() - chi_now)
        tolerance = rel_tol * max(chi_now, 1.0)
        if gap <= tolerance:
            converged = True
            break
        direction = _newton_direction(
            _entropy_hessian(vals, vecs, stack),
            divergences * LOG2,
            prior,
            (prior > 0.0) | (divergences > chi_now),
            0.25 * tolerance * LOG2,  # a slope this small cannot hold the gap up
        )
        falling = direction < 0.0
        reach = np.full(ensemble.size, math.inf)
        reach[falling] = -prior[falling] / direction[falling]
        step = min(1.0, float(reach.min()))
        for _ in range(MAX_HALVINGS if direction.any() else 0):
            trial = prior + step * direction
            trial[reach <= step * (1.0 + 1e-9)] = 0.0  # duplicates reach the face together
            trial = np.clip(trial, 0.0, None)
            trial /= trial.sum()
            trial_vals, trial_vecs, trial_divergences = _evaluate(trial, stack, neg_entropy)
            if trial @ trial_divergences >= chi_now - CHI_ROUNDING:
                prior, vals, vecs, divergences = trial, trial_vals, trial_vecs, trial_divergences
                break
            step /= 2.0
        else:
            weights = prior * np.exp((divergences - divergences.max()) * LOG2)
            prior = weights / weights.sum()
            vals, vecs, divergences = _evaluate(prior, stack, neg_entropy)
    chi_final = _chi(ensemble.with_prior(prior), entropies)
    return ChiReport(
        chi_uniform=chi_uniform,
        chi_maximized=max(chi_final, chi_uniform),
        argmax_prior=prior,
        iterations=iterations,
        converged=converged,
        duality_gap=gap,
        support=tuple(int(j) for j in np.flatnonzero(prior > 0.0)),
    )


def grid_search_chi(ensemble: Ensemble, step: float = 1e-3) -> float:
    """Dense grid search over the simplex; oracle for <= 3-state ensembles."""
    n = ensemble.size
    if n > 3:
        raise ValueError("grid search supported for at most 3 states")
    if n == 1:
        return 0.0
    # precompute eigen-entropy of each state once
    state_entropy = np.array([von_neumann_entropy(s) for s in ensemble.states])
    mats = np.stack([s.matrix for s in ensemble.states])
    grid = np.arange(0.0, 1.0 + step / 2, step)
    best = 0.0
    if n == 2:
        priors = np.stack([grid, 1.0 - grid], axis=1)
    else:
        priors = []
        for p1 in grid:
            remaining = 1.0 - p1
            p2 = np.arange(0.0, remaining + step / 2, step)
            block = np.zeros((len(p2), 3))
            block[:, 0] = p1
            block[:, 1] = p2
            block[:, 2] = remaining - p2
            priors.append(block)
        priors = np.concatenate(priors)
    priors = np.clip(priors, 0.0, 1.0)
    means = np.einsum("bk,kij->bij", priors, mats)
    eigenvalues = np.linalg.eigvalsh(means)
    eigenvalues = np.clip(eigenvalues, 1e-300, None)
    mean_entropy = -(eigenvalues * np.log2(eigenvalues)).sum(axis=1)
    chis = mean_entropy - priors @ state_entropy
    best = float(chis.max())
    return best


def mixedness_check(outputs: list[DensityMatrix]) -> float:
    """Linear entropy of the average of output states over a secret sweep."""
    return linear_entropy(DensityMatrix.mixture(outputs))


def server_view_ensemble(
    states_by_index: Mapping[int, DensityMatrix],
    r_uniform: bool = True,
) -> Ensemble:
    """Server-side ensemble over a hiding-phase sweep, uniform prior.

    `states_by_index` maps the swept grid index n (theta = n pi/4) to the
    state the server holds for that choice.  With uniform r the ensemble is
    folded over pi-partners, which is how the outcome mask enters the
    server's marginal view.
    """
    indices = sorted(states_by_index)
    ensemble = Ensemble(
        states=[states_by_index[n] for n in indices],
        prior=np.full(len(indices), 1.0 / len(indices)),
    )
    if r_uniform:
        if indices != list(range(8)):
            raise ValueError("pair folding needs the full 8-point grid")
        ensemble = pair_fold(ensemble)
    return ensemble
