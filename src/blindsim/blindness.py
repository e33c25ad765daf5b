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

import json
import math
from dataclasses import dataclass

import numpy as np

from .quantum import (
    EIGENVALUE_FLOOR,
    HERMITIAN_TOL,
    DensityMatrix,
    linear_entropy,
    von_neumann_entropy,
)

LOG2 = math.log(2.0)


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "chi_uniform_bits": self.chi_uniform,
                "chi_maximized_bits": self.chi_maximized,
                "argmax_prior": list(self.argmax_prior),
                "iterations": self.iterations,
                "converged": self.converged,
                "duality_gap_bits": self.duality_gap,
            },
            sort_keys=True,
        )


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


def holevo_chi(ensemble: Ensemble) -> float:
    """chi = S(mean) - sum p_theta S(rho_theta), in bits."""
    mean = ensemble.mean_state()
    avg_entropy = sum(
        p * von_neumann_entropy(s)
        for p, s in zip(ensemble.prior, ensemble.states)
        if p > 0.0
    )
    return von_neumann_entropy(mean) - float(avg_entropy)


def maximize_chi_over_priors(
    ensemble: Ensemble,
    rel_tol: float = 1e-8,
    max_iterations: int = 100_000,
) -> ChiReport:
    """Maximize chi over the probability simplex.

    chi(p) is concave in p; the multiplicative update
        p'_j  propto  p_j * 2^{D(rho_j || rho_mean(p))}
    increases chi monotonically (the fixed-point iteration used for classical
    channel capacity).  Convergence is certified by the duality gap
    max_j D(rho_j || mean) - chi(p), an upper bound on the remaining error.

    The states are fixed, so their Tr(rho_j ln rho_j) are computed once.
    Each iteration then decomposes only the mean, and
        D(rho_j || mean) = Tr(rho_j ln rho_j) - Tr(rho_j ln mean)
    for all j is one matrix-vector product.  The mean is validated as a
    density matrix on the loop's own eigenvalues.
    """
    chi_uniform = holevo_chi(
        ensemble.with_prior(np.full(ensemble.size, 1.0 / ensemble.size))
    )
    stack = np.stack([s.matrix for s in ensemble.states])
    flat_states = stack.reshape(ensemble.size, -1)
    kept = np.linalg.eigvalsh(stack)
    kept = np.where(kept > 1e-15, kept, 1.0)  # 1 ln 1 = 0 drops the rest
    neg_entropy = (kept * np.log(kept)).sum(axis=1)
    prior = np.full(ensemble.size, 1.0 / ensemble.size)
    iterations = 0
    converged = False
    gap = math.inf
    while iterations < max_iterations:
        iterations += 1
        vals, vecs = np.linalg.eigh(np.tensordot(prior, stack, axes=1))
        if vals[0] < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {vals[0]}")
        if not abs(vals.sum() - 1.0) <= HERMITIAN_TOL:
            raise ValueError(f"trace {vals.sum()} deviates from 1")
        log_mean = (vecs * np.log(np.clip(vals, 1e-300, None))) @ vecs.conj().T
        # Tr(rho_j ln mean) = sum_ik rho_j[i, k] ln(mean)[k, i]
        cross = np.real(flat_states @ log_mean.T.reshape(-1))
        divergences = (neg_entropy - cross) / LOG2
        chi_now = float(prior @ divergences)
        gap = float(divergences.max() - chi_now)
        if gap <= rel_tol * max(chi_now, 1.0):
            converged = True
            break
        log_weights = np.log(np.clip(prior, 1e-300, None)) + divergences * LOG2
        log_weights -= log_weights.max()
        prior = np.exp(log_weights)
        prior /= prior.sum()
    chi_final = holevo_chi(ensemble.with_prior(prior))
    return ChiReport(
        chi_uniform=chi_uniform,
        chi_maximized=max(chi_final, chi_uniform),
        argmax_prior=prior,
        iterations=iterations,
        converged=converged,
        duality_gap=gap,
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


def ensemble_to_json(ensemble: Ensemble) -> str:
    doc = {
        "prior": list(ensemble.prior),
        "states": [
            [[[float(z.real), float(z.imag)] for z in row] for row in s.matrix]
            for s in ensemble.states
        ],
    }
    return json.dumps(doc)


def ensemble_from_json(text: str) -> Ensemble:
    doc = json.loads(text)
    states = []
    for rows in doc["states"]:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
        states.append(DensityMatrix.from_matrix(mat))
    return Ensemble(states, np.asarray(doc["prior"], dtype=float))
