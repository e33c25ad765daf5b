"""Output checks, computed apart from the program.

Every reference here is plain numpy gate algebra, written from the physics
rather than from blindsim's engine.  The harness passes program outputs in
as plain arrays and numbers; each check raises CheckFailed with the amount
by which the output missed.  No check compares against a stored copy of an
earlier run.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2
PLUS = np.array([1.0, 1.0], dtype=complex) / SQRT2
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
KET = {0: np.array([1.0, 0.0], dtype=complex), 1: np.array([0.0, 1.0], dtype=complex)}

PHASE_TOL = 1e-9          # |<ref|out>| within this of 1
PROB_TOL = 1e-9           # live-branch probabilities sum to 1
IMPOSSIBLE = 1e-12        # an outcome with smaller exact probability never occurs
CHI_IDEAL_TOL = 1e-9
CHI_GAP_TOL = 1e-6
RHO_TOL = 1e-9
# Pearson chi-square bound for the quantumness tallies: dof + 7 sqrt(2 dof),
# 205 at the rounds workload's dof of 104.  In 200,000 simulated honest
# tallies of its size the statistic never passed 187 (see README).
CHI_SQUARE_SIGMA = 7.0

# forbidden substrings in server-view field names: the secrets never travel
SECRET_FIELDS = ("theta", "phi", "r_mask", "secret")
ALLOWED_FIELDS = {
    "session_init": {"config", "qubit_count"},
    "qubit_transfer": {"qubit_id", "amplitudes"},
    "measure_instruction": {"qubit_id", "delta_eighths", "pauli"},
    "outcome_report": {"qubit_id", "bit"},
    "output_return": {"qubit_ids", "amplitudes"},
    "session_close": {"status"},
}

class CheckFailed(AssertionError):
    """An output missed its reference; the message says by how much."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rad(eighths: int) -> float:
    return eighths * math.pi / 4.0


def rz(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def phase(angle: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * angle)]).astype(complex)


def equatorial_bra(angle: float, bit: int) -> np.ndarray:
    """<b_angle| = (<0| + (-1)^b e^{-i angle} <1|) / sqrt(2)."""
    return np.array([1.0, (-1) ** bit * np.exp(-1j * angle)]) / SQRT2


def input_state(prep) -> np.ndarray:
    """Logical input left on the wire by measuring the first qubit with
    outcome 0: Z leaves |+>; an equatorial angle a teleports H Rz(-a)|+>."""
    if prep == "Z":
        return PLUS.copy()
    return H @ rz(-rad(prep)) @ PLUS


def circuit_output(config: str, phi: dict[int, int], prep="Z") -> np.ndarray:
    """Ideal output of one configuration as a circuit, angles in eighths.

    A measurement at angle a on a wire applies H Rz(-a); the horseshoe
    reads its two outputs after undoing its Hadamard frame, and the
    staircase finishes by measuring qubit 1 at phi_1.
    """
    a = {q: rad(n) for q, n in phi.items()}
    if config == "linear_right":
        out = H @ rz(-a[3]) @ H @ rz(-a[2]) @ input_state(prep)
    elif config == "linear_left":
        out = H @ rz(-a[2]) @ H @ rz(-a[3]) @ input_state(prep)
    elif config == "horseshoe":
        out = np.kron(phase(-a[2]), phase(-a[3])) @ CZ @ np.kron(PLUS, PLUS)
    elif config == "rotated_horseshoe":
        wire = lambda x: H @ phase(-x) @ PLUS
        out = CZ @ np.kron(wire(a[1]), wire(a[4]))
    elif config == "staircase":
        pair = np.kron(H @ phase(-a[2]), H @ phase(-a[3])) @ CZ @ np.kron(PLUS, PLUS)
        out = equatorial_bra(a[1], 0) @ pair.reshape(2, 2)
    else:
        raise ValueError(f"{config} has no output state")
    return out / np.linalg.norm(out)


def graph_projection_output(
    edges, measured: dict[int, object], outputs: tuple[int, ...]
) -> np.ndarray:
    """Outcome-0 branch of an unblinded graph state, by direct projection.

    `measured` maps a qubit to an angle in eighths or to "Z".  This is the
    definition of the measurement pattern with no byproducts, so for a
    deterministic pattern it equals every corrected branch; the self-test
    uses it to cross-check circuit_output.
    """
    n = len(measured) + len(outputs)
    psi = PLUS
    for _ in range(n - 1):
        psi = np.kron(psi, PLUS)
    psi = psi.reshape([2] * n).copy()
    for i, j in edges:
        index = [slice(None)] * n
        index[i - 1], index[j - 1] = 1, 1
        psi[tuple(index)] *= -1.0
    for q in sorted(measured, reverse=True):
        how = measured[q]
        bra = KET[0] if how == "Z" else equatorial_bra(rad(how), 0)
        psi = np.tensordot(bra, psi, axes=([0], [q - 1]))
    out = psi.reshape(-1)
    norm = np.linalg.norm(out)
    _require(norm > 1e-9, "outcome-0 branch is impossible")
    return out / norm


def grover_decode(interpreted: dict[int, int]) -> str:
    """Readout of the blind Grover run: bits s1 and s4 name the element
    (s1 xor s4, s1)."""
    s1, s4 = interpreted[1], interpreted[4]
    return f"{s1 ^ s4}{s1}"


def check_same_up_to_phase(reference: np.ndarray, output: np.ndarray, what: str) -> None:
    overlap = abs(np.vdot(reference, output))
    _require(
        abs(overlap - 1.0) <= PHASE_TOL,
        f"{what}: |<ref|out>| = {overlap:.12f}, off by {abs(overlap - 1.0):.3e}",
    )


# ---------------------------------------------------------------- sweep


def check_branches(
    branches: list[tuple[float, bool, np.ndarray | None]],
    reference: np.ndarray,
    what: str,
) -> None:
    """One feed-forward enumeration: (probability, impossible, corrected)."""
    live = [(p, out) for p, impossible, out in branches if not impossible]
    total = sum(p for p, _ in live)
    _require(
        abs(total - 1.0) <= PROB_TOL,
        f"{what}: live-branch probabilities sum to {total:.12f}",
    )
    first = live[0][1]
    for p, out in live:
        _require(out is not None, f"{what}: live branch without an output")
        check_same_up_to_phase(first, out, f"{what}: live outputs disagree")
        check_same_up_to_phase(reference, out, f"{what}: output vs circuit")


def check_grover_table(table: dict, tag: str, thetas: set) -> None:
    _require(table["tag"] == tag, f"grover: asked for {tag}, table says {table['tag']}")
    rows = table["rows"]
    seen = {(r["n2"], r["n3"]) for r in rows}
    _require(seen == thetas and len(rows) == len(thetas), "grover: theta rows missing")
    worst = min(r["success_probability"] for r in rows)
    _require(worst >= 1.0 - PROB_TOL, f"grover {tag}: decodes with probability {worst:.12f}")


def check_deutsch_table(table: dict, oracle: str, thetas: set) -> None:
    _require(table["oracle"] == oracle, f"deutsch: asked for {oracle}, got {table['oracle']}")
    rows = table["rows"]
    seen = {(r["n2"], r["n3"]) for r in rows}
    _require(seen == thetas and len(rows) == len(thetas), "deutsch: theta rows missing")
    for r in rows:
        _require(
            r["tomography_verdict"] == oracle,
            f"deutsch {oracle} at {(r['n2'], r['n3'])}: verdict {r['tomography_verdict']}",
        )
        _require(
            r["success_probability"] >= 1.0 - PROB_TOL,
            f"deutsch {oracle}: success {r['success_probability']:.12f}",
        )


# --------------------------------------------------------------- rounds


def quantumness_distribution(family_amplitudes: np.ndarray) -> np.ndarray:
    """Exact 16-outcome distribution of the fixed test setting on one state.

    Qubit 1 is measured in Z with the -1 eigenstate reported as bit 0;
    qubits 2, 3, 4 at pi, -pi/2, pi/2.  Outcome index b1 b2 b3 b4 (MSB
    first), as the test harness tallies it.
    """
    psi = np.asarray(family_amplitudes, dtype=complex).reshape(2, 2, 2, 2)
    probs = np.zeros(16)
    for z1, b2, b3, b4 in itertools.product((0, 1), repeat=4):
        amp = np.einsum(
            "a,b,c,d,abcd->",
            KET[z1].conj(),
            equatorial_bra(math.pi, b2),
            equatorial_bra(-math.pi / 2, b3),
            equatorial_bra(math.pi / 2, b4),
            psi,
        )
        probs[((z1 ^ 1) << 3) | (b2 << 2) | (b3 << 1) | b4] = abs(amp) ** 2
    return probs


def check_quantumness(tallies: np.ndarray, theory: np.ndarray) -> None:
    """tallies[s, o]: honest rounds on state s with outcome o."""
    impossible = tallies[theory < IMPOSSIBLE].sum()
    _require(impossible == 0, f"quantumness: {int(impossible)} rounds hit impossible outcomes")
    chi_square, dof = 0.0, 0
    for counts, probs in zip(tallies, theory):
        total = counts.sum()
        if total == 0:
            continue
        live = probs >= IMPOSSIBLE
        expected = probs[live] * total
        chi_square += float(((counts[live] - expected) ** 2 / expected).sum())
        dof += int(live.sum()) - 1
    bound = dof + CHI_SQUARE_SIGMA * math.sqrt(2.0 * dof)
    _require(
        chi_square <= bound,
        f"quantumness: chi-square {chi_square:.1f} above {bound:.1f} (dof {dof})",
    )


def check_server_view(messages: list[tuple[str, dict]]) -> None:
    for type_, body in messages:
        allowed = ALLOWED_FIELDS.get(type_)
        _require(allowed is not None, f"server view: unknown message type {type_!r}")
        extra = set(body) - allowed
        _require(not extra, f"server view: {type_} carries {sorted(extra)}")
        leaked = [k for k in body if any(s in k.lower() for s in SECRET_FIELDS)]
        _require(not leaked, f"server view: {type_} carries secret fields {leaked}")


def check_session(expect: dict, output: np.ndarray | None, interpreted: dict) -> None:
    """expect: {"reference": array} or {"tag": str} (triangle)."""
    if "tag" in expect:
        got = grover_decode(interpreted)
        _require(got == expect["tag"], f"triangle session decodes {got}, tag {expect['tag']}")
        return
    _require(output is not None, "session returned no output state")
    check_same_up_to_phase(expect["reference"], output, expect["what"])


# -------------------------------------------------------------- solvers


def _log_herm(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.log2(np.clip(vals, 1e-300, None))) @ vecs.conj().T


def divergences_bits(states: list[np.ndarray], prior: np.ndarray) -> tuple[np.ndarray, float]:
    """D(rho_j || rho_bar) for each state and chi(prior), in bits."""
    mean = sum(p * s for p, s in zip(prior, states))
    log_mean = _log_herm(mean)
    div = []
    for s in states:
        vals = np.linalg.eigvalsh(s)
        vals = vals[vals > 1e-15]
        neg_entropy = float((vals * np.log2(vals)).sum())
        div.append(neg_entropy - float(np.real(np.trace(s @ log_mean))))
    div = np.array(div)
    return div, float(prior @ div)


def check_chi_ideal(chi_maximized: float, chi_uniform: float) -> None:
    for name, value in (("maximized", chi_maximized), ("uniform", chi_uniform)):
        _require(abs(value) <= CHI_IDEAL_TOL, f"ideal chi {name} = {value:.3e}, not 0")


def check_chi_optimum(states: list[np.ndarray], prior: np.ndarray, chi_reported: float) -> None:
    prior = np.asarray(prior, dtype=float)
    _require(abs(prior.sum() - 1.0) <= 1e-9 and (prior >= -1e-12).all(), "prior off the simplex")
    div, chi = divergences_bits(states, prior)
    gap = float(div.max() - chi)
    _require(gap <= CHI_GAP_TOL, f"noisy chi: duality gap {gap:.3e} above {CHI_GAP_TOL}")
    _require(
        abs(chi - chi_reported) <= CHI_GAP_TOL,
        f"noisy chi: reported {chi_reported:.9f}, prior gives {chi:.9f}",
    )


def eigenbasis(axis: str) -> np.ndarray:
    """Columns: outcome-0 (+1) and outcome-1 (-1) eigenvectors."""
    if axis == "X":
        return np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    if axis == "Y":
        return np.array([[1, 1], [1j, -1j]], dtype=complex) / SQRT2
    return np.eye(2, dtype=complex)


def projector_stack(settings: list[tuple[str, ...]]) -> np.ndarray:
    """(settings * 2^n, d, d) outcome projectors, qubit 1 the MSB."""
    rows = []
    for setting in settings:
        basis = eigenbasis(setting[0])
        for axis in setting[1:]:
            basis = np.kron(basis, eigenbasis(axis))
        for k in range(basis.shape[1]):
            rows.append(np.outer(basis[:, k], basis[:, k].conj()))
    return np.array(rows)


def born(projectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.clip(np.real(np.einsum("kij,ji->k", projectors, rho)), 0.0, None)


def poisson_log_likelihood(
    projectors: np.ndarray, counts: np.ndarray, exposure: float, rho: np.ndarray
) -> float:
    mu = exposure * np.clip(born(projectors, rho), 1e-15, None)
    return float(np.sum(counts * np.log(mu) - mu))


def check_mle(
    rho_hat: np.ndarray,
    rho_true: np.ndarray,
    projectors: np.ndarray,
    counts: np.ndarray,
    exposure: float,
) -> None:
    herm = float(np.abs(rho_hat - rho_hat.conj().T).max())
    _require(herm <= RHO_TOL, f"mle: rho_hat off Hermitian by {herm:.3e}")
    trace = float(np.real(np.trace(rho_hat)))
    _require(abs(trace - 1.0) <= RHO_TOL, f"mle: trace {trace:.12f}")
    low = float(np.linalg.eigvalsh(0.5 * (rho_hat + rho_hat.conj().T)).min())
    _require(low >= -RHO_TOL, f"mle: minimum eigenvalue {low:.3e}")
    margin = poisson_log_likelihood(projectors, counts, exposure, rho_hat) - \
        poisson_log_likelihood(projectors, counts, exposure, rho_true)
    _require(margin >= 0.0, f"mle: log-likelihood {-margin:.2f} nats below the true state")
