"""End-to-end demonstrations, each emitting a machine-readable table.

Every runner takes only the inputs it reads and echoes them in the
returned table's `config`, so results are auditable, and every randomized
step is reproducible bit-for-bit from the seed.  Values measured on a real
apparatus are annotated as references only; the exact simulator reproduces
ideal values.

Every exact table comes from the one batched engine
(`mbqc._measure_batch`), one call per runner: the ideal and noisy Fig.
3c/3d outputs share one call, and the Deutsch output states come from the
same call as its success table.  Protocol sessions run only where a run is
sampled (`run_grover_sessions`); no runner has a second path to an exact
value.
"""
from __future__ import annotations

import math
from dataclasses import asdict, replace
from typing import Mapping, Sequence

import numpy as np

from .angles import Angle8
from .blindness import (
    holevo_chi,
    maximize_chi_over_priors,
    mixedness_check,
    server_view_ensemble,
)
from .clusters import ClusterConfig, blind_cluster_batch, family_theta
from .mbqc import (
    MeasurementPattern,
    _Branches,
    _measure_batch,
    pattern_for,
)
from .noise import NoiseParams, apply_noise, dephasing_flips
from .protocol import ClientSecrets, run_session
from .quantum import (
    DensityMatrix,
    PureState,
    fidelity_pure,
    linear_entropy,
    rx,
    rz,
)
from .tomography import (
    exact_counts,
    mle_reconstruct,
    monte_carlo_errors,
    pauli_settings,
    simulate_counts,
)
from .verification import (
    ALIGNED10,
    SWEEP8,
    classical_guess_risk,
    classical_stub_round,
    distribution_table,
    honest_protocol_round,
    standard_test_setting,
    run_quantumness_test,
)

PI = math.pi
A = Angle8

# Grover tag -> (phi_2, phi_3); readout angles on qubits 1 and 4 are pi/2.
# Anchor: tagging |01> uses angles -pi/2 and pi.
GROVER_TAG_ANGLES: dict[str, tuple[Angle8, Angle8]] = {
    "00": (A(2), A(4)),
    "01": (A(6), A(4)),
    "10": (A(2), A(0)),
    "11": (A(6), A(0)),
}
GROVER_READOUT = A(2)
GROVER_PHI: dict[str, dict[int, Angle8]] = {
    tag: {1: GROVER_READOUT, 4: GROVER_READOUT, 2: phi2, 3: phi3}
    for tag, (phi2, phi3) in GROVER_TAG_ANGLES.items()
}

# Deutsch oracle -> phi_3; phi_1 = pi/2 and phi_2 = 0 are fixed.  The verdict
# qubit ends in |0> for the constant oracle and |1> for the balanced one.
DEUTSCH_ORACLE_ANGLES: dict[str, Angle8] = {"constant": A(6), "balanced": A(2)}
DEUTSCH_PHI: dict[str, dict[int, Angle8]] = {
    oracle: {1: A(2), 2: A(0), 3: phi3} for oracle, phi3 in DEUTSCH_ORACLE_ANGLES.items()
}
DEUTSCH_VERDICT_STATE: dict[str, PureState] = {
    "constant": PureState.computational(1, 0),
    "balanced": PureState.computational(1, 1),
}

REPORTED_VALUES = {
    "fig3c_linear_entropy": "0.989 +/- 0.010",
    "fig3d_linear_entropy": "0.955 +/- 0.011",
    "grover_success_max": "0.850 +/- 0.039",
    "grover_success_avg": "0.720 +/- 0.015",
    "grover_classical_bound": 0.5,
    "deutsch_constant_success": "0.899 +/- 0.006",
    "deutsch_balanced_success": "0.895 +/- 0.022",
    "chi_uniform": "0.169 +/- 0.074",
    "chi_maximized": "0.185 +/- 0.087",
    "cluster_fidelity": "67.9 +/- 0.4 %",
}


def _noise_echo(noise: NoiseParams | None) -> dict | None:
    return None if noise is None else asdict(noise)


def grover_decode(interpreted: Mapping[int, int]) -> str:
    """Map corrected readout bits of qubits 1 and 4 to the tagged element."""
    s1, s4 = interpreted[1], interpreted[4]
    return f"{s1 ^ s4}{s1}"


def _family_batch(
    config: ClusterConfig, pattern: MeasurementPattern, states: Sequence[tuple[int, int]]
) -> _Branches:
    """Every branch of `pattern` on the family states (n2, n3), in one call."""
    theta = family_theta(states)
    return _measure_batch(pattern, blind_cluster_batch(config.graph, theta), theta)


def run_grover(tag: str) -> dict:
    """Blind Grover search on the triangle cluster for one tagged element.

    Enumerates every branch of the adaptive pattern for each of the 64 blind
    states and scores the probability that the decoded element equals the tag.
    """
    if tag not in GROVER_TAG_ANGLES:
        raise ValueError(f"tag must be one of {sorted(GROVER_TAG_ANGLES)}")
    states = [(n2, n3) for n2 in range(8) for n3 in range(8)]
    phi = GROVER_PHI[tag]
    pattern = pattern_for(ClusterConfig.TRIANGLE, phi=phi)
    branches = _family_batch(ClusterConfig.TRIANGLE, pattern, states)
    # grover_decode, per branch: the tag reads (s1 xor s4, s1)
    s1, s4 = branches.interpreted_of(1), branches.interpreted_of(4)
    hit = ~branches.impossible & (s1 == int(tag[1])) & ((s1 ^ s4) == int(tag[0]))
    success = np.where(hit, branches.probability, 0.0).sum(axis=1)
    rows = [
        {"n2": n2, "n3": n3, "success_probability": float(p)}
        for (n2, n3), p in zip(states, success)
    ]
    successes = [row["success_probability"] for row in rows]
    return {
        "config": {"experiment": "grover"},
        "tag": tag,
        "angles_eighths": [phi[2].eighths, phi[3].eighths],
        "rows": rows,
        "success_min": min(successes),
        "success_avg": sum(successes) / len(successes),
        "classical_bound": REPORTED_VALUES["grover_classical_bound"],
        "reported_reference": {
            "noisy_max": REPORTED_VALUES["grover_success_max"],
            "noisy_avg": REPORTED_VALUES["grover_success_avg"],
        },
    }


def run_grover_sessions(
    tag: str, seed: int = 0, n_sessions: int = 16
) -> list[str]:
    """Decode live protocol sessions; returns the decoded tags.

    The client draws its secrets from `seed`, and each session's server
    from its own child of `SeedSequence(seed)`, so no server stream repeats
    the client's or another seed's.
    """
    phi = GROVER_PHI[tag]
    rng = np.random.default_rng(seed)
    servers = np.random.SeedSequence(seed).spawn(n_sessions)
    decoded = []
    for server in servers:
        secrets = ClientSecrets.random(ClusterConfig.TRIANGLE, phi, rng)
        _, result = run_session(secrets, server_seed=np.random.default_rng(server))
        decoded.append(grover_decode(result.interpreted))
    return decoded


def _deutsch_outputs(
    oracle: str, states: Sequence[tuple[int, int]]
) -> tuple[_Branches, np.ndarray]:
    """Every branch of the Deutsch pattern on the family states, and each
    state's corrected output on its first possible branch: the pattern is
    deterministic, so any possible branch's output will do."""
    pattern = pattern_for(ClusterConfig.STAIRCASE, phi=DEUTSCH_PHI[oracle])
    branches = _family_batch(ClusterConfig.STAIRCASE, pattern, states)
    first = np.argmax(~branches.impossible, axis=1)
    return branches, branches.corrected[np.arange(len(states)), first]


def deutsch_output_state(oracle: str, n2: int, n3: int) -> PureState:
    """Corrected qubit-4 output of the Deutsch pattern on the family state
    (n2, n3): exact, and the same on every possible branch."""
    _, outputs = _deutsch_outputs(oracle, [(n2, n3)])
    return PureState._trusted(outputs[0])


def run_deutsch(oracle: str) -> dict:
    """Blind Deutsch algorithm on the staircase cluster, over `ALIGNED10`.

    The verdict is read from qubit 4 (|0> for a constant oracle, |1> for a
    balanced one) by single-qubit tomography of the corrected output.  The
    success probability is the Born weight of the correct verdict, averaged
    over branches.
    """
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


def instruction_pair_distribution(
    config: ClusterConfig, phi: Mapping[int, Angle8]
) -> dict[tuple[int, int], float]:
    """Joint distribution of the (delta_2, delta_3) messages over uniform
    hiding phases and masks; used for the algorithm-hiding cross-check."""
    from .mbqc import MeasurementStep, adapt_angle

    counts: dict[tuple[int, int], float] = {}
    for n2 in range(8):
        for n3 in range(8):
            for r2 in (0, 1):
                for r3 in (0, 1):
                    d2 = adapt_angle(
                        MeasurementStep(2, phi.get(2, A(0))), A(n2), r2, {}
                    )
                    d3 = adapt_angle(
                        MeasurementStep(3, phi.get(3, A(0))), A(n3), r3, {}
                    )
                    key = (d2.eighths, d3.eighths)
                    counts[key] = counts.get(key, 0.0) + 1.0 / 256.0
    return counts


def run_fig3c(noise: NoiseParams | None = None) -> dict:
    """Blind Z-rotation: fixed instructions delta_4 = pi/2,
    delta_3 = -pi/2, delta_2 = -pi/2 on the left-pointing linear cluster,
    swept over the eight theta_3 values at n2 = 2."""
    psi_in = PureState.from_amplitudes(np.array([1.0, 1j]) / math.sqrt(2))
    deltas = {4: A(2), 3: A(6), 2: A(6)}
    # qubit 4 is measured at delta_4, not in Z
    pattern = pattern_for(ClusterConfig.LINEAR_LEFT, input_prep=deltas[4])
    states = [(2, n3) for n3 in range(8)]
    outputs, noisy_outputs = _figure_outputs(pattern, deltas, states, noise)
    rows = []
    for n3, rho in enumerate(outputs):
        target = PureState.from_amplitudes(
            rx(PI) @ rz(n3 * PI / 4 + PI / 2) @ psi_in.amplitudes
        )
        row = {
            "n3": n3,
            "fidelity_to_target": fidelity_pure(rho, target),
            "output_density": _matrix_json(rho),
        }
        if noisy_outputs:
            row["noisy_fidelity_to_target"] = fidelity_pure(noisy_outputs[n3], target)
        rows.append(row)
    average = DensityMatrix.mixture(outputs)
    table = {
        "config": {"experiment": "fig3c", "noise": _noise_echo(noise)},
        "delta_eighths": {"4": 2, "3": 6, "2": 6},
        "rows": rows,
        "average_density": _matrix_json(average),
        "average_linear_entropy": linear_entropy(average),
        "reported_reference": REPORTED_VALUES["fig3c_linear_entropy"],
    }
    if noisy_outputs:
        table["noisy_average_linear_entropy"] = mixedness_check(noisy_outputs)
    return table


def run_fig3d(noise: NoiseParams | None = None) -> dict:
    """Blind two-qubit gate on the horseshoe cluster: delta_2 = 0,
    delta_3 = -pi/2 over the four states {(2,0), (2,4), (6,0), (6,4)}."""
    states = [(2, 0), (2, 4), (6, 0), (6, 4)]
    deltas = {2: A(0), 3: A(6)}
    cz = np.diag([1.0, 1, 1, -1]).astype(complex)
    pp = np.kron(PureState.plus().amplitudes, PureState.plus().amplitudes)
    pattern = pattern_for(ClusterConfig.HORSESHOE)
    outputs, noisy_outputs = _figure_outputs(pattern, deltas, states, noise)
    rows = []
    for k, ((n2, n3), rho) in enumerate(zip(states, outputs)):
        target = PureState.from_amplitudes(
            np.kron(rz(n2 * PI / 4), rz(n3 * PI / 4 + PI / 2)) @ cz @ pp
        )
        row = {
            "n2": n2,
            "n3": n3,
            "hidden_rotation": f"Rz({n2}pi/4) x Rz({n3}pi/4 + pi/2)",
            "fidelity_to_target": fidelity_pure(rho, target),
        }
        if noisy_outputs:
            row["noisy_fidelity_to_target"] = fidelity_pure(noisy_outputs[k], target)
        rows.append(row)
    average = DensityMatrix.mixture(outputs)
    table = {
        "config": {"experiment": "fig3d", "noise": _noise_echo(noise)},
        "delta_eighths": {"2": 0, "3": 6},
        "states": states,
        "rows": rows,
        "average_density": _matrix_json(average),
        "average_linear_entropy": linear_entropy(average),
        "single_state_linear_entropy": linear_entropy(outputs[0]),
        "reported_reference": REPORTED_VALUES["fig3d_linear_entropy"],
    }
    if noisy_outputs:
        table["noisy_average_linear_entropy"] = mixedness_check(noisy_outputs)
    return table


def _matrix_json(rho: DensityMatrix) -> list:
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
    ]


def _figure_outputs(
    pattern: MeasurementPattern,
    deltas: Mapping[int, Angle8],
    states: Sequence[tuple[int, int]],
    noise: NoiseParams | None,
) -> tuple[list[DensityMatrix], list[DensityMatrix] | None]:
    """Ideal and noisy outputs (None without noise) of the fixed-delta run
    of `pattern` on each family state (n2, n3): the all-zero branch,
    correction included, which is the deterministic output.  One engine call
    measures every flipped grid state of `dephasing_flips`, unwinding only
    the nominal phases.  Flip 0 is the unflipped state, so it gives the
    ideal output; each noisy output is sum_f w_f p_f |out_f><out_f|
    renormalized, p_f the branch's weight.
    """
    theta = family_theta(states)
    # without noise, the one weight-1 pattern of no flip
    offsets, weights = dephasing_flips(noise or NoiseParams(1.0, 1.0))
    flips = len(weights)
    flipped = (theta[:, None, :] + offsets).reshape(-1, 4)
    psi = blind_cluster_batch(pattern.config.graph, flipped)
    branches = _measure_batch(pattern, psi, np.repeat(theta, flips, axis=0), deltas=deltas)
    out = branches.corrected[:, 0].reshape(len(theta), flips, -1)
    ideal = [DensityMatrix.from_pure(PureState._trusted(v)) for v in out[:, 0]]
    if noise is None:
        return ideal, None
    mass = weights * branches.probability[:, 0].reshape(len(theta), flips)
    rho = np.einsum("bf,bfi,bfj->bij", mass, out, out.conj())
    return ideal, [DensityMatrix.from_matrix(r) for r in rho / mass.sum(axis=1)[:, None, None]]


# the drift that makes the noisy ensemble of `run_blindness` leak
BLINDNESS_NOISE = NoiseParams(phase_drift_sigma=0.15)


def run_blindness(seed: int = 0, noise: NoiseParams | None = BLINDNESS_NOISE) -> dict:
    """Leakage of the theta_3 sweep: ideal, mask-broken, and noisy (none
    without `noise`).

    The noisy ensemble draws the realized drift of each prepared state from
    the seeded generator: visibility damping alone is a setting-independent
    channel and cannot leak, so all the reported chi comes from the drift.
    """
    pure = [
        PureState._trusted(amplitudes)
        for amplitudes in blind_cluster_batch(
            ClusterConfig.LINEAR_LEFT.graph, family_theta([(2, n) for n in range(8)])
        )
    ]
    states = {n: DensityMatrix.from_pure(psi) for n, psi in enumerate(pure)}
    ideal_report = maximize_chi_over_priors(server_view_ensemble(states))
    broken_chi = holevo_chi(server_view_ensemble(states, r_uniform=False))
    table = {
        "config": {"experiment": "blindness", "seed": seed, "noise": _noise_echo(noise)},
        "ideal": ideal_report.as_dict(),
        "r_broken_chi_uniform_bits": broken_chi,
        "reported_reference": {
            "chi_uniform": REPORTED_VALUES["chi_uniform"],
            "chi_maximized": REPORTED_VALUES["chi_maximized"],
        },
    }
    if noise is not None:
        rng = np.random.default_rng(seed)
        noisy_states = {n: apply_noise(psi, noise, rng) for n, psi in enumerate(pure)}
        noisy_report = maximize_chi_over_priors(server_view_ensemble(noisy_states))
        table["noisy"] = noisy_report.as_dict()
    return table


def run_quantumness(seed: int = 0, rounds: int = 10_000, stub_trials: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    report = run_quantumness_test(honest_protocol_round, rounds, rng)
    table = {
        "config": {"experiment": "quantumness", "seed": seed},
        "rounds": rounds,
        "honest": report.as_dict(),
        "classical_guess_risk": classical_guess_risk(SWEEP8),
        "risk_bound": 0.125,
    }
    if stub_trials:
        rejected = 0
        for _ in range(stub_trials):
            stub_report = run_quantumness_test(classical_stub_round, 1000, rng)
            rejected += stub_report.verdict == "classical-suspect"
        table["stub_rejection_rate"] = rejected / stub_trials
    return table


def run_tomography(
    seed: int = 0,
    noise: NoiseParams = NoiseParams(),
    mean_total: float = 10_000.0,
    mc_trials: int = 25,
) -> dict:
    """Reconstruct the (2,3) laboratory-basis state from noisy counts."""
    from .clusters import lab_family_state

    rng = np.random.default_rng(seed)
    target = lab_family_state(2, 3)
    rho_true = apply_noise(target, noise)
    settings = pauli_settings(4)
    table_counts = simulate_counts(rho_true, settings, mean_total, rng)
    result = mle_reconstruct(table_counts, target=target)
    fid_err = monte_carlo_errors(
        table_counts,
        mc_trials,
        lambda t: mle_reconstruct(t, target=target).fidelity_to_target,
        rng,
    )
    result = replace(result, error_bars={"fidelity_to_target": fid_err})
    return {
        "config": {"experiment": "tomography", "seed": seed, "noise": asdict(noise)},
        "mean_total": mean_total,
        "mc_trials": mc_trials,
        "fidelity_to_ideal": result.fidelity_to_target,
        "error_bars": result.error_bars,
        "true_fidelity": fidelity_pure(rho_true, target),
        "converged": result.converged,
        "rho_hat": _matrix_json(result.rho_hat),
        "reported_reference": REPORTED_VALUES["cluster_fidelity"],
    }


def run_bulk_branches() -> dict:
    """Exhaustive branch enumeration across the aligned states.

    Mirrors the bulk methodology of measuring every computational branch
    instead of feeding forward: each (state, setting) pair contributes all
    16 outcome probabilities.
    """
    table = distribution_table(ALIGNED10, standard_test_setting())
    rows = []
    for (n2, n3), probs in zip(ALIGNED10, table):
        for outcome in range(16):
            rows.append(
                {
                    "setting": "quantumness",
                    "n2": n2,
                    "n3": n3,
                    "outcome": f"{outcome:04b}",
                    "probability": float(probs[outcome]),
                }
            )
    return {"config": {"experiment": "bulk"}, "rows": rows, "row_count": len(rows)}


def rows_to_csv(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
