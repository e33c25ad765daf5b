"""Probabilistic test of whether the server is quantum at all.

The client fixes one measurement setting (a Pauli-Z measurement on qubit 1
and three equatorial angles) and compares outcome statistics across blind
cluster states against the exact theoretical distributions.  The setting is
chosen so that every one of the 16 outcomes is impossible for at least one
state of the sweep; a classical server that guesses outcomes uniformly hits
each with probability 1/16 and lands on an impossible one often enough to be
caught quickly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .angles import Angle8
from .clusters import BlindPhases, ClusterConfig, blind_cluster_batch, family_theta
from .mbqc import MeasurementPattern, MeasurementStep, _measure_batch
from .protocol import ClientSecrets, ClientSession, ServerSession, _drive_in_process

ZERO_TOL = 1e-12
CHI_SQUARE_SIGMA = 5.0

# theta sweeps used in the demonstrations: the full theta_3 sweep at n2 = 2,
# and the two extra aligned states
SWEEP8: tuple[tuple[int, int], ...] = tuple((2, n) for n in range(8))
ALIGNED10: tuple[tuple[int, int], ...] = SWEEP8 + ((6, 0), (6, 4))


# every setting measures Z on qubit 1, then fixed instructions; one shared
# pattern, so its engine plan is built once
_TEST_PATTERN = MeasurementPattern(
    (MeasurementStep(1, pauli_override="Z"), *(MeasurementStep(q) for q in (2, 3, 4))), ()
)


@dataclass(frozen=True)
class QuantumnessSetting:
    """Fixed per-qubit instructions for the test rounds.

    The qubit-1 instruction is a Pauli-Z measurement; `minus_is_zero`
    selects which eigenstate is reported as outcome bit 0 (the "-sigma_z"
    shorthand for that instruction is ambiguous, so the convention is explicit).
    """

    delta2: Angle8 = Angle8(4)   # pi
    delta3: Angle8 = Angle8(6)   # -pi/2
    delta4: Angle8 = Angle8(2)   # pi/2
    minus_is_zero: bool = True

    def pattern(self) -> MeasurementPattern:
        return _TEST_PATTERN

    def deltas(self) -> dict[int, Angle8 | None]:
        return {1: None, 2: self.delta2, 3: self.delta3, 4: self.delta4}


def standard_test_setting() -> QuantumnessSetting:
    return QuantumnessSetting()


def _outcome_index(bits: dict[int, int], setting: QuantumnessSetting) -> int:
    b1 = bits[1] ^ (1 if setting.minus_is_zero else 0)
    return b1 * 8 + bits[2] * 4 + bits[3] * 2 + bits[4]


def distribution_table(
    states: Sequence[tuple[int, int]] = SWEEP8,
    setting: QuantumnessSetting | None = None,
) -> np.ndarray:
    """(len(states), 16) exact outcome probabilities from one engine call:
    branch m's bits are qubits 1-4, so m is the outcome up to qubit 1's label."""
    setting = setting or standard_test_setting()
    psi = blind_cluster_batch(ClusterConfig.LINEAR_RIGHT.graph, family_theta(states))
    branches = _measure_batch(setting.pattern(), psi, deltas=setting.deltas())
    return branches.probability[:, np.arange(16) ^ (8 * setting.minus_is_zero)]


def classical_guess_risk(states: Sequence[tuple[int, int]] = SWEEP8) -> float:
    """Best deterministic guesser's probability of an impossible outcome
    under the standard setting, the states equally likely.

    For each fixed outcome o the guesser is caught whenever the actual state
    assigns o probability zero; the risk is minimized over o.  On the
    theta_3 sweep the standard setting pins this at 1/8.
    """
    table = distribution_table(states)
    prior = np.full(len(states), 1.0 / len(states))
    caught = (table < ZERO_TOL).astype(float)
    risk_per_outcome = prior @ caught
    return float(risk_per_outcome.min())


@functools.lru_cache(maxsize=64)
def _round_client(
    theta: tuple[int, int], setting: QuantumnessSetting
) -> tuple[ClientSecrets, MeasurementPattern]:
    """The secrets and the validated pattern of one (theta, setting) pair,
    built once: a test cycles through a handful of pairs."""
    config = ClusterConfig.LINEAR_RIGHT
    phases = BlindPhases.family(*theta)
    phi = {2: setting.delta2 - phases[2], 3: setting.delta3 - phases[3]}
    steps = (
        MeasurementStep(1, pauli_override="Z"),
        MeasurementStep(2, phi[2]),
        MeasurementStep(3, phi[3]),
    )
    return ClientSecrets(config, phases, {}, phi), MeasurementPattern(steps, (4,), config)


def honest_protocol_round(
    theta: tuple[int, int],
    setting: QuantumnessSetting,
    rng: np.random.Generator,
) -> int:
    """One real client/server exchange measuring all four qubits.

    The client runs the setting as a pattern on the path: Z on qubit 1 and,
    with r = 0, phi_j = delta_j - theta_j on qubits 2 and 3, so that the
    server is told exactly delta_2 and delta_3.  The server measures qubits
    1-3 and returns qubit 4, the output; the client measures it at delta4,
    drawing from the same random stream.
    """
    secrets, pattern = _round_client(tuple(theta), setting)
    client = ClientSession(secrets, pattern=pattern)
    _drive_in_process(client, ServerSession(seed=rng))
    result = client.result()
    p0, _ = result.output_state.project_delta(1, setting.delta4.radians, 0)
    bits = {**result.outcomes, 4: 0 if rng.random() < p0 else 1}
    return _outcome_index(bits, setting)


def classical_stub_round(
    theta: tuple[int, int],
    setting: QuantumnessSetting,
    rng: np.random.Generator,
) -> int:
    """A server with no quantum technology: uniform guessing."""
    return int(rng.integers(0, 16))


RoundFn = Callable[[tuple[int, int], QuantumnessSetting, np.random.Generator], int]


@dataclass
class TestReport:
    states: list[tuple[int, int]]
    theory: np.ndarray          # (n_states, 16)
    observed: np.ndarray        # (n_states, 16) counts
    rounds: int
    impossible_hits: int
    tv_marginal: float
    tv_per_state: list[float]
    chi_square: float
    degrees_of_freedom: int
    chi_square_threshold: float
    verdict: str

    def as_dict(self) -> dict:
        return {
            "states": [list(s) for s in self.states],
            "theory": self.theory.tolist(),
            "observed": self.observed.tolist(),
            "rounds": self.rounds,
            "impossible_hits": self.impossible_hits,
            "tv_marginal": self.tv_marginal,
            "tv_per_state": self.tv_per_state,
            "chi_square": self.chi_square,
            "degrees_of_freedom": self.degrees_of_freedom,
            "chi_square_threshold": self.chi_square_threshold,
            "classical_baseline": 1.0 / 16.0,
            "verdict": self.verdict,
        }


def run_quantumness_test(
    round_fn: RoundFn,
    rounds: int,
    rng: np.random.Generator,
    states: Sequence[tuple[int, int]] = SWEEP8,
) -> TestReport:
    """Tally `rounds` rounds of `standard_test_setting()` and compare with theory.

    The verdict is "classical-suspect" when any impossible outcome occurs or
    when the pooled Pearson chi-square exceeds dof + CHI_SQUARE_SIGMA * sqrt(2 dof).
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    setting = standard_test_setting()
    states = list(states)
    theory = distribution_table(states, setting)
    observed = np.zeros((len(states), 16))
    for _ in range(rounds):
        idx = int(rng.integers(0, len(states)))
        outcome = round_fn(states[idx], setting, rng)
        observed[idx, outcome] += 1

    impossible_hits = int(observed[theory < ZERO_TOL].sum())

    totals = observed.sum(axis=1)
    chi_square = 0.0
    dof = 0
    for i in range(len(states)):
        if totals[i] == 0:
            continue
        live = theory[i] >= ZERO_TOL
        expected = theory[i, live] * totals[i]
        chi_square += float(((observed[i, live] - expected) ** 2 / expected).sum())
        dof += int(live.sum()) - 1
    threshold = dof + CHI_SQUARE_SIGMA * math.sqrt(2.0 * dof) if dof else 0.0

    marginal_theory = theory.mean(axis=0)
    marginal_observed = observed.sum(axis=0) / rounds
    tv_marginal = 0.5 * float(np.abs(marginal_observed - marginal_theory).sum())
    tv_per_state = [
        0.5 * float(np.abs(observed[i] / totals[i] - theory[i]).sum())
        if totals[i]
        else 1.0
        for i in range(len(states))
    ]

    suspect = impossible_hits > 0 or chi_square > threshold
    return TestReport(
        states=states,
        theory=theory,
        observed=observed,
        rounds=rounds,
        impossible_hits=impossible_hits,
        tv_marginal=tv_marginal,
        tv_per_state=tv_per_state,
        chi_square=chi_square,
        degrees_of_freedom=dof,
        chi_square_threshold=threshold,
        verdict="classical-suspect" if suspect else "quantum-consistent",
    )
