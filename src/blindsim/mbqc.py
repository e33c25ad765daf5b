"""Adaptive measurement patterns on blind cluster states.

A pattern lists measured qubits in temporal order.  Each step carries a
target rotation phi and two dependency sets.  With interpreted outcomes
s'_i = s_i xor r_i, the instructed angle is

    delta_j = (-1)^{parity over x_deps} phi_j  +  theta_j
              + pi * (r_j xor parity over z_deps),

which compensates the hiding rotation theta_j, reference-frame sign flips,
and pending pi-type byproducts in one shot.  Output qubits carry their own
dependency sets for the final Pauli correction and, for some configurations,
a fixed local Clifford frame and a client-side unwind of never-measured
hiding phases.

Dependency sets here were fixed by byproduct flow along each configuration's
measurement order and are validated by the determinism and oracle-equivalence
test suites, not trusted.

One batched engine (`_measure_batch`) runs every pattern: it holds a batch of
input states times every branch so far as one array, projects all branches
with one einsum per step, prunes impossible ones and corrects every output
at once.  Dependency sets are linear maps over GF(2): as 0/1 matrices over
step columns, the X and Z parities of every branch of the whole tree are
two integer matrix products, so every branch's instruction on the integer
pi/4 grid is known before the first projection.
`enumerate_branches`, `enumerate_adaptive` and `run_adaptive` are its
batch-of-one front ends.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .angles import Angle8
from .clusters import BlindPhases, ClusterConfig, build_blind_cluster
from .quantum import (
    HADAMARD,
    IMPOSSIBLE_BRANCH,
    NORM_TOL,
    PAULI_X,
    PAULI_Z,
    PureState,
    equatorial_bra,
    phase_gate,
    rx,
    rz,
)

PAULI_AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class MeasurementStep:
    qubit: int
    phi: Angle8 = Angle8(0)
    x_deps: frozenset[int] = frozenset()
    z_deps: frozenset[int] = frozenset()
    pauli_override: str | None = None

    def __post_init__(self) -> None:
        if self.pauli_override is not None and self.pauli_override not in PAULI_AXES:
            raise ValueError(f"unknown Pauli override {self.pauli_override!r}")


@dataclass(frozen=True)
class MeasurementPattern:
    steps: tuple[MeasurementStep, ...]
    outputs: tuple[int, ...]
    config: ClusterConfig | None = None
    output_x_deps: Mapping[int, frozenset[int]] = field(default_factory=dict)
    output_z_deps: Mapping[int, frozenset[int]] = field(default_factory=dict)
    # fixed single-qubit Clifford applied to an output after Pauli correction
    frame: Mapping[int, str] = field(default_factory=dict)
    # output qubits whose hiding phase is unwound client-side (never measured)
    theta_unwind: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        measured = [s.qubit for s in self.steps]
        if len(set(measured)) != len(measured):
            raise ValueError("a qubit is measured more than once")
        qubits = set(measured) | set(self.outputs)
        if qubits != set(range(1, len(qubits) + 1)):
            raise ValueError("steps and outputs must partition 1..n")
        if set(measured) & set(self.outputs):
            raise ValueError("outputs overlap measured qubits")
        seen: set[int] = set()
        for step in self.steps:
            if not (step.x_deps <= seen and step.z_deps <= seen):
                raise ValueError(
                    f"step for qubit {step.qubit} depends on a later measurement"
                )
            seen.add(step.qubit)
        for q in self.outputs:
            deps = self.output_x_deps.get(q, frozenset()) | self.output_z_deps.get(
                q, frozenset()
            )
            if not deps <= seen:
                raise ValueError(f"output {q} depends on an unmeasured qubit")
        if not (set(self.frame) | self.theta_unwind) <= set(self.outputs):
            raise ValueError("a frame or theta unwind on a qubit that is not an output")
        for name in self.frame.values():
            if not isinstance(name, str) or name not in _FRAME_GATES:
                raise ValueError(f"unknown frame {name!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.steps) + len(self.outputs)

    @property
    def corrects_outputs(self) -> bool:
        """False when the output correction is the identity: no output
        dependencies, no frame and no theta unwind."""
        deps = (*self.output_x_deps.values(), *self.output_z_deps.values())
        return any(deps) or bool(self.frame) or bool(self.theta_unwind)

    def step_for(self, qubit: int) -> MeasurementStep:
        for step in self.steps:
            if step.qubit == qubit:
                return step
        raise KeyError(qubit)


def adapt_angle(
    step: MeasurementStep,
    theta_j: Angle8,
    r_j: int,
    prior_outcomes: Mapping[int, int],
) -> Angle8:
    """Instructed angle delta_j for a step, given interpreted prior outcomes."""
    if step.pauli_override is not None:
        raise ValueError("Pauli-override steps carry no equatorial instruction")
    try:
        x_par = sum(prior_outcomes[q] for q in step.x_deps) % 2
        z_par = sum(prior_outcomes[q] for q in step.z_deps) % 2
    except KeyError as exc:
        raise ValueError(f"dependency on unmeasured qubit {exc.args[0]}") from exc
    delta = step.phi.negate_if(bool(x_par)) + theta_j
    return delta.add_pi((r_j ^ z_par) & 1)


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


def _prep_step(qubit: int, prep: str | Angle8) -> MeasurementStep:
    """The first measurement of a linear pattern, the one parser of an input
    preparation: Z stays a Pauli step, X and Y are the angles 0 and pi/2."""
    if prep == "Z":
        return MeasurementStep(qubit, pauli_override="Z")
    if prep == "X":
        prep = Angle8(0)
    elif prep == "Y":
        prep = Angle8(2)
    if not isinstance(prep, Angle8):
        raise ValueError(f"unknown input preparation {prep!r}")
    return MeasurementStep(qubit, phi=prep)


def pattern_for(
    config: ClusterConfig,
    phi: Mapping[int, Angle8] | None = None,
    input_prep: str | Angle8 = "Z",
) -> MeasurementPattern:
    """Measurement order, outputs, and dependency sets for a configuration.

    `phi` assigns target rotations to measured qubits (default 0).  For the
    two linear configurations `input_prep` selects the first measurement:
    a Pauli axis or an equatorial Angle8.
    """
    phi = dict(phi or {})

    def ang(q: int) -> Angle8:
        return phi.get(q, Angle8(0))

    fs = frozenset
    if config is ClusterConfig.LINEAR_RIGHT:
        prep = _prep_step(1, input_prep)
        z_prep = prep.pauli_override == "Z"
        steps = (
            prep,
            MeasurementStep(
                2, ang(2), x_deps=fs() if z_prep else fs({1}),
                z_deps=fs({1}) if z_prep else fs(),
            ),
            MeasurementStep(
                3, ang(3), x_deps=fs({2}), z_deps=fs() if z_prep else fs({1})
            ),
        )
        return MeasurementPattern(
            steps, (4,), config,
            output_x_deps={4: fs({3})}, output_z_deps={4: fs({2})},
        )
    if config is ClusterConfig.LINEAR_LEFT:
        prep = _prep_step(4, input_prep)
        z_prep = prep.pauli_override == "Z"
        steps = (
            prep,
            MeasurementStep(
                3, ang(3), x_deps=fs() if z_prep else fs({4}),
                z_deps=fs({4}) if z_prep else fs(),
            ),
            MeasurementStep(
                2, ang(2), x_deps=fs({3}), z_deps=fs() if z_prep else fs({4})
            ),
        )
        return MeasurementPattern(
            steps, (1,), config,
            output_x_deps={1: fs({2})}, output_z_deps={1: fs({3})},
        )
    if config is ClusterConfig.HORSESHOE:
        steps = (MeasurementStep(2, ang(2)), MeasurementStep(3, ang(3)))
        return MeasurementPattern(
            steps, (1, 4), config,
            output_x_deps={1: fs({2}), 4: fs({3})},
            frame={1: "H", 4: "H"},
        )
    if config is ClusterConfig.ROTATED_HORSESHOE:
        steps = (MeasurementStep(1, ang(1)), MeasurementStep(4, ang(4)))
        return MeasurementPattern(
            steps, (2, 3), config,
            output_x_deps={2: fs({1}), 3: fs({4})},
            output_z_deps={2: fs({4}), 3: fs({1})},
            theta_unwind=fs({2, 3}),
        )
    if config is ClusterConfig.STAIRCASE:
        steps = (
            MeasurementStep(2, ang(2)),
            MeasurementStep(3, ang(3)),
            MeasurementStep(1, ang(1), x_deps=fs({2})),
        )
        return MeasurementPattern(
            steps, (4,), config, output_x_deps={4: fs({1, 3})}
        )
    if config is ClusterConfig.TRIANGLE:
        steps = (
            MeasurementStep(2, ang(2)),
            MeasurementStep(3, ang(3), z_deps=fs({2})),
            MeasurementStep(1, ang(1), x_deps=fs({2})),
            MeasurementStep(4, ang(4), x_deps=fs({3})),
        )
        return MeasurementPattern(steps, (), config)
    raise ValueError(f"unknown configuration {config!r}")


@dataclass(frozen=True)
class BranchRecord:
    outcomes: dict[int, int]
    interpreted: dict[int, int]
    deltas: dict[int, Angle8 | None]
    probability: float
    impossible: bool
    output_state: PureState | None
    corrected_state: PureState | None


@dataclass(frozen=True)
class MbqcRun:
    """One sampled trajectory of an adaptive pattern."""

    outcomes: dict[int, int]
    interpreted: dict[int, int]
    deltas: dict[int, Angle8 | None]
    probability: float


# <b_delta| for every delta on the grid: _GRID_BRAS[e, b] = equatorial_bra(e pi/4, b)
_GRID_BRAS = np.array([[equatorial_bra(Angle8(e).radians, b) for b in (0, 1)] for e in range(8)])
# the bras of each Pauli measurement; X and Y are the equatorial angles 0 and pi/2
_PAULI_BRAS = {"X": _GRID_BRAS[0], "Y": _GRID_BRAS[2], "Z": np.eye(2, dtype=complex)}
# a branch's instruction by its eighths; -1, a Pauli step, is None
_INSTRUCTIONS = (*(Angle8(e) for e in range(8)), None)
_FRAME_GATES = {"H": HADAMARD}
_NO_FRAME = np.eye(2)
# byproduct Z^z X^x, indexed by 2x + z
_BYPRODUCTS = np.array([np.eye(2), PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X], dtype=complex)
for _table in (_GRID_BRAS, _BYPRODUCTS, _NO_FRAME, *_PAULI_BRAS.values()):
    _table.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _branch_bits(k: int) -> np.ndarray:
    """(2^k, k) outcome bits of the branches of k steps, step 0 most significant."""
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


def _dependency_matrix(
    steps: tuple[MeasurementStep, ...], sets: list[frozenset[int]]
) -> np.ndarray:
    """(k, len(sets)) 0/1 matrix over GF(2): entry [j, c] is 1 when step j's
    qubit is in sets[c], so interpreted bits times it, mod 2, are parities."""
    rows = [[step.qubit in deps for deps in sets] for step in steps]
    return np.array(rows, dtype=np.int64).reshape(len(steps), len(sets))


def _instruction_table(
    steps: tuple[MeasurementStep, ...],
    interp: np.ndarray,
    rmask: np.ndarray,
    theta: np.ndarray | None,
    deltas: Mapping[int, Angle8 | None] | None,
) -> np.ndarray:
    """(B, 2^k, k) instructed eighths of every step on every branch, -1 on
    Pauli steps.

    `interp` is (B, 2^k, k) interpreted outcomes and `rmask` (B, k) masks.
    With the X- and Z-dependency sets as 0/1 matrices over step columns,
    every step's parities on every branch come from one integer product, and
    the instruction is `adapt_angle`'s (-1)^{x parity} phi + theta +
    pi (r xor z parity).  Fixed `deltas` give one row for every branch.
    """
    k = len(steps)
    pauli = [s.pauli_override is not None for s in steps]
    table = np.empty(interp.shape, dtype=np.int64)
    if deltas is not None:
        for i, step in enumerate(steps):
            if not pauli[i] and deltas.get(step.qubit) is None:
                raise ValueError(f"no instruction for qubit {step.qubit}")
            table[..., i] = -1 if pauli[i] else deltas[step.qubit].eighths
        return table
    deps = _dependency_matrix(steps, [s.x_deps for s in steps] + [s.z_deps for s in steps])
    parity = interp @ deps & 1
    phi = np.array([s.phi.eighths for s in steps], dtype=np.int64)
    hiding = np.asarray(theta)[:, None, [s.qubit - 1 for s in steps]]
    flip = 1 - 2 * parity[..., :k]
    np.remainder(phi * flip + hiding + 4 * (rmask[:, None, :] ^ parity[..., k:]), 8, out=table)
    table[..., pauli] = -1
    return table


@dataclass(frozen=True)
class _Branches:
    """Every branch of a batch of runs of one pattern, as read-only arrays.

    Axis 0 is the batch, axis 1 the branch and axis 2 the step.  Branch m
    carries step i's outcome in bit k-1-i of m, which is the order of a
    depth-first walk that tries bit 0 first.  A branch is pruned (not
    `live`) once one of its steps has probability below IMPOSSIBLE_BRANCH;
    its state is then zero and every later branch below it has
    probability 0.
    """

    qubits: tuple[int, ...]  # measured qubit of each step
    outcomes: np.ndarray     # (B, M, k) bits reported by the measurement
    interpreted: np.ndarray  # (B, M, k) outcomes xor r (raw for Pauli steps)
    deltas: np.ndarray       # (B, M, k) instructed eighths, -1 for Pauli steps
    probability: np.ndarray  # (B, M)
    live: np.ndarray         # (B, M)
    output: np.ndarray       # (B, M, 2^outputs) output amplitudes, zero if pruned
    corrected: np.ndarray | None  # output after correction; None if it needs absent phases

    @property
    def impossible(self) -> np.ndarray:
        return self.probability < IMPOSSIBLE_BRANCH

    def interpreted_of(self, qubit: int) -> np.ndarray:
        return self.interpreted[..., self.qubits.index(qubit)]


def _measure_batch(
    pattern: MeasurementPattern,
    amplitudes: np.ndarray,
    theta: np.ndarray | None = None,
    r: np.ndarray | None = None,
    deltas: Mapping[int, Angle8 | None] | None = None,
    rng: np.random.Generator | None = None,
) -> _Branches:
    """Measure every step of `pattern` on a batch of states at once.

    `amplitudes` is (B, 2^n), qubit 1 most significant; `theta` (eighths)
    and `r` (bits) are (B, n), qubit q in column q-1.  Instructions follow
    `adapt_angle` per branch unless fixed `deltas` are given, in which case
    outcomes are not reinterpreted.  With `rng`, each batch element follows
    one sampled branch instead of all of them.
    """
    steps = pattern.steps
    n, k = pattern.num_qubits, len(pattern.steps)
    psi = np.asarray(amplitudes, dtype=complex)
    batch = psi.shape[0]
    if psi.shape != (batch, 2**n):
        raise ValueError(f"states of shape {psi.shape[1:]} for a {n}-qubit pattern")
    adaptive = deltas is None
    if adaptive and theta is None:
        raise ValueError("adaptive instructions need the hiding phases")
    qubits = tuple(s.qubit for s in steps)
    # the mask each step's outcome is interpreted through
    rmask = np.zeros((batch, k), dtype=np.int64)
    if adaptive and r is not None:
        masked = [i for i, s in enumerate(steps) if s.pauli_override is None]
        rmask[:, masked] = np.asarray(r)[:, [qubits[i] - 1 for i in masked]]
    # (B, 2^k, k): every branch's interpreted outcomes and instructed eighths
    interp = _branch_bits(k) ^ rmask[:, None, :]
    table = _instruction_table(steps, interp, rmask, theta, deltas)
    psi = psi.reshape(batch, 1, -1)
    prob = np.ones((batch, 1))
    sampled = rng is not None
    if sampled:
        rows = np.arange(batch)[:, None]
        index = np.zeros((1, 1), dtype=np.int64)  # the sampled branch's number so far
        mass = np.ones(batch)  # product of each step's total probability
    remaining = list(range(1, n + 1))
    for i, step in enumerate(steps):
        q = step.qubit
        if step.pauli_override is not None:
            bras = _PAULI_BRAS[step.pauli_override]
        elif sampled:
            bras = _GRID_BRAS[table[rows, index << (k - i), i]]
        else:
            # the 2^(k-i) leaves below each current branch share its instruction
            bras = _GRID_BRAS[table[:, :: 2 ** (k - i), i]]
        left = 2 ** remaining.index(q)
        branches = psi.shape[1]
        psi = np.einsum(
            "...kc,...lcr->...klr", bras, psi.reshape(batch, branches, left, 2, -1), order="C"
        )
        psi = psi.reshape(batch, 2 * branches, -1)
        flat = psi.view(np.float64)  # real and imaginary parts side by side
        p = np.einsum("...i,...i->...", flat, flat)
        # a pruned branch has a zero state, so its children get probability 0
        prob = np.repeat(prob, 2, axis=1) * p
        live = p >= IMPOSSIBLE_BRANCH
        psi = psi * (live / np.sqrt(np.maximum(p, IMPOSSIBLE_BRANCH)))[..., None]
        if sampled:
            mass *= p.sum(axis=1)
            pick = (rng.random(batch) >= p[:, 0]).astype(np.int64)
            picked = (rows[:, 0], pick)
            if not live[picked].all():
                raise RuntimeError("sampled an impossible branch")
            psi, prob, live = psi[picked][:, None], prob[picked][:, None], live[picked][:, None]
            index = 2 * index + pick[:, None]
        remaining.remove(q)
    total = mass if sampled else prob.sum(axis=1)
    if not np.all(np.abs(total - 1.0) <= NORM_TOL):  # written so that NaN fails
        raise ValueError(f"branch probabilities sum to {total} instead of 1")

    if sampled:
        interpreted, instructed = interp[rows, index], table[rows, index]
    else:
        interpreted, instructed = interp, table
    outcomes = interpreted ^ rmask[:, None, :]
    corrected = None
    if pattern.outputs and (theta is not None or not pattern.theta_unwind):
        outputs = sorted(pattern.outputs)
        sets = [pattern.output_x_deps.get(q, frozenset()) for q in outputs]
        sets += [pattern.output_z_deps.get(q, frozenset()) for q in outputs]
        parity = interpreted @ _dependency_matrix(steps, sets) & 1  # (B, M, 2 outputs)
        unwind = None if theta is None else np.asarray(theta)[:, [q - 1 for q in outputs]]
        width = len(outputs)
        corrected = _correct(pattern, psi, parity[..., :width], parity[..., width:], unwind)
    result = _Branches(qubits, outcomes, interpreted, instructed, prob, live, psi, corrected)
    for value in vars(result).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return result


def _correct(
    pattern: MeasurementPattern,
    out: np.ndarray,
    x_par: np.ndarray,
    z_par: np.ndarray,
    theta: np.ndarray | None,
) -> np.ndarray:
    """Theta unwind, Pauli byproducts and Clifford frame on a batch.

    `out` is (B, M, 2^outputs); `x_par` and `z_par` are (B, M, outputs) and
    `theta` (B, outputs) eighths, outputs in ascending order.  Each output
    gets one 2x2 gate per branch, frame . Z^z X^x . Rz(-theta), and one
    einsum applies them all.
    """
    outputs = sorted(pattern.outputs)
    batch, branches = out.shape[:2]
    gates = _BYPRODUCTS[2 * x_par + z_par]  # (B, M, outputs, 2, 2)
    if pattern.frame:
        frames = np.array([_FRAME_GATES.get(pattern.frame.get(q), _NO_FRAME) for q in outputs])
        gates = frames @ gates
    if pattern.theta_unwind:
        if theta is None:
            raise ValueError("theta unwind requires the hiding phases")
        half = np.where([q in pattern.theta_unwind for q in outputs], theta, 0) * (math.pi / 8.0)
        unwind = np.stack([np.exp(1j * half), np.exp(-1j * half)], axis=-1)  # diagonal of Rz(-theta)
        gates = gates * unwind[:, None, :, None, :]
    t = out.reshape((batch, branches) + (2,) * len(outputs))
    operands = [gates[..., i, :, :] for i in range(len(outputs))]
    return np.einsum(_correct_spec(len(outputs)), *operands, t).reshape(batch, branches, -1)


@functools.lru_cache(maxsize=None)
def _correct_spec(count: int) -> str:
    """The einsum spec that applies one 2x2 gate to each of `count` outputs."""
    rows, cols = "acegikoqsuwy"[:count], "dfhjlnprtvxz"[:count]
    return ",".join(f"...{a}{c}" for a, c in zip(rows, cols)) + f",...{cols}->...{rows}"


def correct_output(
    pattern: MeasurementPattern,
    interpreted: Mapping[int, int],
    raw_output: PureState,
    phases: BlindPhases | None = None,
) -> PureState:
    """Client-side correction: theta unwind, Pauli byproducts, Clifford frame.
    A pattern whose correction is the identity returns `raw_output` itself."""
    outputs = sorted(pattern.outputs)
    if raw_output.num_qubits != len(outputs):
        raise ValueError(
            f"output state has {raw_output.num_qubits} qubits, pattern has {len(outputs)} outputs"
        )
    if not pattern.corrects_outputs:
        return raw_output

    def parities(deps: Mapping[int, frozenset[int]]) -> np.ndarray:
        return np.array([[[sum(interpreted[d] for d in deps.get(q, ())) % 2 for q in outputs]]])

    theta = None
    if phases is not None:
        theta = np.array([[phases[q].eighths if q in pattern.theta_unwind else 0 for q in outputs]])
    out = _correct(
        pattern,
        raw_output.amplitudes.reshape(1, 1, -1),
        parities(pattern.output_x_deps),
        parities(pattern.output_z_deps),
        theta,
    )
    return PureState._trusted(out.reshape(-1))


def _secrets_rows(
    pattern: MeasurementPattern,
    phases: BlindPhases | None,
    r: Mapping[int, int],
    adaptive: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """(1, n) arrays of the theta eighths and mask bits one run reads."""
    n = pattern.num_qubits
    equatorial = [s.qubit for s in pattern.steps if s.pauli_override is None]
    r_row = np.zeros((1, n), dtype=np.int64)
    for q in equatorial:
        r_row[0, q - 1] = r.get(q, 0)
    if phases is None:
        return None, r_row
    theta = np.zeros((1, n), dtype=np.int64)
    for q in (equatorial if adaptive else []) + sorted(pattern.theta_unwind):
        theta[0, q - 1] = phases[q].eighths
    return theta, r_row


def _records(branches: _Branches, pattern: MeasurementPattern) -> list[BranchRecord]:
    """BranchRecords of batch element 0."""
    qubits = branches.qubits
    outcomes = branches.outcomes[0].tolist()
    interpreted = branches.interpreted[0].tolist()
    deltas = branches.deltas[0].tolist()
    probs = branches.probability[0].tolist()
    live = branches.live[0].tolist()
    has_output = bool(pattern.outputs)
    output = branches.output[0]
    corrected = None if branches.corrected is None else branches.corrected[0]
    width = len(pattern.outputs)
    records = []
    for m, p in enumerate(probs):
        alive = has_output and live[m]
        records.append(
            BranchRecord(
                outcomes=dict(zip(qubits, outcomes[m])),
                interpreted=dict(zip(qubits, interpreted[m])),
                deltas=dict(zip(qubits, map(_INSTRUCTIONS.__getitem__, deltas[m]))),
                probability=p,
                impossible=p < IMPOSSIBLE_BRANCH,
                # rows of the engine's read-only arrays, unit vectors by construction
                output_state=PureState(output[m], width) if alive else None,
                corrected_state=(
                    PureState(corrected[m], width) if alive and corrected is not None else None
                ),
            )
        )
    return records


def enumerate_branches(
    state: PureState,
    pattern: MeasurementPattern,
    deltas: Mapping[int, Angle8 | None],
    phases: BlindPhases | None = None,
) -> list[BranchRecord]:
    """All 2^k branches of a fixed (non-adaptive) instruction assignment.

    Zero-probability branches are retained with `impossible=True`."""
    theta, _ = _secrets_rows(pattern, phases, {}, adaptive=False)
    branches = _measure_batch(pattern, state.amplitudes[None], theta, deltas=deltas)
    return _records(branches, pattern)


def enumerate_adaptive(
    state: PureState,
    pattern: MeasurementPattern,
    phases: BlindPhases,
    r: Mapping[int, int],
) -> list[BranchRecord]:
    """All branches of the feed-forward process, with corrected outputs."""
    theta, r_row = _secrets_rows(pattern, phases, r)
    return _records(_measure_batch(pattern, state.amplitudes[None], theta, r_row), pattern)


def run_adaptive(
    state: PureState,
    pattern: MeasurementPattern,
    phases: BlindPhases,
    r: Mapping[int, int],
    rng_seed: int | np.random.Generator = 0,
) -> tuple[MbqcRun, PureState | None]:
    """Sample one adaptive trajectory; deterministic given the seed.

    Returns the run record and the byproduct-corrected output state (None
    when every qubit is measured)."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    theta, r_row = _secrets_rows(pattern, phases, r)
    branches = _measure_batch(pattern, state.amplitudes[None], theta, r_row, rng=rng)
    record = _records(branches, pattern)[0]
    run = MbqcRun(record.outcomes, record.interpreted, record.deltas, record.probability)
    return run, record.corrected_state


def circuit_oracle(
    config: ClusterConfig,
    phi: Mapping[int, Angle8],
    input_prep: str | Angle8 = "Z",
) -> PureState:
    """Brute-force circuit-model reference for each configuration's output.

    Every expression below is built from plain gate algebra, independent of
    the measurement engine, so the two can cross-check each other.
    """
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


def cluster_state_for(config: ClusterConfig, phases: BlindPhases) -> PureState:
    return build_blind_cluster(config.graph, phases)
