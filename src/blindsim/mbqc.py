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

`pattern_for` derives the dependency sets by causal flow from each
configuration's graph, measurement order and outputs.  Three entries stay
data: the horseshoe's H frame, the staircase's X sets (its order has no
causal flow) and the two linear configurations' input step.

One batched engine (`_measure_batch`) runs every pattern, and it is exact: it
holds a batch of input states times every branch so far as one array,
projects all branches with one einsum per step, prunes impossible ones and
corrects every output at once.  It never samples; a sampled run is a
protocol session, whose server measures one qubit at a time with
`quantum.project_qubit`.  Dependency sets are linear maps over GF(2): as
0/1 matrices over step columns, the X and Z parities of every branch of the
whole tree are two integer matrix products, so every branch's instruction
on the integer pi/4 grid is known before the first projection.

A pattern's plan holds what the engine derives from it alone, built on first
use (it assumes, as `__post_init__` does, unmutated mappings).  For each of
the 2^m values of r on the m equatorial steps it tabulates every branch's
interpreted outcomes, instructions less theta and output gates, so a call
packs r into a row number and adds theta; each branch's (qubit, bit) pairs
make its record's dicts.  Beside it sits the determinism verdict, one engine
call.  `pattern_for` shares one pattern per configuration, rotations and
input.  `enumerate_branches` (fixed instructions) and `enumerate_adaptive`
(feed-forward) are the engine's batch-of-one front ends.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .angles import Angle8
from .clusters import BlindPhases, ClusterConfig, GraphSpec, blind_cluster_batch, build_blind_cluster
from .quantum import (
    HADAMARD,
    IMPOSSIBLE_BRANCH,
    NORM_TOL,
    PAULI_X,
    PAULI_Z,
    PureState,
    basis_bits,
    equatorial_bra,
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

    # built on first use and kept; not fields, so ==, repr and `replace` ignore them
    @functools.cached_property
    def _plan(self) -> _Plan:
        return _make_plan(self)

    @functools.cached_property
    def _deterministic(self) -> bool:
        """Whether every live branch ends in one corrected output up to phase.
        theta and r only relabel branches, so one call at theta = r = 0 decides
        them all.  A pattern without a configuration or output correction passes."""
        if self.config is None or not self.corrects_outputs:
            return True
        theta = np.zeros((1, self.num_qubits), dtype=np.int64)
        branches = _measure_batch(self, blind_cluster_batch(self.config.graph, theta), theta)
        out = branches.corrected[branches.live]
        return bool(np.all(np.abs(np.abs(out @ out[0].conj()) - 1.0) < 1e-9))


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


# the configurations whose first measurement prepares the logical input
_INPUT_STEP = (ClusterConfig.LINEAR_RIGHT, ClusterConfig.LINEAR_LEFT)
# the horseshoe's outputs are read in the H frame, the target convention of its oracle
_FRAMES = {ClusterConfig.HORSESHOE: {1: "H", 4: "H"}}
# the staircase's order (2, 3, 1) has no causal flow, so its X sets stay data
_HAND_X_DEPS = {ClusterConfig.STAIRCASE: {1: {2}, 4: {1, 3}}}


def _causal_flow(graph: GraphSpec, order: tuple, outputs: tuple) -> dict[int, int] | None:
    """Causal flow (Danos-Kashefi) of measuring `order` with `outputs` last.

    f(i) is i's latest-measured neighbour after i whose other neighbours all
    come after i.  Flows are not unique; this tie-break fixes every
    instruction.  None if some i has no such neighbour, unless there are no
    outputs: then the qubits from i on, the shortest suffix of `order` that
    leaves a flow, act as the outputs and f stops before them.
    """
    rank = {q: t for t, q in enumerate(order + outputs)}
    flow = {}
    for i in order:
        after = [j for j in graph.neighbors(i) if rank[j] > rank[i]
                 and all(rank[k] > rank[i] for k in graph.neighbors(j) - {i})]
        if not after:
            return None if outputs else flow
        flow[i] = max(after, key=rank.__getitem__)
    return flow


@functools.cache
def _dependencies(config: ClusterConfig, z_input: bool) -> tuple[tuple, dict]:
    """Each step's (qubit, X set, Z set) after any input step, and the output
    fields, shared by every pattern.  s_i sends X to f(i) and Z to N(f(i))
    minus i; a Z-measured input sends Z to its neighbours, then leaves the graph."""
    graph, order, outputs = config.graph, config.measure_order, config.outputs
    x = {q: set() for q in order + outputs}
    z = {q: set() for q in x}
    flow_order = order
    if z_input and config in _INPUT_STEP:
        for j in graph.neighbors(order[0]):
            z[j].add(order[0])
        graph = GraphSpec(graph.vertex_count, frozenset(e for e in graph.edges if order[0] not in e))
        flow_order = order[1:]
    flow = _causal_flow(graph, flow_order, outputs)
    for i, j in (flow or {}).items():
        x[j].add(i)
        for k in graph.neighbors(j) - {i}:
            z[k].add(i)
    if flow is None:
        x.update(_HAND_X_DEPS[config])
    fields = dict(
        output_x_deps={q: frozenset(x[q]) for q in outputs if x[q]},
        output_z_deps={q: frozenset(z[q]) for q in outputs if z[q]},
        frame=_FRAMES.get(config, {}),
        theta_unwind=frozenset(outputs) & frozenset(config.blind_qubits),
    )
    steps = order[config in _INPUT_STEP :]  # an input step depends on nothing
    return tuple((q, frozenset(x[q]), frozenset(z[q])) for q in steps), fields


def pattern_for(
    config: ClusterConfig,
    phi: Mapping[int, Angle8] | None = None,
    input_prep: str | Angle8 = "Z",
) -> MeasurementPattern:
    """Measurement order, outputs, and dependency sets for a configuration.

    `phi` assigns target rotations to measured qubits (default 0).  Only the
    two linear configurations take an `input_prep`, their first measurement:
    a Pauli axis or an equatorial Angle8.  Equal steps give one shared pattern.
    """
    first = _input_steps(config, input_prep)
    phi = phi or {}
    return _shared_pattern(
        config, first, tuple(phi.get(q, Angle8(0)) for q in config.measure_order[len(first) :])
    )


def _input_steps(config: ClusterConfig, input_prep: str | Angle8) -> tuple[MeasurementStep, ...]:
    """The input step of a linear configuration; the others refuse a preparation."""
    if config in _INPUT_STEP:
        return (_prep_step(config.measure_order[0], input_prep),)
    if input_prep != "Z":
        raise ValueError(f"{config.value} takes no input preparation, got {input_prep!r}")
    return ()


# bounded: a pattern with its plan holds 6-20 kB
@functools.lru_cache(maxsize=256)
def _shared_pattern(config: ClusterConfig, first: tuple, phis: tuple) -> MeasurementPattern:
    sets, fields = _dependencies(config, not first or first[0].pauli_override == "Z")
    steps = first + tuple(MeasurementStep(q, a, x, z) for (q, x, z), a in zip(sets, phis))
    return MeasurementPattern(steps, config.outputs, config, **fields)


@dataclass(frozen=True)
class BranchRecord:
    outcomes: dict[int, int]
    interpreted: dict[int, int]
    deltas: dict[int, Angle8 | None]
    probability: float
    impossible: bool
    output_state: PureState | None
    corrected_state: PureState | None


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
# diagonal of Rz(-theta) for theta = e pi/4, the client's unwind of a hiding phase
_UNWIND = np.stack([np.exp(s * (np.arange(8) * (math.pi / 8.0))) for s in (1j, -1j)], axis=-1)
for _table in (_GRID_BRAS, _BYPRODUCTS, _NO_FRAME, _UNWIND, *_PAULI_BRAS.values()):
    _table.setflags(write=False)


class _Plan(NamedTuple):
    """Everything the engine derives from a pattern alone; arrays read-only."""

    qubits: tuple[int, ...]  # measured qubit of each step
    r_weights: np.ndarray    # (n,) r @ r_weights packs r on the equatorial steps, first highest
    pauli: np.ndarray        # the Pauli steps' indices
    bras: tuple[np.ndarray | None, ...]  # each Pauli step's bras, None if equatorial
    outcomes: np.ndarray     # (1, 2^k, k) every branch's outcome bits
    interpreted: np.ndarray  # (2^m, 2^k, k) every branch's outcomes xor r
    eighths: np.ndarray      # (2^m, 2^k, k) its instructed eighths less theta, mod 8
    gates: np.ndarray        # (2^m, 2^k, outputs, 2, 2) its output gates, byproduct then frame
    theta_cols: np.ndarray   # each step's column in a (B, n) theta array
    left: tuple[int, ...]    # 2^(unmeasured qubits before each step's qubit)
    out_cols: np.ndarray     # the outputs' columns in a (B, n) theta array
    correction: _Correction
    outcome_items: tuple[tuple[tuple[int, int], ...], ...]  # each branch's (qubit, bit) pairs


class _Correction(NamedTuple):
    """A plan's output correction, the part `correct_output` reads."""

    outputs: tuple[int, ...]   # ascending
    gates: np.ndarray          # (outputs, 4, 2, 2) frame . Z^z X^x, indexed by 2x + z
    unwind: np.ndarray | None  # (outputs,) True where theta is unwound, None without
    spec: str                  # the einsum that applies one 2x2 gate to each output


def _make_plan(pattern: MeasurementPattern) -> _Plan:
    steps, correction = pattern.steps, _make_correction(pattern)
    k, qubits, outputs = len(steps), tuple(s.qubit for s in steps), correction.outputs
    masked = [i for i, s in enumerate(steps) if s.pauli_override is None]
    sets = [s.x_deps for s in steps] + [s.z_deps for s in steps]
    sets += [pattern.output_x_deps.get(q, frozenset()) for q in outputs]
    sets += [pattern.output_z_deps.get(q, frozenset()) for q in outputs]
    deps = np.array([q in d for q in qubits for d in sets], dtype=np.int64).reshape(k, len(sets))
    # with the dependency sets as 0/1 matrices over step columns, one integer
    # product gives every parity of every branch under every r row
    rmask = np.zeros((2 ** len(masked), 1, k), dtype=np.int64)
    rmask[..., masked] = basis_bits(len(masked))[:, None]
    interpreted = basis_bits(k) ^ rmask
    parity = interpreted @ deps & 1
    phi = np.array([s.phi.eighths for s in steps], dtype=np.int64)
    x, z = np.split(parity[..., 2 * k :], 2, axis=-1)
    r_weights = np.zeros(pattern.num_qubits, dtype=np.int64)
    r_weights[[qubits[i] - 1 for i in masked]] = 2 ** np.arange(len(masked) - 1, -1, -1)
    qb = [((q, 0), (q, 1)) for q in qubits]  # (qubit, bit) pairs shared by every branch
    plan = _Plan(
        qubits=qubits,
        r_weights=r_weights,
        pauli=np.flatnonzero([s.pauli_override is not None for s in steps]),
        bras=tuple(_PAULI_BRAS.get(s.pauli_override) for s in steps),
        outcomes=basis_bits(k)[None],
        interpreted=interpreted,
        # adapt_angle's (-1)^{x parity} phi + pi (r xor z parity); a call adds theta
        eighths=(phi * (1 - 2 * parity[..., :k]) + 4 * (rmask ^ parity[..., k : 2 * k])) % 8,
        gates=correction.gates[np.arange(len(outputs)), 2 * x + z],
        theta_cols=np.array([q - 1 for q in qubits], dtype=np.intp),
        left=tuple(2 ** (q - 1 - sum(p < q for p in qubits[:i])) for i, q in enumerate(qubits)),
        out_cols=np.array([q - 1 for q in outputs], dtype=np.intp),
        correction=correction,
        outcome_items=tuple(tuple(map(tuple.__getitem__, qb, b)) for b in basis_bits(k).tolist()),
    )
    for value in plan:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return plan


def _make_correction(pattern: MeasurementPattern) -> _Correction:
    outputs = tuple(sorted(pattern.outputs))
    gates = np.tile(_BYPRODUCTS, (len(outputs), 1, 1, 1))
    if pattern.frame:
        frames = np.array([_FRAME_GATES.get(pattern.frame.get(q), _NO_FRAME) for q in outputs])
        gates = frames[:, None] @ gates
    gates.setflags(write=False)
    unwind = None
    if pattern.theta_unwind:
        unwind = np.array([q in pattern.theta_unwind for q in outputs])
        unwind.setflags(write=False)
    rows, cols = "acegikoqsuwy"[: len(outputs)], "dfhjlnprtvxz"[: len(outputs)]
    spec = ",".join(f"...{a}{c}" for a, c in zip(rows, cols)) + f",...{cols}->...{rows}"
    return _Correction(outputs, gates, unwind, spec)


def _instruction_table(plan: _Plan, deltas: Mapping[int, Angle8 | None], shape: tuple) -> np.ndarray:
    """`shape` (B, 2^k, k) table of fixed instructed eighths, one row for
    every branch, -1 on Pauli steps."""
    row = []
    for q, bras in zip(plan.qubits, plan.bras):
        if bras is None and deltas.get(q) is None:
            raise ValueError(f"no instruction for qubit {q}")
        row.append(-1 if bras is not None else deltas[q].eighths)
    return np.broadcast_to(np.array(row, dtype=np.int64), shape)


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
) -> _Branches:
    """Measure every step of `pattern` on a batch of states at once, along
    every branch.

    `amplitudes` is (B, 2^n), qubit 1 most significant; `theta` (eighths)
    and `r` (bits) are (B, n), qubit q in column q-1.  Instructions follow
    `adapt_angle` per branch unless fixed `deltas` are given, in which case
    outcomes are not reinterpreted.
    """
    plan = pattern._plan
    n, k = pattern.num_qubits, len(plan.qubits)
    psi = np.asarray(amplitudes, dtype=complex)
    batch = psi.shape[0]
    if psi.shape != (batch, 2**n):
        raise ValueError(f"states of shape {psi.shape[1:]} for a {n}-qubit pattern")
    adaptive = deltas is None
    if adaptive and theta is None:
        raise ValueError("adaptive instructions need the hiding phases")
    if theta is not None:
        theta = np.asarray(theta)
        if theta.shape != (batch, n):
            raise ValueError(f"hiding phases of shape {theta.shape}, expected {(batch, n)}")
        if (theta & ~7).any():
            raise ValueError("hiding phases must be eighths in 0..7")
    # each batch element's row of the plan's mask tables
    row = np.zeros(batch, dtype=np.intp)
    if r is not None:
        r = np.asarray(r)
        if r.shape != (batch, n):
            raise ValueError(f"mask bits of shape {r.shape}, expected {(batch, n)}")
        if (r & ~1).any():
            raise ValueError("mask bits must be 0 or 1")
        if adaptive:
            row = r @ plan.r_weights
    # (B, 2^k, k): every branch's interpreted outcomes and instructed eighths
    interpreted = plan.interpreted[row]
    if adaptive:
        table = plan.eighths[row] + theta[:, None, plan.theta_cols]
        table %= 8
        if plan.pauli.size:
            table[..., plan.pauli] = -1
    else:
        table = _instruction_table(plan, deltas, interpreted.shape)
    grid = _GRID_BRAS[table]  # every instruction's bras
    psi = psi.reshape(batch, 1, -1)
    for i, (left, bras) in enumerate(zip(plan.left, plan.bras)):
        if bras is None:
            # the 2^(k-i) leaves below each current branch share its instruction
            bras = grid[:, :: 2 ** (k - i), i]
        branches = psi.shape[1]
        psi = np.einsum(
            "...kc,...lcr->...klr", bras, psi.reshape(batch, branches, left, 2, -1), order="C"
        )
        psi = psi.reshape(batch, 2 * branches, -1)
        flat = psi.view(np.float64)  # real and imaginary parts side by side
        p = np.einsum("...i,...i->...", flat, flat)
        # a pruned branch has a zero state, so its children get probability 0
        prob = p if i == 0 else (prob[:, :, None] * p.reshape(batch, -1, 2)).reshape(batch, -1)
        live = p >= IMPOSSIBLE_BRANCH
        scale = np.maximum(p, IMPOSSIBLE_BRANCH)
        np.sqrt(scale, out=scale)
        psi *= np.divide(live, scale, out=scale)[..., None]
    total = prob.sum(axis=1)
    if not all(abs(t - 1.0) <= NORM_TOL for t in total.tolist()):  # written so that NaN fails
        raise ValueError(f"branch probabilities sum to {total} instead of 1")

    outcomes = plan.outcomes.repeat(batch, axis=0)
    corrected = None
    if pattern.outputs and (theta is not None or not pattern.theta_unwind):
        unwind = theta[:, plan.out_cols] if pattern.theta_unwind else None
        corrected = _correct(plan.correction, psi, plan.gates[row], unwind)
    for value in (outcomes, interpreted, table, prob, live, psi, corrected):
        if value is not None:
            value.setflags(write=False)
    return _Branches(plan.qubits, outcomes, interpreted, table, prob, live, psi, corrected)


def _correct(
    correction: _Correction,
    out: np.ndarray,
    gates: np.ndarray,
    theta: np.ndarray | None,
) -> np.ndarray:
    """Theta unwind, Pauli byproducts and Clifford frame on a batch.

    `out` is (B, M, 2^outputs), `gates` (B, M, outputs, 2, 2) rows of
    `correction.gates` and `theta` (B, outputs) eighths, outputs ascending.
    Each output gets one 2x2 gate per branch, frame . Z^z X^x . Rz(-theta),
    and one einsum applies them all.
    """
    batch, branches = out.shape[:2]
    width = len(correction.outputs)
    if correction.unwind is not None:
        if theta is None:
            raise ValueError("theta unwind requires the hiding phases")
        unwind = _UNWIND[np.where(correction.unwind, theta, 0)]
        gates = gates * unwind[:, None, :, None, :]
    t = out.reshape((batch, branches) + (2,) * width)
    operands = [gates[..., i, :, :] for i in range(width)]
    return np.einsum(correction.spec, *operands, t).reshape(batch, branches, -1)


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
    x, z = (np.array([sum(interpreted[d] for d in deps.get(q, ())) % 2 for q in outputs])
            for deps in (pattern.output_x_deps, pattern.output_z_deps))
    theta = None
    if phases is not None:
        theta = np.array([[phases[q].eighths if q in pattern.theta_unwind else 0 for q in outputs]])
    correction = pattern._plan.correction
    gates = correction.gates[np.arange(len(outputs)), 2 * x + z]
    out = _correct(correction, raw_output.amplitudes.reshape(1, 1, -1), gates[None, None], theta)
    return PureState._trusted(out.reshape(-1))


def _check_masks(r: Mapping[int, int]) -> None:
    if any(bit not in (0, 1) for bit in r.values()):
        raise ValueError(f"mask bits must be 0 or 1, got {dict(r)}")


def _secrets_rows(
    pattern: MeasurementPattern,
    phases: BlindPhases | None,
    r: Mapping[int, int],
    adaptive: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """(1, n) arrays of the theta eighths and mask bits one run reads."""
    _check_masks(r)
    n = pattern.num_qubits
    r_row = np.array([[r.get(q, 0) for q in range(1, n + 1)]])  # read on equatorial steps only
    if phases is None:
        return None, r_row
    theta = np.zeros((1, n), dtype=np.int64)
    equatorial = [s.qubit for s in pattern.steps if s.pauli_override is None] if adaptive else []
    for q in equatorial + sorted(pattern.theta_unwind):
        theta[0, q - 1] = phases[q].eighths
    return theta, r_row


def _records(branches: _Branches, pattern: MeasurementPattern) -> list[BranchRecord]:
    """BranchRecords of batch element 0, each with fresh dicts of the plan's items."""
    qubits = branches.qubits
    items, flip = pattern._plan.outcome_items, 0
    # branch 0's outcomes are all 0, so its interpreted bits are r: branch b's are b ^ r's outcomes
    for bit in branches.interpreted[0, 0].tolist():
        flip = 2 * flip + bit
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
                outcomes=dict(items[m]),
                interpreted=dict(items[m ^ flip]),
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


def cluster_state_for(config: ClusterConfig, phases: BlindPhases) -> PureState:
    return build_blind_cluster(config.graph, phases)
