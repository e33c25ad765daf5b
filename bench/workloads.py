"""The four workloads: one round of operations each, generated from a seed.

A workload is a list of items, one round.  Each item runs one operation
(or, for the quantumness test, one operation per protocol round) through
blindsim's public API and has a check computed apart from the program.
Every round repeats the same items with the same inputs and internal
seeds, so count metrics per operation repeat exactly whatever the number
of rounds.  Program functions are looked up on their modules at call
time, so the traced run's wrappers see every call.
"""
from __future__ import annotations

import itertools
import select
import signal
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
import hostspeed

import blindsim
import blindsim.experiments as experiments
from blindsim import blindness, clusters, mbqc, noise, protocol, tomography, verification
from blindsim.angles import Angle8

HERE = Path(__file__).resolve().parent
THETAS64 = tuple(itertools.product(range(8), repeat=2))
ALIGNED10 = tuple((2, n) for n in range(8)) + ((6, 0), (6, 4))
SWEEP8 = tuple((2, n) for n in range(8))
TAGS = ("00", "01", "10", "11")
CONFIGS = ("linear_right", "linear_left", "horseshoe", "rotated_horseshoe", "staircase", "triangle")

# make-up of one round (see README)
BLOCKS_PER_CONFIG = 2      # sweep: feed-forward blocks per linear/horseshoe config
DEUTSCH_PER_ORACLE = 3     # sweep: as many Deutsch runs as blocks, so p50 is a Grover run
QUANTUMNESS_ROUNDS = 1600  # rounds: honest protocol rounds in one quantumness test
WARMUP_QUANTUMNESS_ROUNDS = 16
SESSIONS_PER_CONFIG = 20   # rounds: in-process sessions per configuration
WIRE_PER_CONFIG = 4        # wire: TCP sessions per configuration
MLE_PER_ROUND = 5          # solvers: four-qubit reconstructions per round
MEAN_TOTAL = 1e4           # solvers: mean counts per tomography setting
DRIFT_SEED = 0             # solvers: drift sample of the noisy ensemble (see README)


class Clock:
    """Times operations; under a tracer, marks which operation is running.

    Each operation leaves its start, end, wall time and thread CPU time, in
    arrays that `take` hands over and empties after every round, so that
    memory does not grow with the number of operations run.  Host-speed
    samples taken during an operation are taken out of its
    times.  Paused sections (checks, bookkeeping) take no samples and are
    summed so they can be taken out of the timed part.
    """

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed if speed is not None else hostspeed.HostSpeed(enabled=False)
        self.kind = ""
        self.kind_names: list[str] = []
        self.kinds = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.walls = array("d")
        self.cpus = array("d")
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self.count = 0

    def take(self) -> tuple:
        """(kinds, starts, ends, walls, cpus) since the last take."""
        out = (self.kinds, self.starts, self.ends, self.walls, self.cpus)
        self.kinds, self.starts, self.ends = array("B"), array("d"), array("d")
        self.walls, self.cpus = array("d"), array("d")
        return out

    def op(self, fn, *args):
        tracer, speed = self.tracer, self.speed
        if tracer is not None:
            tracer.op = self.count
        stolen_wall, stolen_cpu = speed.stolen_wall, speed.stolen_cpu
        c0 = time.thread_time()
        t0 = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        wall = end - t0 - (speed.stolen_wall - stolen_wall)
        cpu = time.thread_time() - c0 - (speed.stolen_cpu - stolen_cpu)
        if tracer is not None:
            tracer.op = None
        self.starts.append(t0)
        self.ends.append(end)
        self.walls.append(wall)
        self.cpus.append(cpu)
        if self.kind not in self.kind_names:
            self.kind_names.append(self.kind)
        self.kinds.append(self.kind_names.index(self.kind))
        self.count += 1
        return out

    @contextmanager
    def paused(self):
        """Checks and bookkeeping: excluded from the timed part and the trace."""
        with self.speed.held():
            t0, c0 = time.perf_counter(), time.thread_time()
            tracer = self.tracer
            if tracer is not None:
                phase, tracer.phase = tracer.phase, "check"
            try:
                yield
            finally:
                if tracer is not None:
                    tracer.phase = phase
                self.paused_s += time.perf_counter() - t0
                self.paused_cpu_s += time.thread_time() - c0


@dataclass
class Item:
    kind: str
    run: Callable[[Clock], object]
    check: Callable[[object], None]
    session: bool = False


@dataclass
class Workload:
    items: list[Item]
    warmups: list[Item]
    address: list = field(default_factory=list)  # wire: [(host, port)]


def _angles(phi: dict[int, int]) -> dict[int, Angle8]:
    return {q: Angle8(v) for q, v in phi.items()}


def _prep(value):
    return value if value == "Z" else Angle8(value)


def draw_computation(config: str, rng: np.random.Generator) -> tuple[dict, object, dict]:
    """Target rotations (eighths), input preparation and what to expect.

    Staircase draws phi_1 in {0, pi} or phi_2 in {0, pi}: with phi_1 = +-pi/2
    and any other phi_2 its pattern is not deterministic (see CHANGES.md).
    """
    prep = "Z"
    if config == "triangle":
        tag = TAGS[int(rng.integers(4))]
        phi2, phi3 = experiments.GROVER_TAG_ANGLES[tag]
        readout = experiments.GROVER_READOUT.eighths
        phi = {1: readout, 2: phi2.eighths, 3: phi3.eighths, 4: readout}
        return phi, prep, {"tag": tag}
    if config in ("linear_right", "linear_left"):
        choice = int(rng.integers(9))
        prep = "Z" if choice == 8 else choice
        phi = {2: int(rng.integers(8)), 3: int(rng.integers(8))}
    elif config == "horseshoe":
        phi = {2: int(rng.integers(8)), 3: int(rng.integers(8))}
    elif config == "rotated_horseshoe":
        phi = {1: int(rng.integers(8)), 4: int(rng.integers(8))}
    elif config == "staircase":
        phi1 = 2 * int(rng.integers(4))
        phi2 = int(rng.integers(8)) if phi1 in (0, 4) else 4 * int(rng.integers(2))
        phi = {1: phi1, 2: phi2, 3: int(rng.integers(8))}
    else:
        raise ValueError(config)
    what = f"{config} phi={phi} prep={prep}"
    return phi, prep, {"reference": C.circuit_output(config, phi, prep), "what": what}


# ------------------------------------------------------------------ sweep


def _feed_forward_block(config, phi, prep, r_rows):
    cfg = clusters.ClusterConfig(config)
    pattern = mbqc.pattern_for(cfg, phi=phi, input_prep=prep)
    out = []
    for (n2, n3), r in zip(THETAS64, r_rows):
        phases = clusters.BlindPhases.family(n2, n3)
        state = mbqc.cluster_state_for(cfg, phases)
        out.append(mbqc.enumerate_adaptive(state, pattern, phases, r))
    return out


def _block_item(config: str, rng: np.random.Generator) -> Item:
    phi, prep, expect = draw_computation(config, rng)
    order = clusters.ClusterConfig(config).measure_order
    bits = rng.integers(0, 2, size=(len(THETAS64), len(order)))
    r_rows = [dict(zip(order, map(int, row))) for row in bits]
    phi_a, prep_a = _angles(phi), _prep(prep)

    def run(clock):
        return clock.op(_feed_forward_block, config, phi_a, prep_a, r_rows)

    def check(records):
        for (n2, n3), branches in zip(THETAS64, records):
            C.check_branches(
                [
                    (b.probability, b.impossible,
                     None if b.corrected_state is None else b.corrected_state.amplitudes)
                    for b in branches
                ],
                expect["reference"],
                f"{expect['what']} theta=({n2},{n3})",
            )

    return Item("block", run, check)


def _grover_item(tag: str) -> Item:
    return Item(
        "grover",
        lambda clock: clock.op(experiments.run_grover, tag),
        lambda table: C.check_grover_table(table, tag, set(THETAS64)),
    )


def _deutsch_item(oracle: str) -> Item:
    return Item(
        "deutsch",
        lambda clock: clock.op(experiments.run_deutsch, oracle),
        lambda table: C.check_deutsch_table(table, oracle, set(ALIGNED10)),
    )


def sweep(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    items = [_grover_item(t) for t in TAGS]
    items += [_deutsch_item(o) for o in ("constant", "balanced") for _ in range(DEUTSCH_PER_ORACLE)]
    for config in ("linear_right", "linear_left", "horseshoe"):
        items += [_block_item(config, rng) for _ in range(BLOCKS_PER_CONFIG)]
    return _shuffled(items, rng)


# ----------------------------------------------------------------- rounds


def _quantumness_item(rng: np.random.Generator, theory: np.ndarray, rounds: int) -> Item:
    test_seed = int(rng.integers(2**32))

    def run(clock):
        outcomes = []

        def timed_round(theta, setting, round_rng):
            outcome = clock.op(verification.honest_protocol_round, theta, setting, round_rng)
            outcomes.append((theta, outcome))
            return outcome

        verification.run_quantumness_test(
            timed_round, rounds, np.random.default_rng(test_seed), states=SWEEP8
        )
        return outcomes

    def check(outcomes):
        tallies = np.zeros((len(SWEEP8), 16))
        for theta, outcome in outcomes:
            tallies[SWEEP8.index(tuple(theta)), outcome] += 1
        C.check_quantumness(tallies, theory)

    return Item("quantumness", run, check)


def _secrets(config: str, rng: np.random.Generator):
    phi, prep, expect = draw_computation(config, rng)
    secrets = protocol.ClientSecrets.random(
        clusters.ClusterConfig(config), _angles(phi), rng, input_prep=_prep(prep)
    )
    return secrets, expect


def _check_session(expect):
    def check(pair):
        transcript, result = pair
        C.check_server_view([(m.type, m.body) for m in transcript.server_view()])
        out = None if result.output_state is None else result.output_state.amplitudes
        C.check_session(expect, out, result.interpreted)

    return check


def _session_item(config: str, rng: np.random.Generator) -> Item:
    secrets, expect = _secrets(config, rng)
    server_seed = int(rng.integers(2**32))
    return Item(
        "session",
        lambda clock: clock.op(protocol.run_session, secrets, server_seed),
        _check_session(expect),
        session=True,
    )


def rounds(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    theory = np.array(
        [C.quantumness_distribution(clusters.linear_family_state(*s).amplitudes) for s in SWEEP8]
    )
    items = [_quantumness_item(rng, theory, QUANTUMNESS_ROUNDS)]
    for config in CONFIGS:
        items += [_session_item(config, rng) for _ in range(SESSIONS_PER_CONFIG)]
    workload = _shuffled(items, rng)
    # a short test warms the quantumness kind; its tally is too small to check
    workload.warmups[0] = _quantumness_item(rng, theory, WARMUP_QUANTUMNESS_ROUNDS)
    return workload


# ------------------------------------------------------------------- wire


def _wire_item(config: str, rng: np.random.Generator, address: list) -> Item:
    secrets, expect = _secrets(config, rng)
    return Item(
        "session",
        lambda clock: clock.op(protocol.run_session_tcp, secrets, address[0]),
        _check_session(expect),
        session=True,
    )


def wire(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    address: list = []
    items = [_wire_item(c, rng, address) for c in CONFIGS for _ in range(WIRE_PER_CONFIG)]
    workload = _shuffled(items, rng)
    workload.address = address
    return workload


class Server:
    """A `blindsim serve` subprocess on loopback, port chosen by the OS.

    With `trace_path`, it is started through serve_traced.py, which wraps
    the same functions as the client and writes its totals there on exit.
    """

    def __init__(self, seed: int, env: dict, cwd: Path, trace_path: Path | None = None):
        args = ["serve", "--listen", "127.0.0.1:0", "--seed", str(seed)]
        if trace_path is None:
            cmd = [sys.executable, "-u", "-m", "blindsim.cli", *args]
        else:
            cmd = [sys.executable, "-u", str(HERE / "serve_traced.py"), str(trace_path), *args]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=cwd)
        try:
            line = self._readline(timeout=60.0)
            host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("blindsim serve printed no address")
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("listening on"):
            raise RuntimeError(f"blindsim serve said {line!r}")
        return line

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- solvers


def _fold(states) -> blindness.Ensemble:
    return blindness.pair_fold(blindness.Ensemble(list(states), np.full(8, 1.0 / 8.0)))


def _sweep_states():
    graph = clusters.ClusterConfig.LINEAR_LEFT.graph
    return [clusters.build_blind_cluster(graph, clusters.BlindPhases.family(2, n)) for n in range(8)]


def _mle_item(table, rho_true, projectors) -> Item:
    counts = table.counts.reshape(-1)
    return Item(
        "mle",
        lambda clock: clock.op(tomography.mle_reconstruct, table),
        lambda res: C.check_mle(res.rho_hat.matrix, rho_true, projectors, counts, table.exposure),
    )


def solvers(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    pure = _sweep_states()
    ideal = _fold(blindsim.DensityMatrix.from_pure(s) for s in pure)
    drift = np.random.default_rng(DRIFT_SEED)
    noisy_params = noise.NoiseParams(phase_drift_sigma=0.15)
    noisy = _fold(noise.apply_noise(s, noisy_params, drift) for s in pure)
    noisy_mats = [s.matrix for s in noisy.states]

    rho_true = noise.apply_noise(clusters.lab_family_state(2, 3), noise.NoiseParams()).matrix
    settings = list(itertools.product("XYZ", repeat=4))
    projectors = C.projector_stack(settings)
    probs = C.born(projectors, rho_true)
    items = [
        Item(
            "chi",
            lambda clock: clock.op(blindness.maximize_chi_over_priors, ideal),
            lambda rep: C.check_chi_ideal(rep.chi_maximized, rep.chi_uniform),
        ),
        Item(
            "chi",
            lambda clock: clock.op(blindness.maximize_chi_over_priors, noisy),
            lambda rep: C.check_chi_optimum(noisy_mats, rep.argmax_prior, rep.chi_maximized),
        ),
    ]
    for _ in range(MLE_PER_ROUND):
        counts = rng.poisson(MEAN_TOTAL * probs).reshape(len(settings), 16).astype(float)
        table = tomography.CountsTable(settings, counts, MEAN_TOTAL)
        items.append(_mle_item(table, rho_true, projectors))
    return _shuffled(items, rng)


def _shuffled(items: list[Item], rng: np.random.Generator) -> Workload:
    """Seeded order; the first item of each kind is that kind's warm-up,
    except that solvers warms the chi kind on the cheap ideal ensemble."""
    warmups, kinds = [], set()
    for item in items:
        if item.kind not in kinds:
            kinds.add(item.kind)
            warmups.append(item)
    order = rng.permutation(len(items))
    return Workload([items[i] for i in order], warmups)


WORKLOADS = {"sweep": sweep, "rounds": rounds, "wire": wire, "solvers": solvers}
