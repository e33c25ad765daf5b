"""The delegation protocol: a client that knows (theta, r, phi) talks to a
server that holds qubits and measures on instruction.

Wire format is newline-delimited JSON, one message per line:

    {"seq": int, "type": str, "body": {...}}

with amplitudes as [re, im] pairs of 64-bit floats and angles as integer
eighth-turns.  One session loop runs the ClientSession state machine over
both transports, so transcripts differ only in how the bytes travel.  Over
TCP each batch the client has ready is one write, with Nagle's algorithm
off, so no reply waits for a delayed ACK.  The client's qubits |theta_j>
come from one shared table of the eight grid kets, built at import.  The
server builds its state by the blind cluster's product formula and
measures on the engine's bras with `quantum.project_qubit`.  A
line longer than MAX_LINE_BYTES, no line for IDLE_TIMEOUT_S, a malformed
message (ids, counts and angles are JSON integers) or any other
ProtocolError on the server ends the session with one `error` line that
carries only a reason code.

The transfer of qubit amplitudes on the wire is a simulation artifact: the
server's *knowledge* is modeled by the r-averaged density matrices fed to the
blindness analyzer, never by the raw amplitude payloads.
"""
from __future__ import annotations

import functools
import json
import math
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .angles import Angle8
from .clusters import BlindPhases, ClusterConfig, _check_phases, _cphase_signs
from .mbqc import (
    _GRID_BRAS,
    _PAULI_BRAS,
    MeasurementPattern,
    _check_masks,
    adapt_angle,
    correct_output,
    pattern_for,
)
from .quantum import IMPOSSIBLE_BRANCH, PureState, basis_bits, project_qubit


# longest line either side reads, newline included; the longest message of a
# session, an output_return of two qubits, is about 250 bytes
MAX_LINE_BYTES = 4096
# seconds the server waits for a client's next whole line, like the client's
# own 30 s socket timeout; a connection that is idle or trickles bytes then
# gets an `error` reply and is closed, so it cannot hold a server thread
IDLE_TIMEOUT_S = 30.0

# |theta> for every theta on the pi/4 grid; the client hands out these shared,
# read-only states instead of building and validating new ones per session
_GRID_KETS = tuple(PureState.ket_theta(Angle8(e).radians) for e in range(8))


class ProtocolError(Exception):
    """Raised for out-of-order messages, bad ids, malformed input or blindness
    violations.  `reason` is the code an `error` reply carries on the wire."""

    def __init__(self, message: str, reason: str = "protocol"):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Message:
    seq: int
    type: str
    body: dict

    def canonical_json(self) -> str:
        doc = {"seq": self.seq, "type": self.type, "body": self.body}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str | bytes) -> "Message":
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
            raise ProtocolError(f"not JSON: {exc}", reason="bad_json") from None
        if not isinstance(doc, dict):
            raise ProtocolError("a message is a JSON object", reason="bad_message")
        seq, type_, body = doc.get("seq"), doc.get("type"), doc.get("body")
        if type(seq) is not int or not isinstance(type_, str) or not isinstance(body, dict):
            raise ProtocolError(
                "a message has an integer seq, a string type and an object body",
                reason="bad_message",
            )
        return cls(seq, type_, body)


def _ndjson_bytes(messages: Iterable[Message]) -> bytes:
    return "".join(m.canonical_json() + "\n" for m in messages).encode("utf-8")


def amplitudes_to_wire(psi: PureState) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in psi.amplitudes]


def amplitudes_from_wire(pairs: Sequence[Sequence[float]]) -> PureState:
    """A state from [re, im] pairs of JSON numbers; a bool or a string is
    refused, and an integer past float range raises OverflowError."""
    if not all({type(re), type(im)} <= {int, float} for re, im in pairs):
        raise TypeError("an amplitude is not a pair of numbers")
    return PureState.from_amplitudes([complex(re, im) for re, im in pairs])


def _int_field(body: dict, key: str) -> int:
    """body[key], which must be a JSON integer: not a bool, float or string."""
    value = body[key]
    if type(value) is not int:
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


@dataclass(frozen=True)
class ClientSecrets:
    """Everything the server must not learn: hiding phases, outcome masks,
    and the target rotations that define the computation."""

    config: ClusterConfig
    phases: BlindPhases
    r: Mapping[int, int]
    phi: Mapping[int, Angle8]
    input_prep: str | Angle8 = "Z"

    def __post_init__(self) -> None:
        """Refuse a mask bit other than 0 or 1 and a missing hiding phase, as
        the engine does, and a rotation on a qubit no pattern measures."""
        _check_masks(self.r)
        _check_phases(self.config.graph, self.phases)
        unmeasured = sorted(set(self.phi) - set(self.config.measure_order))
        if unmeasured:
            raise ValueError(f"target rotations on unmeasured qubits {unmeasured}")

    @classmethod
    def random(
        cls,
        config: ClusterConfig,
        phi: Mapping[int, Angle8],
        rng: np.random.Generator,
        input_prep: str | Angle8 = "Z",
    ) -> "ClientSecrets":
        """Uniform theta_2, then theta_3, on the grid, and a uniform mask bit
        per measured qubit."""
        phases = BlindPhases.family(int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        r = {q: int(rng.integers(0, 2)) for q in config.measure_order}
        return cls(config, phases, dict(r), dict(phi), input_prep)


@dataclass
class Transcript:
    """Wire log of one session, in transmission order."""

    messages: list[Message] = field(default_factory=list)

    def record(self, message: Message) -> None:
        self.messages.append(message)

    def server_view(self) -> list[Message]:
        """Everything the server sees: the full wire log (secrets never
        travel; only delta instructions and simulated qubit payloads do)."""
        return list(self.messages)

    def to_ndjson(self) -> str:
        return "\n".join(m.canonical_json() for m in self.messages) + "\n"


@dataclass(frozen=True)
class SessionResult:
    outcomes: dict[int, int]
    interpreted: dict[int, int]
    deltas: dict[int, Angle8 | None]
    output_state: PureState | None


def validate_blind_structure(pattern: MeasurementPattern, blind: Iterable[int]) -> None:
    """Non-blind measurements that follow blind ones must be Clifford angles.

    A sign flip of a Clifford angle is an addition of pi, which the random
    r-mask hides; for any other angle the flip would leak dependency parities.
    """
    blind = set(blind)
    seen_blind = False
    for step in pattern.steps:
        if step.qubit in blind:
            seen_blind = True
            continue
        if seen_blind and step.pauli_override is None and not step.phi.is_clifford:
            raise ProtocolError(
                f"non-Clifford angle {step.phi!r} on qubit {step.qubit} "
                "after blind measurements"
            )


def validate_deterministic(pattern: MeasurementPattern) -> None:
    """Reject a pattern whose possible branches end in different corrected outputs,
    as one engine call per pattern decides (`MeasurementPattern._deterministic`)."""
    if not pattern._deterministic:
        phi = {step.qubit: step.phi.eighths for step in pattern.steps}
        raise ProtocolError(
            f"{pattern.config.value} with phi {phi} (eighth-turns) is not deterministic: "
            "its possible branches end in different corrected outputs"
        )


class ClientSession:
    """Client state machine: emits messages, consumes outcome reports.  It
    runs `pattern`, by default the `pattern_for` of its secrets."""

    def __init__(self, secrets: ClientSecrets, pattern: MeasurementPattern | None = None):
        self.secrets = secrets
        if pattern is None:
            pattern = pattern_for(secrets.config, phi=secrets.phi, input_prep=secrets.input_prep)
        self.pattern = pattern
        validate_deterministic(self.pattern)
        validate_blind_structure(self.pattern, secrets.config.blind_qubits)
        self._seq = 0
        self._step_index = 0
        self._outcomes: dict[int, int] = {}
        self._interpreted: dict[int, int] = {}
        self._deltas: dict[int, Angle8 | None] = {}
        self._pending_qubit: int | None = None
        self._output_state: PureState | None = None
        self._closed = False
        self._outputs = sorted(self.pattern.outputs)

    def _msg(self, type_: str, body: dict) -> Message:
        self._seq += 1
        return Message(self._seq, type_, body)

    def prepared_qubits(self) -> list[PureState]:
        """|theta_j> per qubit, shared from the grid table; nothing is entangled client-side."""
        phases = self.secrets.phases
        return [_GRID_KETS[phases[q].eighths] for q in range(1, self.pattern.num_qubits + 1)]

    def start(self) -> list[Message]:
        out = [
            self._msg(
                "session_init",
                {
                    "config": self.secrets.config.value,
                    "qubit_count": self.pattern.num_qubits,
                },
            )
        ]
        for qid, psi in enumerate(self.prepared_qubits(), start=1):
            out.append(
                self._msg(
                    "qubit_transfer",
                    {"qubit_id": qid, "amplitudes": amplitudes_to_wire(psi)},
                )
            )
        out.append(self._next_instruction())
        return out

    def _next_instruction(self) -> Message:
        step = self.pattern.steps[self._step_index]
        self._pending_qubit = step.qubit
        if step.pauli_override is not None:
            return self._msg(
                "measure_instruction",
                {"qubit_id": step.qubit, "pauli": step.pauli_override},
            )
        delta = adapt_angle(
            step,
            self.secrets.phases[step.qubit],
            self.secrets.r.get(step.qubit, 0),
            self._interpreted,
        )
        self._deltas[step.qubit] = delta
        return self._msg(
            "measure_instruction",
            {"qubit_id": step.qubit, "delta_eighths": delta.eighths},
        )

    def on_message(self, message: Message) -> list[Message]:
        """The client's reply to one server message.  A reply that is out of
        order or cannot be read raises ProtocolError; one output_return is
        read, after every outcome, with the pattern's sorted outputs as ids."""
        try:
            return self._react(message)
        except (KeyError, ValueError, IndexError, TypeError, OverflowError) as exc:
            raise ProtocolError(
                f"unreadable {message.type!r} body: {exc!r}", reason="bad_message"
            ) from None

    def _react(self, message: Message) -> list[Message]:
        if message.type == "outcome_report":
            qid = _int_field(message.body, "qubit_id")
            if not 1 <= qid <= self.pattern.num_qubits:
                raise ProtocolError(
                    f"outcome for qubit {qid}, not in the pattern", reason="bad_qubit"
                )
            if qid != self._pending_qubit:
                raise ProtocolError(
                    f"outcome for qubit {qid}, expected {self._pending_qubit}",
                    reason="out_of_order",
                )
            bit = _int_field(message.body, "bit")
            if bit not in (0, 1):
                raise ValueError(f"outcome bit {bit!r}")
            step = self.pattern.steps[self._step_index]
            self._outcomes[qid] = bit
            mask = self.secrets.r.get(qid, 0) if step.pauli_override is None else 0
            self._interpreted[qid] = bit ^ mask
            self._deltas.setdefault(qid, None)
            self._pending_qubit = None
            self._step_index += 1
            if self._step_index < len(self.pattern.steps):
                return [self._next_instruction()]
            if not self.pattern.outputs:
                self._closed = True
                return [self._msg("session_close", {"status": "ok"})]
            return []  # waiting for output_return
        if message.type == "output_return":
            ids = message.body["qubit_ids"]
            if ids != self._outputs or any(type(q) is not int for q in ids):
                raise ValueError(f"output ids {ids!r}, expected {self._outputs}")
            if self._closed or self._step_index < len(self.pattern.steps):
                raise ProtocolError(
                    "output_return before every outcome or after the close",
                    reason="out_of_order",
                )
            raw = amplitudes_from_wire(message.body["amplitudes"])
            self._output_state = correct_output(
                self.pattern, self._interpreted, raw, self.secrets.phases
            )
            self._closed = True
            return [self._msg("session_close", {"status": "ok"})]
        if message.type == "error":
            reason = str(message.body.get("reason"))
            raise ProtocolError(f"server refused the session: {reason}", reason=reason)
        raise ProtocolError(f"client cannot handle message type {message.type!r}")

    @property
    def done(self) -> bool:
        return self._closed

    def result(self) -> SessionResult:
        if not self._closed:
            raise ProtocolError("session still in progress")
        return SessionResult(
            dict(self._outcomes),
            dict(self._interpreted),
            dict(self._deltas),
            self._output_state,
        )


def server_entangle(qubits: Sequence[PureState], config: ClusterConfig) -> PureState:
    """The received qubits with one CPhase per edge of the configuration's
    graph, by the product formula: amplitude x is the product over qubits j
    of <x_j|q_j>, times (-1)^{sum over edges of x_i x_j}."""
    bits, signs = basis_bits(config.graph.vertex_count), _cphase_signs(config.graph)
    single = np.array([q.amplitudes for q in qubits])
    # one column per qubit, multiplied left to right like a chain of krons
    product = functools.reduce(np.multiply, single[np.arange(len(qubits)), bits].T)
    return PureState._trusted(np.where(signs, -product, product))


class ServerSession:
    """Server state machine: entangles received qubits, measures on demand.

    Every client message is checked before it changes the session: seq
    strictly increasing, a known config and its own vertex count, each qubit
    id in range and sent once as one qubit, and only the config's scheduled
    qubits measured, each once.  A failed check, or a body that cannot be
    read, raises ProtocolError.  Each check is O(1) dict and int work.
    """

    def __init__(self, seed: int | np.random.Generator = 0):
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._seq = 0
        self._peer_seq = 0
        self._config: ClusterConfig | None = None
        self._expected = 0
        self._received: dict[int, PureState] = {}
        self._state: PureState | None = None
        self._remaining: list[int] = []
        self._scheduled: set[int] = set()
        self._outputs: list[int] = []

    def _msg(self, type_: str, body: dict) -> Message:
        self._seq += 1
        return Message(self._seq, type_, body)

    def refuse(self, error: ProtocolError) -> Message:
        """The `error` reply to a failed check: its reason code, nothing else."""
        return self._msg("error", {"reason": error.reason})

    def handle(self, message: Message) -> list[Message]:
        try:
            if not message.seq > self._peer_seq:
                raise ProtocolError(
                    f"seq {message.seq} does not follow {self._peer_seq}", reason="bad_seq"
                )
            self._peer_seq = message.seq
            if message.type == "session_init":
                return self._init(message.body)
            if message.type == "qubit_transfer":
                return self._transfer(message.body)
            if message.type == "measure_instruction":
                return self._measure(message.body)
            if message.type == "session_close":
                return []
        except (KeyError, ValueError, IndexError, TypeError, OverflowError) as exc:
            raise ProtocolError(
                f"malformed {message.type!r}: {exc!r}", reason="bad_message"
            ) from exc
        raise ProtocolError(
            f"server cannot handle message type {message.type!r}", reason="unknown_type"
        )

    def _init(self, body: dict) -> list[Message]:
        if self._config is not None:
            raise ProtocolError("duplicate session_init", reason="out_of_order")
        try:
            config = ClusterConfig(body["config"])
        except ValueError:
            raise ProtocolError(
                f"unknown config {body['config']!r}", reason="unknown_config"
            ) from None
        count = _int_field(body, "qubit_count")
        if count != config.graph.vertex_count:
            raise ProtocolError(
                f"{config.value} has {config.graph.vertex_count} qubits, not {count}",
                reason="bad_qubit_count",
            )
        self._config = config
        self._expected = count
        return []

    def _transfer(self, body: dict) -> list[Message]:
        if self._config is None:
            raise ProtocolError("qubit_transfer before session_init", reason="out_of_order")
        if self._state is not None:
            raise ProtocolError("qubit_transfer after measurements began", reason="out_of_order")
        qid = _int_field(body, "qubit_id")
        if not 1 <= qid <= self._expected or qid in self._received:
            raise ProtocolError(
                f"qubit {qid} is outside 1..{self._expected} or was sent before",
                reason="bad_qubit",
            )
        pairs = body["amplitudes"]
        if len(pairs) != 2:
            raise ProtocolError("a qubit_transfer carries one qubit", reason="bad_qubit")
        self._received[qid] = amplitudes_from_wire(pairs)
        return []

    def _measure(self, body: dict) -> list[Message]:
        if self._config is None:
            raise ProtocolError("measure_instruction before session_init", reason="out_of_order")
        if self._state is None:
            # ids are checked on arrival, so a full count means every qubit
            if len(self._received) != self._expected:
                raise ProtocolError(
                    "measurement requested before all qubits arrived", reason="out_of_order"
                )
            qubits = [self._received[q] for q in range(1, self._expected + 1)]
            self._state = server_entangle(qubits, self._config)
            self._remaining = list(range(1, self._expected + 1))
            self._scheduled = set(self._config.measure_order)
            self._outputs = sorted(self._config.outputs)
        qid = _int_field(body, "qubit_id")
        if qid not in self._scheduled:
            raise ProtocolError(
                f"qubit {qid} is unknown, already measured or an output of "
                f"{self._config.value}",
                reason="bad_qubit",
            )
        if "pauli" in body:
            bras = _PAULI_BRAS[body["pauli"]]  # an unknown axis is a KeyError
        else:
            bras = _GRID_BRAS[_int_field(body, "delta_eighths") % 8]
        prob, branches = project_qubit(self._state, self._remaining.index(qid), bras)
        bit = 0 if self._rng.random() < prob[0] else 1
        if prob[bit] < IMPOSSIBLE_BRANCH:
            raise ProtocolError("measured an impossible branch")
        self._state = PureState._trusted(branches[bit] / math.sqrt(prob[bit]))
        self._remaining.remove(qid)
        self._scheduled.remove(qid)
        out = [self._msg("outcome_report", {"qubit_id": qid, "bit": bit})]
        if not self._scheduled and self._outputs:
            out.append(
                self._msg(
                    "output_return",
                    {
                        "qubit_ids": self._outputs,
                        "amplitudes": amplitudes_to_wire(self._state),
                    },
                )
            )
        return out


def _drive(
    client: ClientSession,
    send: Callable[[list[Message]], None],
    receive: Callable[[], Message],
) -> Transcript:
    """Run one session: each batch the client has ready goes out in one
    `send`, then replies are taken one at a time until the client reacts or
    is done (an output-bearing run's last instruction gets two replies)."""
    transcript = Transcript()
    batch = client.start()
    while batch:
        for msg in batch:
            transcript.record(msg)
        send(batch)
        batch = []
        while not batch and not client.done:
            reply = receive()
            transcript.record(reply)
            batch = client.on_message(reply)
    return transcript


def _drive_in_process(client: ClientSession, server: ServerSession) -> Transcript:
    """`_drive` with each message handed to `server` and its replies queued."""
    replies: deque[Message] = deque()

    def send(batch: list[Message]) -> None:
        for msg in batch:
            replies.extend(server.handle(msg))

    return _drive(client, send, replies.popleft)


def run_session(
    secrets: ClientSecrets,
    server_seed: int | np.random.Generator = 0,
) -> tuple[Transcript, SessionResult]:
    """Drive one full session over the in-process transport."""
    client = ClientSession(secrets)
    transcript = _drive_in_process(client, ServerSession(seed=server_seed))
    return transcript, client.result()


class _NdjsonHandler(socketserver.StreamRequestHandler):
    """One connection, one session.  The replies to each inbound line go out
    as one write; with Nagle off, no write waits for the client's ACK."""

    disable_nagle_algorithm = True

    def _read_line(self, pending: bytearray) -> bytes:
        """The next line, newline included, or what is left at the end of
        the stream.  The whole line, idle wait included, must arrive within
        IDLE_TIMEOUT_S, so a client that trickles bytes cannot hold the
        thread either.  `pending` keeps the bytes read past the line."""
        deadline = None
        while True:
            end = pending.find(b"\n", 0, MAX_LINE_BYTES) + 1
            if end:
                line = bytes(pending[:end])
                del pending[:end]
                return line
            if len(pending) >= MAX_LINE_BYTES:
                raise ProtocolError(
                    f"line longer than {MAX_LINE_BYTES} bytes", reason="line_too_long"
                )
            if deadline is None:
                deadline = time.monotonic() + IDLE_TIMEOUT_S
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0.0:
                    raise TimeoutError
                # the writes of the replies keep this timeout too
                self.connection.settimeout(remaining)
                chunk = self.connection.recv(65536)
            except TimeoutError:
                raise ProtocolError(
                    f"no line within {IDLE_TIMEOUT_S} s", reason="idle_timeout"
                ) from None
            if not chunk:
                line = bytes(pending)
                pending.clear()
                return line
            pending += chunk

    def handle(self) -> None:
        session = ServerSession(seed=self.server.session_seed())  # type: ignore[attr-defined]
        pending = bytearray()
        try:
            while True:
                try:
                    raw = self._read_line(pending)
                    if not raw:
                        return
                    if not raw.strip():
                        continue
                    message = Message.from_json(raw)
                    replies = session.handle(message)
                except ProtocolError as exc:
                    self.wfile.write(_ndjson_bytes([session.refuse(exc)]))
                    return
                if replies:
                    self.wfile.write(_ndjson_bytes(replies))
                if message.type == "session_close":
                    return
        except (ConnectionError, TimeoutError):
            return  # the client went away or stopped reading; its session ends


class TcpServer(socketserver.ThreadingTCPServer):
    """One server process; each connection gets an isolated session."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], seed: int = 0):
        super().__init__(address, _NdjsonHandler)
        self._seed = seed
        self._count = 0
        self._lock = threading.Lock()

    def session_seed(self) -> np.random.Generator:
        """Session k's stream, child k of SeedSequence(seed): never a client's default_rng(seed)."""
        with self._lock:
            index = self._count
            self._count += 1
        return np.random.default_rng(np.random.SeedSequence(self._seed, spawn_key=(index,)))

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def run_session_tcp(
    secrets: ClientSecrets,
    address: tuple[str, int],
    timeout: float = 30.0,
) -> tuple[Transcript, SessionResult]:
    """Drive one full session against a TCP server at `address`: each batch
    is one write, with Nagle off, and each reply one bounded line."""
    client = ClientSession(secrets)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with sock.makefile("rb") as reader:

            def receive() -> Message:
                line = reader.readline(MAX_LINE_BYTES + 1)
                if not line:
                    raise ProtocolError("server closed the connection")
                if len(line) > MAX_LINE_BYTES:
                    raise ProtocolError(
                        f"line longer than {MAX_LINE_BYTES} bytes", reason="line_too_long"
                    )
                return Message.from_json(line)

            transcript = _drive(client, lambda batch: sock.sendall(_ndjson_bytes(batch)), receive)
    return transcript, client.result()


