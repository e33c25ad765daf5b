"""Spans and counters around blindsim's public functions, for the traced run.

`install` replaces each target below with a wrapper that records a span:
name, start, end, parent span and the operation it belongs to.  A span's
self time is its duration minus the time its child spans cover.  The
wrappers also count calls to numpy.linalg.eigh, numpy.linalg.eigvalsh and
numpy.kron, per enclosing layer.  Totals are kept per phase: "setup",
"timed" (the operations whose per-op figures are reported) and "check"
(the harness's own checks, never reported).  Full span records are kept
only while `keep_spans` is set, so memory stays bounded on long runs.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the layer is the part before the first dot
TARGETS = (
    ("quantum", "PureState.from_amplitudes", "quantum.from_amplitudes"),
    ("quantum", "PureState.project_delta", "quantum.project_delta"),
    ("quantum", "DensityMatrix.from_matrix", "quantum.density_from_matrix"),
    ("clusters", "build_blind_cluster", "clusters.build_blind_cluster"),
    ("mbqc", "enumerate_adaptive", "mbqc.enumerate_adaptive"),
    ("mbqc", "enumerate_branches", "mbqc.enumerate_branches"),
    ("mbqc", "pattern_for", "mbqc.pattern_for"),
    ("mbqc", "correct_output", "mbqc.correct_output"),
    ("protocol", "run_session", "protocol.run_session"),
    ("protocol", "run_session_tcp", "protocol.run_session_tcp"),
    ("protocol", "ServerSession.handle", "protocol.server_handle"),
    ("protocol", "ClientSession.on_message", "protocol.client_on_message"),
    ("protocol", "Message.canonical_json", "protocol.json_encode"),
    ("protocol", "Message.from_json", "protocol.json_decode"),
    ("verification", "honest_protocol_round", "verification.round"),
    ("verification", "run_quantumness_test", "verification.tally"),
    ("verification", "distribution_table", "verification.distribution_table"),
    ("blindness", "maximize_chi_over_priors", "blindness.maximize_chi"),
    ("tomography", "mle_reconstruct", "tomography.mle_reconstruct"),
    ("tomography", "setting_projectors", "tomography.setting_projectors"),
    ("tomography", "measurement_rank", "tomography.measurement_rank"),
    ("noise", "apply_noise", "noise.apply_noise"),
    ("experiments", "run_grover", "experiments.run_grover"),
    ("experiments", "run_deutsch", "experiments.run_deutsch"),
)
NUMPY_COUNTED = ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np, "kron"))


def _branch_counts(tracer: "Tracer", records) -> None:
    tracer.add("mbqc.branches", len(records))
    tracer.add("mbqc.live_branches", sum(1 for r in records if not r.impossible))


# values read off a result, as counters
POST = {
    "mbqc.enumerate_adaptive": _branch_counts,
    "mbqc.enumerate_branches": _branch_counts,
    "blindness.maximize_chi": lambda t, rep: t.add("blindness.maximize_chi.iterations", rep.iterations),
    "tomography.mle_reconstruct": lambda t, res: t.add("tomography.mle.iterations", res.iterations),
}


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.op: int | None = None
        self.keep_spans = True
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        # totals[phase][span name] = [calls, self seconds]
        self.totals: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = defaultdict(int)
        return stack

    def add(self, name: str, value: float, phase: str | None = None) -> None:
        with self._lock:
            self.counters[phase or self.phase][name] += value

    def count_numpy(self, fn: str) -> None:
        self._stack()
        layers = [layer for layer, d in self._local.depth.items() if d > 0]
        with self._lock:
            counters = self.counters[self.phase]
            counters[f"numpy.{fn}"] += 1
            for layer in layers:
                counters[f"{layer}.{fn}"] += 1

    def call(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack()
        depth = self._local.depth
        parent = stack[-1][2] if stack else None
        frame = [time.perf_counter(), 0.0, next(self._ids)]
        stack.append(frame)
        depth[layer] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            depth[layer] -= 1
            duration = end - frame[0]
            if stack:
                stack[-1][1] += duration
            phase = self.phase
            with self._lock:
                total = self.totals[phase][name]
                total[0] += 1
                total[1] += duration - frame[1]
                if self.keep_spans and phase != "check":
                    self.spans.append(
                        (frame[2], name, frame[0] - self.t0, end - self.t0, parent, self.op, phase)
                    )
        post = POST.get(name)
        if post is not None:
            post(self, result)
        return result

    def dump(self, path, extra: dict | None = None) -> None:
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op", "phase"],
            "spans": self.spans,
            "totals": {p: {k: list(v) for k, v in t.items()} for p, t in self.totals.items()},
            "counters": {p: dict(c) for p, c in self.counters.items()},
        }
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, name: str, fn):
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)

    return wrapper


def _counting(tracer: Tracer, fname: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count_numpy(fname)
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target; rebind each module-level alias of a function."""
    import blindsim.cli  # noqa: F401  (loads every submodule, experiments too)

    modules = [m for n, m in sys.modules.items() if n == "blindsim" or n.startswith("blindsim.")]
    for module_name, attr, name in TARGETS:
        module = sys.modules[f"blindsim.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(tracer, name, raw.__func__)))
            else:
                setattr(cls, meth, _wrap(tracer, name, raw))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    for owner, fname in NUMPY_COUNTED:
        setattr(owner, fname, _counting(tracer, fname, getattr(owner, fname)))


# Per-layer metrics of the traced run: (name, unit, better).  Counts and
# times are per timed operation and times are self times, except that the
# protocol.* session figures are per session and noise.apply_noise.self_ms
# is the self time of one set-up, where the noise model runs.
PER_LAYER = (
    ("quantum.from_amplitudes.calls", "count", "lower"),
    ("quantum.from_amplitudes.self_ms", "ms", "lower"),
    ("quantum.project_delta.calls", "count", "lower"),
    ("quantum.project_delta.self_ms", "ms", "lower"),
    ("quantum.density_from_matrix.calls", "count", "lower"),
    ("quantum.eigvalsh.calls", "count", "lower"),
    ("clusters.build_blind_cluster.calls", "count", "lower"),
    ("clusters.build_blind_cluster.self_ms", "ms", "lower"),
    ("mbqc.enumerate_adaptive.self_ms", "ms", "lower"),
    ("mbqc.branches", "count", "lower"),
    ("mbqc.live_branch_ratio", "ratio", "higher"),
    ("mbqc.pattern_for.calls", "count", "lower"),
    ("mbqc.pattern_for.self_ms", "ms", "lower"),
    ("mbqc.correct_output.self_ms", "ms", "lower"),
    ("protocol.server_handle.self_ms", "ms", "lower"),
    ("protocol.client_on_message.self_ms", "ms", "lower"),
    ("protocol.json_encode.self_ms", "ms", "lower"),
    ("protocol.json_decode.self_ms", "ms", "lower"),
    ("protocol.wire_bytes", "B", "lower"),
    ("protocol.messages", "count", "lower"),
    ("protocol.wait_ms", "ms", "lower"),
    ("protocol.server_cpu_ms", "ms", "lower"),
    ("verification.round.self_ms", "ms", "lower"),
    ("verification.tally.self_ms", "ms", "lower"),
    ("verification.distribution_table.self_ms", "ms", "lower"),
    ("blindness.maximize_chi.self_ms", "ms", "lower"),
    ("blindness.maximize_chi.iterations", "count", "lower"),
    ("blindness.eigh.calls", "count", "lower"),
    ("tomography.mle_reconstruct.self_ms", "ms", "lower"),
    ("tomography.mle.iterations", "count", "lower"),
    ("tomography.setting_projectors.calls", "count", "lower"),
    ("tomography.setting_projectors.self_ms", "ms", "lower"),
    ("tomography.kron.calls", "count", "lower"),
    ("tomography.measurement_rank.self_ms", "ms", "lower"),
    ("noise.apply_noise.self_ms", "ms", "lower"),
    ("experiments.run_grover.self_ms", "ms", "lower"),
    ("experiments.run_deutsch.self_ms", "ms", "lower"),
)
# per-op counters that are not span totals
COUNTER_METRICS = {
    "quantum.eigvalsh.calls": "numpy.eigvalsh",
    "blindness.eigh.calls": "blindness.eigh",
    "tomography.kron.calls": "tomography.kron",
    "mbqc.branches": "mbqc.branches",
    "blindness.maximize_chi.iterations": "blindness.maximize_chi.iterations",
    "tomography.mle.iterations": "tomography.mle.iterations",
}
PER_SESSION = ("protocol.wire_bytes", "protocol.messages", "protocol.wait_ms")


def layer_metrics(tracer: Tracer, ops: int, server_parts: list[dict]) -> dict[str, float]:
    """Per-layer figures of the timed phase, client and server merged."""
    totals = defaultdict(lambda: [0, 0.0])
    counters = defaultdict(float)
    for source_totals, source_counters in [
        (tracer.totals["timed"], tracer.counters["timed"]),
        *[(p["totals"].get("timed", {}), p["counters"].get("timed", {})) for p in server_parts],
    ]:
        for name, (calls, self_s) in source_totals.items():
            totals[name][0] += calls
            totals[name][1] += self_s
        for name, value in source_counters.items():
            counters[name] += value
    sessions = counters["protocol.sessions"]
    out = {}
    for name, _, _ in PER_LAYER:
        if name in COUNTER_METRICS:
            value = counters[COUNTER_METRICS[name]] / ops
        elif name in PER_SESSION:
            value = counters[name] / sessions if sessions else 0.0
        elif name == "protocol.server_cpu_ms":
            cpu = sum(p["cpu_s"] for p in server_parts)
            value = 1e3 * cpu / sessions if server_parts and sessions else 0.0
        elif name == "mbqc.live_branch_ratio":
            branches = counters["mbqc.branches"]
            value = counters["mbqc.live_branches"] / branches if branches else 0.0
        elif name == "noise.apply_noise.self_ms":
            value = 1e3 * tracer.totals["setup"]["noise.apply_noise"][1]
        elif name.endswith(".calls"):
            value = totals[name[: -len(".calls")]][0] / ops
        elif name.endswith(".self_ms"):
            value = 1e3 * totals[name[: -len(".self_ms")]][1] / ops
        else:
            raise KeyError(name)
        out[name] = value
    return out
