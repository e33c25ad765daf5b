"""blindsim benchmark: run one workload, timed or traced, and print one JSON line.

    python3 bench/run.py --workload sweep|rounds|wire|solvers --seed N --seconds S --trace 0|1

With --trace 0 the last line of standard output holds the end-to-end
metrics (setup_s, ops_per_s, op_ms_p50, peak_rss_mib); with --trace 1 it
holds the per-layer metrics of a separate traced run.  Every output is
checked apart from the program; a missed check sets "correct" to false.
Details of each run (tail percentile, rounds, per-kind medians) go to
bench/out/.  See bench/README.md.
"""
from __future__ import annotations

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "rounds", "wire", "solvers"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready', tear down (used to time set-up)")
    return p.parse_args(argv)


def child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def tail_percentile(samples: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if samples * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def probe_setup(args) -> float:
    """Wall time from starting a fresh process to its first timed operation.

    Not scaled to the reference host: set-up is process start and imports,
    which the reference kernel does not track (scaling raised the
    probe-to-probe spread from 4-11% to 16%).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        line = proc.stdout.readline().decode().strip() if ready else ""
        elapsed = time.perf_counter() - t0
        if line != "ready":
            raise RuntimeError(f"set-up probe said {line!r}")
        if proc.wait(timeout=60) != 0:
            raise RuntimeError("set-up probe failed")
        return elapsed
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class Tally:
    """Operation times scaled to the reference host, folded round by round
    into fixed memory: log-spaced histograms (bins 0.05% wide, medians
    interpolated inside the bin) overall and per kind, and sums."""

    RATIO = 1.0005
    LOW_S = 1e-6
    BINS = 40_000  # up to LOW_S * RATIO**BINS, about 480 s

    def __init__(self) -> None:
        self.kind_hist: dict[str, np.ndarray] = {}
        self.hist = np.zeros(self.BINS, dtype=np.int64)
        self.ops = 0
        self.scaled_s = self.wall_s = self.cpu_s = 0.0
        self.raw_hist = np.zeros(self.BINS, dtype=np.int64)

    def _bin(self, seconds: float) -> int:
        i = int(math.log(max(seconds, self.LOW_S) / self.LOW_S) / math.log(self.RATIO))
        return min(i, self.BINS - 1)

    def fold(self, clock, speed) -> None:
        kinds, starts, ends, walls, cpus = clock.take()
        for kind, t0, t1, wall, cpu in zip(kinds, starts, ends, walls, cpus):
            value = hostspeed.scaled(wall, cpu, speed.factor(t0, t1))
            name = clock.kind_names[kind]
            if name not in self.kind_hist:
                self.kind_hist[name] = np.zeros(self.BINS, dtype=np.int64)
            i = self._bin(value)
            self.hist[i] += 1
            self.kind_hist[name][i] += 1
            self.raw_hist[self._bin(wall)] += 1
            self.ops += 1
            self.scaled_s += value
            self.wall_s += wall
            self.cpu_s += cpu

    def quantile(self, q: float, hist: np.ndarray | None = None) -> float:
        hist = self.hist if hist is None else hist
        cum = np.cumsum(hist)
        target = q * cum[-1]
        i = int(np.searchsorted(cum, target))
        below = cum[i - 1] if i else 0
        lo = self.LOW_S * self.RATIO ** i
        return lo + (target - below) / hist[i] * lo * (self.RATIO - 1.0)


def run_workload(args, workload, tracer, speed):
    """Set-up, then whole rounds until --seconds of timed work have passed.

    Returns the tally, the clock, the rounds, the check failures, the
    failed items, the raw (wall, thread CPU) of the timed part, the
    server's peak RSS and the traced server's totals.
    """
    import checks
    import workloads as W

    env = child_env()
    servers: list = []
    server_parts: list[dict] = []
    traced_wire = tracer is not None and args.workload == "wire"

    def start_server(trace_path=None):
        server = W.Server(args.seed, env, ROOT, trace_path)
        servers.append(server)
        workload.address[:] = [server.address]

    def stop_servers():
        while servers:
            servers.pop().stop()

    def round_start(index):
        # traced wire: a fresh server per round, so its counts repeat exactly
        if traced_wire:
            start_server(OUT / f"server-trace-{args.seed}-{index}.json")

    def round_end(index):
        if tracer is not None:
            tracer.keep_spans = False
        if traced_wire:
            stop_servers()
            path = OUT / f"server-trace-{args.seed}-{index}.json"
            part = json.loads(path.read_text())
            path.unlink()
            part.pop("spans", None)
            server_parts.append(part)

    try:
        if args.workload == "wire":
            start_server()
        for item in workload.warmups:
            item.run(W.Clock(tracer))
        if args.setup_probe:
            print("ready", flush=True)
            return None
        if tracer is not None:
            tracer.phase = "timed"
        if traced_wire:
            stop_servers()

        clock = W.Clock(tracer, speed)
        tally = Tally()
        failures: list[str] = []
        failed = rounds = 0
        speed.start()
        t0, c0 = time.perf_counter(), time.thread_time()
        while True:
            with clock.paused():
                round_start(rounds)
            for item in workload.items:
                clock.kind = item.kind
                try:
                    result = item.run(clock)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                with clock.paused():
                    try:
                        item.check(result)
                    except checks.CheckFailed as exc:
                        failures.append(str(exc))
                    if tracer is not None and item.session:
                        _trace_session(tracer, result[0], clock.walls[-1], clock.cpus[-1])
            with clock.paused():
                round_end(rounds)
                if speed.enabled:
                    speed.sample_now()
                    tally.fold(clock, speed)
            rounds += 1
            wall = time.perf_counter() - t0 - clock.paused_s - speed.stolen_wall
            if wall >= args.seconds:
                break
        cpu = time.thread_time() - c0 - clock.paused_cpu_s - speed.stolen_cpu
        speed.stop()
        server_rss = max((s.peak_rss_mib() for s in servers), default=0.0)
        return tally, clock, rounds, failures, failed, (wall, cpu), server_rss, server_parts
    finally:
        speed.stop()
        stop_servers()


def _trace_session(tracer, transcript, wall, cpu) -> None:
    tracer.add("protocol.sessions", 1, "timed")
    tracer.add("protocol.messages", len(transcript.messages), "timed")
    tracer.add("protocol.wire_bytes", sum(
        len(m.canonical_json().encode()) + 1 for m in transcript.messages), "timed")
    tracer.add("protocol.wait_ms", 1e3 * max(wall - cpu, 0.0), "timed")


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "blindsim" / "__init__.py").is_file():
        print(f"bench: no blindsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads as W

    OUT.mkdir(exist_ok=True)
    workload = W.WORKLOADS[args.workload](args.seed)
    speed = hostspeed.HostSpeed(enabled=tracer is None)
    outcome = run_workload(args, workload, tracer, speed)
    if outcome is None:
        return 0
    tally, clock, rounds, failures, failed, (wall, cpu), server_rss, server_parts = outcome

    ops = clock.count
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops": ops, "timed_wall_s": wall,
        "timed_cpu_s": cpu, "raw_ops_per_s": ops / wall,
        "check_failures": failures[:20], "check_failure_count": len(failures),
    }
    if tracer is None:
        metrics, extra = end_to_end(args, tally, wall, cpu, server_rss, speed)
        detail.update(extra)
    else:
        import tracing

        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        values = tracing.layer_metrics(tracer, ops, server_parts)
        metrics = {name: (value, units[name]) for name, value in values.items()}
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", {"detail": detail})
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    for message in failures[:5]:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": ops + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(args, tally, wall, cpu, server_rss, speed):
    """The four end-to-end metrics; operation times scaled to the reference host."""
    gap = hostspeed.scaled(wall - tally.wall_s, cpu - tally.cpu_s, speed.median_factor())
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "ops_per_s": (tally.ops / (tally.scaled_s + gap), "1/s"),
        "op_ms_p50": (1e3 * tally.quantile(0.5), "ms"),
        "peak_rss_mib": (max(own_rss, server_rss), "MiB"),
    }
    tail = tail_percentile(tally.ops)
    extra = {
        "raw_op_ms_p50": 1e3 * tally.quantile(0.5, tally.raw_hist),
        "setup_s_samples": probes,
        "host_factor_median": speed.median_factor(),
        "host_kernel_samples": len(speed.kernel_s),
        "median_ms_by_kind": {
            k: 1e3 * tally.quantile(0.5, h) for k, h in tally.kind_hist.items()},
        "tail": None if tail is None else {
            "percentile": tail, "ms": 1e3 * tally.quantile(tail / 100.0),
            "samples": tally.ops},
    }
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
