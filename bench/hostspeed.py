"""Host-speed calibration: a fixed reference kernel, sampled during the timed part.

The shared 2-vCPU host this benchmark was built on runs the same work up to
2x faster or slower in plateaus of 10-20 s, and a run of 20 s cannot average
that out.  The reference kernel below is fixed work of the same character
as blindsim's (interpreter work, small complex arrays, one small LAPACK
call per step) and imports nothing from blindsim, so no change to the
program can move it.  Its time tracks the host's drift.

The kernel is sampled every SAMPLE_EVERY_S of the timed part, also inside
long operations.  An operation's time is scaled to the reference host: its
CPU part, measured as thread CPU time, is multiplied by
NOMINAL_KERNEL_S / (kernel time over that operation); the rest of the
operation, time spent waiting on sockets, timers or another process, is
reported as measured.
"""
from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# median kernel time on the reference host (2 vCPU KVM, Python 3.11.7,
# numpy 2.4.6, OpenBLAS one thread); it only fixes the scale of the
# reported figures
NOMINAL_KERNEL_S = 4.0e-3
SAMPLE_EVERY_S = 0.2
REPEATS = 3

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_MATRIX = _A + _A.conj().T
_VECTOR = np.exp(1j * np.arange(16) * 0.3) / 4.0


def kernel() -> float:
    acc = 0.0
    for i in range(40):
        values = np.linalg.eigvalsh(_MATRIX)
        pair = np.kron(_VECTOR[:4], _VECTOR[4:8]).reshape(4, 4)
        row = np.tensordot(_VECTOR[8:12], pair, axes=([0], [0]))
        acc += float(np.abs(row).sum()) + float(values[i % 16])
        acc += len(json.dumps({"seq": i, "body": [acc, i, "x" * (i % 7)]}))
    return acc


def sample() -> float:
    """Median time of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Kernel samples in time order, taken every SAMPLE_EVERY_S of the timed
    part, also in the middle of a long operation: a SIGALRM interval timer
    runs the kernel in the main thread between two bytecodes.  The time the
    samples take is counted in `stolen_wall`/`stolen_cpu`, which the clock
    takes out of every interval it measures.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled  # the traced run reports no scaled times
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._running = False

    def sample_now(self) -> None:
        if self.enabled:
            self.at.append(time.perf_counter())
            self.kernel_s.append(sample())

    def _on_alarm(self, *_) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self.sample_now()
        self.stolen_wall += time.perf_counter() - t0
        self.stolen_cpu += time.thread_time() - c0

    def start(self) -> None:
        if self.enabled:
            self.sample_now()
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
            self.sample_now()

    @contextmanager
    def held(self):
        """No samples inside: checks and bookkeeping run undisturbed."""
        if not self.enabled:
            yield
            return
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, t_start: float, t_end: float) -> float:
        """NOMINAL / kernel time: the mean of the samples taken inside the
        interval, or the kernel interpolated at its middle if none was."""
        lo, hi = bisect.bisect_left(self.at, t_start), bisect.bisect_right(self.at, t_end)
        if hi > lo:
            k = statistics.fmean(self.kernel_s[lo:hi])
        else:
            k = float(np.interp(0.5 * (t_start + t_end), self.at, self.kernel_s))
        return NOMINAL_KERNEL_S / k

    def median_factor(self) -> float:
        return NOMINAL_KERNEL_S / statistics.median(self.kernel_s)


def scaled(wall: float, cpu: float, factor: float) -> float:
    """Wall time at the reference host speed: waits as measured, CPU scaled."""
    cpu = min(max(cpu, 0.0), wall)
    return (wall - cpu) + cpu * factor
