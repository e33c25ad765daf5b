"""Start `blindsim serve` with the benchmark's wrappers installed.

    python3 -u bench/serve_traced.py OUT.json serve --listen 127.0.0.1:0 --seed N

Installs the same wrappers as the traced client, then calls
blindsim.cli.main with the remaining arguments.  Each accepted connection
is one operation.  On SIGINT the server stops and OUT.json receives the
span totals, the session count and the process CPU time (from rusage)
spent from the first session on.
"""
from __future__ import annotations

import resource
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import blindsim.cli as cli
    from blindsim.protocol import TcpServer

    sessions = {"count": 0, "cpu_start": None}
    session_seed = TcpServer.session_seed

    def counted_session_seed(self):
        if sessions["cpu_start"] is None:
            sessions["cpu_start"] = _cpu_s()
            tracer.phase = "timed"
        tracer.op = sessions["count"]
        sessions["count"] += 1
        return session_seed(self)

    TcpServer.session_seed = counted_session_seed
    try:
        return cli.main(argv)
    finally:
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                thread.join(timeout=5.0)
        start = sessions["cpu_start"]
        tracer.dump(
            out_path,
            {"sessions": sessions["count"], "cpu_s": 0.0 if start is None else _cpu_s() - start},
        )


if __name__ == "__main__":
    sys.exit(main())
