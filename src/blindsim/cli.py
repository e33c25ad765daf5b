"""Command-line entry point.

    blindsim fig3c|fig3d|grover|deutsch|bulk
    blindsim quantumness|tomography|blindness [--seed N]
    blindsim serve  --listen ADDR [--seed N]
    blindsim client --connect ADDR [--config NAME] [--theta n2,n3] [--seed N]

Every experiment prints a JSON table (grover, deutsch and bulk print CSV with
--csv), prints `check failed: KEY` on stderr for each acceptance check that
fails (KEY is the table key it reads) and exits 2 if any failed, else 0.  Bad
flag values are usage errors (exit 2).  Only the commands that draw at random
take --seed; for them BLINDSIM_SEED is the default seed, refused as --seed
would be.  The exact experiments draw nothing and refuse --seed.  A runtime
failure (a socket or file error, or a client's peer that is not a blindsim
server) prints `blindsim COMMAND: ERROR` on stderr and exits 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

import numpy as np

from .angles import Angle8
from .clusters import BlindPhases, ClusterConfig
from .experiments import (
    BLINDNESS_NOISE,
    GROVER_TAG_ANGLES,
    run_blindness,
    run_bulk_branches,
    run_deutsch,
    run_fig3c,
    run_fig3d,
    run_grover,
    run_quantumness,
    run_tomography,
    rows_to_csv,
)
from .noise import NoiseParams
from .protocol import ClientSecrets, ProtocolError, TcpServer, run_session_tcp
from .tomography import MAX_MEAN_TOTAL

PASS, ERROR, FAIL = 0, 1, 2
# largest certified duality gap `blindness` accepts for the noisy chi
NOISY_GAP_BITS = 1e-6


def _theta_pair(text: str) -> tuple[int, int]:
    """`n2,n3`: two hiding phases on the 0-7 grid of eighths of pi."""
    try:
        n2, n3 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n2,n3, got {text!r}") from None
    if not (0 <= n2 <= 7 and 0 <= n3 <= 7):
        raise argparse.ArgumentTypeError(f"n2 and n3 must lie in 0..7, got {text!r}")
    return n2, n3


def _flag(convert: Callable[[str], float], ok: Callable[[float], bool], wording: str):
    """An argparse type: the text `convert`ed, refused unless `ok` holds."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wording}, got {text!r}")
        return value

    return parse


_AT_LEAST_ONE = _flag(int, lambda n: n >= 1, "an integer >= 1")
_AT_LEAST_TWO = _flag(int, lambda n: n >= 2, "an integer >= 2")
_NONNEGATIVE = _flag(int, lambda n: n >= 0, "an integer >= 0")
_MEAN_TOTAL = _flag(
    float, lambda x: 0.0 < x <= MAX_MEAN_TOTAL, f"a finite number > 0 and <= {MAX_MEAN_TOTAL:g}"
)
_PORT = _flag(int, lambda n: 0 <= n <= 65535, "[HOST]:PORT with PORT in 0..65535")


def _address(text: str) -> tuple[str, int]:
    """`[HOST]:PORT`, with the host 127.0.0.1 when it is left out."""
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", _PORT(port))


# each noise flag's value under --noisy when it is not given
NOISE_DEFAULTS = {"bell_visibility": 0.9, "interference_visibility": 0.85, "phase_drift_sigma": 0.1}


def _seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """--seed, else BLINDSIM_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    try:
        return _NONNEGATIVE(os.environ.get("BLINDSIM_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"BLINDSIM_SEED: {exc}")


def _noise(args: argparse.Namespace) -> NoiseParams | None:
    given = {k: v for k in NOISE_DEFAULTS if (v := getattr(args, k, None)) is not None}
    if not getattr(args, "noisy", False):
        if given:
            raise ValueError(f"--{next(iter(given)).replace('_', '-')} needs --noisy")
        return None
    return NoiseParams(**{**NOISE_DEFAULTS, **given})


def _emit(args: argparse.Namespace, table: dict, csv_columns: list[str] | None = None) -> None:
    if getattr(args, "csv", False) and csv_columns is not None:
        text = rows_to_csv(table["rows"], csv_columns)
    else:
        text = json.dumps(table, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _close(value: float, target: float, tol: float = 1e-9) -> bool:
    return abs(value - target) <= tol


def _figure_checks(t: dict) -> dict[str, bool]:
    return {
        "average_linear_entropy": _close(t["average_linear_entropy"], 1.0),
        "rows.fidelity_to_target": all(_close(r["fidelity_to_target"], 1.0) for r in t["rows"]),
    }


def _success_checks(t: dict) -> dict[str, bool]:
    return {"success_min": t["success_min"] >= 1.0 - 1e-9}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="blindsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p: argparse.ArgumentParser) -> None:
        """--seed, only on the commands that draw at random."""
        p.add_argument("--seed", type=_NONNEGATIVE, default=None, help="default $BLINDSIM_SEED or 0")

    def common(p: argparse.ArgumentParser, noisy: bool = False, csv: bool = False) -> None:
        p.add_argument("--out", default=None, help="write the table to a file")
        if csv:  # only the commands that have a CSV form of their table
            p.add_argument("--csv", action="store_true")
        if noisy:  # only the commands whose runners apply the noise model
            p.add_argument("--noisy", action="store_true", help="add the noise model")
            for key, value in NOISE_DEFAULTS.items():
                p.add_argument("--" + key.replace("_", "-"), type=float, help=f"default {value}")

    for name in ("fig3c", "fig3d"):
        common(sub.add_parser(name), noisy=True)
    p = sub.add_parser("blindness")
    common(p, noisy=True)
    seeded(p)
    common(sub.add_parser("bulk"), csv=True)
    p = sub.add_parser("grover")
    common(p, csv=True)
    p.add_argument("--tag", choices=sorted(GROVER_TAG_ANGLES), default="01")
    p = sub.add_parser("deutsch")
    common(p, csv=True)
    p.add_argument("--oracle", choices=("constant", "balanced"), default="constant")
    p = sub.add_parser("quantumness")
    common(p)
    seeded(p)
    p.add_argument("--rounds", type=_AT_LEAST_ONE, default=10_000)
    p.add_argument("--stub-trials", type=_NONNEGATIVE, default=0)
    p = sub.add_parser("tomography")
    common(p, noisy=True)
    seeded(p)
    p.add_argument("--mean-total", type=_MEAN_TOTAL, default=10_000.0)
    p.add_argument("--mc-trials", type=_AT_LEAST_TWO, default=25)
    p = sub.add_parser("serve")
    p.add_argument("--listen", type=_address, required=True, metavar="ADDR")
    seeded(p)
    p = sub.add_parser("client")
    p.add_argument("--connect", type=_address, required=True, metavar="ADDR")
    p.add_argument("--config", default="horseshoe",
                   choices=[c.value for c in ClusterConfig])
    p.add_argument("--theta", type=_theta_pair, default=None, metavar="n2,n3")
    seeded(p)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    seed = _seed(args, parser) if "seed" in args else None
    # a socket or file error, or a peer that is not a blindsim server, is one
    # line; a ProtocolError anywhere but a client session is a fault and raises
    failures = (OSError, ProtocolError) if args.command == "client" else OSError
    try:
        return _run(args, parser, seed)
    except failures as exc:
        print(f"blindsim {args.command}: {exc}", file=sys.stderr)
        return ERROR


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser, seed: int | None) -> int:
    if args.command == "serve":
        server = TcpServer(args.listen, seed=seed)
        print(
            f"listening on {server.server_address[0]}:{server.server_address[1]}",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return PASS

    if args.command == "client":
        config = ClusterConfig(args.config)
        rng = np.random.default_rng(seed)
        phi = {q: Angle8(0) for q in config.measure_order}
        secrets = ClientSecrets.random(config, phi, rng)
        if args.theta is not None:
            secrets = ClientSecrets(config, BlindPhases.family(*args.theta), secrets.r, phi)
        transcript, result = run_session_tcp(secrets, args.connect)
        table = {
            "config": config.value,
            "seed": seed,
            "outcomes": result.outcomes,
            "interpreted": result.interpreted,
            "transcript_messages": len(transcript.messages),
        }
        _emit(args, table)
        return PASS

    try:
        noise = _noise(args)
    except ValueError as exc:  # a noise flag out of its range or without --noisy
        parser.error(str(exc))
    branch_columns = ["n2", "n3", "success_probability"]
    # command -> (runner call, CSV columns or None, checks: table -> {key read:
    # passed}).  Built here, so a runner patched on this module is the one run.
    commands = {
        "fig3c": (lambda: run_fig3c(noise=noise), None, _figure_checks),
        "fig3d": (lambda: run_fig3d(noise=noise), None, _figure_checks),
        "grover": (lambda: run_grover(args.tag), branch_columns, _success_checks),
        "deutsch": (
            lambda: run_deutsch(args.oracle),
            branch_columns,
            lambda t: {**_success_checks(t), "verdicts_correct": t["verdicts_correct"]},
        ),
        "quantumness": (
            lambda: run_quantumness(seed=seed, rounds=args.rounds, stub_trials=args.stub_trials),
            None,
            lambda t: {
                "honest.verdict": t["honest"]["verdict"] == "quantum-consistent",
                "classical_guess_risk": t["classical_guess_risk"] >= 0.125 - 1e-12,
                "stub_rejection_rate": not args.stub_trials or t["stub_rejection_rate"] >= 0.95,
            },
        ),
        "tomography": (
            lambda: run_tomography(
                seed=seed,
                noise=noise or NoiseParams(),
                mean_total=args.mean_total,
                mc_trials=args.mc_trials,
            ),
            None,
            lambda t: {
                "converged": t["converged"],
                "fidelity_to_ideal": abs(t["fidelity_to_ideal"] - t["true_fidelity"]) < 0.05,
            },
        ),
        "blindness": (
            lambda: run_blindness(seed=seed, noise=noise or BLINDNESS_NOISE),
            None,
            lambda t: {
                "ideal.chi_uniform_bits": _close(t["ideal"]["chi_uniform_bits"], 0.0),
                "ideal.chi_maximized_bits": _close(t["ideal"]["chi_maximized_bits"], 0.0),
                "r_broken_chi_uniform_bits": _close(t["r_broken_chi_uniform_bits"], 1.0, 1e-6),
                "noisy.converged": t["noisy"]["converged"],
                "noisy.duality_gap_bits": t["noisy"]["duality_gap_bits"] <= NOISY_GAP_BITS,
            },
        ),
        "bulk": (
            run_bulk_branches,
            ["setting", "n2", "n3", "outcome", "probability"],
            lambda t: {"row_count": t["row_count"] > 0},
        ),
    }
    run, columns, checks = commands[args.command]
    table = run()
    _emit(args, table, columns)
    failed = [name for name, passed in checks(table).items() if not passed]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return FAIL if failed else PASS


if __name__ == "__main__":
    sys.exit(main())
