"""Command-line entry point.

    blindsim fig3c|fig3d|grover|deutsch|quantumness|tomography|blindness
    blindsim bulk
    blindsim serve  --listen ADDR [--seed N]
    blindsim client --connect ADDR [--config NAME] [--theta n2,n3] [--seed N]

Every experiment prints a JSON table (grover, deutsch and bulk print CSV with
--csv) and exits 0 when its acceptance checks pass, 2 otherwise.  The seed
falls back to the BLINDSIM_SEED environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .angles import Angle8
from .clusters import BlindPhases, ClusterConfig
from .experiments import (
    BLINDNESS_NOISE,
    ExperimentConfig,
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
from .protocol import ClientSecrets, TcpServer, run_session_tcp

PASS, FAIL = 0, 2
# largest certified duality gap `blindness` accepts for the noisy chi
NOISY_GAP_BITS = 1e-6


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _theta_pair(text: str) -> tuple[int, int]:
    """`n2,n3`: two hiding phases on the 0-7 grid of eighths of pi."""
    try:
        n2, n3 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n2,n3, got {text!r}") from None
    if not (0 <= n2 <= 7 and 0 <= n3 <= 7):
        raise argparse.ArgumentTypeError(f"n2 and n3 must lie in 0..7, got {text!r}")
    return n2, n3


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("BLINDSIM_SEED", "0"))


def _noise(args: argparse.Namespace) -> NoiseParams | None:
    if not getattr(args, "noisy", False):
        return None
    return NoiseParams(
        bell_visibility=args.bell_visibility,
        interference_visibility=args.interference_visibility,
        phase_drift_sigma=args.phase_drift_sigma,
    )


def _emit(args: argparse.Namespace, table: dict, csv_text: str | None = None) -> None:
    if getattr(args, "csv", False) and csv_text is not None:
        text = csv_text
    else:
        text = json.dumps(table, indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _close(value: float, target: float, tol: float = 1e-9) -> bool:
    return abs(value - target) <= tol


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="blindsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, noisy: bool = False, csv: bool = False) -> None:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="write the table to a file")
        if csv:  # only the commands that have a CSV form of their table
            p.add_argument("--csv", action="store_true")
        if noisy:  # only the commands whose runners apply the noise model
            p.add_argument("--noisy", action="store_true", help="add the noise model")
            p.add_argument("--bell-visibility", type=float, default=0.9)
            p.add_argument("--interference-visibility", type=float, default=0.85)
            p.add_argument("--phase-drift-sigma", type=float, default=0.1)

    for name in ("fig3c", "fig3d", "blindness"):
        common(sub.add_parser(name), noisy=True)
    common(sub.add_parser("bulk"), csv=True)
    p = sub.add_parser("grover")
    common(p, csv=True)
    p.add_argument("--tag", choices=sorted(GROVER_TAG_ANGLES), default="01")
    p = sub.add_parser("deutsch")
    common(p, csv=True)
    p.add_argument("--oracle", choices=("constant", "balanced"), default="constant")
    p = sub.add_parser("quantumness")
    common(p)
    p.add_argument("--rounds", type=int, default=10_000)
    p.add_argument("--stub-trials", type=int, default=0)
    p = sub.add_parser("tomography")
    common(p, noisy=True)
    p.add_argument("--mean-total", type=float, default=10_000.0)
    p.add_argument("--mc-trials", type=int, default=25)
    p = sub.add_parser("serve")
    p.add_argument("--listen", required=True, metavar="ADDR")
    p.add_argument("--seed", type=int, default=None)
    p = sub.add_parser("client")
    p.add_argument("--connect", required=True, metavar="ADDR")
    p.add_argument("--config", default="horseshoe",
                   choices=[c.value for c in ClusterConfig])
    p.add_argument("--theta", type=_theta_pair, default=None, metavar="n2,n3")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    seed = _seed(args)

    if args.command == "serve":
        server = TcpServer(_parse_address(args.listen), seed=seed)
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
        transcript, result = run_session_tcp(secrets, _parse_address(args.connect))
        table = {
            "config": config.value,
            "seed": seed,
            "outcomes": result.outcomes,
            "interpreted": result.interpreted,
            "transcript_messages": len(transcript.messages),
        }
        _emit(args, table)
        return PASS

    config = ExperimentConfig(args.command, seed=seed, noise=_noise(args))
    if args.command == "fig3c":
        table = run_fig3c(config)
        ok = _close(table["average_linear_entropy"], 1.0) and all(
            _close(r["fidelity_to_target"], 1.0) for r in table["rows"]
        )
        _emit(args, table)
    elif args.command == "fig3d":
        table = run_fig3d(config)
        ok = _close(table["average_linear_entropy"], 1.0) and all(
            _close(r["fidelity_to_target"], 1.0) for r in table["rows"]
        )
        _emit(args, table)
    elif args.command == "grover":
        table = run_grover(args.tag, config)
        ok = table["success_min"] >= 1.0 - 1e-9
        csv_text = rows_to_csv(table["rows"], ["n2", "n3", "success_probability"])
        _emit(args, table, csv_text)
    elif args.command == "deutsch":
        table = run_deutsch(args.oracle, config)
        ok = table["success_min"] >= 1.0 - 1e-9
        csv_text = rows_to_csv(table["rows"], ["n2", "n3", "success_probability"])
        _emit(args, table, csv_text)
    elif args.command == "quantumness":
        table = run_quantumness(config, rounds=args.rounds, stub_trials=args.stub_trials)
        ok = table["honest"]["verdict"] == "quantum-consistent"
        ok = ok and table["classical_guess_risk"] >= 0.125 - 1e-12
        if args.stub_trials:
            ok = ok and table["stub_rejection_rate"] >= 0.95
        _emit(args, table)
    elif args.command == "tomography":
        table = run_tomography(config, mean_total=args.mean_total, mc_trials=args.mc_trials)
        ok = (
            table["converged"]
            and abs(table["fidelity_to_ideal"] - table["true_fidelity"]) < 0.05
        )
        _emit(args, table)
    elif args.command == "blindness":
        if config.noise is None:
            config = replace(config, noise=BLINDNESS_NOISE)
        table = run_blindness(config)
        ok = (
            _close(table["ideal"]["chi_uniform_bits"], 0.0)
            and _close(table["ideal"]["chi_maximized_bits"], 0.0)
            and _close(table["r_broken_chi_uniform_bits"], 1.0, tol=1e-6)
            and table["noisy"]["converged"]
            and table["noisy"]["duality_gap_bits"] <= NOISY_GAP_BITS
        )
        _emit(args, table)
    elif args.command == "bulk":
        table = run_bulk_branches(config)
        ok = table["row_count"] > 0
        csv_text = rows_to_csv(
            table["rows"], ["setting", "n2", "n3", "outcome", "probability"]
        )
        _emit(args, table, csv_text)
    else:  # pragma: no cover
        parser.error(f"unhandled command {args.command}")
        return FAIL
    return PASS if ok else FAIL


if __name__ == "__main__":
    sys.exit(main())
