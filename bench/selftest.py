"""Self-test of the benchmark harness.

    python3 bench/selftest.py            # everything, about three minutes
    python3 bench/selftest.py --quick    # skip the traced and bare-directory runs

Shows that the independent references agree with a second derivation,
that every output check rejects a deliberately wrong output, that two
traced runs of different lengths give identical count metrics, that
BENCHMARK.json names exactly the metrics the harness prints, and that the
benchmark fails without the program's sources.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from blindsim import DensityMatrix, blindness, clusters, mbqc, noise, protocol  # noqa: E402

PATH_EDGES = [(1, 2), (2, 3), (3, 4)]
TRIANGLE_EDGES = [(1, 2), (2, 3), (1, 3), (3, 4)]
COUNT_UNITS = ("count", "B", "ratio")


def rejects(fn, *args) -> None:
    try:
        fn(*args)
    except C.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a wrong output")


def first(workload: W.Workload, kind: str) -> W.Item:
    return next(i for i in workload.items if i.kind == kind)


def test_circuit_reference_matches_graph_projection():
    """Gate algebra against the outcome-0 branch of the plain graph state."""
    def projected(config, phi, prep):
        if config == "linear_right":
            return C.graph_projection_output(PATH_EDGES, {1: prep, 2: phi[2], 3: phi[3]}, (4,))
        if config == "linear_left":
            return C.graph_projection_output(PATH_EDGES, {4: prep, 3: phi[3], 2: phi[2]}, (1,))
        if config == "horseshoe":
            out = C.graph_projection_output(PATH_EDGES, {2: phi[2], 3: phi[3]}, (1, 4))
            return np.kron(C.H, C.H) @ out
        if config == "rotated_horseshoe":
            return C.graph_projection_output(PATH_EDGES, {1: phi[1], 4: phi[4]}, (2, 3))
        return C.graph_projection_output(PATH_EDGES, {2: phi[2], 3: phi[3], 1: phi[1]}, (4,))

    for config in W.CONFIGS[:-1]:
        preps = ["Z", *range(8)] if config.startswith("linear") else ["Z"]
        for a, b, c in itertools.product(range(8), repeat=3):
            phi = {1: a, 2: b, 3: c, 4: (a + 3 * c) % 8}
            for prep in preps:
                C.check_same_up_to_phase(
                    projected(config, phi, prep), C.circuit_output(config, phi, prep),
                    f"{config} {phi} {prep}",
                )


def test_grover_readout_decodes_tag():
    """Triangle graph, qubits 2 and 3 read 0: the readout of 1 and 4 is
    deterministic and decodes to the tag whose angles were used."""
    from blindsim import experiments

    for tag, (phi2, phi3) in experiments.GROVER_TAG_ANGLES.items():
        read = experiments.GROVER_READOUT.eighths
        psi = C.graph_projection_output(
            TRIANGLE_EDGES, {2: phi2.eighths, 3: phi3.eighths}, (1, 4)
        ).reshape(2, 2)
        probs = {
            (s1, s4): abs(np.einsum("a,b,ab->", C.equatorial_bra(C.rad(read), s1),
                                    C.equatorial_bra(C.rad(read), s4), psi)) ** 2
            for s1 in (0, 1) for s4 in (0, 1)
        }
        (s1, s4), p = max(probs.items(), key=lambda kv: kv[1])
        assert abs(p - 1.0) < 1e-9, (tag, probs)
        assert C.grover_decode({1: s1, 4: s4}) == tag


def test_sweep_checks_reject_wrong_outputs():
    workload = W.sweep(7)
    block = first(workload, "block")
    block.check(block.run(W.Clock()))
    # blocks computed for one phi miss the reference of a perturbed phi
    records = W._feed_forward_block("horseshoe", W._angles({2: 1, 3: 5}), "Z", [{}] * 64)
    branches = [(b.probability, b.impossible, b.corrected_state.amplitudes) for b in records[9]]
    reference = C.circuit_output("horseshoe", {2: 1, 3: 5})
    C.check_branches(branches, reference, "horseshoe")
    rejects(C.check_branches, branches, C.circuit_output("horseshoe", {2: 2, 3: 5}), "phi")
    rejects(C.check_branches, [(0.9 * p, i, o) for p, i, o in branches], reference, "mass")
    # staircase with phi_1 = pi/2, phi_2 = pi/4: live outputs disagree
    cfg = clusters.ClusterConfig.STAIRCASE
    phases = clusters.BlindPhases.family(0, 0)
    pattern = mbqc.pattern_for(cfg, W._angles({1: 2, 2: 1, 3: 0}))
    records = mbqc.enumerate_adaptive(mbqc.cluster_state_for(cfg, phases), pattern, phases, {})
    branches = [(b.probability, b.impossible,
                 None if b.corrected_state is None else b.corrected_state.amplitudes)
                for b in records]
    rejects(C.check_branches, branches, C.circuit_output("staircase", {1: 2, 2: 1, 3: 0}), "s")

    grover = first(workload, "grover")
    table = grover.run(W.Clock())
    grover.check(table)
    flipped = dict(table, tag="10" if table["tag"] != "10" else "01")
    rejects(grover.check, flipped)
    rows = [dict(r) for r in table["rows"]]
    rows[5]["success_probability"] = 0.5
    rejects(grover.check, dict(table, rows=rows))

    deutsch = first(workload, "deutsch")
    table = deutsch.run(W.Clock())
    deutsch.check(table)
    rows = [dict(r) for r in table["rows"]]
    rows[0]["tomography_verdict"] = "balanced" if table["oracle"] == "constant" else "constant"
    rejects(deutsch.check, dict(table, rows=rows))


def test_rounds_checks_reject_wrong_outputs():
    workload = W.rounds(7)
    quantumness = first(workload, "quantumness")
    outcomes = quantumness.run(W.Clock())
    quantumness.check(outcomes)
    theory = np.array([
        C.quantumness_distribution(clusters.linear_family_state(*s).amplitudes) for s in W.SWEEP8
    ])
    # an impossible outcome
    theta = (2, 2)
    impossible = int(np.flatnonzero(theory[W.SWEEP8.index(theta)] < C.IMPOSSIBLE)[0])
    rejects(quantumness.check, outcomes + [(theta, impossible)])
    # a server that guesses uniformly, restricted to possible outcomes
    rng = np.random.default_rng(0)
    guessed = []
    for theta, _ in outcomes:
        live = np.flatnonzero(theory[W.SWEEP8.index(theta)] >= C.IMPOSSIBLE)
        guessed.append((theta, int(rng.choice(live))))
    rejects(quantumness.check, guessed)

    for item in [i for i in workload.items if i.kind == "session"][:12]:
        transcript, result = item.run(W.Clock())
        item.check((transcript, result))
    # the server view must not carry secrets or unknown fields
    msgs = [(m.type, dict(m.body)) for m in transcript.server_view()]
    C.check_server_view(msgs)
    rejects(C.check_server_view, msgs + [("measure_instruction", {"qubit_id": 2, "phi_eighths": 3})])
    rejects(C.check_server_view, msgs + [("session_init", {"config": "triangle", "theta": 1})])
    # a triangle session whose tag is flipped, an output against a perturbed phi
    for item in workload.items:
        if item.kind != "session":
            continue
        transcript, result = item.run(W.Clock())
        if result.output_state is None:
            wrong = {1: result.interpreted[1] ^ 1, 4: result.interpreted[4]}
            tag = C.grover_decode(result.interpreted)
            rejects(C.check_session, {"tag": tag}, None, wrong)
            break
    secrets = protocol.ClientSecrets(
        clusters.ClusterConfig.HORSESHOE, clusters.BlindPhases.family(3, 5),
        {2: 1, 3: 0}, W._angles({2: 1, 3: 6}),
    )
    _, result = protocol.run_session(secrets, 4)
    amps = result.output_state.amplitudes
    C.check_session({"reference": C.circuit_output("horseshoe", {2: 1, 3: 6}), "what": "ok"},
                    amps, result.interpreted)
    rejects(C.check_session,
            {"reference": C.circuit_output("horseshoe", {2: 2, 3: 6}), "what": "perturbed phi"},
            amps, result.interpreted)


def test_solver_checks_reject_wrong_outputs():
    ideal = W._fold(DensityMatrix.from_pure(s) for s in W._sweep_states())
    rep = blindness.maximize_chi_over_priors(ideal)
    C.check_chi_ideal(rep.chi_maximized, rep.chi_uniform)
    rejects(C.check_chi_ideal, 1e-6, rep.chi_uniform)

    workload = W.solvers(7)
    chis = [i for i in workload.items if i.kind == "chi"]
    # find the noisy solve: its check needs an optimal prior
    noisy_item = next(
        i for i in chis if abs(i.run(W.Clock()).chi_maximized) > 1e-6
    )
    rep = noisy_item.run(W.Clock())
    noisy_item.check(rep)
    states = _noisy_states()
    uniform = np.full(8, 1 / 8)
    rejects(C.check_chi_optimum, states, uniform, rep.chi_maximized)
    nudged = np.array(rep.argmax_prior) * np.linspace(0.9, 1.1, 8)
    rejects(C.check_chi_optimum, states, nudged / nudged.sum(), rep.chi_maximized)

    mle = first(workload, "mle")
    res = mle.run(W.Clock())
    mle.check(res)

    class Mixed:
        matrix = np.eye(16, dtype=complex) / 16

    rejects(mle.check, type("R", (), {"rho_hat": Mixed})())
    broken = res.rho_hat.matrix.copy()
    broken[0, 1] += 1e-3
    rejects(mle.check, type("R", (), {"rho_hat": type("M", (), {"matrix": broken})})())


def _noisy_states():
    drift = np.random.default_rng(W.DRIFT_SEED)
    params = noise.NoiseParams(phase_drift_sigma=0.15)
    folded = W._fold(noise.apply_noise(s, params, drift) for s in W._sweep_states())
    return [s.matrix for s in folded.states]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mib"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_traced_counts_repeat():
    """Two traced runs of different lengths give identical count metrics."""
    for workload in W.WORKLOADS:
        counts = []
        for seconds in ("1", "4"):
            proc = run_bench("--workload", workload, "--seed", "5", "--seconds", seconds,
                             "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"], proc.stderr
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in COUNT_UNITS})
        assert counts[0] == counts[1], (workload, counts)


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    quick = "--quick" in sys.argv
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    slow = {"test_traced_counts_repeat", "test_fails_without_the_program"}
    failed = 0
    for name, fn in tests:
        if quick and name in slow:
            continue
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
