"""Quantumness-test statistics: exact distributions, zero structure, the
classical baseline, and the live test harness."""
import hashlib
import math

import numpy as np
import pytest

from blindsim.angles import Angle8

from blindsim.verification import (
    ALIGNED10,
    SWEEP8,
    QuantumnessSetting,
    classical_guess_risk,
    classical_stub_round,
    distribution_table,
    honest_protocol_round,
    run_quantumness_test,
)


def _distribution_by_projectors(n2: int, n3: int) -> np.ndarray:
    """Independent oracle: one 16x16 projector per outcome, no engine code."""
    from blindsim.clusters import BlindPhases, build_blind_cluster, path_graph

    psi = build_blind_cluster(path_graph(4), BlindPhases.family(n2, n3)).amplitudes
    z_vecs = {0: np.array([0, 1.0]), 1: np.array([1.0, 0])}  # minus_is_zero
    def equatorial(delta, bit):
        return np.array([1.0, (-1) ** bit * np.exp(1j * delta)]) / np.sqrt(2)

    probs = np.zeros(16)
    for outcome in range(16):
        b1, b2, b3, b4 = (outcome >> 3) & 1, (outcome >> 2) & 1, (outcome >> 1) & 1, outcome & 1
        vec = np.kron(
            np.kron(z_vecs[b1], equatorial(math.pi, b2)),
            np.kron(equatorial(-math.pi / 2, b3), equatorial(math.pi / 2, b4)),
        )
        probs[outcome] = abs(np.vdot(vec, psi)) ** 2
    return probs


def _distribution_by_branches(n2: int, n3: int, setting: QuantumnessSetting) -> np.ndarray:
    """Oracle: one enumerate_branches call per state, each branch's bits
    relabeled into the outcome index, as the table was once built."""
    from blindsim.clusters import BlindPhases, build_blind_cluster, path_graph
    from blindsim.mbqc import enumerate_branches

    psi = build_blind_cluster(path_graph(4), BlindPhases.family(n2, n3))
    probs = np.zeros(16)
    for branch in enumerate_branches(psi, setting.pattern(), setting.deltas()):
        bits = branch.outcomes
        b1 = bits[1] ^ (1 if setting.minus_is_zero else 0)
        probs[b1 * 8 + bits[2] * 4 + bits[3] * 2 + bits[4]] = branch.probability
    return probs


class TestTheoreticalDistribution:
    def test_distributions_normalized(self):
        for n2, n3 in ALIGNED10:
            probs = distribution_table([(n2, n3)])[0]
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_projector_oracle(self):
        for n2, n3 in [(2, 0), (2, 3), (6, 4), (5, 7)]:
            engine = distribution_table([(n2, n3)])[0]
            oracle = _distribution_by_projectors(n2, n3)
            np.testing.assert_allclose(engine, oracle, atol=1e-10)

    def test_every_outcome_impossible_somewhere(self):
        table = distribution_table(SWEEP8)
        assert (table < 1e-12).any(axis=0).all()

    def test_ten_state_table_shape(self):
        table = distribution_table(ALIGNED10)
        assert table.shape == (10, 16)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "setting",
        [
            QuantumnessSetting(),
            QuantumnessSetting(minus_is_zero=False),
            QuantumnessSetting(Angle8(1), Angle8(3), Angle8(5)),
            QuantumnessSetting(Angle8(0), Angle8(0), Angle8(0), minus_is_zero=False),
        ],
    )
    def test_table_is_the_per_state_branch_loop_bit_for_bit(self, setting):
        every = [(n2, n3) for n2 in range(8) for n3 in range(8)]
        for states in (SWEEP8, ALIGNED10, every):
            oracle = np.array([_distribution_by_branches(a, b, setting) for a, b in states])
            np.testing.assert_array_equal(distribution_table(states, setting), oracle)
        for n2, n3 in ((2, 3), (5, 7)):
            np.testing.assert_array_equal(
                distribution_table([(n2, n3)], setting)[0], _distribution_by_branches(n2, n3, setting)
            )

    def test_sign_convention_flag_relabels_qubit1(self):
        default = distribution_table([(2, 3)], QuantumnessSetting())[0]
        flipped = distribution_table([(2, 3)], QuantumnessSetting(minus_is_zero=False))[0]
        np.testing.assert_allclose(
            default.reshape(2, 8), flipped.reshape(2, 8)[::-1], atol=1e-12
        )


class TestClassicalRisk:
    def test_standard_test_setting_risk_is_one_eighth(self):
        risk = classical_guess_risk(states=SWEEP8)
        assert risk >= 0.125 - 1e-12
        assert risk == pytest.approx(0.125, abs=1e-12)

    def test_uniform_guesser_hit_rate(self):
        # any single outcome is "right" with probability 1/16 under uniform play
        assert 1.0 / 16.0 == pytest.approx(0.0625)

    def test_degenerate_single_state_family(self):
        # with only one state there is an outcome that is never impossible
        risk = classical_guess_risk(states=[(2, 0)])
        assert risk == 0.0


class TestHarness:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            run_quantumness_test(
                honest_protocol_round, 0, np.random.default_rng(0)
            )

    def test_honest_server_consistent(self):
        rng = np.random.default_rng(7)
        report = run_quantumness_test(honest_protocol_round, 4000, rng)
        assert report.verdict == "quantum-consistent"
        assert report.impossible_hits == 0
        assert report.tv_marginal < 3.0 / math.sqrt(4000)

    def test_classical_stub_rejected(self):
        rng = np.random.default_rng(11)
        report = run_quantumness_test(classical_stub_round, 1000, rng)
        assert report.verdict == "classical-suspect"
        assert report.impossible_hits > 0

    def test_stub_rejection_rate(self):
        rng = np.random.default_rng(13)
        rejected = sum(
            run_quantumness_test(classical_stub_round, 200, rng).verdict
            == "classical-suspect"
            for _ in range(25)
        )
        assert rejected == 25

    def test_seed_fixes_the_outcome_stream(self):
        # SHA-256 of the (n2, n3, outcome) bytes of 2,000 honest rounds at
        # seed 0, as the dense kron + CPhase server produced them
        digest = hashlib.sha256()

        def recorded(theta, setting, rng):
            outcome = honest_protocol_round(theta, setting, rng)
            digest.update(bytes([theta[0], theta[1], outcome]))
            return outcome

        run_quantumness_test(recorded, 2000, np.random.default_rng(0), states=SWEEP8)
        assert digest.hexdigest() == (
            "dc5243cac2c324cc3ef3414dcd5d08bb80e1354b9f1619b51c00b703535af76b"
        )

    def test_each_round_pattern_is_built_once(self, monkeypatch):
        # 400 rounds over the eight states of the sweep build and validate
        # one pattern per (theta, setting) pair
        from blindsim import verification
        from blindsim.mbqc import MeasurementPattern

        built = []

        class Counted(MeasurementPattern):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(verification, "MeasurementPattern", Counted)
        verification._round_client.cache_clear()
        try:
            rng = np.random.default_rng(5)
            run_quantumness_test(honest_protocol_round, 400, rng, states=SWEEP8)
        finally:
            verification._round_client.cache_clear()
        # the theory side's four-step setting patterns have no outputs
        assert len([p for p in built if p.outputs == (4,)]) == len(SWEEP8)

    def test_report_serialization(self):
        rng = np.random.default_rng(3)
        report = run_quantumness_test(honest_protocol_round, 200, rng)
        assert '"verdict"' in report.to_json()
        csv = report.to_csv()
        assert csv.startswith("n2,n3,outcome,p_theory,p_observed")
        assert len(csv.strip().splitlines()) == 1 + 8 * 16
