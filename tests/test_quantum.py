"""Quantum-core invariants and worked examples."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blindsim.angles import Angle8
from blindsim.quantum import (
    HADAMARD,
    HERMITIAN_TOL,
    PAULI_X,
    PAULI_Z,
    SQRT_X,
    SQRT_Z,
    DensityMatrix,
    PureState,
    basis_bits,
    equatorial_bra,
    fidelity_pure,
    linear_entropy,
    is_unitary,
    phase_gate,
    rx,
    rz,
    states_equal_up_to_phase,
    von_neumann_entropy,
)

PI = math.pi


def bell_pair() -> PureState:
    return PureState.from_amplitudes(np.array([1, 0, 0, 1]) / math.sqrt(2))


class TestAngle8:
    def test_wraps_mod_8(self):
        assert Angle8(9).eighths == 1
        assert Angle8(-2).eighths == 6

    def test_arithmetic_closed(self):
        assert (Angle8(3) + Angle8(7)).eighths == 2
        assert (-Angle8(3)).eighths == 5
        assert Angle8(1).add_pi().eighths == 5
        assert Angle8(1).add_pi(2).eighths == 1

    def test_radians_exact(self):
        assert Angle8(6).radians == pytest.approx(3 * PI / 2, abs=0)

    def test_clifford(self):
        assert Angle8(2).is_clifford and Angle8(4).is_clifford
        assert not Angle8(1).is_clifford

    @given(st.integers(), st.integers())
    def test_group_laws(self, a, b):
        assert (Angle8(a) + Angle8(b)) - Angle8(b) == Angle8(a)
        assert (Angle8(a) + (-Angle8(a))).eighths == 0


class TestGates:
    def test_constants_unitary(self):
        for gate in (HADAMARD, PAULI_X, PAULI_Z, SQRT_X, SQRT_Z, rz(0.7), rx(-1.2)):
            assert is_unitary(gate)

    def test_sqrt_gates_square(self):
        np.testing.assert_allclose(SQRT_Z @ SQRT_Z, PAULI_Z, atol=1e-12)
        np.testing.assert_allclose(SQRT_X @ SQRT_X, PAULI_X, atol=1e-12)

    def test_rz_phase_gate_agree_up_to_phase(self):
        a = rz(0.9)
        b = phase_gate(0.9)
        ratio = b[0, 0] / a[0, 0]
        np.testing.assert_allclose(ratio * a, b, atol=1e-12)


class TestApplySingle:
    def test_h_on_zero(self):
        out = PureState.computational(1).apply_single(1, HADAMARD)
        assert states_equal_up_to_phase(out, PureState.plus())

    def test_rz_on_plus_gives_ket_theta(self):
        theta = 5 * PI / 4
        out = PureState.plus().apply_single(1, rz(theta))
        assert states_equal_up_to_phase(out, PureState.ket_theta(theta))

    def test_bit_flip_on_second_qubit(self):
        ket01 = PureState.computational(2, 0b01)
        out = ket01.apply_single(2, PAULI_X)
        assert states_equal_up_to_phase(out, PureState.computational(2, 0b00))

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            PureState.plus().apply_single(2, HADAMARD)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            PureState.plus().apply_single(1, np.array([[1, 0], [0, 2.0]]))


class TestProjectDelta:
    def test_same_vector_probability_one(self):
        theta = 3 * PI / 4
        p, rest = PureState.ket_theta(theta).project_delta(1, theta, 0)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert rest.num_qubits == 0

    def test_orthogonal_probability_zero(self):
        theta = 3 * PI / 4
        p, rest = PureState.ket_theta(theta).project_delta(1, theta + PI, 0)
        assert p < 1e-12
        assert rest is None

    def test_family_first_qubit_half(self):
        from blindsim.clusters import linear_family_state

        psi = linear_family_state(0, 0)
        for bit in (0, 1):
            p, _ = psi.project_delta(1, 0.0, bit)
            assert p == pytest.approx(0.5, abs=1e-10)

    @given(
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_branch_probabilities_sum_to_one(self, n2, n3, nd):
        from blindsim.clusters import linear_family_state

        psi = linear_family_state(n2, n3)
        delta = nd * PI / 4
        total = sum(psi.project_delta(2, delta, bit)[0] for bit in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    @given(st.floats(0, 2 * PI), st.floats(0, 2 * PI))
    @settings(max_examples=40, deadline=None)
    def test_rz_shifts_measurement_angle(self, delta, gamma):
        rng = np.random.default_rng(11)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = PureState.from_amplitudes(vec / np.linalg.norm(vec))
        rotated = psi.apply_single(1, rz(gamma))
        p_after, _ = rotated.project_delta(1, delta, 0)
        p_before, _ = psi.project_delta(1, delta - gamma, 0)
        assert p_after == pytest.approx(p_before, abs=1e-10)


@st.composite
def projections(draw):
    """A random 1-4 qubit state and an angle on or off the pi/4 grid."""
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n + 1), max_size=2 ** (n + 1)))
    vec = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    grid = st.integers(0, 7).map(lambda e: e * PI / 4)
    delta = draw(st.one_of(grid, st.floats(-2 * PI, 2 * PI)))
    return PureState.from_amplitudes(vec / norm), delta


def _moveaxis_projection(psi, qubit, delta, bit):
    """The projection project_delta used to make: the qubit's axis moved to
    the front, then one tensordot with the bra; unnormalized."""
    tensor = np.moveaxis(psi.amplitudes.reshape([2] * psi.num_qubits), qubit - 1, 0)
    reduced = np.tensordot(equatorial_bra(delta, bit), tensor, axes=([0], [0])).reshape(-1)
    return float(np.linalg.norm(reduced) ** 2), reduced


class TestProjectionKernel:
    @given(projections())
    @settings(max_examples=200, deadline=None)
    def test_project_delta_matches_the_moveaxis_tensordot_oracle(self, drawn):
        psi, delta = drawn
        for qubit in range(1, psi.num_qubits + 1):
            for bit in (0, 1):
                prob, rest = psi.project_delta(qubit, delta, bit)
                ref_prob, ref_branch = _moveaxis_projection(psi, qubit, delta, bit)
                assert abs(prob - ref_prob) <= 1e-15
                if rest is None:
                    assert ref_prob < 1e-12 + 1e-15
                    continue
                assert ref_prob >= 1e-12 - 1e-15
                assert rest.num_qubits == psi.num_qubits - 1
                np.testing.assert_allclose(rest.amplitudes * math.sqrt(prob), ref_branch, rtol=0, atol=1e-15)


class TestFromAmplitudes:
    @pytest.mark.parametrize(
        "amplitudes",
        [[math.nan, 1.0], [1.0, complex(0.0, math.nan)], [math.inf, 0.0]],
    )
    def test_non_finite_rejected(self, amplitudes):
        with pytest.raises(ValueError):
            PureState.from_amplitudes(amplitudes)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState.from_amplitudes([1.0, 1.0])


class TestDensityMatrix:
    def test_from_pure_fidelity_one(self):
        psi = PureState.ket_theta(PI / 4)
        rho = DensityMatrix.from_pure(psi)
        assert fidelity_pure(rho, psi) == pytest.approx(1.0)

    def test_from_pure_is_the_checked_outer_product_without_the_check(self, monkeypatch):
        psi = PureState.from_amplitudes(np.array([0.6, 0.0, 0.48j, 0.64]))
        reference = DensityMatrix.from_matrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))

        def refuse(*args, **kwargs):
            raise AssertionError("from_pure re-validated its state")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rho = DensityMatrix.from_pure(psi)
        assert rho.matrix.tobytes() == reference.matrix.tobytes()
        assert rho.num_qubits == 2
        assert not rho.matrix.flags.writeable

    def test_maximally_mixed_fidelity(self):
        rho = DensityMatrix.maximally_mixed(2)
        psi = bell_pair()
        assert fidelity_pure(rho, psi) == pytest.approx(0.25)

    def test_mixture_linearity(self):
        # 0.679 |psi><psi| + 0.321 sigma with <psi|sigma|psi> = 0
        psi = PureState.computational(1, 0)
        sigma = DensityMatrix.from_pure(PureState.computational(1, 1))
        rho = DensityMatrix.mixture(
            [DensityMatrix.from_pure(psi), sigma], [0.679, 0.321]
        )
        assert fidelity_pure(rho, psi) == pytest.approx(0.679, abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(np.array([[math.nan, 0.0], [0.0, 0.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(np.array([[1.5, 0], [0, -0.5]]))


@st.composite
def near_hermitian(draw):
    """Square Hermitian complex matrices with up to two entries pushed to about
    np.allclose's tolerance |a - b| <= atol + 1e-5 |b| against the adjoint."""
    dim = draw(st.sampled_from([1, 2, 4]))
    parts = [draw(st.lists(st.floats(-2.0, 2.0), min_size=dim**2, max_size=dim**2)) for _ in range(2)]
    mat = draw(st.sampled_from([0.0, 1e-6, 1.0, 1e6])) * (np.array(parts[0]) + 1j * np.array(parts[1]))
    mat = mat.reshape(dim, dim)
    mat = (mat + mat.conj().T) / 2
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)))
        factor = draw(st.sampled_from([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0]))
        mat[i, j] += factor * (HERMITIAN_TOL + 1e-5 * abs(mat[j, i])) * draw(st.sampled_from([1, -1, 1j, -1j]))
    return mat


class TestHermitianCheck:
    """`from_matrix`'s fused Hermitian test is np.allclose against the adjoint."""

    @given(near_hermitian())
    @settings(max_examples=400, deadline=None)
    def test_accepts_exactly_what_allclose_accepts(self, mat):
        try:
            DensityMatrix.from_matrix(mat)
            hermitian = True
        except ValueError as err:  # the trace and eigenvalue checks come after
            hermitian = "not Hermitian" not in str(err)
        assert hermitian == np.allclose(mat, mat.conj().T, atol=HERMITIAN_TOL)

    @pytest.mark.parametrize(
        "entry", [math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.nan, 0.0)]
    )
    def test_refuses_a_non_finite_entry(self, entry):
        mat = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        mat[1, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix.from_matrix(mat)


class TestEntropies:
    def test_linear_entropy_pure_zero(self):
        rho = DensityMatrix.from_pure(PureState.ket_theta(1.1))
        assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_linear_entropy_mixed_one(self):
        assert linear_entropy(DensityMatrix.maximally_mixed(1)) == pytest.approx(1.0)
        assert linear_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(1.0)

    def test_von_neumann_values(self):
        assert von_neumann_entropy(
            DensityMatrix.from_pure(PureState.plus())
        ) == pytest.approx(0.0, abs=1e-9)
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(1)) == pytest.approx(1.0)
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(3)) == pytest.approx(3.0)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_entropy_monotone_under_mixing(self, weight):
        pure = DensityMatrix.from_pure(PureState.ket_theta(0.3))
        mixed = DensityMatrix.mixture(
            [pure, DensityMatrix.maximally_mixed(1)], [1 - weight, weight]
        )
        assert linear_entropy(mixed) <= 1.0 + 1e-12
        assert linear_entropy(mixed) >= linear_entropy(pure) - 1e-12


class TestBasisBits:
    def test_qubit_1_is_most_significant(self):
        bits = basis_bits(4)
        assert bits.shape == (16, 4)
        assert bits[0b1000].tolist() == [1, 0, 0, 0]
        assert bits[0b0011].tolist() == [0, 0, 1, 1]
        assert (bits @ (2 ** np.arange(3, -1, -1)) == np.arange(16)).all()

    def test_shared_and_read_only(self):
        assert basis_bits(3) is basis_bits(3)
        assert not basis_bits(3).flags.writeable
        assert basis_bits(0).shape == (1, 0)
