import math
from unittest import mock

import numpy as np
import pytest
from sympy import Rational
from sympy.physics.quantum.cg import CG as SympyCG
from sympy.physics.quantum.spin import Rotation as SympyRotation

import spinaxes.axes
from spinaxes.angular import (
    HalfInt,
    _wrap_azimuth,
    clebsch_gordan,
    couple,
    euler_rotation_cartesian,
    tensor_operator,
    unit_vector,
    unit_vector_components,
    wigner_D,
    wigner_D_matrix,
    wigner_d_small,
)
from spinaxes.axes import RankDecomposition, coupled_axes_tensor, scalar_r
from spinaxes.errors import DomainError
from spinaxes.states import Spinor
from spinaxes.tensors import TensorComponents


class TestHalfInt:
    def test_coerce(self):
        assert HalfInt.coerce(2).twice == 4
        assert HalfInt.coerce(1.5).twice == 3
        assert HalfInt.coerce("3/2").twice == 3
        assert HalfInt.coerce("2").twice == 4
        assert HalfInt.coerce(HalfInt(5)) == HalfInt(5)

    def test_coerce_rejects_non_half_integers(self):
        with pytest.raises(DomainError):
            HalfInt.coerce(0.3)
        with pytest.raises(DomainError):
            HalfInt.coerce("2/3")
        for value in ("abc", "x/2", float("nan"), float("inf"), "1e400"):
            with pytest.raises(DomainError):
                HalfInt.coerce(value)

    def test_str_and_value(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"
        assert float(HalfInt(3)) == 1.5
        assert not HalfInt(3).is_integer
        assert float(HalfInt(1)) == 0.5

    def test_order(self):
        assert HalfInt(1) < HalfInt(2)


class TestClebschGordan:
    def test_stretched(self):
        assert clebsch_gordan(1, 1, 2, 1, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_singlet_component(self):
        # equals (-1)^(1-q)/sqrt(3) at q = 1
        assert clebsch_gordan(1, 1, 0, 1, -1, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_zero_projections(self):
        assert clebsch_gordan(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_selection_rules_return_zero(self):
        assert clebsch_gordan(1, 1, 3, 0, 0, 0) == 0.0  # triangle
        assert clebsch_gordan(1, 1, 2, 1, 0, 0) == 0.0  # m mismatch
        assert clebsch_gordan(1, 1, 1, 0, 0, 0) == 0.0  # parity zero of a valid combination

    def test_invalid_half_integer_structure(self):
        with pytest.raises(DomainError):
            clebsch_gordan(0.5, 0.5, 0.5, 0.5, -0.5, 0.0)  # j1+j2+j3 not an integer
        with pytest.raises(DomainError):
            clebsch_gordan(1, 1, 2, 0.5, 0.5, 1)  # m not integer-spaced from j
        with pytest.raises(DomainError):
            clebsch_gordan(-1, 1, 1, 0, 0, 0)  # negative j

    def test_against_sympy(self):
        # independent oracle over every (j, m) combination up to j = 2
        twice = range(0, 5)
        for tj1 in twice:
            for tj2 in twice:
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2):
                    for tm1 in range(-tj1, tj1 + 2, 2):
                        for tm2 in range(-tj2, tj2 + 2, 2):
                            tm3 = tm1 + tm2
                            if abs(tm3) > tj3:
                                continue
                            expected = float(
                                SympyCG(
                                    Rational(tj1, 2), Rational(tm1, 2),
                                    Rational(tj2, 2), Rational(tm2, 2),
                                    Rational(tj3, 2), Rational(tm3, 2),
                                ).doit()
                            )
                            got = clebsch_gordan(
                                HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                                HalfInt(tm1), HalfInt(tm2), HalfInt(tm3),
                            )
                            assert got == pytest.approx(expected, abs=1e-14), (tj1, tj2, tj3, tm1, tm2, tm3)

    def test_orthogonality(self):
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                j3_range = list(range(abs(tj1 - tj2), tj1 + tj2 + 2, 2))
                for tj3 in j3_range:
                    for tj3p in j3_range:
                        for tm3 in range(-min(tj3, tj3p), min(tj3, tj3p) + 2, 2):
                            total = sum(
                                clebsch_gordan(HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                                               HalfInt(tm1), HalfInt(tm3 - tm1), HalfInt(tm3))
                                * clebsch_gordan(HalfInt(tj1), HalfInt(tj2), HalfInt(tj3p),
                                                 HalfInt(tm1), HalfInt(tm3 - tm1), HalfInt(tm3))
                                for tm1 in range(-tj1, tj1 + 2, 2)
                                if abs(tm3 - tm1) <= tj2
                            )
                            expected = 1.0 if tj3 == tj3p else 0.0
                            assert abs(total - expected) < 1e-12


class TestWignerD:
    def test_small_d_identity(self):
        for j in (0.5, 1, 1.5, 2, 3):
            jj = HalfInt.coerce(j)
            for tm in range(-jj.twice, jj.twice + 2, 2):
                assert wigner_d_small(jj, HalfInt(tm), HalfInt(tm), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_small_d_examples(self):
        assert wigner_d_small(1, 0, 0, math.pi / 3) == pytest.approx(0.5, abs=1e-15)
        assert wigner_d_small(1, 1, 1, math.pi) == pytest.approx(0.0, abs=1e-15)
        # d^1_{1,1} = (1 + cos theta)/2
        theta = 0.8
        assert wigner_d_small(1, 1, 1, theta) == pytest.approx((1 + math.cos(theta)) / 2, abs=1e-15)

    def test_small_d_against_sympy(self):
        rng = np.random.default_rng(5)
        for tj in (1, 2, 3, 4):
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            for tmp in range(-tj, tj + 2, 2):
                for tm in range(-tj, tj + 2, 2):
                    expected = complex(
                        SympyRotation.d(Rational(tj, 2), Rational(tmp, 2), Rational(tm, 2), theta).doit()
                    ).real
                    got = wigner_d_small(HalfInt(tj), HalfInt(tmp), HalfInt(tm), theta)
                    assert got == pytest.approx(expected, abs=1e-13)

    def test_small_d_unitarity(self):
        rng = np.random.default_rng(2)
        for tj in (1, 2, 3, 4, 6, 24, 32):
            theta = float(rng.uniform(0, math.pi))
            d = wigner_D_matrix(HalfInt(tj), 0.0, theta, 0.0).real
            assert np.max(np.abs(d @ d.T - np.eye(tj + 1))) < 1e-12

    def test_matrix_matches_scalar_elements(self):
        rng = np.random.default_rng(7)
        for tj in range(33):
            phi, psi = rng.uniform(0, 2 * math.pi, size=2)
            theta = float(rng.uniform(0, math.pi))
            proj = [HalfInt(t) for t in range(tj, -tj - 2, -2)]
            expected = np.array([[wigner_D(HalfInt(tj), mp, m, phi, theta, psi) for m in proj] for mp in proj])
            got = wigner_D_matrix(HalfInt(tj), phi, theta, psi)
            assert got.tobytes() == expected.tobytes()

    def test_small_d_is_the_matrix_element_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for tj in range(33):
            for theta in [0.0, math.pi / 2, math.pi] + rng.uniform(0, math.pi, size=3).tolist():
                matrix = wigner_D_matrix(HalfInt(tj), 0.0, theta, 0.0)
                assert not matrix.imag.any()
                proj = [HalfInt(t) for t in range(tj, -tj - 2, -2)]
                small = np.array([[wigner_d_small(HalfInt(tj), mp, m, theta) for m in proj] for mp in proj])
                assert small.tobytes() == matrix.real.tobytes()

    def test_matrix_zero_angles_is_exact_identity(self):
        for tj in range(33):
            assert np.array_equal(wigner_D_matrix(HalfInt(tj), 0.0, 0.0, 0.0), np.eye(tj + 1))

    def test_matrix_rejects_negative_j(self):
        with pytest.raises(DomainError):
            wigner_D_matrix(-1, 0.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            wigner_D_matrix(HalfInt(-1), 0.0, 0.5, 0.0)

    @pytest.mark.parametrize("j, shown", [(-1, "-1"), (HalfInt(-1), "-1/2")], ids=["j=-1", "j=-1/2"])
    def test_negative_j_raises_one_error_everywhere(self, j, shown):
        calls = [
            lambda: wigner_D_matrix(j, 0.0, 0.5, 0.0),
            lambda: wigner_d_small(j, 0, 0, 0.5),
            lambda: wigner_D(j, 0, 0, 0.0, 0.5, 0.0),
            lambda: tensor_operator(j, 0, 0),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=f"^angular momentum must be non-negative, got j={shown}$"):
                call()

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_euler_angles_raise_naming_the_angle(self, slot, bad):
        angles = [0.3, 1.1, -2.0]
        angles[slot] = bad
        calls = [lambda: wigner_D_matrix(1, *angles), lambda: wigner_D_matrix(HalfInt(3), *angles),
                 lambda: wigner_D(1, 1, 0, *angles), lambda: euler_rotation_cartesian(*angles)]
        if slot == 1:
            calls.append(lambda: wigner_d_small(1, 1, 0, bad))
        for call in calls:
            with pytest.raises(DomainError, match=f"Euler angle {('phi', 'theta', 'psi')[slot]}={bad} is not finite"):
                call()

    def test_capital_d_identity_and_zero_row(self):
        assert wigner_D(2, 1, 1, 0, 0, 0) == pytest.approx(1.0)
        assert wigner_D(2, 1, 0, 0, 0, 0) == pytest.approx(0.0)
        # q' = q = 0 kills both phase factors
        assert wigner_D(1, 0, 0, 0.3, 1.1, -2.0) == pytest.approx(math.cos(1.1), abs=1e-15)

    def test_group_homomorphism(self):
        # D(R1) @ D(R2) must equal D(R1 R2), with the composed Euler angles
        # extracted from the product of the Cartesian rotation matrices
        rng = np.random.default_rng(3)
        for _ in range(5):
            a1 = rng.uniform(0.2, 2.8, size=3)
            a2 = rng.uniform(0.2, 2.8, size=3)
            m = euler_rotation_cartesian(*a1) @ euler_rotation_cartesian(*a2)
            phi = math.atan2(m[1, 2], m[0, 2])
            theta = math.acos(min(1.0, max(-1.0, m[2, 2])))
            psi = math.atan2(m[2, 1], -m[2, 0])
            assert np.max(np.abs(euler_rotation_cartesian(phi, theta, psi) - m)) < 1e-12
            for k in (1, 2):
                lhs = wigner_D_matrix(k, *a1) @ wigner_D_matrix(k, *a2)
                rhs = wigner_D_matrix(k, phi, theta, psi)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestTensorOperator:
    def test_identity(self):
        assert np.allclose(tensor_operator(1, 0, 0), np.eye(3))
        assert np.allclose(tensor_operator(1.5, 0, 0), np.eye(4))

    def test_rank1_projection0(self):
        expected = math.sqrt(1.5) * np.diag([1.0, 0.0, -1.0])
        assert np.max(np.abs(tensor_operator(1, 1, 0) - expected)) < 1e-15

    def test_pauli_at_spin_half(self):
        assert np.allclose(tensor_operator(0.5, 1, 0), np.diag([1.0, -1.0]))
        plus = tensor_operator(0.5, 1, 1)
        assert plus[0, 1] == pytest.approx(-math.sqrt(2))

    def test_rank2_norm(self):
        t22 = tensor_operator(1, 2, 2)
        assert np.trace(t22.conj().T @ t22).real == pytest.approx(3.0, abs=1e-13)

    def test_orthogonality_and_conjugation(self):
        for tj in (1, 2, 3, 4, 5, 6):  # j = 1/2 ... 3
            j = HalfInt(tj)
            dim = tj + 1
            ops = {
                (k, q): tensor_operator(j, k, q)
                for k in range(tj + 1)
                for q in range(-k, k + 1)
            }
            for (k1, q1), a in ops.items():
                for (k2, q2), b in ops.items():
                    expected = dim if (k1, q1) == (k2, q2) else 0.0
                    value = np.einsum("ij,ji->", a.conj().T, b)
                    assert abs(value - expected) < 1e-12
            for (k, q), a in ops.items():
                assert np.max(np.abs(a.conj().T - (-1) ** q * ops[(k, -q)])) < 1e-12

    def test_completeness(self):
        # expanding a random Hermitian matrix in the tau basis and resumming reproduces it
        rng = np.random.default_rng(6)
        for tj in (1, 2, 3):  # j <= 3/2
            dim = tj + 1
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = g + g.conj().T
            acc = np.zeros((dim, dim), dtype=complex)
            for k in range(tj + 1):
                for q in range(-k, k + 1):
                    op = tensor_operator(HalfInt(tj), k, q)
                    acc += np.einsum("ij,ji->", h, op) * op.conj().T / dim
            assert np.max(np.abs(acc - h)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tensor_operator(1, 3, 0)  # k > 2j
        with pytest.raises(DomainError):
            tensor_operator(1, 2, 3)  # |q| > k

    def test_read_only(self):
        op = tensor_operator(1, 1, 1)
        with pytest.raises(ValueError):
            op[0, 0] = 5.0


class TestCouple:
    def test_z_with_z_rank0(self):
        z = unit_vector_components(0.0, 0.0)
        assert couple(z, z, 0)[0] == pytest.approx(-1 / math.sqrt(3), abs=1e-15)

    def test_opening_angle_rank0(self):
        # axes at (theta, 0) and (theta, pi) subtend 2 theta
        for theta in np.linspace(0.0, math.pi, 17):
            a = unit_vector_components(theta, 0.0)
            b = unit_vector_components(theta, math.pi)
            value = couple(a, b, 0)[0]
            assert value.real == pytest.approx(-math.cos(2 * theta) / math.sqrt(3), abs=1e-14)
            assert abs(value.imag) < 1e-15

    def test_stretched_z_component(self):
        z = unit_vector_components(0.0, 0.0)
        out = couple(z, z, 2)
        assert out[2].real == pytest.approx(math.sqrt(2 / 3), abs=1e-15)  # q = 0 slot

    def test_rank0_equals_dot_product(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ta, pa = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            tb, pb = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            dot = float(np.dot(unit_vector(ta, pa), unit_vector(tb, pb)))
            value = couple(unit_vector_components(ta, pa), unit_vector_components(tb, pb), 0)[0]
            assert value.real == pytest.approx(-dot / math.sqrt(3), abs=1e-14)

    def test_triangle_violation(self):
        z = unit_vector_components(0.0, 0.0)
        with pytest.raises(DomainError):
            couple(z, z, 3)


def scalar_wrap(phi: float) -> float:
    """The azimuth wrap rule on one float, written out: the reference for _wrap_azimuth."""
    phi = phi % (2.0 * math.pi)
    return 0.0 if 2.0 * math.pi - phi < 1e-12 else phi


def coupled_input(call):
    """The (theta, phi) of the one axis that call hands to spinaxes.axes._coupled, where axes are coupled."""
    seen, real = [], spinaxes.axes._coupled
    with mock.patch.object(spinaxes.axes, "_coupled", lambda angles, ks: seen.append(angles) or real(angles, ks)):
        call()
    return tuple(seen[0][0, 0].tolist())


def rank_angles(theta, phi):
    return tuple(RankDecomposition(np.array([[theta, phi]]), 1.0, False, 0.0).angles[0].tolist())


def spinor_angles(theta, phi):
    spinor = Spinor(theta, phi)
    return spinor.theta, spinor.phi


# each maps one outside (theta, phi) to the (theta, phi) it holds, through the rule of spinaxes.angular._polar_angles
HELD_ANGLES = {
    "RankDecomposition": rank_angles,
    "coupled_axes_tensor": lambda theta, phi: coupled_input(lambda: coupled_axes_tensor([(theta, phi)])),
    "scalar_r": lambda theta, phi: coupled_input(lambda: scalar_r(TensorComponents(1), 1, [(theta, phi)])),
    "Spinor": spinor_angles,
}


class TestPolarAngles:
    two_pi = 2.0 * math.pi
    edges = [0.0, -0.0, math.pi, two_pi, -two_pi, 3 * two_pi, np.nextafter(two_pi, 0.0), two_pi - 1e-12,
             two_pi - 2e-12, two_pi - 0.9e-12, -1e-13, -1e-12, -2e-12, -5e-324, np.nextafter(0.0, -1.0), 1e6, -1e6,
             1e-300, -1e-300, 1e300, -1e300, math.pi * 7, -math.pi * 7]

    def test_wrap_of_floats_and_arrays_has_the_scalar_rule_bits(self):
        rng = np.random.default_rng(71)
        values = self.edges + rng.uniform(-50.0, 50.0, size=2000).tolist() + \
            (np.arange(-400, 400) * self.two_pi + rng.choice([-1e-12, -1e-13, 0.0, 1e-13], size=800)).tolist()
        expected = np.array([scalar_wrap(float(v)) for v in values])
        floats = [_wrap_azimuth(float(v)) for v in values]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == expected.tobytes()
        assert _wrap_azimuth(np.array(values)).tobytes() == expected.tobytes()
        assert _wrap_azimuth(np.array(values)[::2]).tobytes() == expected[::2].tobytes()  # a strided view
        assert math.copysign(1.0, _wrap_azimuth(-0.0)) == 1.0 and _wrap_azimuth(-1e-13) == 0.0
        assert 0.0 <= expected.min() and expected.max() < self.two_pi

    @pytest.mark.parametrize("entry, slack", [("RankDecomposition", 1e-9), ("coupled_axes_tensor", 1e-9),
                                              ("scalar_r", 1e-9), ("Spinor", 1e-12)])
    def test_theta_slack_edges(self, entry, slack):
        held = HELD_ANGLES[entry]
        assert held(-slack, 1.0)[0] == 0.0
        assert held(math.pi + slack, 1.0)[0] == math.pi
        for theta in (-2 * slack, math.pi + 2 * slack):
            with pytest.raises(DomainError, match=f"^theta={theta} outside \\[0, pi\\]$"):
                held(theta, 1.0)
        assert math.copysign(1.0, held(-0.0, 1.0)[0]) == -1.0  # a clamp by max(theta, 0.0) keeps -0.0
        assert (held(0.3, -1e-13)[1], held(0.3, 1e6)[1]) == (0.0, scalar_wrap(1e6))

    @pytest.mark.parametrize("entry", HELD_ANGLES)
    def test_non_finite_angle_messages(self, entry):
        held = HELD_ANGLES[entry]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"^theta={bad} outside \\[0, pi\\]$"):
                held(bad, 1.0)
            with pytest.raises(DomainError, match=f"^azimuth phi={bad} is not finite$"):
                held(0.3, bad)
        with pytest.raises(DomainError, match="^theta=nan outside"):  # theta is checked first
            held(math.nan, math.nan)
