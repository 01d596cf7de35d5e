import math
import re

import numpy as np
import pytest

from spinaxes.angular import HalfInt
from spinaxes.errors import DomainError
from spinaxes.states import (
    PPT_TOL,
    ChannelParams,
    Spinor,
    _channel_stack,
    _channel_array,
    _ppt_stack,
    channel_mixed,
    ppt_separable,
    pure_two_spinor,
    random_density_matrix,
    symmetrize_pure,
)
from spinaxes.tensors import to_tensor


def two_beam_closed_form(p, theta):
    """Closed-form triplet projection of two beams with |p1| = |p2| = p."""
    denom = 3 + p * p * math.cos(2 * theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([
        [(1 + p * c) ** 2, 0.0, -p * p * s * s],
        [0.0, 1 - p * p, 0.0],
        [-p * p * s * s, 0.0, (1 - p * c) ** 2],
    ]) / denom


class TestSymmetrizePure:
    def test_two_aligned_spinors(self):
        rho = symmetrize_pure([Spinor(0.0, 0.0), Spinor(0.0, 0.0)])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15

    def test_two_antipodal_spinors(self):
        # symmetric part of up-down is the m = 0 Dicke state
        rho = symmetrize_pure([Spinor(0.0, 0.0), Spinor(math.pi, 0.0)])
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15

    def test_matches_bisector_frame_closed_form(self):
        for theta in np.linspace(0.0, math.pi, 25):
            built = symmetrize_pure([Spinor(theta, 0.0), Spinor(theta, math.pi)])
            assert np.max(np.abs(built.matrix - pure_two_spinor(2 * theta).matrix)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(40)
        spinors = [Spinor(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)) for _ in range(4)]
        base = symmetrize_pure(spinors).matrix
        order = rng.permutation(4)
        shuffled = symmetrize_pure([spinors[i] for i in order]).matrix
        assert np.max(np.abs(base - shuffled)) < 1e-12

    def test_single_spinor(self):
        theta, phi = 1.1, 0.7
        rho = symmetrize_pure([Spinor(theta, phi)])
        amps = Spinor(theta, phi).amplitudes
        assert np.max(np.abs(rho.matrix - np.outer(amps, amps.conj()))) < 1e-15

    def test_identical_spinors_stay_pure_coherent(self):
        # a symmetric product state projects onto itself
        rho = symmetrize_pure([Spinor(0.8, 0.3)] * 4)
        assert rho.j == HalfInt(4)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert rho.matrix[0, 0].real == pytest.approx(math.cos(0.4) ** 8, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            symmetrize_pure([])

    def test_spinor_rejects_non_finite_azimuth(self):
        for phi in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="not finite"):
                Spinor(0.3, phi)


class TestPureTwoSpinor:
    def test_endpoints(self):
        assert np.allclose(pure_two_spinor(0.0).matrix, np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(pure_two_spinor(2 * math.pi).matrix, np.diag([0.0, 0.0, 1.0]), atol=1e-30)

    def test_bell_like_at_right_angle(self):
        expected = np.array([[0.5, 0, -0.5], [0, 0, 0], [-0.5, 0, 0.5]])
        assert np.max(np.abs(pure_two_spinor(math.pi).matrix - expected)) < 1e-15

    def test_valid_pure_states_on_grid(self):
        for two_theta in np.linspace(0.0, 2 * math.pi, 41):
            rho = pure_two_spinor(two_theta)
            assert rho.purity() == pytest.approx(1.0, abs=1e-12)
            assert rho.min_eigenvalue() > -1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            pure_two_spinor(-0.5)
        with pytest.raises(DomainError):
            pure_two_spinor(7.0)


class TestChannelMixed:
    def test_matches_closed_form_on_grid(self):
        for p in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, math.pi, 19):
                built = channel_mixed(ChannelParams.equal(p, 2 * theta))
                assert np.max(np.abs(built.matrix - two_beam_closed_form(p, theta))) < 1e-13, (p, theta)

    def test_full_polarization_reduces_to_pure(self):
        for theta in np.linspace(0.0, math.pi, 100):
            mixed = channel_mixed(ChannelParams.equal(1.0, 2 * theta))
            pure = pure_two_spinor(2 * theta)
            assert np.max(np.abs(mixed.matrix - pure.matrix)) < 1e-12

    def test_unpolarized_projects_to_maximally_mixed(self):
        rho = channel_mixed(ChannelParams.equal(0.0, 1.3))
        assert np.max(np.abs(rho.matrix - np.eye(3) / 3)) < 1e-15

    def test_aligned_half_polarized(self):
        rho = channel_mixed(ChannelParams.equal(0.5, 0.0))
        assert np.max(np.abs(rho.matrix - np.diag([2.25, 0.75, 0.25]) / 3.25)) < 1e-15

    def test_states_are_physical(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            params = ChannelParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            rho = channel_mixed(params)
            assert rho.min_eigenvalue() > -1e-12

    def test_frame_properties_unequal_polarizations(self):
        # the construction frame must kill t[1,+-1] and keep t[2,2] = t[2,-2]
        # even for p1 != p2; for p1 = p2 the rank-2 q = +-1 components vanish too
        rng = np.random.default_rng(42)
        for _ in range(25):
            p1, p2 = rng.uniform(0, 1, size=2)
            two_theta = rng.uniform(0, 2 * math.pi)
            t = to_tensor(channel_mixed(ChannelParams(p1, p2, two_theta)))
            assert abs(t[(1, 1)]) < 1e-13
            assert abs(t[(1, -1)]) < 1e-13
            assert abs(t[(2, 2)] - t[(2, -2)]) < 1e-13
        for _ in range(10):
            p = rng.uniform(0, 1)
            t = to_tensor(channel_mixed(ChannelParams.equal(p, rng.uniform(0, 2 * math.pi))))
            assert abs(t[(2, 1)]) < 1e-13

    def test_degenerate_antiparallel_fallback(self):
        # equal magnitudes at opening angle pi: frame z-axis is the bisector
        rho = channel_mixed(ChannelParams.equal(0.7, math.pi))
        assert np.max(np.abs(rho.matrix - two_beam_closed_form(0.7, math.pi / 2))) < 1e-14

    def test_rejects_bad_polarization(self):
        with pytest.raises(DomainError):
            ChannelParams(1.2, 0.5, 1.0)
        with pytest.raises(DomainError):
            ChannelParams(0.5, -0.1, 1.0)


class TestPptSeparable:
    def test_aligned_pure_state_is_separable(self):
        result = ppt_separable(pure_two_spinor(0.0))
        assert result.separable
        assert result.min_eigenvalue >= -1e-12

    def test_bell_like_state_is_entangled(self):
        result = ppt_separable(pure_two_spinor(math.pi))
        assert not result.separable
        assert result.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_unpolarized_projection_baseline(self):
        # hand-computed partial-transpose spectrum of the projected identity:
        # {1/2, 1/6, 1/6, 1/6}
        result = ppt_separable(channel_mixed(ChannelParams.equal(0.0, 1.0)))
        assert result.separable
        assert result.min_eigenvalue == pytest.approx(1 / 6, abs=1e-12)

    def test_rejects_wrong_dimension(self):
        rng = np.random.default_rng(43)
        with pytest.raises(DomainError):
            ppt_separable(random_density_matrix(1.5, rng))


class TestStacks:
    """The stacked builder and PPT give, item for item, the bits of their single-state calls."""

    @staticmethod
    def params():
        rng = np.random.default_rng(46)
        grid = [ChannelParams(p1, p2, t) for p1 in (0.0, 0.4, 1.0) for p2 in (0.0, 0.7, 1.0)
                for t in (0.0, 1.0, math.pi, 2 * math.pi)]
        return grid + [ChannelParams(*rng.uniform(0, 1, 2), rng.uniform(0, 2 * math.pi)) for _ in range(40)]

    def test_channel_stack_matches_channel_mixed(self):
        params = self.params()
        stack = _channel_stack(*zip(*((c.p1, c.p2, c.two_theta) for c in params)))
        assert stack.shape == (len(params), 3, 3)
        for mat, item in zip(stack, params):
            assert np.ascontiguousarray(mat).tobytes() == channel_mixed(item).matrix.tobytes()

    def test_ppt_stack_matches_ppt_separable(self):
        rhos = [channel_mixed(item) for item in self.params()] + [pure_two_spinor(t) for t in (0.0, 1.0, math.pi)]
        lowest = _ppt_stack(np.array([rho.matrix for rho in rhos]))
        separable = lowest >= -PPT_TOL
        assert separable.any() and not separable.all()
        for value, flag, rho in zip(lowest.tolist(), separable.tolist(), rhos):
            single = ppt_separable(rho)
            assert type(single.separable) is bool and type(single.min_eigenvalue) is float
            assert (flag, value) == single and repr(value) == repr(single.min_eigenvalue)

    @staticmethod
    def reference_channel_error(p1, p2, two_theta):
        """The message of the range check ChannelParams made one item at a time, or None."""
        for name, p in (("p1", p1), ("p2", p2)):
            if not 0.0 <= p <= 1.0:
                return f"{name}={p} outside [0, 1]"
        if not -1e-12 <= two_theta <= 2 * math.pi + 1e-12:
            return f"two_theta={two_theta} outside [0, 2 pi]"
        return None

    def test_range_check_raises_for_the_first_bad_item(self):
        nan, top = float("nan"), 2 * math.pi + 1e-12
        for items in ([(0.5, 0.5, 1.0), (2.0, 2.0, 8.0)], [(0.5, 0.5, 8.0), (2.0, 2.0, 1.0)],
                      [(0.5, 1.2, 1.0), (0.5, 0.5, -1.0)], [(1.0, 0.0, top), (0.5, nan, 1.0), (nan, 0.5, 1.0)],
                      [(0.0, 0.0, -1e-12), (1.0, 1.0, 0.5), (0.3, 0.3, nan)], [(-0.0, 1.0, 2 * math.pi)],
                      [(0.2, 0.2, 3.0)] * 5 + [(0.2, -1e-300, 3.0)]):
            expected = next(filter(None, (self.reference_channel_error(*item) for item in items)), None)
            for stack in (list(zip(*items)), np.array(items).T):
                if expected is None:
                    assert _channel_array(*stack).tobytes() == np.array(items, dtype=float).tobytes()
                    continue
                with pytest.raises(DomainError) as info:
                    _channel_array(*stack)
                assert str(info.value) == expected
            if expected is not None:
                with pytest.raises(DomainError, match=re.escape(expected)):
                    for item in items:
                        ChannelParams(*item)


class TestSpinor:
    def test_azimuth_a_hair_below_zero_wraps_to_zero(self):
        assert Spinor(0.5, -1e-17).phi == 0.0
        assert Spinor(0.5, -0.25).phi == pytest.approx(2 * math.pi - 0.25, abs=1e-15)
        assert np.array_equal(Spinor(0.5, -1e-17).amplitudes, Spinor(0.5, 0.0).amplitudes)


class TestRandomDensityMatrix:
    def test_reproducible_and_valid(self):
        a = random_density_matrix(1.5, np.random.default_rng(44))
        b = random_density_matrix(1.5, np.random.default_rng(44))
        assert np.array_equal(a.matrix, b.matrix)
        assert a.min_eigenvalue() > -1e-14

    def test_pure_variant(self):
        rho = random_density_matrix(1, np.random.default_rng(45), pure=True)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_negative_j_raises_domain_error(self):
        for pure in (False, True):
            with pytest.raises(DomainError, match="angular momentum must be non-negative, got j=-1$"):
                random_density_matrix(-1, np.random.default_rng(46), pure=pure)
