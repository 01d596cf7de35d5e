import cmath
import gc
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import spinaxes.axes
from spinaxes.angular import (
    HalfInt, _wrap_azimuth, angle_between, clebsch_gordan, couple, euler_rotation_cartesian, unit_vector,
    unit_vector_components,
)
from spinaxes.axes import (
    DEFICIENCY_REL_TOL,
    EMPTY_RANK_TOL,
    INPUT_TOL,
    PAIRING_TOL,
    RESIDUAL_TOL,
    ROOT_RESIDUAL_TOL,
    MultiaxialForm,
    RankDecomposition,
    RankPolynomial,
    _binomial_weights,
    _canonical_rep,
    _decimal_buckets,
    _eigvals,
    _pairings,
    _polar,
    _polynomials,
    _root_points,
    build_polynomial,
    coupled_axes_tensor,
    decompose,
    decompose_many,
    pair_and_canonicalize,
    reconstruct_tensor,
    scalar_r,
    solve_axes,
)
from spinaxes.errors import DecompositionError, DomainError, ValidationError
from spinaxes.states import Spinor, pure_two_spinor, random_density_matrix, symmetrize_pure
from spinaxes.tensors import (
    DensityMatrix,
    TensorComponents,
    _check_tensor_stack,
    random_tensor_components,
    rotate_tensor,
    to_tensor,
)


def pure_tensor(theta):
    """Components of the symmetrized two-spinor state at half-angle theta."""
    return to_tensor(pure_two_spinor(2 * theta))


def points_to_vectors(points):
    return [unit_vector(theta, phi) for theta, phi in points]


def match_point_sets(actual, expected, tol):
    actual = list(actual)
    for e in points_to_vectors(expected):
        dists = [np.linalg.norm(e - a) for a in actual]
        idx = int(np.argmin(dists))
        assert dists[idx] < tol
        actual.pop(idx)
    assert not actual


# Scalar forms of the angle maps that the library evaluates on arrays (unit_vector, unit_vector_components,
# _canonical_rep and _polar, the map from Cartesian vectors); the oracles below compute with these.
def scalar_unit_vector(theta, phi):
    s = math.sin(theta)
    return np.array((s * math.cos(phi), s * math.sin(phi), math.cos(theta)))


def scalar_components(theta, phi):
    s = math.sin(theta)
    return np.array((-s * cmath.exp(1j * phi) / math.sqrt(2.0), complex(math.cos(theta)),
                     s * cmath.exp(-1j * phi) / math.sqrt(2.0)))


def scalar_canonical_rep(u):
    for comp in (u[2], u[0], u[1]):
        if comp > 0.0:
            return u
        if comp < 0.0:
            return -u
    return u


def scalar_from_cartesian(vec):
    v = np.asarray(vec, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm < 1e-300:
        raise DomainError("cannot build an axis from the zero vector")
    v = v / norm
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    if math.hypot(v[0], v[1]) < 1e-12:
        return (0.0 if v[2] > 0.0 else math.pi, 0.0)
    return (theta, _wrap_azimuth(math.atan2(v[1], v[0])))


def reference_root_point(z):
    """(theta, phi) of the root Z = cot(theta/2) exp(-i phi), one root at a time."""
    return (2.0 * math.atan2(1.0, abs(z)), 0.0 if z == 0 else _wrap_azimuth(-cmath.phase(z)))


class TestAngleMaps:
    def test_array_maps_equal_scalar_formulas(self):
        rng = np.random.default_rng(23)
        theta = np.concatenate([np.arccos(rng.uniform(-1, 1, 2000)), np.repeat([0.0, math.pi / 2, math.pi], 2)])
        phi = np.concatenate([rng.uniform(0, 2 * math.pi, 2000), np.tile([0.0, math.pi], 3)])
        for array_map, scalar_map in ((unit_vector, scalar_unit_vector), (unit_vector_components, scalar_components)):
            expected = np.array([scalar_map(a, b) for a, b in zip(theta.tolist(), phi.tolist())])
            got = array_map(theta, phi)
            assert np.array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()  # the signs of zero parts too
            assert np.array_equal(array_map(theta.reshape(2, -1), phi.reshape(2, -1)), expected.reshape(2, -1, 3))
            assert np.array_equal(array_map(theta[5], phi[5]), expected[5])

    def test_from_cartesian_is_the_row_wise_inverse_map(self):
        rng = np.random.default_rng(24)
        vecs = np.concatenate([rng.normal(size=(500, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(500, 1)),
                               [[0, 0, 1], [0, 0, -2], [-1e-17, 0, 1], [1e-13, 0, -1], [1, 0, 0], [-1, 0, 0],
                                [0, -1, 0], [-1, -1e-300, 0], [1, 1, -1]]])
        expected = [scalar_from_cartesian(v) for v in vecs]
        assert [tuple(_polar(v[None])[0].tolist()) for v in vecs] == expected
        assert [tuple(row) for row in _polar(vecs).tolist()] == expected
        with pytest.raises(DomainError, match="zero vector"):
            _polar(np.zeros((1, 3)))


def one_rank(angles):
    """A rank holding the given outside axes, with r = 1."""
    return RankDecomposition(angles, 1.0, False, 0.0)


class TestAxis:
    """One axis is a (theta, phi) row; axes from outside are checked, clamped and wrapped at every entry point."""

    def test_normalization_and_antipode(self):
        (theta, phi), = one_rank([(0.5, -0.1)]).angles.tolist()
        assert (theta, phi) == (0.5, _wrap_azimuth(-0.1)) and 0 <= phi < 2 * math.pi
        # a negative scale inverts the last axis: its antipode is (pi - theta, phi + pi), wrapped
        t = TensorComponents(1, dict(zip([(1, 1), (1, 0), (1, -1)], -0.9 * unit_vector_components(0.5, 1.0))))
        dec = decompose(t).rank(1)
        assert dec.flipped and dec.r == pytest.approx(0.9, abs=1e-12)
        assert dec.angles[0] == pytest.approx([math.pi - 0.5, 1.0 + math.pi], abs=1e-12)
        assert np.allclose(unit_vector(*dec.angles[0]), -unit_vector(0.5, 1.0))

    def test_from_cartesian_round_trip(self):
        theta, phi = _polar(np.array([[1.0, 1.0, -1.0]]))[0]
        assert np.allclose(unit_vector(theta, phi), np.array([1, 1, -1]) / math.sqrt(3))

    def test_pole_azimuth_is_zero(self):
        assert _polar(np.array([[-1e-17, 0.0, 1.0]])).tolist() == [[0.0, 0.0]]

    def test_dot_and_angle(self):
        a, b = unit_vector(0.0, 0.0), unit_vector(math.pi / 3, 0.0)
        assert float(np.dot(a, b)) == pytest.approx(0.5)
        assert angle_between(a, b) == pytest.approx(math.pi / 3)

    def test_components_formula(self):
        theta, phi = 0.7, 1.9
        plus, zero, minus = unit_vector_components(theta, phi)
        assert zero == pytest.approx(math.cos(theta))
        assert plus == pytest.approx(-math.sin(theta) * np.exp(1j * phi) / math.sqrt(2))
        assert minus == pytest.approx(math.sin(theta) * np.exp(-1j * phi) / math.sqrt(2))

    def test_conjugation_symmetry(self):
        # rank-1 instance of the tensor conjugation rule: Q_{-q} = (-1)^q conj(Q_q)
        plus, zero, minus = unit_vector_components(1.1, 5.0)
        assert minus == pytest.approx(-np.conj(plus))
        assert np.conj(zero) == pytest.approx(zero)

    def test_polar_cartesian_round_trip(self):
        theta, phi = _polar(unit_vector(2.2, 0.4)[None])[0]
        assert theta == pytest.approx(2.2)
        assert phi == pytest.approx(0.4)

    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError, match=r"^theta=3.5 outside \[0, pi\]$"):
            coupled_axes_tensor([(3.5, 0.0)])

    def test_rejects_theta_above_pi(self):
        # an array from outside is checked when the rank is built, not first when its angles are used
        for theta in (4.0, 7.0):
            with pytest.raises(DomainError, match=f"^theta={theta} outside"):
                one_rank(np.array([[theta, -3.0]]))

    def test_rejects_non_finite_azimuth(self):
        t = TensorComponents(1, {(1, 0): 0.5})
        for bad in (math.nan, math.inf, -math.inf):
            for entry in (one_rank, coupled_axes_tensor, lambda axes: scalar_r(t, 1, axes)):
                with pytest.raises(DomainError, match="^azimuth phi=.* is not finite$"):
                    entry(np.array([[0.3, bad]]))
                with pytest.raises(DomainError, match=f"^theta={bad} outside"):
                    entry([(bad, 0.0)])

    def test_rejects_other_shapes(self):
        t = TensorComponents(1, {(2, 0): 0.5})
        for axes, shape in ((np.zeros((2, 3)), "(2, 3)"), ([0.3, 1.0], "(2,)"), ((), "(0,)"),
                            (np.zeros((1, 1, 2)), "(1, 1, 2)")):
            for entry in (one_rank, coupled_axes_tensor, lambda axes: scalar_r(t, 2, axes)):
                with pytest.raises(DomainError, match=f"shape {re.escape(shape)}$"):
                    entry(axes)

    def test_tuples_give_the_bits_of_an_array(self):
        t = to_tensor(random_density_matrix(1, np.random.default_rng(66)))
        rows = [(0.3, 1.0), (-0.0, 2 * math.pi - 1e-13)]
        array = np.array(rows)
        assert scalar_r(t, 1, rows[:1]) == scalar_r(t, 1, array[:1])
        assert scalar_r(t, 2, rows) == scalar_r(t, 2, array)
        assert coupled_axes_tensor(rows).tobytes() == coupled_axes_tensor(array).tobytes()
        expected = np.array([rows[0], (-0.0, 0.0)]).tobytes()  # -0.0 kept, phi a hair below 2 pi wrapped to 0
        assert one_rank(rows).angles.tobytes() == one_rank(array).angles.tobytes() == expected
        held = one_rank(array).angles
        assert one_rank(held).angles is held  # a read-only float array is kept


class TestBuildPolynomial:
    def test_longitudinal_rank1(self):
        c = 0.83
        t = TensorComponents(1, {(1, 0): c})
        poly = build_polynomial(t, 1)
        assert np.allclose(poly.coefficients, [0.0, math.sqrt(2) * c, 0.0])
        assert poly.degree_deficiency == 1

    def test_bell_like_rank2(self):
        # t[2,0] = 1/sqrt2, t[2,+-2] = -sqrt3/2 gives -sqrt3/2 (Z^2 - 1)^2 ... sqrt3 Z^2
        t = pure_tensor(math.pi / 2)
        poly = build_polynomial(t, 2)
        expected = [-math.sqrt(3) / 2, 0.0, math.sqrt(3), 0.0, -math.sqrt(3) / 2]
        assert np.max(np.abs(poly.coefficients - expected)) < 1e-14
        assert poly.degree_deficiency == 0

    def test_empty_rank_returns_none(self):
        t = TensorComponents(1)
        assert build_polynomial(t, 1) is None
        assert build_polynomial(t, 2) is None

    def test_rank_out_of_range(self):
        with pytest.raises(DomainError):
            build_polynomial(TensorComponents(1), 3)

    def test_rejects_non_finite_components(self):
        for bad in (math.nan, math.inf, complex(0.5, math.nan)):
            with pytest.raises(ValidationError, match="non-finite"):
                build_polynomial(TensorComponents(1, {(1, 0): bad}), 1)
        with pytest.raises(ValidationError, match="non-finite"):
            RankPolynomial(k=1, coefficients=[0.0, math.nan, 0.0], degree_deficiency=1)

    def test_coefficient_symmetry(self):
        # conjugation symmetry of t forces C_{2k-r} = (-1)^(r-k) conj(C_r)
        rng = np.random.default_rng(20)
        for k in (1, 2, 3, 4):
            for _ in range(100):
                t = random_tensor_components(HalfInt(2 * k), rng)
                poly = build_polynomial(t, k)
                c = poly.coefficients
                for r in range(2 * k + 1):
                    expected = (-1) ** (r - k) * np.conj(c[r])
                    assert abs(c[2 * k - r] - expected) < 1e-10


class TestSolveAxes:
    def test_root_and_infinity(self):
        t = TensorComponents(1, {(1, 0): 0.83})
        points = solve_axes(build_polynomial(t, 1))
        match_point_sets(points_to_vectors(points), [(math.pi, 0.0), (0.0, 0.0)], 1e-12)

    def test_pure_state_rank2_points(self):
        theta = math.pi / 3
        points = solve_axes(build_polynomial(pure_tensor(theta), 2))
        expected = [(theta, 0.0), (theta, math.pi), (math.pi - theta, 0.0), (math.pi - theta, math.pi)]
        match_point_sets(points_to_vectors(points), expected, 1e-9)

    def test_residual_check_of_huge_roots_does_not_overflow(self):
        # roots Z ~ -1e11 and -1: the bound 1e-9 * 1e300 * 3 * |Z|^2 on |p(Z)| overflows unless divided through
        poly = RankPolynomial(k=1, coefficients=[1e300, 1e300, 1e289], degree_deficiency=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            points = solve_axes(poly)
        expected = np.array([[2.0 * math.atan2(1.0, 1e11 - 1.0), math.pi],
                             [2.0 * math.atan2(1.0, 1.0 + 1e-11), math.pi]])
        assert np.array(points) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_zero_polynomial_is_refused_naming_its_rank(self):
        # p(Z) = 0 has no root set; accepted, it would give two pole points that pairing rejects
        for k in (1, 3):
            with pytest.raises(DomainError, match=f"rank-{k} polynomial has only zero coefficients"):
                RankPolynomial(k=k, coefficients=np.zeros(2 * k + 1), degree_deficiency=0)

    def test_root_azimuth_a_hair_below_zero_wraps_to_zero(self):
        def point(z):  # the finite root point of -z + Z, after the deficiency root at theta = 0
            return tuple(solve_axes(RankPolynomial(k=1, coefficients=[-z, 1.0, 0.0], degree_deficiency=1))[1].tolist())

        assert point(complex(1, 1e-17)) == (math.pi / 2, 0.0)
        rng = np.random.default_rng(22)
        for z in rng.normal(size=50) + 1j * rng.normal(size=50):
            assert point(complex(z)) == reference_root_point(complex(z))
            assert 0.0 <= point(complex(z))[1] < 2 * math.pi

    def test_antipodal_closure(self):
        rng = np.random.default_rng(21)
        for k in (1, 2, 3, 4):
            for _ in range(100):
                t = random_tensor_components(HalfInt(2 * k), rng)
                vecs = points_to_vectors(solve_axes(build_polynomial(t, k)))
                for v in vecs:
                    best = min(
                        math.atan2(np.linalg.norm(np.cross(v, -w)), float(np.dot(v, -w)))
                        for w in vecs
                        if w is not v
                    )
                    assert best < 1e-8


class TestPairAndCanonicalize:
    def test_z_axis_pair(self):
        axes = pair_and_canonicalize([(math.pi, 0.0), (0.0, 0.0)])
        assert axes.shape == (1, 2) and not axes.flags.writeable
        assert axes[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_pairs(self):
        theta = 1.0
        points = [(theta, 0.0), (math.pi - theta, math.pi), (theta, math.pi), (math.pi - theta, 0.0)]
        axes = pair_and_canonicalize(points)
        assert [(round(a, 10), round(b, 10)) for a, b in axes.tolist()] == [
            (round(theta, 10), 0.0),
            (round(theta, 10), round(math.pi, 10)),
        ]

    def test_unpaired_points_raise(self):
        with pytest.raises(DecompositionError):
            pair_and_canonicalize([(0.3, 0.0), (0.4, 1.0)])

    def test_odd_count_raises(self):
        with pytest.raises(DecompositionError):
            pair_and_canonicalize([(0.3, 0.0)])

    def test_non_finite_point_raises(self):
        for points, bad in (([(math.nan, 0.0), (0.3, 0.0)], "(nan, 0.0)"),
                            ([(0.3, 0.0), (math.pi - 0.3, math.pi), (0.5, 1.0), (0.2, math.inf)], "(0.2, inf)")):
            with pytest.raises(DecompositionError) as info:
                pair_and_canonicalize(points)
            assert str(info.value) == f"root point {bad} is not finite"
            assert (info.value.index, info.value.stage) == (0, "pairing")

    def test_coincident_axes_preserved(self):
        # a doubly degenerate direction must come back as two coincident axes
        axis = (0.6, 1.2)
        prod = 0.7 * coupled_axes_tensor([axis, axis])
        t = TensorComponents(1, {(2, q): prod[2 - q] for q in range(-2, 3)})
        form = decompose(t)
        dec = form.rank(2)
        assert len(dec.angles) == 2
        for vec in unit_vector(*dec.angles.T):
            assert angle_between(vec, unit_vector(*axis)) < 1e-6
        assert dec.r == pytest.approx(0.7, abs=1e-7)


def reference_pairing(points, tol=PAIRING_TOL):
    """The O(n^3) per-pair greedy loop that pair_and_canonicalize replaced, kept as its oracle."""
    pts = list(map(tuple, np.asarray(points, dtype=float).reshape(-1, 2).tolist()))
    if len(pts) % 2:
        raise DecompositionError(f"expected an even number of root points, got {len(pts)}")
    vecs = [scalar_unit_vector(theta, phi) for theta, phi in pts]
    cluster = max([1] + [sum(1 for w in vecs if angle_between(v, w) < 1e-3) for v in vecs])
    eff_tol = max(tol, 100.0 * np.finfo(float).eps ** (1.0 / cluster))
    remaining = list(range(len(vecs)))
    axes = []
    while remaining:
        best = None
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                i, j = remaining[a], remaining[b]
                ang = angle_between(vecs[i], -vecs[j])
                if best is None or ang < best[0]:
                    best = (ang, a, b)
        ang, a, b = best
        if ang > eff_tol:
            i = remaining[a]
            raise DecompositionError(
                f"root point {pts[i]} has no antipodal partner "
                f"(best mismatch {ang:.3e} rad > {eff_tol:.3e}); "
                "the input tensor likely violates conjugation symmetry"
            )
        i, j = remaining[a], remaining[b]
        del remaining[b], remaining[a]
        mean = vecs[i] - vecs[j]
        mean /= np.linalg.norm(mean)
        axes.append(scalar_from_cartesian(scalar_canonical_rep(mean)))
    axes.sort(key=lambda ax: (round(ax[0], 9), round(ax[1], 9), *ax))
    return axes


def outcome(fn, points):
    """Axes as a list of (theta, phi) on success; on failure the error message up to its mismatch figures."""
    try:
        return [tuple(row) for row in np.asarray(fn(points)).tolist()]
    except DecompositionError as exc:
        return ("raised", str(exc).partition("(best mismatch")[0])


def root_point_sets(t):
    for k in range(1, t.j.twice + 1):
        poly = build_polynomial(t, k)
        if poly is not None:
            yield solve_axes(poly)


class TestPairingMatchesReferenceLoop:
    def assert_same(self, points):
        expected = outcome(reference_pairing, points)
        assert outcome(pair_and_canonicalize, points) == expected
        return expected

    def test_seeded_random_tensors(self):
        rng = np.random.default_rng(31)
        for tj in (1, 2, 3, 5, 8, 12, 16):
            t = random_tensor_components(HalfInt(tj), rng)
            phi, psi = rng.uniform(0, 2 * math.pi, size=2)
            theta = math.acos(rng.uniform(-1, 1))
            for tensor in (t, rotate_tensor(t, phi, theta, psi)):
                for points in root_point_sets(tensor):
                    assert isinstance(self.assert_same(points), list)

    def test_coincident_axes(self):
        a, b, c = (0.6, 1.2), (2.1, 4.0), (1.3, 0.2)
        for axes in ([a, a], [a, a, b], [a, a, a], [a, a, a, b], [a, a, b, b, c]):
            k = len(axes)
            prod = 0.7 * coupled_axes_tensor(axes)
            t = TensorComponents(HalfInt(k), {(k, q): prod[k - q] for q in range(-k, k + 1)})
            for points in root_point_sets(t):
                self.assert_same(points)
        rng = np.random.default_rng(33)
        for m in (2, 3):  # shuffled m-fold antipodal clusters with 1e-9 noise
            for _ in range(10):
                centres = [rng.normal(size=3) for _ in range(2)]
                vecs = [s * c / np.linalg.norm(c) + 1e-9 * rng.normal(size=3)
                        for c in centres for s in (1, -1) for _ in range(m)]
                points = [tuple(row) for row in _polar(np.array(vecs)).tolist()]
                rng.shuffle(points)
                self.assert_same(points)
        for tj in (4, 5, 6):  # coherent states: one tj-fold root per rank; off the z-axis some raise
            rho = symmetrize_pure([Spinor(0.7, 2.3)] * tj)
            for points in root_point_sets(to_tensor(rho)):
                self.assert_same(points)

    def test_exact_ties_keep_scan_order(self):
        # the north pole is equally far from the antipodes of both southern points
        eps = 1e-7
        points = [(0.0, 0.0), (eps, math.pi / 2), (math.pi - eps, 0.0), (math.pi - eps, math.pi)]
        axes = self.assert_same(points)  # pairs (0, 2) and (1, 3); taking (0, 3) first gives 0 and 3 pi/4
        assert [phi for _, phi in axes] == pytest.approx([math.pi, math.pi / 4], abs=1e-6)

    def test_points_without_antipodal_partner(self):
        rng = np.random.default_rng(32)
        for n in (2, 4, 6, 10):
            points = [(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)) for _ in range(n)]
            assert self.assert_same(points)[0] == "raised"
        theta, phi = 0.9, 0.4
        paired = [(theta, phi), (math.pi - theta, phi + math.pi)]
        assert self.assert_same(paired + [(0.3, 0.0), (0.4, 1.0)])[0] == "raised"

    def test_empty_point_list(self):
        axes = pair_and_canonicalize([])
        assert axes.shape == (0, 2) and not axes.flags.writeable

    def test_near_ties_order_by_nine_decimal_key(self):
        # theta equal to 9 decimals orders by phi; a theta straddling a rounding boundary orders by theta;
        # at 0.3688888895 Python's correctly rounded round and np.round disagree, so only the former passes
        assert round(0.3688888895, 9) != np.round(0.3688888895, 9)
        cases = [[(1.0 + 1e-11, 0.2), (1.0, 0.5)], [(1.0, 0.5), (1.0 + 1e-11, 0.2), (1.0 - 1e-11, 0.2)],
                 [(0.7000000005 + 1e-13, 0.1), (0.7000000005 - 1e-13, 0.9)], [(0.5, 2.0), (0.5, 2.0 + 1e-12)],
                 [(0.3688888895, 0.9), (0.3688888895 + 4e-13, 0.1)]]
        # next to halves (m + 1/2) 1e-9 of theta and phi: rounded theta tied while exact theta orders the other way,
        # and neighbours on both sides of a half
        for m in (123456789, 368888889, 785398163, 1234567890):
            below, phi = np.nextafter((m + 0.5) * 1e-9, 0.0), np.nextafter((4 * m + 1.5) * 1e-9, 0.0)
            above, lower = np.nextafter(below, 2.0), np.nextafter(below, 0.0)
            cases += [[(below, 0.1), (lower, 0.9)], [(above, 0.1), (below, 0.9)], [(lower, 0.2), (above, 0.2)],
                      [(0.6, phi), (0.6, np.nextafter(phi, 8.0)), (0.6 + 1e-12, np.nextafter(phi, 0.0))]]
        near_half = 0
        for axes in cases:
            points = [pt for theta, phi in axes for pt in ((theta, phi), (math.pi - theta, phi + math.pi))]
            expected = self.assert_same(points)
            key = [(round(theta, 9), round(phi, 9), theta, phi) for theta, phi in expected]
            assert key == sorted(key)
            scaled = np.array(expected) * 1e9
            near_half += int((np.abs(scaled - np.floor(scaled) - 0.5) < 1e-5).sum())
        assert near_half > 10  # these keys take the Python round fallback of _decimal_buckets

    def test_decimal_buckets_are_pythons_round_near_halves(self):
        rng = np.random.default_rng(34)
        x = []
        for m in [123456789, 368888889, 3141592653, 6283185306] + rng.integers(0, 6283185307, size=60).tolist():
            value = (m + 0.5) * 1e-9
            for _ in range(4):
                x += [value, np.nextafter(value, 0.0)]
                value = np.nextafter(value, 8.0)
        x = np.array(x)
        exact = [round(Fraction(value) * 10 ** 9) for value in x.tolist()]  # the exact x 1e9, rounded
        assert _decimal_buckets(x).tolist() == exact
        assert [round(value, 9) for value in x.tolist()] == [m / 10 ** 9 for m in exact]  # so they order as round does
        assert (np.rint(x * 1e9) != exact).any()  # where the product alone would bucket wrongly
        assert _decimal_buckets(np.array([0.0, 1e-9, 2.5e-10, 7.5e-10, 3.0])).tolist() == [0, 1, 0, 1, 3e9]


# The stacked roots and pairing stages as they ran before each became one pass over all rows: the roots
# sorted, checked and converted one (rank, degree, span) group at a time, and the pairs picked in rounds of
# masked first row-major minima. They are the oracles for the single-pass stages.
def reference_root_points(coeffs, deficiency, ks):
    out = np.zeros((len(coeffs), 2 * int(ks.max()), 2))
    groups = {}
    for row, (k, defic, nonzero) in enumerate(zip(ks.tolist(), deficiency.tolist(), (coeffs != 0).tolist())):
        degree = 2 * k - defic
        span = [r for r in range(degree + 1) if nonzero[r]] or [0]
        groups.setdefault((k, degree, span[0], span[-1]), []).append(row)
    for (k, degree, low, high), rows in groups.items():
        if high == 0:
            continue
        c = coeffs[rows, :2 * k + 1]
        size = high - low
        roots = np.zeros((len(rows), 0), dtype=complex)
        if size:
            highest_first = c[:, low:high + 1][:, ::-1]
            companion = np.zeros((len(rows), size, size), dtype=complex)
            companion[:, 1:, :-1] = np.eye(size - 1)
            companion[:, 0, :] = -highest_first[:, 1:] / highest_first[:, :1]
            roots = _eigvals(companion, rows, coeffs[:, :2 * k + 1], k)
        if low:
            roots = np.concatenate((roots, np.zeros((len(rows), low), dtype=complex)), axis=1)
        order = np.lexsort((roots.imag, roots.real), axis=-1)
        roots = roots[np.arange(len(rows))[:, None], order]
        big = np.abs(roots) > 1.0
        x = np.divide(1.0, roots, out=roots.copy(), where=big)
        seq = np.where(big[..., None], c[:, None, :degree + 1], c[:, None, degree::-1])
        values = np.zeros_like(roots)
        for col in range(degree + 1):
            values = values * x + seq[..., col]
        values = np.abs(values)
        bound = spinaxes.axes.ROOT_RESIDUAL_TOL * np.abs(c).max(axis=1) * (degree + 1)
        bad = ~(values <= bound[:, None])
        if bad.any():
            g, i = np.argwhere(bad)[0]
            raise DecompositionError(f"root {roots[g, i]!r} of the rank-{k} polynomial has residual "
                                     f"{values[g, i]:.3e} (bound {bound[g]:.3e})", stage="roots", index=rows[g])
        out[rows, 2 * k - degree:2 * k] = [[reference_root_point(z) for z in row_roots]
                                           for row_roots in roots.tolist()]
    return out


def reference_pairings(points, ks, tol=PAIRING_TOL):
    count, n = points.shape[:2]
    real = np.arange(n) < 2 * ks[:, None]
    bad = real & ~np.isfinite(points).all(axis=2)
    if bad.any():
        row, i = np.argwhere(bad)[0]
        raise DecompositionError(f"root point {tuple(points[row, i].tolist())} is not finite", stage="pairing",
                                 index=int(row))
    vecs = unit_vector(points[..., 0], points[..., 1])
    a, b = vecs[:, :, None, :], vecs[:, None, :, :]
    c0 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c1 = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    cross = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    dots = vecs @ vecs.transpose(0, 2, 1)
    both = real[:, :, None] & real[:, None, :]
    cluster = ((np.arctan2(cross, dots) < 1e-3) & both).sum(axis=2).max(axis=1)
    eps = float(np.finfo(float).eps)
    eff_tol = np.array([max(tol, 100.0 * eps ** (1.0 / m)) for m in cluster.tolist()])
    mismatch = np.arctan2(cross, -dots)
    mismatch[~both | np.tri(n, dtype=bool)] = np.inf
    flat_mismatch = mismatch.reshape(count, n * n)
    every = np.arange(count)
    best = np.empty((count, n // 2), dtype=np.intp)
    ang = np.empty((count, n // 2))
    for rnd in range(n // 2):
        best[:, rnd] = pick = flat_mismatch.argmin(axis=1)
        ang[:, rnd] = flat_mismatch[every, pick]
        i, j = np.divmod(pick, n)
        mismatch[every, i] = mismatch[every, j] = np.inf
        mismatch[every, :, i] = mismatch[every, :, j] = np.inf
    first, second = np.divmod(best, n)
    paired = np.arange(n // 2) < ks[:, None]
    too_far = (ang > eff_tol[:, None]) & paired
    if too_far.any():
        row, rnd = np.argwhere(too_far)[0]
        raise DecompositionError(f"root point {tuple(points[row, first[row, rnd]].tolist())} has no antipodal "
                                 f"partner (best mismatch {ang[row, rnd]:.3e} rad > {eff_tol[row]:.3e}); "
                                 "the input tensor likely violates conjugation symmetry", stage="pairing",
                                 index=int(row))
    mean = (vecs[every[:, None], first] - vecs[every[:, None], second])[paired]
    mean /= np.sqrt(mean[:, None, :] @ mean[:, :, None])[:, 0]
    keyed = np.zeros((count, n // 2, 4))
    keyed[paired] = [(round(theta, 9), round(phi, 9), theta, phi)
                     for theta, phi in _polar(_canonical_rep(mean)).tolist()]
    order = np.lexsort((*keyed[..., ::-1].transpose(2, 0, 1), ~paired), axis=-1)
    return keyed[every[:, None], order, 2:]


def _two_fold(miss):
    """A point, one 1e-4 rad from it, and their antipodes, the first missed by miss rad."""
    return [(0.6, 1.2), (0.6 + 1e-4, 1.2), (math.pi - 0.6 + miss, 1.2 + math.pi), (math.pi - 0.6 - 1e-4, 1.2 + math.pi)]


# Hand-made root-point sets: an exact tie (the north pole is equally far from the antipodes of both southern
# points), an exact pair, a set with no antipodal partner, a doubled axis, and two-fold clusters, which widen the
# tolerance to 100 eps^(1/2) ~ 1.490e-06: their best mismatch 5e-7 pairs (close), 3e-6 not (loose)
SPECIAL_SETS = {
    "tie": [(0.0, 0.0), (1e-7, math.pi / 2), (math.pi - 1e-7, 0.0), (math.pi - 1e-7, math.pi)],
    "pair": [(0.9, 0.4), (math.pi - 0.9, 0.4 + math.pi)],
    "unpaired": [(0.3, 0.0), (0.4, 1.0)],
    "triple": [pt for theta, phi in ((0.6, 1.2), (0.6, 1.2), (2.1, 4.0))
               for pt in ((theta, phi), (math.pi - theta, phi + math.pi))],
    "close": _two_fold(5e-7),
    "loose": _two_fold(3e-6),
}


def point_stack(sets):
    """(points, ks) of a stack of root-point sets, zero-padded to the largest."""
    ks = np.array([len(pts) // 2 for pts in sets])
    points = np.zeros((len(sets), 2 * ks.max(), 2))
    for row, pts in enumerate(sets):
        points[row, :len(pts)] = pts
    return points, ks


def stage_outcome(stage, *stack):
    """The bytes a stage returns for a stack of rows, or (message, stage, index) of what it raises."""
    try:
        return stage(*stack).tobytes()
    except DecompositionError as exc:
        return (str(exc), exc.stage, exc.index)


def lowest_row_outcome(stage, *stack):
    """What a stage gives the whole stack when it succeeds; else what it raises for the lowest row failing alone."""
    try:
        return stage(*stack).tobytes()
    except DecompositionError:
        pass
    for row in range(len(stack[0])):
        failure = stage_outcome(stage, *(part[row:row + 1] for part in stack))
        if isinstance(failure, tuple):
            return failure[:2] + (row,)
    raise AssertionError("the stack failed, but no row fails alone")


def rank_rows(ts):
    """(coefficients, deficiency, ks) of the present (item, rank) rows of tensors of one j, in decompose order."""
    tj = ts[0].j.twice
    ks, cols = np.arange(1, tj + 1), np.arange(2 * tj + 1)
    stack = np.array([t.array for t in ts])
    rows = np.where(cols <= 2 * ks[:, None], stack[:, ks[:, None] ** 2 + cols], 0).reshape(-1, 2 * tj + 1)
    ks = np.tile(ks, len(ts))
    coeffs, deficiency, present = _polynomials(rows, ks)
    return coeffs[present], deficiency[present], ks[present]


def seeded_stage_stacks():
    """Rank rows of random and degenerate states at 2j = 1 ... 16, each with a rotated copy."""
    rng = np.random.default_rng(51)
    for tj in range(1, 17):
        ts = [random_tensor_components(HalfInt(tj), rng)]
        for cols in (1, tj + 1):  # a pure and a Ginibre mixed state
            vec = rng.normal(size=(tj + 1, cols)) + 1j * rng.normal(size=(tj + 1, cols))
            mat = vec @ vec.conj().T
            ts.append(to_tensor(DensityMatrix(mat / mat.trace().real)))
        ghz = np.zeros(tj + 1)
        ghz[[0, tj]] = math.sqrt(0.5)
        dicke = np.zeros(tj + 1)
        dicke[tj // 2] = 1.0
        ts += [to_tensor(DensityMatrix(np.outer(vec, vec))) for vec in (ghz, dicke)]
        ts.append(to_tensor(symmetrize_pure([Spinor(0.7, 2.3)] * tj)))  # coherent
        phi, psi = rng.uniform(0, 2 * math.pi, size=2)
        theta = math.acos(rng.uniform(-1, 1))
        yield rank_rows(ts + [rotate_tensor(t, phi, theta, psi) for t in ts])


class TestSinglePassStagesMatchReference:
    def assert_same_stages(self, coeffs, deficiency, ks):
        """Both stages give the bytes, or the error of the lowest failing row, that the references give."""
        roots = lowest_row_outcome(_root_points, coeffs, deficiency, ks)
        assert stage_outcome(_root_points, coeffs, deficiency, ks) == roots
        assert roots == lowest_row_outcome(reference_root_points, coeffs, deficiency, ks)
        if isinstance(roots, tuple):
            return roots
        points = _root_points(coeffs, deficiency, ks)
        pairs = stage_outcome(_pairings, points, ks)
        assert pairs == stage_outcome(reference_pairings, points, ks)
        return pairs

    def test_seeded_states_rotated_and_degenerate(self):
        raised = []
        for stack in seeded_stage_stacks():
            outcome = self.assert_same_stages(*stack)
            if isinstance(outcome, tuple):
                raised.append(outcome[1])
        assert raised and set(raised) == {"pairing"}  # rotated coherent and Dicke states fail to pair

    def test_lowest_row_missing_the_residual_bound_raises(self, monkeypatch):
        # with the bound tightened, some rows of each stack miss it, and the lowest one raises, not the
        # first failing row of the first group that has one
        stacks = list(seeded_stage_stacks())[5::5]
        for tol in (2e-16, 8e-16):
            monkeypatch.setattr(spinaxes.axes, "ROOT_RESIDUAL_TOL", tol)
            stages = [self.assert_same_stages(*stack)[1] for stack in stacks]
            assert stages == ["roots"] * len(stacks)

    def test_roots_at_zero_and_at_infinity(self):
        rng = np.random.default_rng(52)
        rows, ks = [], []
        for k in range(1, 7):
            for low in range(3):
                for top in range(3):
                    if low + top >= 2 * k:
                        continue
                    row = np.zeros(2 * 6 + 1, dtype=complex)
                    row[:2 * k + 1] = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
                    row[:top] = 1e-14 * (top % 2) * row[:top]  # t[k, k ...]: roots at infinity, zero or tiny
                    row[2 * k + 1 - low:2 * k + 1] = 0.0  # t[k, ... -k]: exact roots at Z = 0
                    rows.append(row)
                    ks.append(k)
        coeffs, deficiency, present = _polynomials(np.array(rows), np.array(ks))
        assert present.all() and deficiency.any() and (coeffs[:, 0] == 0).any()
        for order in (slice(None), slice(None, None, -1)):
            self.assert_same_stages(coeffs[order], deficiency[order], np.array(ks)[order])  # unpaired sets raise
        # conjugation-symmetric rows pair: a state with t[k, +-k] = 0 has roots at 0 and at infinity alike
        t = random_tensor_components(HalfInt(6), rng).array.copy()
        t[[k * k for k in range(1, 7)] + [k * k + 2 * k for k in range(1, 7)]] = 0.0
        assert isinstance(self.assert_same_stages(*rank_rows([TensorComponents(HalfInt(6), t)])), bytes)

    def test_interleaved_spans_and_deficiencies_of_one_rank(self):
        # rank-3 rows whose exact zeros at the low end, deficiencies and deficient coefficients (exact zeros or
        # tiny) differ from row to row, in shuffled order
        rng = np.random.default_rng(54)
        coeffs, deficiency = [], []
        for low, defic, tiny in itertools.product(range(4), range(3), range(2)):
            c = rng.normal(size=7) + 1j * rng.normal(size=7)
            c[7 - defic:] *= 1e-14 * tiny
            c[:low] = 0.0
            coeffs.append(c)
            deficiency.append(defic)
        coeffs += [np.array([0, 0, 0, 0, 0, 0, 1.0 + 0j]), np.array([0, 0, 0, 2.0, 0, 0, 0j])]  # no nonzero C_r in
        deficiency += [2, 3]  # C_0 ... C_degree, and C_3 alone
        rows = rng.permutation(len(coeffs))
        stack = (np.array(coeffs)[rows], np.array(deficiency)[rows], np.full(len(rows), 3))
        assert len({(int(d), int(np.argmax(c != 0))) for c, d in zip(*stack[:2])}) > 10
        roots = stage_outcome(_root_points, *stack)
        assert isinstance(roots, bytes) and roots == stage_outcome(reference_root_points, *stack)

    def test_constant_polynomial_points_sit_at_the_pole(self):
        # C_0 alone, although the deficiency claims degree 2: both points at (0, 0), as a rank with no finite root
        coeffs = np.array([[1.0 + 0j, 0.0, 0.0], [0.5, 1.0, 2.0]])
        for deficiency in ([0, 0], [1, 0]):
            self.assert_same_stages(coeffs, np.array(deficiency), np.array([1, 1]))
        with pytest.raises(DomainError, match="degree deficiency 2, not 0"):
            RankPolynomial(k=1, coefficients=[1.0, 0.0, 0.0], degree_deficiency=0)

    def test_exact_ties_and_unpaired_sets_in_one_stack(self):
        tie, pair, unpaired, triple, close, loose = (SPECIAL_SETS[name] for name in
                                                     ("tie", "pair", "unpaired", "triple", "close", "loose"))
        for sets in ([tie, pair, triple], [pair, tie + pair, unpaired, tie], [triple, unpaired + pair, unpaired],
                     [pair, close, tie, close], [close, pair, loose, close], [tie, loose + pair, unpaired]):
            assert stage_outcome(_pairings, *point_stack(sets)) == stage_outcome(reference_pairings, *point_stack(sets))
        assert PAIRING_TOL < 5e-7
        assert isinstance(stage_outcome(_pairings, *point_stack([pair, close, tie, close])), bytes)
        message, _, index = stage_outcome(_pairings, *point_stack([close, pair, loose, close]))
        assert "(best mismatch 3.000e-06 rad > 1.490e-06)" in message and index == 2
        axes = _pairings(np.array([tie]), np.array([2]))[0]  # pairs (0, 2) and (1, 3), scan order on the tie
        assert axes[:, 1] == pytest.approx([math.pi, math.pi / 4], abs=1e-6)

    def test_settled_rows_interleaved_with_scanned_ones(self, monkeypatch):
        # generic rows and the exact pair settle from v_i . v_j; the other hand-made sets and the clusters of
        # rotated coherent, Dicke and GHZ states run the scan, wherever they sit in the stack
        rng = np.random.default_rng(56)
        generic = [pts for tj in (2, 3, 5, 8) for pts in root_point_sets(random_tensor_components(HalfInt(tj), rng))]
        states = []
        for tj in (3, 4, 6):
            ghz, dicke = np.zeros(tj + 1), np.zeros(tj + 1)
            ghz[[0, tj]], dicke[tj // 2] = math.sqrt(0.5), 1.0
            states += [to_tensor(DensityMatrix(np.outer(vec, vec))) for vec in (ghz, dicke)]
            states.append(to_tensor(symmetrize_pure([Spinor(0.7, 2.3)] * tj)))
        degenerate = [pts for t in states for pts in root_point_sets(rotate_tensor(t, *rng.uniform(0.3, 2.5, size=3)))]
        sorted_rows = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):  # records how many rows reach the scan
            sorted_rows.append(len(a))
            return argsort(a, *args, **kwargs)

        scanned = [pts for name, pts in SPECIAL_SETS.items() if name != "pair"]
        outcomes = set()
        for trial in range(40):
            extra = [scanned[trial % 5], scanned[(trial + 2) % 5]][:1 + trial % 2]
            sets = generic[trial % 7::7] + [SPECIAL_SETS["pair"]] + extra
            sets = [sets[i] for i in rng.permutation(len(sets))]
            points, ks = point_stack(sets)
            expected = stage_outcome(reference_pairings, points, ks)
            monkeypatch.setattr(np, "argsort", spy)
            assert stage_outcome(_pairings, points, ks) == expected
            monkeypatch.undo()
            assert sorted_rows.pop() == 1 + trial % 2 and not sorted_rows
            outcomes.add(expected if isinstance(expected, bytes) else expected[1:])
            sets = generic[trial % 5::5] + degenerate[trial % 11::11]
            sets = [sets[i] for i in rng.permutation(len(sets))]
            assert stage_outcome(_pairings, *point_stack(sets)) == stage_outcome(reference_pairings, *point_stack(sets))
        indices = {outcome[1] for outcome in outcomes if isinstance(outcome, tuple)}
        assert len(indices) > 3 and any(isinstance(outcome, bytes) for outcome in outcomes)

    def test_pairs_missing_by_nearly_the_tolerance(self):
        # a pair missing by 0.4 PAIRING_TOL settles on its dot product alone, by 0.6 and 0.99 on the atan2 of its
        # mismatch, and one missing by 1.01 PAIRING_TOL takes the scan and fails to pair
        def pair(miss, theta, phi):
            return [(theta, phi), (math.pi - theta + miss * PAIRING_TOL, phi + math.pi)]

        near = [pair(0.4, 0.9, 0.4), pair(0.6, 2.0, 1.0) + pair(0.4, 1.3, 5.0), pair(0.99, 0.7, 2.5),
                pair(0.99, 1.9, 4.1) + pair(0.6, 0.2, 3.0)]
        far = [pair(1.01, 1.1, 0.8), pair(0.4, 2.4, 0.3) + pair(1.01, 0.5, 1.7)]
        for sets in (near, near[:2] + far[:1] + near[2:], far[1:] + near, near[::-1] + far):
            points, ks = point_stack(sets)
            expected = stage_outcome(reference_pairings, points, ks)
            assert stage_outcome(_pairings, points, ks) == expected
            assert isinstance(expected, bytes) == (sets is near)

    def test_point_near_two_antipodes_takes_the_scan(self, monkeypatch):
        # on the equator, A at 0 is 0.9e-3 rad from the antipode of A' and 0.5e-3 from that of B', B 0.6e-3 from that
        # of B' and 2e-3 from that of A'; every point's first near antipode (B', A', A, B) is mutual, but the scan
        # takes (A, B') first and then finds B 2e-3 rad from A''s antipode
        monkeypatch.setattr(spinaxes.axes, "PAIRING_TOL", 1e-3)
        phis = [-1.1e-3, 0.0, math.pi + 0.9e-3, math.pi - 0.5e-3]  # B, A, A', B'
        points, ks = point_stack([[(math.pi / 2, phi % (2 * math.pi)) for phi in phis]])
        message, stage, index = stage_outcome(_pairings, points, ks)
        assert (message, stage, index) == stage_outcome(lambda *stack: reference_pairings(*stack, tol=1e-3), points, ks)
        assert "(best mismatch 2.000e-03 rad > 1.000e-03)" in message and (stage, index) == ("pairing", 0)

    def test_generic_high_j_stack_never_reaches_the_scan(self, monkeypatch):
        coeffs, deficiency, ks = rank_rows([to_tensor(random_density_matrix(8, np.random.default_rng(57)))])
        points = _root_points(coeffs, deficiency, ks)
        expected = reference_pairings(points, ks)

        def argsort(*args, **kwargs):
            raise AssertionError("the stable argsort of the scan ran")

        monkeypatch.setattr(np, "argsort", argsort)
        assert _pairings(points, ks).tobytes() == expected.tobytes()

    def test_earlier_row_failing_at_pairing_wins_over_a_later_roots_failure(self, monkeypatch):
        coherent = to_tensor(symmetrize_pure([Spinor(0.7, 2.3)] * 6))  # fails to pair at rank 6
        t = random_tensor_components(HalfInt(6), np.random.default_rng(53))
        c = np.sqrt([math.comb(12, r) for r in range(13)]) * t.rank_array(6)[::-1]
        marked = -c[11] / c[12]  # top-left entry of its rank-6 companion matrix
        real = np.linalg.eigvals

        def eigvals(matrices):  # the roots of t's rank-6 polynomial come back a little off
            values = real(matrices)
            return values + 1e-3 * (np.abs(matrices[..., 0, 0] - marked) < 1e-12)[:, None]

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        with pytest.raises(DecompositionError) as pairing:
            decompose(coherent)
        with pytest.raises(DecompositionError) as roots:
            decompose(t)
        assert (pairing.value.rank, pairing.value.stage, roots.value.rank, roots.value.stage) == (6, "pairing",
                                                                                                  6, "roots")
        expected = lowest_row_outcome(reference_root_points, *rank_rows([t]))
        assert str(roots.value) == f"rank 6: {expected[0]}"
        for stack, index, alone in (([coherent, t], 0, pairing), ([t, coherent], 0, roots),
                                    ([t, t, coherent, t], 0, roots), ([TensorComponents(HalfInt(6)), coherent, t],
                                                                      1, pairing)):
            with pytest.raises(DecompositionError) as info:
                decompose_many(stack)
            assert (str(info.value), info.value.stage, info.value.rank, info.value.index) == (
                str(alone.value), alone.value.stage, alone.value.rank, index)


class TestScalarR:
    def test_rank1_along_z(self):
        value = 0.9
        t = TensorComponents(1, {(1, 0): value})
        r, flipped, residual = scalar_r(t, 1, [(0.0, 0.0)])
        assert r == pytest.approx(value, abs=1e-14)
        assert not flipped
        assert residual < 1e-14

    def test_rank1_flip_for_negative_component(self):
        t = TensorComponents(1, {(1, 0): -0.9})
        r, flipped, residual = scalar_r(t, 1, [(0.0, 0.0)])
        assert r == pytest.approx(0.9, abs=1e-14)
        assert flipped
        assert residual < 1e-14

    def test_rank2_pure_state_scale(self):
        for theta in (0.3, 1.0, 2.0, 2.8):
            t = pure_tensor(theta)
            axes = [(theta, 0.0), (theta, math.pi)]
            r, flipped, residual = scalar_r(t, 2, axes)
            assert r == pytest.approx(math.sqrt(3) / (1 + math.cos(theta) ** 2), abs=1e-12)
            assert not flipped
            assert residual < 1e-12

    def test_axis_count_mismatch(self):
        with pytest.raises(DomainError):
            scalar_r(TensorComponents(1, {(2, 0): 1.0}), 2, [(0.0, 0.0)])


class TestDecompose:
    def test_past_2j_33_decomposes_or_raises_only_library_errors(self):
        # from 2j = 34 some binom(2k, r) passes 2^63; the weights are still floats, sqrt of each comb as a float
        width = 2 * 40 + 1
        expected = [[math.sqrt(math.comb(2 * k, r)) for r in range(width)] for k in range(width // 2 + 1)]
        assert _binomial_weights(width).tobytes() == np.array(expected).tobytes()
        # one state of each kind per 2j; to_tensor reads the diagonals of tau, ~1.7 MB with their positions at
        # 2j = 40, and builds no dense operator basis, which would be ~45 MB there
        for tj in (34, 40):
            rng = np.random.default_rng(tj)
            for pure in (False, True):
                try:
                    decompose(to_tensor(random_density_matrix(HalfInt(tj), rng, pure=pure)))
                except (DecompositionError, DomainError):
                    pass

    def test_maximally_mixed_all_ranks_empty(self):
        form = decompose(to_tensor(DensityMatrix.maximally_mixed(1.5)))
        assert form.present_ranks == ()
        assert form.n_axes == 0

    def test_pure_state_at_sixty_degrees(self):
        theta = math.pi / 3
        form = decompose(pure_tensor(theta))
        rank1 = form.rank(1)
        assert rank1.angles[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert rank1.r == pytest.approx(2 * math.sqrt(6) / 5, abs=1e-12)
        rank2 = form.rank(2)
        assert rank2.r == pytest.approx(4 * math.sqrt(3) / 5, abs=1e-12)
        got = sorted(rank2.angles.tolist(), key=lambda tp: tp[1])
        assert got[0][0] == pytest.approx(theta, abs=1e-9)
        assert got[0][1] == pytest.approx(0.0, abs=1e-9)
        assert got[1][0] == pytest.approx(theta, abs=1e-9)
        assert got[1][1] == pytest.approx(math.pi, abs=1e-9)

    def test_rank1_empty_at_ninety_degrees(self):
        form = decompose(pure_tensor(math.pi / 2))
        assert form.ranks[1] is None
        assert form.present_ranks == (2,)

    def test_residuals_and_reconstruction(self):
        rng = np.random.default_rng(22)
        for tj in (1, 2, 3, 4):
            for _ in range(10):
                t = random_tensor_components(HalfInt(tj), rng)
                form = decompose(t)
                for k in form.present_ranks:
                    assert form.rank(k).residual <= 1e-8
                    assert form.rank(k).r >= 0.0
                rebuilt = reconstruct_tensor(form)
                for k in range(1, tj + 1):
                    dev = np.max(np.abs(rebuilt.rank_array(k) - t.rank_array(k)))
                    assert dev < 1e-8

    def test_equivariance_under_rotation(self):
        # axes rotate as lines (by the transposed Cartesian matrix in this
        # passive convention), scales stay put
        rng = np.random.default_rng(23)
        for _ in range(20):
            tj = int(rng.integers(1, 5))
            t = random_tensor_components(HalfInt(tj), rng)
            phi, psi = rng.uniform(0, 2 * math.pi, size=2)
            theta = math.acos(rng.uniform(-1, 1))
            base = decompose(t)
            rotated = decompose(rotate_tensor(t, phi, theta, psi))
            assert base.present_ranks == rotated.present_ranks
            m = euler_rotation_cartesian(phi, theta, psi)
            for k in base.present_ranks:
                assert rotated.rank(k).r == pytest.approx(base.rank(k).r, abs=1e-8)
                expected = [m.T @ vec for vec in unit_vector(*base.rank(k).angles.T)]
                actual = list(unit_vector(*rotated.rank(k).angles.T))
                for e in expected:
                    dots = [abs(float(np.dot(e, a))) for a in actual]
                    idx = int(np.argmax(dots))
                    assert math.acos(min(1.0, dots[idx])) < 1e-7
                    actual.pop(idx)

    def test_axis_frame_rotation_kills_stretched_components(self):
        # rotating the frame z-axis onto any axis-pair direction must zero the
        # q = +-k components of that rank
        rng = np.random.default_rng(24)
        for _ in range(10):
            tj = int(rng.integers(1, 5))
            t = random_tensor_components(HalfInt(tj), rng)
            form = decompose(t)
            for k in form.present_ranks:
                for theta, phi in form.rank(k).angles.tolist():
                    t_rot = rotate_tensor(t, phi, theta, 0.0)
                    assert abs(t_rot[(k, k)]) < 1e-8
                    assert abs(t_rot[(k, -k)]) < 1e-8

    def test_conjugation_violation_raises(self):
        bad = TensorComponents(1, {(1, 1): 0.4, (1, -1): 0.4})
        with pytest.raises(ValidationError):
            decompose(bad)

    def test_high_spin_headroom(self):
        # j = 5: rank-10 polynomial, 55 axes; the pipeline must stay exact
        rng = np.random.default_rng(25)
        t = random_tensor_components(HalfInt(10), rng)
        form = decompose(t)
        assert form.n_axes == 55
        rebuilt = reconstruct_tensor(form)
        for k in range(1, 11):
            assert np.max(np.abs(rebuilt.rank_array(k) - t.rank_array(k))) < 1e-10


def reference_couple(a, b, rank):
    """The per-term loop that couple's table contraction replaced."""
    k1, k2 = (len(a) - 1) // 2, (len(b) - 1) // 2
    out = np.zeros(2 * rank + 1, dtype=complex)
    for i1 in range(len(a)):
        for i2 in range(len(b)):
            q = k1 - i1 + k2 - i2
            if abs(q) <= rank:
                cg = clebsch_gordan(k1, k2, rank, k1 - i1, k2 - i2, q)
                if cg:
                    out[rank - q] += cg * a[i1] * b[i2]
    return out


class TestCoupleTable:
    def test_batch_matches_per_term_loop(self):
        rng = np.random.default_rng(9)
        for k1, k2 in ((0, 1), (1, 1), (2, 1), (3, 2), (7, 1), (15, 1)):
            a = rng.normal(size=(4, 2 * k1 + 1)) + 1j * rng.normal(size=(4, 2 * k1 + 1))
            b = rng.normal(size=(4, 2 * k2 + 1)) + 1j * rng.normal(size=(4, 2 * k2 + 1))
            for rank in range(abs(k1 - k2), k1 + k2 + 1):
                batch = couple(a, b, rank)
                assert batch.shape == (4, 2 * rank + 1)
                for row in range(4):
                    assert np.array_equal(batch[row], reference_couple(a[row], b[row], rank))
                    assert np.array_equal(couple(a[row], b[row], rank), batch[row])
                assert np.array_equal(couple(a[0], b, rank)[0], batch[0])  # batch axes broadcast


def reference_chain(axes):
    """(...((Q1 x Q2)^2 x Q3)^3 ...)^k of one set of (theta, phi) rows, one couple call per step."""
    first, *rest = np.asarray(axes).tolist()
    prod = scalar_components(*first)
    for rank, axis in enumerate(rest, start=2):
        prod = couple(prod, scalar_components(*axis), rank)
    return prod


def random_axes(rng, k):
    return [(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)) for _ in range(k)]


class TestSharedCouplingChain:
    def test_reconstruct_tensor_matches_per_rank_chain(self):
        rng = np.random.default_rng(47)
        for tj in (1, 2, 5, 12, 16):
            for absent in (set(), {tj}, {1, tj // 2 + 1}, set(range(1, tj + 1))):
                ranks = {k: None if k in absent else RankDecomposition(tuple(random_axes(rng, k)),
                                                                        rng.uniform(0.1, 2.0), False, 0.0)
                         for k in range(1, tj + 1)}
                form = MultiaxialForm(j=HalfInt(tj), ranks=ranks)
                expected = [np.ones(1)] + [np.zeros(2 * k + 1) if dec is None else dec.r * reference_chain(dec.axes)
                                           for k, dec in ranks.items()]
                assert np.array_equal(reconstruct_tensor(form).array, np.concatenate(expected))
                for dec in filter(None, ranks.values()):
                    assert np.array_equal(coupled_axes_tensor(dec.axes), reference_chain(dec.axes))

    def test_scales_match_per_rank_chain(self):
        rng = np.random.default_rng(48)
        for tj in (1, 2, 5, 12, 16):
            t = random_tensor_components(HalfInt(tj), rng)
            ks = [k for k in range(tj, 0, -1) if k != tj // 2 + 1 or tj == 1] * 2  # mixed ranks, out of order
            axes_rows = [random_axes(rng, k) for k in ks]
            targets = np.zeros((len(ks), 2 * tj + 3), dtype=complex)  # padded past the widest row
            angles = np.zeros((len(ks), tj + 1, 2))
            for row, k in enumerate(ks):
                targets[row, :2 * k + 1] = t.rank_array(k)
                angles[row, :k] = axes_rows[row]
            expected = []
            for k, axes in zip(ks, axes_rows):
                prod = reference_chain(axes)
                imax = int(np.argmax(np.abs(prod)))
                r = float((t.rank_array(k)[imax] / prod[imax]).real)
                flipped = r < 0.0
                if flipped:
                    r, prod = -r, -prod
                expected.append((r, flipped, float(np.max(np.abs(t.rank_array(k) - r * prod)))))
            got = spinaxes.axes._scales(targets, angles, np.array(ks))
            for array, column in zip(got, zip(*expected)):
                assert array.tobytes() == np.array(column).tobytes()

    def test_one_couple_call_per_step(self, monkeypatch):
        calls = []
        real = spinaxes.axes.couple

        def counting(a, b, rank):
            calls.append(rank)
            return real(a, b, rank)

        monkeypatch.setattr(spinaxes.axes, "couple", counting)
        form = decompose(random_tensor_components(HalfInt(5), np.random.default_rng(49)))
        assert calls == [2, 3, 4, 5]
        calls.clear()
        reconstruct_tensor(form)
        assert calls == [2, 3, 4, 5]


def reference_decompose(t, residual_tol=RESIDUAL_TOL, pairing_tol=PAIRING_TOL):
    """The per-state decompose that decompose_many replaced, kept as its oracle.

    Returns {k: None or (axes as (theta, phi), r, flipped, residual)}.
    """
    t.validate(1e-8)
    ranks = {}
    for k in range(1, t.j.twice + 1):
        try:
            arr = t.rank_array(k)
            if float(np.max(np.abs(arr))) < EMPTY_RANK_TOL:
                ranks[k] = None
                continue
            coeffs = np.sqrt([math.comb(2 * k, r) for r in range(2 * k + 1)]) * arr[::-1]
            cmax = float(np.max(np.abs(coeffs)))
            deficiency = 2 * k - int(np.flatnonzero(np.abs(coeffs) > DEFICIENCY_REL_TOL * cmax)[-1])
            degree = 2 * k - deficiency
            pts = [(0.0, 0.0)] * deficiency
            if degree:
                highest_first = coeffs[: degree + 1][::-1]
                roots = np.roots(highest_first)
                roots = roots[np.lexsort((roots.imag, roots.real))]
                values = np.abs(np.polyval(highest_first, roots))
                bounds = ROOT_RESIDUAL_TOL * cmax * (degree + 1) * np.maximum(1.0, np.abs(roots)) ** degree
                bad = np.flatnonzero(values > bounds)
                if bad.size:
                    i = bad[0]
                    raise DecompositionError(
                        f"root {roots[i]!r} of the rank-{k} polynomial has residual {values[i]:.3e} "
                        f"(bound {bounds[i]:.3e})"
                    )
                pts.extend(reference_root_point(complex(z)) for z in roots)
            vecs = np.array([scalar_unit_vector(theta, phi) for theta, phi in pts]).reshape(-1, 3)
            cross = np.linalg.norm(np.cross(vecs[:, None, :], vecs[None, :, :]), axis=-1)
            dots = vecs @ vecs.T
            cluster = int(np.sum(np.arctan2(cross, dots) < 1e-3, axis=1).max(initial=1))
            eff_tol = max(pairing_tol, 100.0 * np.finfo(float).eps ** (1.0 / cluster))
            mismatch = np.arctan2(cross, -dots)
            mismatch[np.tril_indices(len(pts))] = np.inf
            axes = []
            for _ in range(k):
                i, j = np.unravel_index(np.argmin(mismatch), mismatch.shape)
                ang = mismatch[i, j]
                if ang > eff_tol:
                    raise DecompositionError(
                        f"root point {pts[i]} has no antipodal partner "
                        f"(best mismatch {ang:.3e} rad > {eff_tol:.3e}); "
                        "the input tensor likely violates conjugation symmetry"
                    )
                mismatch[[i, j], :] = mismatch[:, [i, j]] = np.inf
                mean = vecs[i] - vecs[j]
                mean /= np.linalg.norm(mean)
                axes.append(scalar_from_cartesian(scalar_canonical_rep(mean)))
            axes.sort(key=lambda ax: (round(ax[0], 9), round(ax[1], 9), *ax))
            prod = scalar_components(*axes[0])
            for rank, axis in enumerate(axes[1:], start=2):
                prod = reference_couple(prod, scalar_components(*axis), rank)
            imax = int(np.argmax(np.abs(prod)))
            if abs(prod[imax]) < 1e-10:
                raise DecompositionError(
                    f"coupled axis tensor vanishes at rank {k} while the tensor components do not"
                )
            r = float((arr[imax] / prod[imax]).real)
            flipped = r < 0.0
            if flipped:
                r, prod = -r, -prod
                axes[-1] = (math.pi - axes[-1][0], _wrap_azimuth(axes[-1][1] + math.pi))
            residual = float(np.max(np.abs(arr - r * prod)))
            if residual > residual_tol:
                raise DecompositionError(f"reconstruction residual {residual:.3e} exceeds {residual_tol:.1e}")
            ranks[k] = (axes, r, flipped, residual)
        except DecompositionError as exc:
            raise DecompositionError(f"rank {k}: {exc}") from exc
    return ranks


def summary(form):
    return {
        k: None if d is None else ([tuple(row) for row in d.angles.tolist()], d.r, d.flipped, d.residual)
        for k, d in form.ranks.items()
    }


def first_failure(fn, ts):
    """(index, type, message) of what a loop of fn over ts raises first, or None."""
    for index, t in enumerate(ts):
        try:
            fn(t)
        except (DecompositionError, ValidationError) as exc:
            return (index, type(exc), str(exc))
    return None


def with_rank_scaled(t, k, factor):
    arr = t.array.copy()
    arr[k * k:(k + 1) ** 2] *= factor
    return TensorComponents(t.j, arr)


def seeded_stack(tj, rng):
    """Random and degenerate tensors of one j: absent ranks, z-aligned states, coincident axes."""
    stack = []
    for cols in (1, tj + 1):  # a pure and a Ginibre mixed state
        vec = rng.normal(size=(tj + 1, cols)) + 1j * rng.normal(size=(tj + 1, cols))
        mat = vec @ vec.conj().T
        stack.append(to_tensor(DensityMatrix(mat / mat.trace().real)))
    stack.append(random_tensor_components(HalfInt(tj), rng))
    stack.append(with_rank_scaled(random_tensor_components(HalfInt(tj), rng), (tj + 1) // 2, 0.0))
    stack.append(to_tensor(DensityMatrix.maximally_mixed(HalfInt(tj))))
    for m in (0, tj // 2):  # coherent |j,j> and Dicke |j,m>: roots at 0 and infinity
        vec = np.zeros(tj + 1)
        vec[m] = 1.0
        stack.append(to_tensor(DensityMatrix(np.outer(vec, vec))))
    a, b = (0.6, 1.2), (2.1, 4.0)
    comps = {}
    for k in range(1, tj + 1):
        prod = 0.7 * coupled_axes_tensor([a] * (k - k // 3) + [b] * (k // 3))
        comps.update({(k, q): prod[k - q] for q in range(-k, k + 1)})
    stack.append(TensorComponents(HalfInt(tj), comps))
    spinors = [Spinor(0.7, 2.3), Spinor(2.0, 0.4)] * (tj // 2) + [Spinor(1.1, 5.0)] * (tj % 2)
    stack.append(to_tensor(symmetrize_pure(spinors)))
    phi, psi = rng.uniform(0, 2 * math.pi, size=2)
    theta = math.acos(rng.uniform(-1, 1))
    return stack + [rotate_tensor(t, phi, theta, psi) for t in stack]


def passing_forms(stack):
    """(t, decompose(t)) of every tensor of the stack that decomposes."""
    out = []
    for t in stack:
        try:
            out.append((t, decompose(t)))
        except DecompositionError:
            pass
    return out


class TestArrayBackedForms:
    def test_angles_are_read_only_views_equal_to_the_stack_slices(self):
        rng = np.random.default_rng(61)
        for tj in (1, 2, 5, 16):
            ts = [t for t, _ in passing_forms(seeded_stack(tj, rng))]
            present, angles = spinaxes.axes._decompose_stack(np.array([t.array for t in ts]), tj)[:2]
            for item, form in enumerate(decompose_many(ts)):
                assert form.present_ranks == tuple(k for k in range(1, tj + 1) if present[item, k - 1])
                for k in form.present_ranks:
                    dec = form.rank(k)
                    assert dec.angles.shape == (k, 2) and not dec.angles.flags.writeable
                    assert dec.angles.tobytes() == angles[item, k - 1, :k].tobytes()
                    with pytest.raises(ValueError):
                        dec.angles[0, 0] = 1.0
                    assert dec.axes is dec.angles

    def test_a_kept_form_pins_only_its_own_block(self):
        rng = np.random.default_rng(64)
        tj, count = 8, 60
        ts = [random_tensor_components(HalfInt(tj), rng) for _ in range(count)]
        decompose_many(ts)  # warm the caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = decompose_many(ts)[count // 2]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        block = tj * tj * 2 * 8  # one item's (2j, 2j, 2) float angles
        assert held < count * block // 4  # the whole stack's angles would be count blocks
        for k in kept.present_ranks:
            assert kept.rank(k).angles.base.shape == (tj, tj, 2)

    def test_axis_built_forms_match_array_backed_ones_bit_for_bit(self):
        rng = np.random.default_rng(63)
        for tj in (1, 2, 5, 12, 16):
            for t, form in passing_forms(seeded_stack(tj, rng)):
                rows = {k: None if d is None else list(map(tuple, d.angles.tolist())) for k, d in form.ranks.items()}
                ranks = {k: None if d is None else RankDecomposition(rows[k], d.r, d.flipped, d.residual)  # by position
                         for k, d in form.ranks.items()}
                rebuilt = MultiaxialForm(form.j, ranks)
                for k in form.present_ranks:
                    assert rebuilt.rank(k).angles.tobytes() == form.rank(k).angles.tobytes()
                    assert not rebuilt.rank(k).angles.flags.writeable
                    axes = rows[k]
                    assert coupled_axes_tensor(axes).tobytes() == coupled_axes_tensor(form.rank(k).angles).tobytes()
                    assert scalar_r(t, k, axes) == scalar_r(t, k, form.rank(k).angles)
                assert reconstruct_tensor(rebuilt).array.tobytes() == reconstruct_tensor(form).array.tobytes()

    def test_a_writable_array_is_copied_read_only(self):
        angles = np.array([[0.5, 1.0], [2.0, 3.0]])
        dec = RankDecomposition(angles, 1.0, False, 0.0)
        angles[0, 0] = 0.0
        assert dec.angles.tolist() == [[0.5, 1.0], [2.0, 3.0]] and not dec.angles.flags.writeable

    def test_malformed_forms_raise(self):
        a, b = (0.3, 1.0), (2.0, 4.0)
        for ranks in (
            lambda: {1: RankDecomposition((a, b), 1.0, False, 0.0)},  # rank 1 holding two axes
            lambda: {2: RankDecomposition((a,), 1.0, False, 0.0)},  # rank 2 holding one
            lambda: {2: RankDecomposition(np.zeros((0, 2)), 1.0, False, 0.0)},
            lambda: {2: RankDecomposition(np.zeros((2, 3)), 1.0, False, 0.0)},  # refused as it is built
            lambda: {3: RankDecomposition((a, b, a), 1.0, False, 0.0)},  # beyond 2j at spin 1
            lambda: {0: None},
        ):
            with pytest.raises(DomainError):
                MultiaxialForm(HalfInt(2), ranks())
        assert MultiaxialForm(HalfInt(2), {1: None, 2: RankDecomposition((a, b), 1.0, False, 0.0)}).n_axes == 2


class TestAngleRange:
    def test_every_returned_angle_lies_in_the_convention_range(self):
        # the axes decompose returns need no clamp or wrap beyond the azimuth wrap of flipped last axes
        rng = np.random.default_rng(65)
        seen = {"flipped": 0, "theta=0": 0, "theta=pi": 0}
        for tj in range(1, 17):
            stack = seeded_stack(tj, rng)
            for vec in (np.eye(tj + 1)[-1], np.eye(tj + 1)[[0, -1]].sum(axis=0) / math.sqrt(2)):  # |j,-j>, GHZ
                stack.append(to_tensor(DensityMatrix(np.outer(vec, vec))))
            ts, forms = zip(*passing_forms(stack))
            for form, many in zip(forms, decompose_many(ts)):
                for k in form.present_ranks:
                    angles = form.rank(k).angles
                    assert angles.tobytes() == many.rank(k).angles.tobytes()
                    theta, phi = angles.T
                    assert ((0.0 <= theta) & (theta <= math.pi) & (0.0 <= phi) & (phi < 2 * math.pi)).all()
                    assert not np.signbit(angles).any()
                    seen["flipped"] += form.rank(k).flipped
                    seen["theta=0"] += int((theta == 0.0).sum())
                    seen["theta=pi"] += int((theta == math.pi).sum())
        assert min(seen.values()) > 0, seen


class TestDecomposeMany:
    def test_matches_per_state_reference(self):
        rng = np.random.default_rng(41)
        for tj in (1, 2, 3, 5, 8, 12, 16):
            stack = seeded_stack(tj, rng)
            passing = []
            for t in stack:
                try:
                    expected = reference_decompose(t)
                except DecompositionError as exc:
                    with pytest.raises(DecompositionError) as info:
                        decompose(t)
                    assert str(info.value) == str(exc)
                    continue
                assert summary(decompose(t)) == expected
                passing.append((t, expected))
            assert len(passing) >= len(stack) // 2  # degenerate states off the z-axis may fail
            forms = decompose_many([t for t, _ in passing])
            assert [summary(form) for form in forms] == [expected for _, expected in passing]

    def test_lowest_failing_index_wins(self, monkeypatch):
        monkeypatch.setattr(spinaxes.axes, "RESIDUAL_TOL", 1e-12)
        rng = np.random.default_rng(42)
        good = random_tensor_components(HalfInt(3), rng)
        at_rank3 = with_rank_scaled(random_tensor_components(HalfInt(3), rng), 3, 1e6)
        at_rank1 = with_rank_scaled(random_tensor_components(HalfInt(3), rng), 1, 1e6)
        broken = TensorComponents(HalfInt(3), np.where(np.arange(16) == 5, np.nan, good.array))
        for stack, index, rank in (
            ([good, at_rank3, at_rank1], 1, 3),
            ([good, at_rank1, at_rank3], 1, 1),
            ([at_rank3, good, broken, at_rank1], 0, 3),
            ([good, broken, at_rank1], 1, None),
            ([broken, at_rank1], 0, None),
        ):
            expected = first_failure(lambda t: reference_decompose(t, residual_tol=1e-12), stack)
            assert expected[0] == index
            with pytest.raises((DecompositionError, ValidationError)) as info:
                decompose_many(stack)
            assert (info.value.index, type(info.value), str(info.value)) == expected
            assert getattr(info.value, "rank", None) == rank

    def test_lowest_invalid_item_raises_its_validate_message(self):
        rng = np.random.default_rng(45)
        good = [random_tensor_components(HalfInt(2), rng) for _ in range(4)]
        mirrored = TensorComponents(HalfInt(2), {(1, 1): 0.3, (1, -1): 0.3})  # should be -conj
        big_trace = TensorComponents(HalfInt(2), np.where(np.arange(9) == 0, 1.5, good[0].array))
        infinite = TensorComponents(HalfInt(2), np.where(np.arange(9) == 4, np.inf, good[0].array))
        for bad in (mirrored, big_trace, infinite):
            with pytest.raises(ValidationError) as alone:
                bad.validate(INPUT_TOL)
            assert alone.value.index == 0
            for stack, index in (([bad] + good, 0), (good[:2] + [bad] + good[2:], 2), (good + [bad], 4)):
                for later in ([], [mirrored, big_trace, infinite]):  # bad items after the lowest change nothing
                    with pytest.raises(ValidationError) as info:
                        decompose_many(stack + later)
                    assert (info.value.index, str(info.value)) == (index, str(alone.value))
        with pytest.raises(ValidationError) as info:
            decompose_many(good[:1] + [big_trace, mirrored])
        assert (info.value.index, str(info.value)) == (1, "t[0,0] must be 1 (unit trace), got 1.5+0j")
        with pytest.raises(ValidationError) as info:
            decompose_many(good[:1] + [mirrored, big_trace])
        assert info.value.index == 1 and str(info.value).startswith("conjugation symmetry violated by 6.000e-01")

    def test_valid_stack_validates_as_each_item_alone(self):
        rng = np.random.default_rng(46)
        for tj in (1, 2, 5, 16):
            stack = [random_tensor_components(HalfInt(tj), rng) for _ in range(5)]
            nudged = stack[0].array + np.where(np.arange((tj + 1) ** 2) == 0, 0.9 * INPUT_TOL, 0.0)
            stack.append(TensorComponents(HalfInt(tj), nudged))  # t[0,0] off by less than the tolerance
            for t in stack:
                t.validate(INPUT_TOL)
            _check_tensor_stack(np.array([t.array for t in stack]), tj, INPUT_TOL)
            assert [summary(form) for form in decompose_many(stack)] == [summary(decompose(t)) for t in stack]

    def test_error_reports_rank_and_stage(self, monkeypatch):
        rho = symmetrize_pure([Spinor(0.7, 2.3)] * 6)  # coherent state off the z-axis
        with pytest.raises(DecompositionError) as info:
            decompose(to_tensor(rho))
        assert (info.value.index, info.value.rank, info.value.stage) == (0, 6, "pairing")
        assert str(info.value).startswith("rank 6: root point")
        t = with_rank_scaled(random_tensor_components(HalfInt(2), np.random.default_rng(43)), 2, 1e6)
        monkeypatch.setattr(spinaxes.axes, "RESIDUAL_TOL", 1e-12)
        with pytest.raises(DecompositionError) as info:
            decompose_many([TensorComponents(HalfInt(2)), t])
        assert (info.value.index, info.value.rank, info.value.stage) == (1, 2, "residual")
        assert str(info.value).startswith("rank 2: reconstruction residual")

    def test_unconverged_eigensolve_fails_its_item_only(self, monkeypatch):
        rng = np.random.default_rng(44)
        ts = [random_tensor_components(HalfInt(1), rng) for _ in range(3)]
        c = np.sqrt([1.0, 2.0, 1.0]) * ts[1].rank_array(1)[::-1]  # C_0, C_1, C_2 of item 1
        marked = -c[1] / c[2]  # top-left entry of its companion matrix
        real = np.linalg.eigvals

        def eigvals(matrices):
            if np.any(np.abs(matrices[..., 0, 0] - marked) < 1e-12):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        with pytest.raises(DecompositionError) as info:
            decompose_many(ts)
        assert (info.value.index, info.value.rank, info.value.stage) == (1, 1, "roots")
        assert str(info.value).startswith("rank 1: root solver did not converge for rank 1 (coefficients array(")
        assert isinstance(info.value.__cause__.__cause__, np.linalg.LinAlgError)
        forms = decompose_many([ts[0], ts[2]])
        assert [summary(form) for form in forms] == [reference_decompose(ts[0]), reference_decompose(ts[2])]

    def test_lower_index_failing_at_a_later_stage_wins(self, monkeypatch):
        # both fail at rank 6: item 0 at pairing, item 1 at the eigensolve that runs before it
        coherent = to_tensor(symmetrize_pure([Spinor(0.7, 2.3)] * 6))
        t = random_tensor_components(HalfInt(6), np.random.default_rng(45))
        c = np.sqrt([math.comb(12, r) for r in range(13)]) * t.rank_array(6)[::-1]
        marked = -c[11] / c[12]  # top-left entry of its rank-6 companion matrix
        real = np.linalg.eigvals
        batches = []

        def eigvals(matrices):
            batches.append(len(matrices))
            if np.any(np.abs(matrices[..., 0, 0] - marked) < 1e-12):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        with pytest.raises(DecompositionError) as alone:
            decompose(coherent)
        batches.clear()
        with pytest.raises(DecompositionError) as info:
            decompose_many([coherent, t, coherent])
        assert 3 in batches  # one eigensolve for the rank-6 polynomials of all three
        assert (info.value.index, info.value.rank, info.value.stage) == (0, 6, "pairing")
        assert str(info.value) == str(alone.value)
        with pytest.raises(DecompositionError) as info:
            decompose_many([t, coherent])
        assert (info.value.index, info.value.rank, info.value.stage) == (0, 6, "roots")

    def test_lower_rank_failing_at_a_later_stage_wins(self, monkeypatch):
        # rank 6 fails at pairing; rank 8 fails at its eigensolve, a stage that runs before pairing
        coherent = to_tensor(symmetrize_pure([Spinor(0.7, 2.3)] * 8))
        good = random_tensor_components(HalfInt(8), np.random.default_rng(50))
        expected = first_failure(reference_decompose, [good, coherent])
        c = np.sqrt([math.comb(16, r) for r in range(17)]) * coherent.rank_array(8)[::-1]
        marked = -c[15] / c[16]  # top-left entry of its rank-8 companion matrix
        real = np.linalg.eigvals
        failed = []

        def eigvals(matrices):
            if np.any(np.abs(matrices[..., 0, 0] - marked) < 1e-12):
                failed.append(len(matrices))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        with pytest.raises(DecompositionError) as info:
            decompose(coherent)
        assert failed == [1, 1]  # the rank-8 eigensolve failed, batched and then alone
        assert (info.value.index, info.value.rank, info.value.stage) == (0, 6, "pairing")
        assert str(info.value) == expected[2]
        failed.clear()
        with pytest.raises(DecompositionError) as info:
            decompose_many([good, coherent])
        assert failed == [2, 1]  # batched with the rank-8 polynomial of good, then alone
        assert (info.value.index, type(info.value), str(info.value)) == expected
        assert (info.value.rank, info.value.stage) == (6, "pairing")

    def test_single_item_stage_errors_have_index_zero(self, monkeypatch):
        with pytest.raises(DecompositionError) as info:
            pair_and_canonicalize([(0.3, 0.0), (0.4, 1.0)])
        assert (info.value.index, info.value.rank, info.value.stage) == (0, None, "pairing")
        with pytest.raises(DecompositionError) as info:
            pair_and_canonicalize([(0.3, 0.0)])
        assert (info.value.index, info.value.stage) == (0, "pairing")
        t = random_tensor_components(HalfInt(2), np.random.default_rng(46))
        monkeypatch.setattr(spinaxes.axes, "_coupled", lambda angles, ks: np.zeros((len(ks), 5), dtype=complex))
        with pytest.raises(DecompositionError) as info:
            scalar_r(t, 2, [(0.3, 1.0), (2.0, 4.0)])
        assert (info.value.index, info.value.rank, info.value.stage) == (0, None, "scale")

        def eigvals(matrices):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        with pytest.raises(DecompositionError) as info:
            solve_axes(build_polynomial(t, 2))
        assert (info.value.index, info.value.rank, info.value.stage) == (0, None, "roots")
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_mixed_j_and_empty_stack(self):
        assert decompose_many([]) == []
        with pytest.raises(DomainError):
            decompose_many([TensorComponents(HalfInt(2)), TensorComponents(HalfInt(3))])
