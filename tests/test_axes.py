import math

import numpy as np
import pytest

import spinaxes.axes
from spinaxes.angular import (
    HalfInt, angle_between, clebsch_gordan, couple, euler_rotation_cartesian, unit_vector,
)
from spinaxes.axes import (
    DEFICIENCY_REL_TOL,
    EMPTY_RANK_TOL,
    PAIRING_TOL,
    RESIDUAL_TOL,
    ROOT_RESIDUAL_TOL,
    Axis,
    MultiaxialForm,
    RankDecomposition,
    RankPolynomial,
    _canonical_rep,
    _root_point,
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
from spinaxes.states import Spinor, pure_two_spinor, symmetrize_pure
from spinaxes.tensors import (
    DensityMatrix,
    TensorComponents,
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


class TestAxis:
    def test_normalization_and_antipode(self):
        ax = Axis(0.5, -0.1)
        assert 0 <= ax.phi < 2 * math.pi
        anti = ax.antipode()
        assert anti.theta == pytest.approx(math.pi - 0.5)
        assert np.allclose(anti.cartesian, -ax.cartesian)

    def test_from_cartesian_round_trip(self):
        ax = Axis.from_cartesian([1.0, 1.0, -1.0])
        assert np.allclose(ax.cartesian, np.array([1, 1, -1]) / math.sqrt(3))

    def test_pole_azimuth_is_zero(self):
        ax = Axis.from_cartesian([-1e-17, 0.0, 1.0])
        assert ax.phi == 0.0
        assert ax.theta == 0.0

    def test_dot_and_angle(self):
        a = Axis(0.0, 0.0)
        b = Axis(math.pi / 3, 0.0)
        assert a.dot(b) == pytest.approx(0.5)
        assert a.angle_to(b) == pytest.approx(math.pi / 3)

    def test_components_formula(self):
        theta, phi = 0.7, 1.9
        v = Axis(theta, phi)
        plus, zero, minus = v.components
        assert zero == pytest.approx(math.cos(theta))
        assert plus == pytest.approx(-math.sin(theta) * np.exp(1j * phi) / math.sqrt(2))
        assert minus == pytest.approx(math.sin(theta) * np.exp(-1j * phi) / math.sqrt(2))

    def test_conjugation_symmetry(self):
        # rank-1 instance of the tensor conjugation rule: Q_{-q} = (-1)^q conj(Q_q)
        v = Axis(1.1, 5.0)
        plus, zero, minus = v.components
        assert minus == pytest.approx(-np.conj(plus))
        assert np.conj(zero) == pytest.approx(zero)

    def test_polar_cartesian_round_trip(self):
        v = Axis(2.2, 0.4)
        back = Axis.from_cartesian(v.cartesian)
        assert back.theta == pytest.approx(v.theta)
        assert back.phi == pytest.approx(v.phi)

    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            Axis(3.5, 0.0)

    def test_rejects_theta_above_pi(self):
        with pytest.raises(DomainError):
            Axis(4.0, 0.0)

    def test_rejects_non_finite_azimuth(self):
        for phi in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="not finite"):
                Axis(0.3, phi)
        with pytest.raises(DomainError, match="not finite"):
            Axis.from_cartesian([math.nan, 0.0, 1.0])


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

    def test_root_azimuth_a_hair_below_zero_wraps_to_zero(self):
        assert _root_point(complex(1, 1e-17)) == (math.pi / 2, 0.0)
        rng = np.random.default_rng(22)
        for z in rng.normal(size=50) + 1j * rng.normal(size=50):
            assert 0.0 <= _root_point(complex(z))[1] < 2 * math.pi

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
        assert len(axes) == 1
        assert axes[0].theta == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_pairs(self):
        theta = 1.0
        points = [(theta, 0.0), (math.pi - theta, math.pi), (theta, math.pi), (math.pi - theta, 0.0)]
        axes = pair_and_canonicalize(points)
        assert [(round(a.theta, 10), round(a.phi, 10)) for a in axes] == [
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
        axis = Axis(0.6, 1.2)
        prod = 0.7 * coupled_axes_tensor([axis, axis])
        t = TensorComponents(1, {(2, q): prod[2 - q] for q in range(-2, 3)})
        form = decompose(t)
        dec = form.rank(2)
        assert len(dec.axes) == 2
        for ax in dec.axes:
            assert ax.angle_to(axis) < 1e-6
        assert dec.r == pytest.approx(0.7, abs=1e-7)


def reference_pairing(points, tol=PAIRING_TOL):
    """The O(n^3) per-pair greedy loop that pair_and_canonicalize replaced, kept as its oracle."""
    pts = list(points)
    if len(pts) % 2:
        raise DecompositionError(f"expected an even number of root points, got {len(pts)}")
    vecs = [unit_vector(theta, phi) for theta, phi in pts]
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
        axes.append(Axis.from_cartesian(_canonical_rep(mean)))
    axes.sort(key=lambda ax: (round(ax.theta, 9), round(ax.phi, 9), ax.theta, ax.phi))
    return axes


def outcome(fn, points):
    """Axes on success; on failure the error message up to its mismatch figures."""
    try:
        return fn(points)
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
        a, b, c = Axis(0.6, 1.2), Axis(2.1, 4.0), Axis(1.3, 0.2)
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
                points = [(ax.theta, ax.phi) for ax in map(Axis.from_cartesian, vecs)]
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
        assert [ax.phi for ax in axes] == pytest.approx([math.pi, math.pi / 4], abs=1e-6)

    def test_points_without_antipodal_partner(self):
        rng = np.random.default_rng(32)
        for n in (2, 4, 6, 10):
            points = [(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)) for _ in range(n)]
            assert self.assert_same(points)[0] == "raised"
        theta, phi = 0.9, 0.4
        paired = [(theta, phi), (math.pi - theta, phi + math.pi)]
        assert self.assert_same(paired + [(0.3, 0.0), (0.4, 1.0)])[0] == "raised"

    def test_empty_point_list(self):
        assert pair_and_canonicalize([]) == []


class TestScalarR:
    def test_rank1_along_z(self):
        value = 0.9
        t = TensorComponents(1, {(1, 0): value})
        r, flipped, residual = scalar_r(t, 1, [Axis(0.0, 0.0)])
        assert r == pytest.approx(value, abs=1e-14)
        assert not flipped
        assert residual < 1e-14

    def test_rank1_flip_for_negative_component(self):
        t = TensorComponents(1, {(1, 0): -0.9})
        r, flipped, residual = scalar_r(t, 1, [Axis(0.0, 0.0)])
        assert r == pytest.approx(0.9, abs=1e-14)
        assert flipped
        assert residual < 1e-14

    def test_rank2_pure_state_scale(self):
        for theta in (0.3, 1.0, 2.0, 2.8):
            t = pure_tensor(theta)
            axes = [Axis(theta, 0.0), Axis(theta, math.pi)]
            r, flipped, residual = scalar_r(t, 2, axes)
            assert r == pytest.approx(math.sqrt(3) / (1 + math.cos(theta) ** 2), abs=1e-12)
            assert not flipped
            assert residual < 1e-12

    def test_axis_count_mismatch(self):
        with pytest.raises(DomainError):
            scalar_r(TensorComponents(1, {(2, 0): 1.0}), 2, [Axis(0.0, 0.0)])


class TestDecompose:
    def test_maximally_mixed_all_ranks_empty(self):
        form = decompose(to_tensor(DensityMatrix.maximally_mixed(1.5)))
        assert form.present_ranks == ()
        assert form.n_axes == 0

    def test_pure_state_at_sixty_degrees(self):
        theta = math.pi / 3
        form = decompose(pure_tensor(theta))
        rank1 = form.rank(1)
        assert rank1.axes[0].theta == pytest.approx(0.0, abs=1e-9)
        assert rank1.r == pytest.approx(2 * math.sqrt(6) / 5, abs=1e-12)
        rank2 = form.rank(2)
        assert rank2.r == pytest.approx(4 * math.sqrt(3) / 5, abs=1e-12)
        got = sorted(((ax.theta, ax.phi) for ax in rank2.axes), key=lambda tp: tp[1])
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
                expected = [m.T @ ax.cartesian for ax in base.rank(k).axes]
                actual = [ax.cartesian for ax in rotated.rank(k).axes]
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
                for ax in form.rank(k).axes:
                    t_rot = rotate_tensor(t, ax.phi, ax.theta, 0.0)
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
    """(...((Q1 x Q2)^2 x Q3)^3 ...)^k of one axis set, one couple call per step."""
    prod = axes[0].components
    for rank, axis in enumerate(axes[1:], start=2):
        prod = couple(prod, axis.components, rank)
    return prod


def random_axes(rng, k):
    return [Axis(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)) for _ in range(k)]


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
            for row, k in enumerate(ks):
                targets[row, :2 * k + 1] = t.rank_array(k)
            expected = []
            for k, axes in zip(ks, axes_rows):
                prod = reference_chain(axes)
                imax = int(np.argmax(np.abs(prod)))
                r = float((t.rank_array(k)[imax] / prod[imax]).real)
                flipped = r < 0.0
                if flipped:
                    r, prod = -r, -prod
                expected.append((r, flipped, float(np.max(np.abs(t.rank_array(k) - r * prod)))))
            assert spinaxes.axes._scales(targets, axes_rows) == expected

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
                pts.extend(_root_point(complex(z)) for z in roots)
            vecs = np.array([unit_vector(theta, phi) for theta, phi in pts]).reshape(-1, 3)
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
                axes.append(Axis.from_cartesian(_canonical_rep(mean)))
            axes.sort(key=lambda ax: (round(ax.theta, 9), round(ax.phi, 9), ax.theta, ax.phi))
            prod = axes[0].components
            for rank, axis in enumerate(axes[1:], start=2):
                prod = reference_couple(prod, axis.components, rank)
            imax = int(np.argmax(np.abs(prod)))
            if abs(prod[imax]) < 1e-10:
                raise DecompositionError(
                    f"coupled axis tensor vanishes at rank {k} while the tensor components do not"
                )
            r = float((arr[imax] / prod[imax]).real)
            flipped = r < 0.0
            if flipped:
                r, prod = -r, -prod
                axes[-1] = axes[-1].antipode()
            residual = float(np.max(np.abs(arr - r * prod)))
            if residual > residual_tol:
                raise DecompositionError(f"reconstruction residual {residual:.3e} exceeds {residual_tol:.1e}")
            ranks[k] = ([(ax.theta, ax.phi) for ax in axes], r, flipped, residual)
        except DecompositionError as exc:
            raise DecompositionError(f"rank {k}: {exc}") from exc
    return ranks


def summary(form):
    return {
        k: None if d is None else ([(ax.theta, ax.phi) for ax in d.axes], d.r, d.flipped, d.residual)
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
    a, b = Axis(0.6, 1.2), Axis(2.1, 4.0)
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
        monkeypatch.setattr(spinaxes.axes, "_coupled", lambda comps: np.zeros((len(comps), 5), dtype=complex))
        with pytest.raises(DecompositionError) as info:
            scalar_r(t, 2, [Axis(0.3, 1.0), Axis(2.0, 4.0)])
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
