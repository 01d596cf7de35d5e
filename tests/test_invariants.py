import math
import tracemalloc

import numpy as np
import pytest

from spinaxes.angular import couple
from spinaxes.axes import decompose
from spinaxes.errors import DomainError
from spinaxes.invariants import (
    _invariant_stack,
    enumerate_invariants,
    invariant_count,
    spin1_named,
    verify_invariance,
)
from spinaxes.states import ChannelParams, channel_mixed, pure_two_spinor, random_density_matrix
from spinaxes.tensors import DensityMatrix, to_tensor

SQRT3 = math.sqrt(3.0)


def pipeline(rho):
    return enumerate_invariants(decompose(to_tensor(rho)))


class TestInvariantCount:
    def test_known_values(self):
        assert invariant_count(0.5) == 1
        assert invariant_count(1) == 5
        assert invariant_count(1.5) == 18
        assert invariant_count(2) == 49

    def test_rejects_j_zero(self):
        with pytest.raises(DomainError):
            invariant_count(0)


class TestEnumerate:
    def test_pure_state_generic_angle(self):
        theta = math.pi / 3
        named = spin1_named(pipeline(pure_two_spinor(2 * theta)))
        assert named["I1"] == pytest.approx(math.sqrt(6) * math.cos(theta) / (1 + math.cos(theta) ** 2), abs=1e-12)
        assert named["I2"] == pytest.approx(SQRT3 / (1 + math.cos(theta) ** 2), abs=1e-12)
        assert named["I3"] == pytest.approx(-math.cos(theta) / SQRT3, abs=1e-12)
        assert named["I4"] == pytest.approx(-math.cos(theta) / SQRT3, abs=1e-12)
        assert named["I5"] == pytest.approx(-math.cos(2 * theta) / SQRT3, abs=1e-12)

    def test_separable_endpoints(self):
        aligned = spin1_named(pipeline(pure_two_spinor(0.0)))
        assert aligned["I1"] == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert aligned["I2"] == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert aligned["I3"] == pytest.approx(-1 / SQRT3, abs=1e-12)
        assert aligned["I4"] == pytest.approx(-1 / SQRT3, abs=1e-12)
        assert aligned["I5"] == pytest.approx(-1 / SQRT3, abs=1e-12)
        # at theta = pi the rank-1 axis flips to -z, so I3 and I4 change sign
        anti = spin1_named(pipeline(pure_two_spinor(2 * math.pi)))
        assert anti["I1"] == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert anti["I2"] == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert anti["I3"] == pytest.approx(+1 / SQRT3, abs=1e-12)
        assert anti["I5"] == pytest.approx(-1 / SQRT3, abs=1e-12)

    def test_mixed_state_example(self):
        named = spin1_named(pipeline(channel_mixed(ChannelParams.equal(0.5, math.pi / 2))))
        assert named["I1"] == pytest.approx(SQRT3 / 3, abs=1e-12)
        assert named["I2"] == pytest.approx(SQRT3 / 6, abs=1e-12)
        assert named["I5"] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_is_empty(self):
        inv = pipeline(DensityMatrix.maximally_mixed(1))
        assert inv.count == 0
        assert inv.scalars == ()
        assert inv.pairwise == ()

    def test_empty_rank_drops_members(self):
        # rank 1 vanishes at theta = pi/2: only r_2 and the intra-rank pair remain
        inv = pipeline(pure_two_spinor(math.pi))
        assert inv.count == 2
        named = spin1_named(inv)
        assert named["I1"] is None and named["I3"] is None and named["I4"] is None
        assert named["I2"] is not None and named["I5"] is not None

    def test_count_matches_formula_on_random_states(self):
        rng = np.random.default_rng(30)
        for j in (0.5, 1, 1.5, 2):
            inv = pipeline(random_density_matrix(j, rng))
            assert inv.count == invariant_count(j)
            assert len(inv.scalars) + len(inv.pairwise) == inv.count

    def test_pairwise_range_and_cosine_relation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inv = pipeline(random_density_matrix(1.5, rng))
            labeled = dict(zip(inv.axis_labels, range(len(inv.axis_labels))))
            for la, lb, value in inv.pairwise:
                assert -1 / SQRT3 - 1e-12 <= value <= 1 / SQRT3 + 1e-12
                ia, ib = labeled[la], labeled[lb]
                assert abs(value) * SQRT3 == pytest.approx(inv.abs_cosines[ia, ib], abs=1e-12)

    def test_matches_per_pair_coupling(self):
        rng = np.random.default_rng(33)
        for tj in (1, 2, 5, 12, 16):
            form = decompose(to_tensor(random_density_matrix(tj / 2, rng)))
            inv = enumerate_invariants(form)
            labeled = [((k, i), ax) for k in form.present_ranks for i, ax in enumerate(form.rank(k).axes)]
            assert inv.axis_labels == tuple(lbl for lbl, _ in labeled)
            pairs = [(a, b) for a in range(len(labeled)) for b in range(a + 1, len(labeled))]
            assert [(la, lb) for la, lb, _ in inv.pairwise] == [(labeled[a][0], labeled[b][0]) for a, b in pairs]
            for (a, b), (_, _, value) in zip(pairs, inv.pairwise):
                qa, qb = labeled[a][1], labeled[b][1]
                assert type(value) is float
                assert abs(value - couple(qa.components, qb.components, 0)[0].real) <= 4e-16
                assert abs(inv.abs_cosines[a, b] - abs(qa.dot(qb))) <= 4e-16
            cos = inv.abs_cosines
            assert np.array_equal(np.diag(cos), np.ones(len(labeled)))
            assert np.array_equal(cos, cos.T)
            with pytest.raises(ValueError):
                cos[0, 0] = 0.5
            assert inv.count == len(inv.scalars) + len(inv.pairwise)

    def test_parallel_axes_saturate(self):
        inv = pipeline(pure_two_spinor(0.0))  # all axes along +z
        for _, _, value in inv.pairwise:
            assert abs(value) == pytest.approx(1 / SQRT3, abs=1e-12)

    def test_single_qubit_polarization(self):
        p = 0.63
        rho = DensityMatrix(np.array([[ (1 + p) / 2, 0.0], [0.0, (1 - p) / 2]]))
        inv = pipeline(rho)
        assert inv.count == 1
        assert dict(inv.scalars)[1] == pytest.approx(p, abs=1e-12)

    def test_transpose_gives_the_same_invariants(self):
        # the reason the set is not complete: rho^T, in general not a rotation of rho, is not told apart
        rng = np.random.default_rng(19)
        for tj in (2, 3, 4):
            for pure in (True, False):
                rho = random_density_matrix(tj / 2, rng, pure=pure)
                inv, mirror = pipeline(rho), pipeline(DensityMatrix(rho.matrix.T))
                assert [k for k, _ in mirror.scalars] == [k for k, _ in inv.scalars] == list(range(1, tj + 1))
                assert np.allclose([r for _, r in mirror.scalars], [r for _, r in inv.scalars], rtol=0, atol=1e-12)
                assert np.allclose(mirror.pairwise_abs_sorted(), inv.pairwise_abs_sorted(), rtol=0, atol=1e-12)

    def test_spin1_named_rejects_other_spins(self):
        rng = np.random.default_rng(32)
        with pytest.raises(DomainError):
            spin1_named(pipeline(random_density_matrix(1.5, rng)))


class TestInvariantStack:
    def test_matches_enumerate_invariants_per_form(self):
        rng = np.random.default_rng(34)
        forms = [decompose(to_tensor(random_density_matrix(tj / 2, rng))) for tj in (1, 2, 2, 3, 2, 8, 1, 16)]
        forms += [decompose(to_tensor(channel_mixed(ChannelParams.equal(p, 2 * t))))
                  for p in (0.0, 0.5, 1.0) for t in (0.0, math.pi / 2, 1.0)]
        assert {len(f.present_ranks) for f in forms} >= {0, 1, 2}  # stacks of no, some and all ranks
        by_size = {}
        for form in forms:
            by_size.setdefault(form.n_axes, []).append(form)
        for n, group in by_size.items():  # one stack of every form with n axes, whatever its j and ranks
            angles = [[(ax.theta, ax.phi) for k in f.present_ranks for ax in f.rank(k).axes] for f in group]
            values, abs_cos = _invariant_stack(np.reshape(angles, (len(group), n, 2)))
            assert values.shape == (len(group), n * (n - 1) // 2) and abs_cos.shape == (len(group), n, n)
            assert not values.flags.writeable and not abs_cos.flags.writeable
            for row, cosines, form in zip(values, abs_cos, group):
                single = enumerate_invariants(form)
                assert row.tobytes() == single.values.tobytes()
                assert cosines.tobytes() == single.abs_cosines.tobytes()
        values, abs_cos = _invariant_stack(np.zeros((0, 3, 2)))
        assert values.shape == (0, 3) and abs_cos.shape == (0, 3, 3)


def traced_peak(fn) -> int:
    """Bytes fn holds at its tracemalloc peak beyond what was traced when it started."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestPeakMemory:
    def test_scratch_squares_bound_the_peak_at_2j_16(self):
        t = to_tensor(random_density_matrix(8, np.random.default_rng(35)))
        form = decompose(t)  # builds the cached tables first
        assert form.present_ranks == tuple(range(1, 17)) and form.n_axes == 136
        # numpy buffers the two broadcast inputs of an elementwise product, np.getbufsize() items each
        buffered = 2 * np.getbufsize()  # items
        # pairing: 16 rows of n = 32 points, so one (16, 32, 32) float square is 128 KiB; a call keeps three in its
        # scratch block, and the argsort of the n (n - 1) / 2 pairs i < j adds their gathered mismatches and their
        # order, just under one more; the buffers of a float product are counted as if live with all four, and
        # 64 KiB for the bool masks and the per-state arrays
        square = 16 * 32 * 32 * 8
        assert traced_peak(lambda: decompose(t)) <= 4 * square + 8 * buffered + 64 * 1024
        # invariants: n = 136 axes, one (136, 136) float square is 144.5 KiB; the call keeps one complex square
        # (two float ones) for the products and one float square for their sum, then the n (n - 1) / 2 values;
        # the buffers of a complex product as if live with all, and 32 KiB for the labels and the small arrays
        square, values = 136 * 136 * 8, 136 * 135 // 2 * 8
        assert traced_peak(lambda: enumerate_invariants(form)) <= 3 * square + values + 16 * buffered + 32 * 1024


class TestVerifyInvariance:
    def test_pure_state(self):
        report = verify_invariance(pure_two_spinor(2 * math.pi / 3), trials=50, seed=1)
        assert report.passed
        assert report.max_scalar_dev < 1e-8
        assert report.max_pairwise_dev < 1e-8
        assert report.max_axis_dev < 1e-7

    def test_maximally_mixed(self):
        report = verify_invariance(DensityMatrix.maximally_mixed(1), trials=5, seed=2)
        assert report.passed
        assert report.max_scalar_dev == 0.0

    def test_mixed_state(self):
        rho = channel_mixed(ChannelParams.equal(0.8, 2.0))
        report = verify_invariance(rho, trials=50, seed=3)
        assert report.passed
        assert report.max_scalar_dev < 1e-8
        assert report.max_pairwise_dev < 1e-8

    def test_spin_three_halves(self):
        rng = np.random.default_rng(33)
        report = verify_invariance(random_density_matrix(1.5, rng), trials=20, seed=4)
        assert report.passed
