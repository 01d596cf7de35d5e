import math
import re
import tracemalloc

import numpy as np
import pytest

import spinaxes.invariants
from spinaxes.angular import _TWO_PI, HalfInt, couple, euler_rotation_cartesian, unit_vector, unit_vector_components
from spinaxes.axes import MultiaxialForm, RankDecomposition, decompose
from spinaxes.errors import DecompositionError, DomainError, ValidationError
from spinaxes.invariants import (
    AXIS_TOL,
    PAIRWISE_TOL,
    SCALAR_TOL,
    InvarianceReport,
    _invariant_stack,
    enumerate_invariants,
    invariant_count,
    spin1_named,
    verify_invariance,
)
from spinaxes.states import ChannelParams, channel_mixed, pure_two_spinor, random_density_matrix
from spinaxes.tensors import DensityMatrix, rotate_tensor, to_tensor

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
            labeled = [((k, i), ax) for k in form.present_ranks for i, ax in enumerate(form.rank(k).angles.tolist())]
            assert inv.axis_labels == tuple(lbl for lbl, _ in labeled)
            pairs = [(a, b) for a in range(len(labeled)) for b in range(a + 1, len(labeled))]
            assert [(la, lb) for la, lb, _ in inv.pairwise] == [(labeled[a][0], labeled[b][0]) for a, b in pairs]
            for (a, b), (_, _, value) in zip(pairs, inv.pairwise):
                qa, qb = labeled[a][1], labeled[b][1]
                assert type(value) is float
                assert abs(value - couple(unit_vector_components(*qa), unit_vector_components(*qb), 0)[0].real) <= 4e-16
                assert abs(inv.abs_cosines[a, b] - abs(float(np.dot(unit_vector(*qa), unit_vector(*qb))))) <= 4e-16
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

    def test_axis_built_forms_give_the_same_bits(self):
        rng = np.random.default_rng(36)
        for tj in (1, 2, 3, 8, 16):
            form = decompose(to_tensor(random_density_matrix(tj / 2, rng)))
            ranks = {k: None if d is None else RankDecomposition(list(map(tuple, d.angles.tolist())), d.r, d.flipped,
                                                                 d.residual)  # by position, the axes as tuples
                     for k, d in form.ranks.items()}
            rebuilt = MultiaxialForm(form.j, ranks)
            expected, got = enumerate_invariants(form), enumerate_invariants(rebuilt)
            assert got.values.tobytes() == expected.values.tobytes()
            assert got.abs_cosines.tobytes() == expected.abs_cosines.tobytes()
            assert (got.scalars, got.axis_labels, got.count) == (expected.scalars, expected.axis_labels, expected.count)

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
            angles = [[ax for k in f.present_ranks for ax in f.rank(k).angles.tolist()] for f in group]
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
        # pairing: 16 rows of n = 32 points, so one (16, 32, 32) float square is 128 KiB; every row of a random state
        # settles from v_i . v_j, one square, so three squares bound the largest stage, the roots' residual pass with
        # its (roots, steps) gather; the buffers of a float product are counted as if live with all three, and
        # 64 KiB for the bool masks and the per-state arrays
        square = 16 * 32 * 32 * 8
        assert traced_peak(lambda: decompose(t)) <= 3 * square + 8 * buffered + 64 * 1024
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

    def test_negative_trials_raise(self):
        rho = pure_two_spinor(1.0)
        with pytest.raises(DomainError, match="^trials=-1 must be non-negative$"):
            verify_invariance(rho, trials=-1)
        report = verify_invariance(rho, trials=0)
        assert report.passed and report.trials == 0 and report.failures == ()


def reference_match_lines(expected, actual):
    """Greedy +-line matching of unit vectors in Python; the largest matched angle atan2(|e x a|, |e . a|)."""
    worst = 0.0
    pool = list(actual)
    for e in expected:
        dots = [abs(float(np.dot(e, a))) for a in pool]
        best = int(np.argmax(dots))
        worst = max(worst, math.atan2(float(np.linalg.norm(np.cross(e, pool[best]))), dots[best]))
        pool.pop(best)
    return worst


def reference_verify_invariance(rho, trials=50, seed=0):
    """verify_invariance as a loop over trials: one decompose and one enumerate_invariants per rotated copy."""
    rng = np.random.default_rng(seed)
    base_t = to_tensor(rho)
    base_form = decompose(base_t)
    base_inv = enumerate_invariants(base_form)
    base_scalars = dict(base_inv.scalars)
    base_abs = base_inv.pairwise_abs_sorted()
    max_scalar = max_pair = max_axis = 0.0
    failures = []
    for trial in range(trials):
        phi = rng.uniform(0.0, _TWO_PI)
        theta = math.acos(rng.uniform(-1.0, 1.0))
        psi = rng.uniform(0.0, _TWO_PI)
        rot_form = decompose(rotate_tensor(base_t, phi, theta, psi))
        rot_inv = enumerate_invariants(rot_form)
        if rot_form.present_ranks != base_form.present_ranks:
            failures.append(f"trial {trial}: rank structure changed under rotation "
                            f"(phi={phi!r}, theta={theta!r}, psi={psi!r})")
            continue
        for k, r in rot_inv.scalars:
            max_scalar = max(max_scalar, abs(r - base_scalars[k]))
        rot_abs = rot_inv.pairwise_abs_sorted()
        if rot_abs.size == base_abs.size and rot_abs.size:
            max_pair = max(max_pair, float(np.max(np.abs(rot_abs - base_abs))))
        mat = euler_rotation_cartesian(phi, theta, psi)
        for k in base_form.present_ranks:
            expected = [mat.T @ unit_vector(*angles) for angles in base_form.rank(k).angles.tolist()]
            actual = [unit_vector(*angles) for angles in rot_form.rank(k).angles.tolist()]
            max_axis = max(max_axis, reference_match_lines(expected, actual))
        if max_scalar > SCALAR_TOL or max_pair > PAIRWISE_TOL or max_axis > AXIS_TOL:
            failures.append(f"trial {trial}: deviation beyond tolerance at rotation "
                            f"(phi={phi!r}, theta={theta!r}, psi={psi!r}): "
                            f"scalar {max_scalar:.3e}, pairwise {max_pair:.3e}, axis {max_axis:.3e}")
            break
    passed = not failures and max_scalar <= SCALAR_TOL and max_pair <= PAIRWISE_TOL and max_axis <= AXIS_TOL
    return InvarianceReport(trials=trials, passed=passed, max_scalar_dev=max_scalar, max_pairwise_dev=max_pair,
                            max_axis_dev=max_axis, failures=tuple(failures))


def degenerate_state(kind, tj, rng):
    """Coherent |j,j>, Dicke |j,m> near m = 0 or GHZ, all along z: rotated copies of them fail or raise from 2j = 4."""
    vec = np.zeros(tj + 1, dtype=complex)
    vec[{"coherent": 0, "dicke": tj // 2, "ghz": 0}[kind]] = 1.0
    if kind == "ghz":
        vec[-1] = np.exp(1j * rng.uniform(0.0, _TWO_PI))
        vec /= math.sqrt(2.0)
    return DensityMatrix(np.outer(vec, vec.conj()))


def verify_outcome(fn, rho, trials, seed):
    """The report with the line-angle figures apart, or the raised error's type, message, rank, stage and index."""
    try:
        rep = fn(rho, trials=trials, seed=seed)
    except (DecompositionError, ValidationError) as exc:
        return (type(exc), str(exc), getattr(exc, "rank", None), getattr(exc, "stage", None), exc.index), None
    failures = tuple(re.sub(r"axis \S+$", "axis", f) for f in rep.failures)
    return (rep.passed, failures, float(rep.max_scalar_dev).hex(), float(rep.max_pairwise_dev).hex()), rep


def invariance_corpus():
    """(rho, trials, seed): seeded random mixed and pure states, and degenerate states that fail or raise."""
    rng = np.random.default_rng(2026)
    cases = [(DensityMatrix.maximally_mixed(1), 5, 2), (pure_two_spinor(2 * math.pi / 3), 8, 1)]
    for tj in (1, 2, 3, 4, 6):
        cases += [(random_density_matrix(HalfInt(tj), rng, pure=pure), 6, tj) for pure in (False, True)]
    for kind in ("coherent", "dicke", "ghz"):
        cases += [(degenerate_state(kind, tj, rng), 8, tj) for tj in (2, 4, 5, 6, 8)]
    # trial 0 breaks on a tolerance before trial 1 would raise at pairing (a test below spies on it)
    return cases + [(degenerate_state("coherent", 6, rng), 8, 8)]


class TestVerifyInvarianceMatchesReferenceLoop:
    def test_reports_and_errors_match_on_the_corpus(self):
        kinds = set()
        for rho, trials, seed in invariance_corpus():
            expected, ref = verify_outcome(reference_verify_invariance, rho, trials, seed)
            actual, rep = verify_outcome(verify_invariance, rho, trials, seed)
            assert actual == expected, (rho.j, trials, seed)
            if ref is not None:  # the line angles agree to an ulp or so: numpy's atan2 against the math module's
                assert rep.max_axis_dev == pytest.approx(ref.max_axis_dev, rel=1e-12, abs=1e-300)
            kinds.add("raises" if ref is None else "passes" if ref.passed else "fails")
        assert kinds == {"passes", "fails", "raises"}

    def test_one_core_call_and_one_invariant_pass(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(spinaxes.invariants, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_decompose_stack", "_invariant_stack"):
            monkeypatch.setattr(spinaxes.invariants, name, counting(name))
        rho = random_density_matrix(HalfInt(3), np.random.default_rng(5))
        assert verify_invariance(rho, trials=20, seed=5).passed
        assert calls == ["_decompose_stack", "_invariant_stack"]

    def test_a_trial_past_tolerance_stops_before_a_later_trial_raises(self, monkeypatch):
        rho = degenerate_state("coherent", 6, None)
        lengths = []
        real = spinaxes.invariants._decompose_stack
        monkeypatch.setattr(spinaxes.invariants, "_decompose_stack",
                            lambda stack, tj: lengths.append(len(stack)) or real(stack, tj))
        rep = verify_invariance(rho, trials=8, seed=8)
        assert lengths == [9, 2]  # the whole stack raises at trial 1, so the state and trial 0 run again
        assert not rep.passed and len(rep.failures) == 1 and rep.failures[0].startswith("trial 0: deviation")

    def test_a_copy_failing_after_passing_trials_raises_with_index_zero(self, monkeypatch):
        rho = random_density_matrix(HalfInt(2), np.random.default_rng(9))
        real = spinaxes.invariants._decompose_stack

        def third_copy_fails(stack, tj):
            if len(stack) > 3:
                raise DecompositionError("rank 2: made to fail", rank=2, stage="pairing", index=3)
            return real(stack, tj)

        monkeypatch.setattr(spinaxes.invariants, "_decompose_stack", third_copy_fails)
        with pytest.raises(DecompositionError, match="made to fail") as info:
            verify_invariance(rho, trials=6, seed=9)
        assert (info.value.index, info.value.rank, info.value.stage) == (0, 2, "pairing")

    def test_line_angle_resolves_below_the_acos_floor(self):
        # acos(min(1, |cos|)) reads at least ~1.5e-8 for any nonzero rounding in |cos|
        rng = np.random.default_rng(41)
        for tj in (2, 3):
            for pure in (False, True):
                for seed in range(5):
                    rep = verify_invariance(random_density_matrix(HalfInt(tj), rng, pure=pure), trials=20, seed=seed)
                    assert rep.passed and rep.max_axis_dev < 1e-10
