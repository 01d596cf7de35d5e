import math

import numpy as np
import pytest

from spinaxes.angular import HalfInt, _tensor_operator_cached, tensor_operator, wigner_D_matrix
from spinaxes.errors import DomainError, ValidationError
from spinaxes.tensors import (
    DensityMatrix,
    TensorComponents,
    _density_stack,
    _tensor_stack,
    from_tensor,
    random_tensor_components,
    rotate_density,
    rotate_tensor,
    to_tensor,
)

BELL_LIKE = np.array([[0.5, 0.0, -0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.5]])


def bits(array):
    """The array's entries as uint64 words, so that equality also tells signed zeros and NaN payloads apart."""
    return np.ascontiguousarray(array).view(np.uint64)


def random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace().real)


class TestDensityMatrix:
    def test_infers_j_from_dimension(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert rho.j == HalfInt(3)
        assert rho.dim == 4

    def test_rejects_non_hermitian(self):
        mat = np.eye(3) / 3
        mat = mat + 0j
        mat[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityMatrix(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(3))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            mat = np.eye(3, dtype=complex) / 3
            mat[1, 1] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                DensityMatrix(mat)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.zeros((2, 3)))

    def test_rejects_j_mismatch(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(3) / 3, j=2)

    def test_positivity_is_reported_not_enforced(self):
        mat = np.diag([1.5, -0.25, -0.25])
        rho = DensityMatrix(mat)  # constructs fine
        assert rho.min_eigenvalue() == pytest.approx(-0.25)
        assert not rho.is_physical()
        assert DensityMatrix.maximally_mixed(1).is_physical()

    def test_negative_j_raises_domain_error(self):
        for j in (-1, -0.5):
            for build in (DensityMatrix.maximally_mixed, TensorComponents):
                with pytest.raises(DomainError, match=f"must be non-negative, got j={HalfInt.coerce(j)}$"):
                    build(j)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix.maximally_mixed(1)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_purity(self):
        assert DensityMatrix.maximally_mixed(1).purity() == pytest.approx(1 / 3)
        assert DensityMatrix(BELL_LIKE).purity() == pytest.approx(1.0)


class TestTensorComponents:
    def test_defaults(self):
        t = TensorComponents(1)
        assert t[(0, 0)] == 1.0
        assert t[(2, 1)] == 0.0

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(DomainError):
            TensorComponents(1, {(3, 0): 1.0})
        with pytest.raises(DomainError):
            TensorComponents(1, {(2, 3): 1.0})
        with pytest.raises(DomainError):
            TensorComponents(1, {(1.5, 0): 0.7})  # non-integer rank
        with pytest.raises(DomainError):
            TensorComponents(1, np.zeros(8))  # spin 1 has 9 components

    def test_rank_array_ordering(self):
        t = TensorComponents(1, {(1, 1): 2.0, (1, 0): 3.0, (1, -1): 4.0})
        assert np.allclose(t.rank_array(1), [2.0, 3.0, 4.0])

    def test_validate_flags_conjugation_violation(self):
        t = TensorComponents(1, {(1, 1): 1.0, (1, -1): 1.0})  # should be -conj
        with pytest.raises(ValidationError):
            t.validate(1e-8)

    def test_validate_flags_non_finite_components(self):
        for bad in (np.nan, complex(0.0, np.inf)):
            t = TensorComponents(1, {(1, 0): bad})
            with pytest.raises(ValidationError, match="non-finite"):
                t.validate(1e-8)

    def test_validate_flags_bad_trace(self):
        t = TensorComponents(1, {(0, 0): 0.5})
        with pytest.raises(ValidationError):
            t.validate()


@pytest.mark.parametrize("twice_j", [1, 2, 5, 16])
class TestFlatLayout:
    def test_index_matches_keys(self, twice_j):
        t = random_tensor_components(HalfInt(twice_j), np.random.default_rng(twice_j))
        assert t.array.shape == ((twice_j + 1) ** 2,)
        for k in range(twice_j + 1):
            for q in range(-k, k + 1):
                assert t.array[k * k + k - q] == t[k, q]

    def test_items_follow_array_order(self, twice_j):
        t = random_tensor_components(HalfInt(twice_j), np.random.default_rng(twice_j))
        keys = [key for key, _ in t.items()]
        assert keys == [(k, q) for k in range(twice_j + 1) for q in range(k, -k - 1, -1)]
        assert [value for _, value in t.items()] == list(t.array)

    def test_to_tensor_equals_per_operator_traces(self, twice_j):
        rho = random_state(np.random.default_rng(twice_j), twice_j + 1)
        t = to_tensor(rho)
        for (k, q), value in t.items():
            assert value == np.einsum("ij,ji->", rho.matrix, tensor_operator(rho.j, k, q))

    def test_array_is_read_only(self, twice_j):
        t = TensorComponents(HalfInt(twice_j))
        with pytest.raises(ValueError):
            t.array[0] = 2.0


class TestToTensor:
    def test_maximally_mixed_has_no_multipoles(self):
        for j in (0.5, 1, 1.5, 2):
            t = to_tensor(DensityMatrix.maximally_mixed(j))
            assert t[(0, 0)] == pytest.approx(1.0, abs=1e-14)
            for k in range(1, HalfInt.coerce(j).twice + 1):
                assert t.rank_norm2(k) < 1e-28

    def test_bell_like_state(self):
        # the q = +-2 components inherit the sign of the (negative) matrix corners
        t = to_tensor(DensityMatrix(BELL_LIKE))
        assert t[(1, 0)] == pytest.approx(0.0, abs=1e-14)
        assert t[(2, 0)].real == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert t[(2, 2)].real == pytest.approx(-math.sqrt(3) / 2, abs=1e-14)
        assert t[(2, -2)].real == pytest.approx(-math.sqrt(3) / 2, abs=1e-14)
        for k, q in ((1, 1), (1, -1), (2, 1), (2, -1)):
            assert abs(t[(k, q)]) < 1e-14
        # corner relation t[2,2] = sqrt(3) * rho[2,0]
        assert t[(2, 2)].real == pytest.approx(math.sqrt(3) * BELL_LIKE[2, 0], abs=1e-14)

    def test_two_beam_diagonal_case(self):
        # p = 1/2 aligned beams: rho = diag(2.25, 0.75, 0.25)/3.25
        rho = DensityMatrix(np.diag([2.25, 0.75, 0.25]) / 3.25)
        t = to_tensor(rho)
        assert t[(1, 0)].real == pytest.approx(4 * math.sqrt(6) / 13, abs=1e-14)
        assert t[(2, 0)].real == pytest.approx(2 * math.sqrt(2) / 13, abs=1e-14)
        assert abs(t[(2, 2)]) < 1e-15

    def test_accepts_raw_arrays_and_validates(self):
        t = to_tensor(BELL_LIKE)
        assert t.j == HalfInt(2)
        with pytest.raises(ValidationError):
            to_tensor(np.eye(3))

    def test_output_satisfies_conjugation(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3, 4, 5):
            t = to_tensor(random_state(rng, dim))
            assert t.max_conjugation_defect() < 1e-13
            for k in range(t.j.twice + 1):
                assert abs(t[(k, 0)].imag) < 1e-13


def per_matrix_tensor(mat, tj):
    """t[k,q] = Tr(rho tau[k,q]) of one matrix, in the per-matrix contraction the stacked expansion replaced."""
    basis = np.array([tensor_operator(HalfInt(tj), k, q) for k in range(tj + 1) for q in range(k, -k - 1, -1)])
    return np.einsum("ij,nji->n", mat, basis)


def bad_matrix(kind):
    mat = np.diag([0.5, 0.3, 0.2]).astype(complex)
    if kind == "non-finite":
        mat[1, 2] = np.nan
    elif kind == "non-Hermitian":
        mat[0, 1] = 0.1
    else:
        mat *= 1.5
    return mat


class TestStacks:
    @pytest.mark.parametrize("twice_j", range(1, 17))
    def test_stacked_expansion_equals_per_matrix_einsum(self, twice_j):
        rng = np.random.default_rng(100 + twice_j)
        dim = twice_j + 1
        vecs = [rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols)) for cols in (1, 1, dim, dim)]
        mats = np.array([v @ v.conj().T / np.trace(v @ v.conj().T).real for v in vecs])  # pure, then Ginibre
        stack = _tensor_stack(*_density_stack(mats.copy(), HalfInt(twice_j)))
        assert stack.shape == (len(mats), dim * dim)
        for mat, row in zip(mats, stack):
            expected = per_matrix_tensor(mat, twice_j).tobytes()
            assert row.tobytes() == expected
            assert to_tensor(DensityMatrix(mat)).array.tobytes() == expected

    @pytest.mark.parametrize("twice_j", [*range(21), 34, 40])
    def test_diagonal_expansion_equals_the_dense_einsum(self, twice_j):
        rng = np.random.default_rng(200 + twice_j)
        dim = twice_j + 1
        mats = [random_state(rng, dim).matrix]
        if twice_j <= 20:  # then a stack of pure, Ginibre, diagonal and real matrices
            vecs = [rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols)) for cols in (1, 2, dim)]
            mats += [v @ v.conj().T / np.trace(v @ v.conj().T).real for v in vecs]
            diag = rng.random(dim)
            real = rng.normal(size=(dim, dim))
            mats += [np.diag(diag / diag.sum()), real @ real.T / np.trace(real @ real.T), np.eye(dim) / dim]
        for stack in (np.array(mats, dtype=complex), *(np.array([mat], dtype=complex) for mat in mats)):
            # the dense basis built without caching it: ~45 MB at 2j = 40
            dense = np.einsum("nij,kji->nk", stack, _tensor_operator_cached.__wrapped__(twice_j))
            assert bits(_tensor_stack(*_density_stack(stack, HalfInt(twice_j)))).tobytes() == bits(dense).tobytes()

    def test_to_tensor_builds_no_dense_operator_basis(self):
        _tensor_operator_cached.cache_clear()
        rng = np.random.default_rng(58)
        for dim in (17, 41):
            to_tensor(random_state(rng, dim))
        assert _tensor_operator_cached.cache_info().currsize == 0

    @pytest.mark.parametrize("kind", ["non-finite", "non-Hermitian", "trace"])
    def test_stack_check_raises_lowest_matrix_message(self, kind):
        good = [random_state(np.random.default_rng(seed), 3).matrix for seed in range(5)]
        with pytest.raises(ValidationError) as alone:
            DensityMatrix(bad_matrix(kind))
        assert alone.value.index == 0
        for later in ([], [bad_matrix("non-finite"), bad_matrix("trace")]):  # bad matrices after it change nothing
            with pytest.raises(ValidationError) as info:
                _density_stack(np.array(good[:2] + [bad_matrix(kind)] + good[2:] + later), HalfInt(2))
            assert (info.value.index, str(info.value)) == (2, str(alone.value))

    def test_stack_checks_j_after_the_first_matrix_entries(self):
        good = random_state(np.random.default_rng(7), 3).matrix
        with pytest.raises(ValidationError, match="does not match j=2") as info:
            _density_stack(np.array([good, bad_matrix("non-finite")]), HalfInt(4))
        assert info.value.index == 0
        with pytest.raises(ValidationError, match="non-finite") as info:
            _density_stack(np.array([bad_matrix("non-finite"), good]), HalfInt(4))
        assert info.value.index == 0
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(bad_matrix("non-finite"), j=0.3)
        arr, j = _density_stack(np.array([good, good]), None)
        assert j == HalfInt(2) and not arr.flags.writeable


class TestFromTensor:
    def test_monopole_only_gives_maximally_mixed(self):
        for j in (0.5, 1, 2.5):
            rho = from_tensor(TensorComponents(j))
            dim = HalfInt.coerce(j).twice + 1
            assert np.max(np.abs(rho.matrix - np.eye(dim) / dim)) < 1e-15

    def test_bell_like_round_trip(self):
        t = TensorComponents(1, {
            (2, 0): 1 / math.sqrt(2),
            (2, 2): -math.sqrt(3) / 2,
            (2, -2): -math.sqrt(3) / 2,
        })
        assert np.max(np.abs(from_tensor(t).matrix - BELL_LIKE)) < 1e-12

    def test_round_trips_random(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4, 5):
            rho = random_state(rng, dim)
            back = from_tensor(to_tensor(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12
            t = random_tensor_components(HalfInt(dim - 1), rng, scale=0.2)
            t2 = to_tensor(from_tensor(t))
            dev = max(abs(t[(k, q)] - t2[(k, q)])
                      for k in range(dim) for q in range(-k, k + 1))
            assert dev < 1e-12

    def test_matches_the_tensordot_form_bit_for_bit(self):
        rng = np.random.default_rng(52)
        for tj in range(1, 17):
            t = random_tensor_components(HalfInt(tj), rng, scale=0.2)
            acc = np.tensordot(t.array.conj(), _tensor_operator_cached(tj), axes=1).conj().T
            assert np.array_equal(bits(from_tensor(t).matrix), bits(acc / (tj + 1)))

    def test_rejects_conjugation_violation(self):
        t = TensorComponents(1, {(1, 1): 0.5, (1, -1): 0.5})
        with pytest.raises(ValidationError):
            from_tensor(t)

    def test_standard_spin1_layout(self):
        # the generated operators must reproduce the standard 3x3 layout of the
        # matrix in terms of t[k,q], entry by entry
        rng = np.random.default_rng(12)
        s32, s3, s2 = math.sqrt(1.5), math.sqrt(3.0), math.sqrt(2.0)
        for _ in range(10):
            t = random_tensor_components(1, rng)
            g = lambda k, q: t[(k, q)]
            layout = (1 / 3) * np.array([
                [1 + s32 * g(1, 0) + g(2, 0) / s2, s32 * (g(1, -1) + g(2, -1)), s3 * g(2, -2)],
                [-s32 * (g(1, 1) + g(2, 1)), 1 - s2 * g(2, 0), s32 * (g(1, -1) - g(2, -1))],
                [s3 * g(2, 2), -s32 * (g(1, 1) - g(2, 1)), 1 - s32 * g(1, 0) + g(2, 0) / s2],
            ])
            assert np.max(np.abs(from_tensor(t).matrix - layout)) < 1e-12


class TestRotateTensor:
    def test_identity_rotation(self):
        rng = np.random.default_rng(13)
        t = random_tensor_components(1.5, rng)
        r = rotate_tensor(t, 0.0, 0.0, 0.0)
        for (k, q), v in t.items():
            assert r[(k, q)] == pytest.approx(v, abs=1e-15)

    def test_y_rotation_of_longitudinal_rank1(self):
        c = 0.73
        t = TensorComponents(1, {(1, 0): c})
        r = rotate_tensor(t, 0.0, 1.1, 0.0)
        assert r[(1, 0)].real == pytest.approx(c * math.cos(1.1), abs=1e-14)
        assert r[(1, 1)].real == pytest.approx(c * math.sin(1.1) / math.sqrt(2), abs=1e-14)
        assert r[(1, -1)].real == pytest.approx(-c * math.sin(1.1) / math.sqrt(2), abs=1e-14)

    def test_matches_matrix_conjugation(self):
        # rotating the components must agree with conjugating the matrix by
        # the spin-j rotation: rho' = U^dag rho U
        rng = np.random.default_rng(14)
        for dim in (2, 3, 4, 17):
            rho = random_state(rng, dim)
            angles = rng.uniform(0.1, 3.0, size=3)
            t_rot = rotate_tensor(to_tensor(rho), *angles)
            rho_rot = rotate_density(rho, *angles)
            assert np.max(np.abs(from_tensor(t_rot).matrix - rho_rot.matrix)) < 1e-10
            u = wigner_D_matrix(rho.j, *angles)
            assert np.max(np.abs(rho_rot.matrix - u.conj().T @ rho.matrix @ u)) < 1e-14

    def test_matches_per_rank_wigner_D_matrix_bit_for_bit(self):
        # the phases and half-angle powers are built once per call and sliced per rank
        rng = np.random.default_rng(51)
        for tj in range(1, 17):
            t = random_tensor_components(HalfInt(tj), rng)
            for angles in [(rng.uniform(-7, 7), 0.0, rng.uniform(-7, 7)),
                           (rng.uniform(-7, 7), math.pi, rng.uniform(-7, 7)),
                           tuple(-rng.uniform(0, 2 * math.pi, size=3)),
                           tuple(rng.uniform(2 * math.pi, 20, size=3))]:
                expected = [t.rank_array(0)] + [wigner_D_matrix(k, *angles).T @ t.rank_array(k)
                                                for k in range(1, tj + 1)]
                assert np.array_equal(bits(rotate_tensor(t, *angles).array), bits(np.concatenate(expected)))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_euler_angles_raise_naming_the_angle(self, slot, bad):
        angles = [0.3, 1.1, -2.0]
        angles[slot] = bad
        message = f"Euler angle {('phi', 'theta', 'psi')[slot]}={bad} is not finite"
        with pytest.raises(DomainError, match=message):
            rotate_tensor(random_tensor_components(HalfInt(3), np.random.default_rng(53)), *angles)
        with pytest.raises(DomainError, match=message):
            rotate_density(DensityMatrix.maximally_mixed(1.5), *angles)

    def test_rank_norms_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            rho = random_state(rng, dim)
            t = to_tensor(rho)
            phi, psi = rng.uniform(0, 2 * math.pi, size=2)
            theta = math.acos(rng.uniform(-1, 1))
            r = rotate_tensor(t, phi, theta, psi)
            for k in range(dim):
                assert r.rank_norm2(k) == pytest.approx(t.rank_norm2(k), abs=1e-12)

    def test_pure_spin1_norm_is_three(self):
        # purity 1 maps to sum_kq |t[k,q]|^2 = 2j + 1 = 3
        rng = np.random.default_rng(16)
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            t = to_tensor(DensityMatrix(np.outer(v, v.conj())))
            assert t.norm2() == pytest.approx(3.0, abs=1e-10)
