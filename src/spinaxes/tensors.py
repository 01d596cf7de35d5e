"""Density matrices and their statistical tensor components.

A spin-j density matrix expands in the irreducible tensor operator basis as

    rho = (1/(2j+1)) sum_{k,q} t[k,q] tau[k,q]^dag,   t[k,q] = Tr(rho tau[k,q]),

so the complex coefficients t[k,q] (statistical tensor parameters) carry the
same information as rho, organized by multipole rank k = 0 ... 2j. With the
unit-trace normalization used throughout this package, t[0,0] = 1, and
hermiticity of rho is equivalent to t[k,q]* = (-1)^q t[k,-q].

``TensorComponents.array`` stores all t[k,q] as one read-only flat complex
array, k ascending and q descending within each rank, t[k,q] at index
k^2 + k - q: the layout of the stacked operator basis, so expansion and
resummation are single array contractions. ``_density_stack`` checks an
(N, d, d) matrix stack, ``_tensor_stack`` expands it into an (N, (2j+1)^2)
component stack in that layout, and ``_check_tensor_stack`` validates such a
stack, the lowest failing item raising with ``index`` set; DensityMatrix,
to_tensor and validate are stacks of one.
"""

from functools import lru_cache

import numpy as np

from .angular import HalfInt, _rotation_factors, _tensor_operator_cached, _wigner_D_rule, tensor_index, wigner_D_matrix
from .errors import DomainError, ValidationError

__all__ = [
    "DensityMatrix",
    "TensorComponents",
    "from_tensor",
    "random_tensor_components",
    "rotate_density",
    "rotate_tensor",
    "to_tensor",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
CONJUGATION_TOL = 1e-10
RESUM_TOL = 1e-8        # from_tensor: conjugation defect of t, and hermiticity defect of the rebuilt matrix
POSITIVITY_TOL = 1e-10  # is_physical: most negative eigenvalue accepted


@lru_cache(maxsize=None)
def _conjugation_mirror(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat position of t[k,-q] and the sign (-1)^q, for each flat position of t[k,q]."""
    k = np.repeat(np.arange(tj + 1), 2 * np.arange(tj + 1) + 1)
    q = k * k + k - np.arange((tj + 1) ** 2)
    mirror, sign = k * k + k + q, (-1.0) ** q
    mirror.setflags(write=False)
    sign.setflags(write=False)
    return mirror, sign


class DensityMatrix:
    """Validated (2j+1) x (2j+1) Hermitian unit-trace matrix, basis m = +j ... -j.

    Positivity is deliberately not enforced at construction, because the axial
    decomposition is well defined for any Hermitian unit-trace matrix; use
    :meth:`is_physical` or :meth:`min_eigenvalue` where positivity matters.
    The stored array is read-only.
    """

    __slots__ = ("j", "matrix")

    def __init__(self, matrix, j=None, *, tol: float = HERMITICITY_TOL):
        arr, self.j = _density_stack(np.array(matrix, dtype=complex)[None], j, tol)
        self.matrix = arr[0]

    @property
    def dim(self) -> int:
        return self.j.twice + 1

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def is_physical(self) -> bool:
        return self.min_eigenvalue() >= -POSITIVITY_TOL

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    @classmethod
    def maximally_mixed(cls, j) -> "DensityMatrix":
        jj = HalfInt.coerce(j)
        dim = jj.twice + 1
        return cls(np.eye(dim) / dim, jj)

    def __repr__(self) -> str:
        return f"DensityMatrix(j={self.j}, dim={self.dim})"


class TensorComponents:
    """Statistical tensor parameters t[k,q] for 0 <= k <= 2j, |q| <= k.

    Built from a mapping {(k, q): value}, where missing entries default to
    zero except t[0,0] which defaults to 1 (the unit-trace monopole), or
    from a flat array of all (2j+1)^2 components. Either way the values are
    stored in ``array``, read-only, with k ascending and q descending within
    each rank: t[k,q] sits at index k^2 + k - q. Component arrays returned
    by :meth:`rank_array` are read-only views ordered q = +k ... -k.
    """

    __slots__ = ("j", "array")

    def __init__(self, j, components=None):
        self.j = HalfInt.coerce(j)
        size = (self.j.twice + 1) ** 2
        if components is None or hasattr(components, "items"):
            arr = np.zeros(size, dtype=complex)
            arr[0] = 1.0
            for key, value in (components or {}).items():
                arr[self._index(key)] = complex(value)
        else:
            arr = np.array(components, dtype=complex)
            if arr.shape != (size,):
                raise DomainError(f"flat components for j={self.j} need shape ({size},), got {arr.shape}")
        arr.setflags(write=False)
        self.array = arr

    def _index(self, key) -> int:
        k, q = key
        index = tensor_index(k, q)
        if k > self.j.twice:
            raise DomainError(f"rank k={k} outside 0 <= k <= 2j for j={self.j}")
        return index

    def __getitem__(self, key) -> complex:
        return complex(self.array[self._index(key)])

    def items(self):
        """Iterate ((k, q), value) in array order: k ascending, q descending within each rank."""
        keys = ((k, q) for k in range(self.j.twice + 1) for q in range(k, -k - 1, -1))
        return zip(keys, self.array.tolist())

    def rank_array(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.j.twice:
            raise DomainError(f"rank k={k} outside 0 <= k <= 2j for j={self.j}")
        return self.array[tensor_index(k, k) : tensor_index(k, -k) + 1]

    def rank_norm2(self, k: int) -> float:
        return float(np.sum(np.abs(self.rank_array(k)) ** 2))

    def norm2(self) -> float:
        """Sum of |t[k,q]|^2 over every rank and projection."""
        return float(np.sum(np.abs(self.array) ** 2))

    def max_conjugation_defect(self) -> float:
        """Largest violation of t[k,q]* = (-1)^q t[k,-q]."""
        return float(_conjugation_defects(self.array[None], self.j.twice)[0])

    def validate(self, tol: float = CONJUGATION_TOL) -> None:
        """Raise ValidationError unless all components are finite, t[0,0] = 1 and conjugation symmetry holds."""
        _check_tensor_stack(self.array[None], self.j.twice, tol)

    def __repr__(self) -> str:
        return f"TensorComponents(j={self.j})"


def to_tensor(rho) -> TensorComponents:
    """Extract every statistical tensor component t[k,q] = Tr(rho tau[k,q]).

    Accepts a DensityMatrix or anything convertible to one (validation errors
    propagate for non-Hermitian or wrongly sized input).
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return TensorComponents(rho.j, _tensor_stack(rho.matrix[None], rho.j)[0])


def _density_stack(arr: np.ndarray, j, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, HalfInt]:
    """The (N, d, d) stack, made read-only, and its j; the lowest matrix failing DensityMatrix's checks raises."""
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape[1:]}", index=0)
    dim = arr.shape[1]
    # j is checked after the first matrix's entries, so a non-finite first matrix fails first
    jj = HalfInt(dim - 1) if j is None or not np.isfinite(arr[:1]).all() else HalfInt.coerce(j)
    if jj.twice + 1 != dim:
        raise ValidationError(f"matrix dimension {dim} does not match j={jj} (need {jj.twice + 1})", index=0)
    with np.errstate(invalid="ignore"):  # a non-finite entry makes herm NaN or inf, failing its matrix
        herm = np.abs(arr - arr.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        trace = arr.trace(axis1=1, axis2=2)
        ok = (herm <= tol) & (np.abs(trace - 1.0) <= max(tol, TRACE_TOL))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValidationError("matrix has non-finite entries" if not np.isfinite(arr[i]).all()
                              else f"matrix is not Hermitian (max deviation {herm[i]:.3e})" if herm[i] > tol
                              else f"trace must be 1, got {complex(trace[i]):.12g}", index=i)
    arr.setflags(write=False)
    return arr, jj


def _tensor_stack(arr: np.ndarray, j: HalfInt) -> np.ndarray:
    """The (N, (2j+1)^2) components of each matrix of a checked (N, d, d) stack of spin j, in one contraction."""
    return np.einsum("nij,kji->nk", arr, _tensor_operator_cached(j.twice))


def _conjugation_defects(stack: np.ndarray, tj: int) -> np.ndarray:
    """Largest violation of t[k,q]* = (-1)^q t[k,-q] in each row of an (N, (2j+1)^2) component stack."""
    mirror, sign = _conjugation_mirror(tj)
    return np.abs(stack.conj() - sign * stack[:, mirror]).max(axis=1)


def _check_tensor_stack(stack: np.ndarray, tj: int, tol: float) -> None:
    """:meth:`TensorComponents.validate` of each row of a component stack; the lowest failing row raises."""
    with np.errstate(invalid="ignore"):  # a non-finite entry makes its row's defect NaN or inf, failing it
        t00, defect = stack[:, 0], _conjugation_defects(stack, tj)
        ok = np.maximum(np.abs(t00 - 1.0), defect) <= tol
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValidationError("tensor components have non-finite entries" if not np.isfinite(stack[i]).all() else
                              f"t[0,0] must be 1 (unit trace), got {complex(t00[i]):.12g}" if abs(t00[i] - 1.0) > tol
                              else f"conjugation symmetry violated by {defect[i]:.3e} (tol {tol:.1e})", index=i)


def from_tensor(t: TensorComponents) -> DensityMatrix:
    """Rebuild the density matrix (1/(2j+1)) sum t[k,q] tau[k,q]^dag.

    Conjugation-symmetry violations beyond RESUM_TOL raise ValidationError.
    Positivity is not checked; inspect DensityMatrix.min_eigenvalue() for that.
    """
    t.validate(RESUM_TOL)
    dim = t.j.twice + 1
    # sum t tau^dag = (sum conj(t) tau)^dag, which needs no conjugated copy of the basis; tensordot's (1, d^2) product
    acc = (t.array.conj()[None] @ _tensor_operator_cached(t.j.twice).reshape(dim * dim, -1)).reshape(dim, dim)
    return DensityMatrix(acc.conj().T / dim, t.j, tol=RESUM_TOL)


def rotate_tensor(t: TensorComponents, phi: float, theta: float, psi: float) -> TensorComponents:
    """Components of the same state in a frame rotated by the Euler angles.

    Each rank rotates independently: t'[k,q] = sum_q' D[k][q',q] t[k,q'],
    which preserves the per-rank norms sum_q |t[k,q]|^2. Phases and half-angle
    powers are computed once; each D[k] is formed from their slices by the rule
    of :func:`wigner_D_matrix`, with its bits.
    """
    factors = _rotation_factors(2 * t.j.twice, phi, theta, psi)
    out = t.array.copy()
    for k in range(1, t.j.twice + 1):
        out[k * k:(k + 1) ** 2] = _wigner_D_rule(2 * k, factors).T @ t.array[k * k:(k + 1) ** 2]
    return TensorComponents(t.j, out)


def rotate_density(rho: DensityMatrix, phi: float, theta: float, psi: float) -> DensityMatrix:
    """The density matrix as seen in the rotated frame: U^dag rho U with U = D^j.

    Consistent with :func:`rotate_tensor`:
    to_tensor(rotate_density(rho, ...)) == rotate_tensor(to_tensor(rho), ...).
    """
    u = wigner_D_matrix(rho.j, phi, theta, psi)
    return DensityMatrix(u.conj().T @ rho.matrix @ u, rho.j)


def random_tensor_components(j, rng: "np.random.Generator", scale: float = 1.0) -> TensorComponents:
    """Random components satisfying the conjugation symmetry (not necessarily a positive state).

    Each rank k >= 1 gets independent complex Gaussians for q > 0, a real
    Gaussian for q = 0, and the mirrored values for q < 0.
    """
    jj = HalfInt.coerce(j)
    comps = {}
    for k in range(1, jj.twice + 1):
        comps[(k, 0)] = complex(rng.normal(scale=scale))
        for q in range(1, k + 1):
            v = complex(rng.normal(scale=scale), rng.normal(scale=scale))
            comps[(k, q)] = v
            comps[(k, -q)] = (-1) ** q * v.conjugate()
    return TensorComponents(jj, comps)
