"""Axial decomposition of statistical tensors.

Each rank-k component set t[k,q] defines the degree-2k polynomial

    sum_{r=0}^{2k} C_r Z^r,   C_r = sqrt(binom(2k, r)) t[k, r-k],

whose roots, pulled back through the stereographic map
Z = cot(theta/2) exp(-i phi), mark 2k points on the unit sphere. Conjugation
symmetry of t[k,q] closes the root set under the antipodal map
Z -> -1/conj(Z), so the points group into k axis pairs; picking one
representative per pair and a single scale r_k >= 0 reproduces the tensor as
the nested stretched coupling of the k axes:

    t[k,q] = r_k (...((Q1 x Q2)^2 x Q3)^3 ...)^k_q.

A spin-j state thus maps to j(2j+1) axes plus 2j non-negative scalars.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angular import HalfInt, _wrap_azimuth, angle_between, couple, unit_vector, unit_vector_components
from .errors import DecompositionError, DomainError
from .tensors import TensorComponents

__all__ = [
    "Axis",
    "MultiaxialForm",
    "RankDecomposition",
    "RankPolynomial",
    "EMPTY_RANK_TOL",
    "build_polynomial",
    "coupled_axes_tensor",
    "decompose",
    "pair_and_canonicalize",
    "reconstruct_tensor",
    "scalar_r",
    "solve_axes",
]

EMPTY_RANK_TOL = 1e-12       # below this, a rank is treated as absent
DEFICIENCY_REL_TOL = 1e-12   # leading coefficients below tol*max count as roots at infinity
ROOT_RESIDUAL_TOL = 1e-9     # |p(Z)| relative to the coefficient scale
PAIRING_TOL = 1e-7           # base angular tolerance for antipodal matching
RESIDUAL_TOL = 1e-8          # reconstruction residual accepted by decompose

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Axis:
    """Unit axis direction, canonically parameterized by polar angles."""

    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-9 <= self.theta <= math.pi + 1e-9:
            raise DomainError(f"theta={self.theta} outside [0, pi]")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", _wrap_azimuth(self.phi))

    @classmethod
    def from_cartesian(cls, vec) -> "Axis":
        v = np.asarray(vec, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm < 1e-300:
            raise DomainError("cannot build an axis from the zero vector")
        v = v / norm
        theta = math.acos(min(1.0, max(-1.0, v[2])))
        if math.hypot(v[0], v[1]) < 1e-12:  # at the poles the azimuth is noise
            return cls(0.0 if v[2] > 0.0 else math.pi, 0.0)
        phi = math.atan2(v[1], v[0])
        return cls(theta, phi)

    @property
    def cartesian(self) -> np.ndarray:
        return unit_vector(self.theta, self.phi)

    @property
    def components(self) -> np.ndarray:
        """Rank-1 spherical components, ordered (+1, 0, -1)."""
        return unit_vector_components(self.theta, self.phi)

    def antipode(self) -> "Axis":
        return Axis(math.pi - self.theta, self.phi + math.pi)

    def dot(self, other: "Axis") -> float:
        return float(np.dot(self.cartesian, other.cartesian))

    def angle_to(self, other: "Axis") -> float:
        return angle_between(self.cartesian, other.cartesian)


@dataclass(frozen=True)
class RankPolynomial:
    """Coefficients C_0 ... C_2k of the rank-k axis polynomial."""

    k: int
    coefficients: np.ndarray
    degree_deficiency: int

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex)
        if arr.shape != (2 * self.k + 1,):
            raise DomainError(f"rank-{self.k} polynomial needs {2 * self.k + 1} coefficients")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)


@dataclass(frozen=True)
class RankDecomposition:
    """k axes, the non-negative scale r_k, and the reconstruction residual for one rank."""

    axes: tuple[Axis, ...]
    r: float
    flipped: bool
    residual: float


@dataclass(frozen=True, eq=False)
class MultiaxialForm:
    """Axes and scales for every rank 1 ... 2j; ``None`` marks an absent rank."""

    j: HalfInt
    ranks: dict

    def rank(self, k: int):
        return self.ranks[k]

    @property
    def present_ranks(self) -> tuple[int, ...]:
        return tuple(k for k in sorted(self.ranks) if self.ranks[k] is not None)

    @property
    def scalars(self) -> tuple[tuple[int, float], ...]:
        return tuple((k, self.ranks[k].r) for k in self.present_ranks)

    def labeled_axes(self) -> list[tuple[tuple[int, int], Axis]]:
        """All axes across ranks, labeled (rank, index-within-rank)."""
        out = []
        for k in self.present_ranks:
            for i, axis in enumerate(self.ranks[k].axes):
                out.append(((k, i), axis))
        return out

    @property
    def n_axes(self) -> int:
        return sum(len(self.ranks[k].axes) for k in self.present_ranks)


def build_polynomial(t: TensorComponents, k: int):
    """Polynomial whose roots locate the rank-k axes; ``None`` when the rank is absent.

    C_r = sqrt(binom(2k, r)) t[k, r-k]; degree_deficiency counts leading
    coefficients below DEFICIENCY_REL_TOL times the largest one (each such
    zero is a root at Z = infinity, i.e. theta = 0).
    """
    tj = t.j.twice
    if not 1 <= k <= tj:
        raise DomainError(f"rank k={k} outside 1 <= k <= 2j for j={t.j}")
    arr = t.rank_array(k)  # descending q: arr[i] = t[k, k-i]
    if float(np.max(np.abs(arr))) < EMPTY_RANK_TOL:
        return None
    coeffs = np.sqrt([math.comb(2 * k, r) for r in range(2 * k + 1)]) * arr[::-1]
    cmax = float(np.max(np.abs(coeffs)))
    deficiency = 2 * k - int(np.flatnonzero(np.abs(coeffs) > DEFICIENCY_REL_TOL * cmax)[-1])
    return RankPolynomial(k=k, coefficients=coeffs, degree_deficiency=deficiency)


def _root_point(z: complex) -> tuple[float, float]:
    theta = 2.0 * math.atan2(1.0, abs(z))
    phi = 0.0 if z == 0 else _wrap_azimuth(-cmath.phase(z))
    return (theta, phi)


def solve_axes(poly: RankPolynomial) -> list[tuple[float, float]]:
    """All 2k root points (theta, phi), with deficiency roots placed at theta = 0.

    Finite roots come from the companion-matrix eigensolve (np.roots) and are
    checked against a residual bound of ROOT_RESIDUAL_TOL relative to the
    coefficient scale; failures raise DecompositionError with diagnostics.
    """
    coeffs = poly.coefficients
    degree = 2 * poly.k - poly.degree_deficiency
    points = [(0.0, 0.0)] * poly.degree_deficiency
    if degree == 0:
        return points
    trimmed = coeffs[: degree + 1]
    highest_first = trimmed[::-1]
    try:
        roots = np.roots(highest_first)
    except np.linalg.LinAlgError as exc:  # companion eigensolve failed to converge
        raise DecompositionError(
            f"root solver did not converge for rank {poly.k} (coefficients {coeffs!r})"
        ) from exc
    roots = roots[np.lexsort((roots.imag, roots.real))]
    scale = float(np.max(np.abs(coeffs)))
    values = np.abs(np.polyval(highest_first, roots))
    bounds = ROOT_RESIDUAL_TOL * scale * (degree + 1) * np.maximum(1.0, np.abs(roots)) ** degree
    bad = np.flatnonzero(values > bounds)
    if bad.size:
        i = bad[0]
        raise DecompositionError(
            f"root {roots[i]!r} of the rank-{poly.k} polynomial has residual {values[i]:.3e} "
            f"(bound {bounds[i]:.3e})"
        )
    points.extend(_root_point(complex(z)) for z in roots)
    return points


def _canonical_rep(u: np.ndarray) -> np.ndarray:
    # keep the representative with z > 0; on a tie, x > 0, then y > 0
    for comp in (u[2], u[0], u[1]):
        if comp > 0.0:
            return u
        if comp < 0.0:
            return -u
    return u


def pair_and_canonicalize(points, *, tol: float = PAIRING_TOL) -> list[Axis]:
    """Match the 2k root points into antipodal pairs and pick one axis per pair.

    Greedy nearest-antipode matching: each round takes the first row-major
    minimum of atan2(|v_i x v_j|, -v_i . v_j) over unmatched pairs i < j. An
    m-fold root cluster is only accurate to about eps^(1/m), so the matching
    tolerance widens accordingly. The representative is the pair member with
    z > 0 (ties broken by x, then y), and the result is sorted by (theta, phi).
    Unpairable points signal a conjugation-symmetry violation upstream and
    raise DecompositionError.
    """
    pts = list(points)
    if len(pts) % 2:
        raise DecompositionError(f"expected an even number of root points, got {len(pts)}")
    vecs = np.array([unit_vector(theta, phi) for theta, phi in pts]).reshape(-1, 3)
    cross = np.linalg.norm(np.cross(vecs[:, None, :], vecs[None, :, :]), axis=-1)
    dots = vecs @ vecs.T
    # largest number of points within 1e-3 rad of one point, itself included
    cluster = int(np.sum(np.arctan2(cross, dots) < 1e-3, axis=1).max(initial=1))
    eff_tol = max(tol, 100.0 * _EPS ** (1.0 / cluster))
    mismatch = np.arctan2(cross, -dots)
    mismatch[np.tril_indices(len(pts))] = np.inf  # only pairs i < j
    axes = []
    for _ in range(len(pts) // 2):
        i, j = np.unravel_index(np.argmin(mismatch), mismatch.shape)
        ang = mismatch[i, j]
        if ang > eff_tol:
            raise DecompositionError(
                f"root point {pts[i]} has no antipodal partner "
                f"(best mismatch {ang:.3e} rad > {eff_tol:.3e}); "
                "the input tensor likely violates conjugation symmetry"
            )
        mismatch[[i, j], :] = mismatch[:, [i, j]] = np.inf
        mean = vecs[i] - vecs[j]  # averages out opposite-signed root noise
        mean /= np.linalg.norm(mean)
        axes.append(Axis.from_cartesian(_canonical_rep(mean)))
    # coarse-then-fine key so fp-level theta ties still order by phi
    axes.sort(key=lambda ax: (round(ax.theta, 9), round(ax.phi, 9), ax.theta, ax.phi))
    return axes


def coupled_axes_tensor(axes) -> np.ndarray:
    """Nested stretched coupling (...((Q1 x Q2)^2 x Q3)^3 ...) of unit axes.

    Rank equals the number of axes; the result is symmetric under axis
    reordering and flips sign when any single axis is inverted.
    """
    axes = list(axes)
    if not axes:
        raise DomainError("need at least one axis")
    acc = axes[0].components
    for rank, axis in enumerate(axes[1:], start=2):
        acc = couple(acc, axis.components, rank)
    return acc


def scalar_r(t: TensorComponents, k: int, axes) -> tuple[float, bool, float]:
    """Scale factor r_k matching t[k,:] to the coupled axis tensor.

    Returns (r, flipped, residual). r is fixed from the largest product
    component; when it comes out negative, the sign is absorbed by inverting
    the last axis (flipped=True), keeping r >= 0. The residual is
    max_q |t[k,q] - r P[k,q]| after any flip.
    """
    axes = list(axes)
    if len(axes) != k:
        raise DomainError(f"rank {k} needs exactly {k} axes, got {len(axes)}")
    target = t.rank_array(k)
    prod = coupled_axes_tensor(axes)
    imax = int(np.argmax(np.abs(prod)))
    pmax = prod[imax]
    if abs(pmax) < 1e-10:
        raise DecompositionError(
            f"coupled axis tensor vanishes at rank {k} while the tensor components do not"
        )
    r = float((target[imax] / pmax).real)
    flipped = False
    if r < 0.0:
        r = -r
        prod = -prod
        flipped = True
    residual = float(np.max(np.abs(target - r * prod)))
    return (r, flipped, residual)


def decompose(
    t: TensorComponents,
    *,
    residual_tol: float = RESIDUAL_TOL,
    pairing_tol: float = PAIRING_TOL,
) -> MultiaxialForm:
    """Full axial decomposition: polynomial, roots, antipodal pairing, scale, per rank.

    Ranks with all components below EMPTY_RANK_TOL are recorded as absent.
    Any numerical inconsistency raises DecompositionError annotated with the
    offending rank.
    """
    t.validate(1e-8)
    ranks = {}
    for k in range(1, t.j.twice + 1):
        try:
            poly = build_polynomial(t, k)
            if poly is None:
                ranks[k] = None
                continue
            points = solve_axes(poly)
            axes = pair_and_canonicalize(points, tol=pairing_tol)
            r, flipped, residual = scalar_r(t, k, axes)
            if flipped:
                axes[-1] = axes[-1].antipode()
            if residual > residual_tol:
                raise DecompositionError(
                    f"reconstruction residual {residual:.3e} exceeds {residual_tol:.1e}"
                )
            ranks[k] = RankDecomposition(tuple(axes), r, flipped, residual)
        except DecompositionError as exc:
            raise DecompositionError(f"rank {k}: {exc}") from exc
    return MultiaxialForm(j=t.j, ranks=ranks)


def reconstruct_tensor(form: MultiaxialForm) -> TensorComponents:
    """Rebuild t[k,q] = r_k P[k,q] from the axes; absent ranks give zeros."""
    blocks = [np.ones(1)]
    for k in range(1, form.j.twice + 1):
        dec = form.ranks.get(k)
        blocks.append(np.zeros(2 * k + 1) if dec is None else dec.r * coupled_axes_tensor(dec.axes))
    return TensorComponents(form.j, np.concatenate(blocks))
