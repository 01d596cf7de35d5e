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

Every stage works on a stack of same-j tensors, one rank at a time
(:func:`decompose_many`); the single-item functions build_polynomial,
solve_axes, pair_and_canonicalize, scalar_r and decompose run the same
stacked code on a stack of one.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angular import (
    HalfInt, _cartesian, _spherical_components, _wrap_azimuth, angle_between, couple, unit_vector,
    unit_vector_components,
)
from .errors import DecompositionError, DomainError, ValidationError
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
    "decompose_many",
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
        if not np.isfinite(arr).all():
            raise ValidationError(f"rank-{self.k} polynomial has non-finite coefficients {arr!r}")
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
    zero is a root at Z = infinity, i.e. theta = 0). Non-finite rank-k
    components raise ValidationError.
    """
    tj = t.j.twice
    if not 1 <= k <= tj:
        raise DomainError(f"rank k={k} outside 1 <= k <= 2j for j={t.j}")
    row = t.rank_array(k)
    if not np.isfinite(row).all():
        raise ValidationError(f"rank-{k} tensor components are non-finite: {row!r}")
    coeffs, deficiency, present = _polynomials(row[None], k)
    if not present[0]:
        return None
    return RankPolynomial(k=k, coefficients=coeffs[0], degree_deficiency=int(deficiency[0]))


def solve_axes(poly: RankPolynomial) -> list[tuple[float, float]]:
    """All 2k root points (theta, phi), with deficiency roots placed at theta = 0.

    Finite roots come from the companion-matrix eigensolve (as np.roots) and
    are checked against a residual bound of ROOT_RESIDUAL_TOL relative to the
    coefficient scale; failures raise DecompositionError with diagnostics.
    """
    return _root_points(poly.coefficients[None], np.array([poly.degree_deficiency]), poly.k)[0]


def pair_and_canonicalize(points) -> list[Axis]:
    """Match the 2k root points into antipodal pairs and pick one axis per pair.

    Greedy nearest-antipode matching: each round takes the first row-major
    minimum of atan2(|v_i x v_j|, -v_i . v_j) over unmatched pairs i < j. An
    m-fold root cluster is only accurate to about eps^(1/m), so the matching
    tolerance widens from PAIRING_TOL accordingly. The representative is the
    pair member with z > 0 (ties broken by x, then y), and the result is
    sorted by (theta, phi). Unpairable points signal a conjugation-symmetry
    violation upstream and raise DecompositionError.
    """
    pts = list(points)
    if len(pts) % 2:
        raise _row_error(0, f"expected an even number of root points, got {len(pts)}", "pairing")
    if not pts:
        return []
    return _pairings([pts])[0]


def coupled_axes_tensor(axes) -> np.ndarray:
    """Nested stretched coupling (...((Q1 x Q2)^2 x Q3)^3 ...) of unit axes.

    Rank equals the number of axes; the result is symmetric under axis
    reordering and flips sign when any single axis is inverted.
    """
    axes = list(axes)
    if not axes:
        raise DomainError("need at least one axis")
    return _coupled(np.array([_spherical_components(ax.theta, ax.phi) for ax in axes]))


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
    if not axes:
        raise DomainError("need at least one axis")
    return _scales(target[None], [axes])[0]


def decompose(t: TensorComponents) -> MultiaxialForm:
    """Full axial decomposition: polynomial, roots, antipodal pairing, scale, per rank.

    Ranks with all components below EMPTY_RANK_TOL are recorded as absent.
    Any numerical inconsistency, including a reconstruction residual above
    RESIDUAL_TOL, raises DecompositionError annotated with the offending rank
    and stage.
    """
    return decompose_many([t])[0]


def decompose_many(ts) -> list[MultiaxialForm]:
    """:func:`decompose` of every tensor in a sequence of one j, each rank in one pass over the stack.

    Returns the forms ``[decompose(t) for t in ts]`` would return. When an item
    fails, raises what that loop would raise first, the error of the lowest
    failing index, with its ``index`` set. Tensors of different j raise
    DomainError; an empty sequence gives an empty list.
    """
    ts = list(ts)
    if not ts:
        return []
    j = ts[0].j
    for t in ts:
        if t.j != j:
            raise DomainError(f"decompose_many needs tensors of one j, got j={j} and j={t.j}")
    error, count = None, len(ts)  # only the items before the lowest failing index so far stay in play
    for index, t in enumerate(ts):
        try:
            t.validate(1e-8)
        except ValidationError as exc:
            exc.index = count = index
            error = exc
            break
    stack = np.array([t.array for t in ts[:count]]).reshape(count, (j.twice + 1) ** 2)
    ranks = [{} for _ in range(count)]
    for k in range(1, j.twice + 1):
        while True:  # rows are independent: without the failed suffix, the rest solve as they would alone
            try:
                decs = _rank(stack[:count, k * k:(k + 1) ** 2], k)
                break
            except DecompositionError as exc:
                error, count = exc, exc.index
        for rank_map, dec in zip(ranks, decs):
            rank_map[k] = dec
    if error is not None:
        raise error
    return [MultiaxialForm(j=j, ranks=rank_map) for rank_map in ranks]


def _rank(rows: np.ndarray, k: int) -> list:
    """Rank-k decomposition of each row of stacked components, ``None`` where the rank is absent.

    Runs polynomial, roots, pairing, scale and residual check on the stack.
    The first stage at which some row fails raises a "rank k: ..."
    DecompositionError from that stage's error, with ``index`` set to its row.
    """
    coeffs, deficiency, present = _polynomials(rows, k)
    items = np.flatnonzero(present).tolist()
    decs = [None] * len(rows)
    if not items:
        return decs
    try:
        axes_rows = _pairings(_root_points(coeffs[items], deficiency[items], k))
        scales = _scales(rows[items], axes_rows)
        for row, (_, _, residual) in enumerate(scales):
            if residual > RESIDUAL_TOL:
                raise _row_error(row, f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}",
                                 "residual")
    except DecompositionError as exc:
        error = DecompositionError(f"rank {k}: {exc}", rank=k, stage=exc.stage)
        error.index = items[exc.index]
        raise error from exc
    for item, axes, (r, flipped, residual) in zip(items, axes_rows, scales):
        if flipped:
            axes[-1] = axes[-1].antipode()
        decs[item] = RankDecomposition(tuple(axes), r, flipped, residual)
    return decs


def _row_error(row: int, message: str, stage: str) -> DecompositionError:
    """A stage's DecompositionError for one row of its stack, with ``index`` set to that row."""
    exc = DecompositionError(message, stage=stage)
    exc.index = int(row)
    return exc


def _polynomials(rows: np.ndarray, k: int):
    """Axis polynomials of stacked rank-k components, rows ordered q = +k ... -k.

    Returns the (N, 2k+1) coefficients C_0 ... C_2k, the degree deficiency of
    each row and whether each row is present (some component at least
    EMPTY_RANK_TOL in magnitude).
    """
    present = ~(np.abs(rows).max(axis=1) < EMPTY_RANK_TOL)
    coeffs = np.sqrt([math.comb(2 * k, r) for r in range(2 * k + 1)]) * rows[:, ::-1]
    mags = np.abs(coeffs)
    big = mags > DEFICIENCY_REL_TOL * mags.max(axis=1, keepdims=True)
    return coeffs, np.argmax(big[:, ::-1], axis=1), present


def _root_point(z: complex) -> tuple[float, float]:
    theta = 2.0 * math.atan2(1.0, abs(z))
    phi = 0.0 if z == 0 else _wrap_azimuth(-cmath.phase(z))
    return (theta, phi)


def _root_points(coeffs: np.ndarray, deficiency: np.ndarray, k: int) -> list:
    """Root points of stacked rank-k polynomials, one list per row as :func:`solve_axes` gives it.

    As np.roots does, exact zeros at either end of C_0 ... C_degree are
    stripped from the companion matrix, the low ones becoming roots at Z = 0;
    rows are grouped by degree and by the stripped span, one eigensolve per
    group. Raises the DecompositionError of the lowest row whose roots miss
    the residual bound; an eigensolve that does not converge raises at once.
    """
    out = [None] * len(coeffs)
    groups = {}
    for row, (defic, nonzero) in enumerate(zip(deficiency.tolist(), (coeffs != 0).tolist())):
        degree = 2 * k - defic
        span = [r for r in range(degree + 1) if nonzero[r]] or [0]
        groups.setdefault((degree, span[0], span[-1]), []).append(row)
    failures = []
    for (degree, low, high), rows in groups.items():
        if high == 0:  # no finite nonzero root
            for row in rows:
                out[row] = [(0.0, 0.0)] * (2 * k - degree)
            continue
        c = coeffs[rows]
        size = high - low
        roots = np.zeros((len(rows), 0), dtype=complex)
        if size:
            highest_first = c[:, low:high + 1][:, ::-1]
            companion = np.zeros((len(rows), size, size), dtype=complex)
            companion[:, 1:, :-1] = np.eye(size - 1)
            companion[:, 0, :] = -highest_first[:, 1:] / highest_first[:, :1]
            roots = _eigvals(companion, rows, coeffs, k)
        if low:
            roots = np.concatenate((roots, np.zeros((len(rows), low), dtype=complex)), axis=1)
        order = np.lexsort((roots.imag, roots.real), axis=-1)
        roots = roots[np.arange(len(rows))[:, None], order]
        # Horner in np.polyval's order over C_degree ... C_0
        values = np.zeros_like(roots)
        for col in range(degree, -1, -1):
            values = values * roots + c[:, col:col + 1]
        values = np.abs(values)
        scale = np.abs(c).max(axis=1, keepdims=True)
        bounds = ROOT_RESIDUAL_TOL * scale * (degree + 1) * np.maximum(1.0, np.abs(roots)) ** degree
        bad = values > bounds
        if bad.any():
            g, i = np.argwhere(bad)[0]
            failures.append(_row_error(rows[g], f"root {roots[g, i]!r} of the rank-{k} polynomial has residual "
                                       f"{values[g, i]:.3e} (bound {bounds[g, i]:.3e})", "roots"))
            continue
        for row, row_roots in zip(rows, roots.tolist()):
            out[row] = [(0.0, 0.0)] * (2 * k - degree) + [_root_point(z) for z in row_roots]
    if failures:
        raise min(failures, key=lambda exc: exc.index)
    return out


def _eigvals(companion: np.ndarray, rows: list, coeffs: np.ndarray, k: int) -> np.ndarray:
    """Eigenvalues of the stacked companion matrices of the given rows of the rank-k coeffs.

    One matrix that does not converge fails the whole call, so the matrices
    are then solved one by one and the first that does not converge raises.
    """
    try:
        return np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        pass
    solved = []
    for row, matrix in zip(rows, companion):
        try:
            solved.append(np.linalg.eigvals(matrix[None]))
        except np.linalg.LinAlgError as exc:
            raise _row_error(
                row, f"root solver did not converge for rank {k} (coefficients {coeffs[row]!r})", "roots"
            ) from exc
    return np.concatenate(solved)


def _canonical_rep(u: np.ndarray) -> np.ndarray:
    # keep the representative with z > 0; on a tie, x > 0, then y > 0
    for comp in (u[2], u[0], u[1]):
        if comp > 0.0:
            return u
        if comp < 0.0:
            return -u
    return u


def _pairings(points: list) -> list:
    """Antipodal pairing of stacked root-point sets of one even size, one axis list per set.

    Each set is paired as :func:`pair_and_canonicalize` describes. Raises the
    DecompositionError of the lowest set with a point that has no antipodal
    partner.
    """
    count, n = len(points), len(points[0])
    vecs = np.array([[_cartesian(theta, phi) for theta, phi in pts] for pts in points]).reshape(count, n, 3)
    a, b = vecs[:, :, None, :], vecs[:, None, :, :]
    # |v_i x v_j| with np.cross's products and np.linalg.norm's sum order
    c0 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c1 = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    cross = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    dots = vecs @ vecs.transpose(0, 2, 1)
    # largest number of points within 1e-3 rad of one point, itself included
    cluster = (np.arctan2(cross, dots) < 1e-3).sum(axis=2).max(axis=1)
    eff_tol = np.array([max(PAIRING_TOL, 100.0 * _EPS ** (1.0 / m)) for m in cluster.tolist()])
    mismatch = np.arctan2(cross, -dots)
    mismatch[:, np.tri(n, dtype=bool)] = np.inf  # only pairs i < j
    flat = mismatch.reshape(count, n * n)
    every = np.arange(count)
    best = np.empty((count, n // 2), dtype=np.intp)
    ang = np.empty((count, n // 2))
    for rnd in range(n // 2):
        best[:, rnd] = pick = flat.argmin(axis=1)
        ang[:, rnd] = flat[every, pick]
        i, j = np.divmod(pick, n)
        mismatch[every, i] = mismatch[every, j] = np.inf
        mismatch[every, :, i] = mismatch[every, :, j] = np.inf
    first, second = np.divmod(best, n)
    too_far = ang > eff_tol[:, None]
    if too_far.any():
        row, rnd = np.argwhere(too_far)[0]
        raise _row_error(row, f"root point {points[row][first[row, rnd]]} has no antipodal partner "
                         f"(best mismatch {ang[row, rnd]:.3e} rad > {eff_tol[row]:.3e}); "
                         "the input tensor likely violates conjugation symmetry", "pairing")
    # the pair difference averages out opposite-signed root noise
    mean = vecs[every[:, None], first] - vecs[every[:, None], second]
    mean /= np.sqrt(mean[..., None, :] @ mean[..., :, None])[..., 0]  # np.linalg.norm's dot product
    out = []
    for row in mean:
        axes = [Axis.from_cartesian(_canonical_rep(u)) for u in row]
        # coarse-then-fine key so fp-level theta ties still order by phi
        axes.sort(key=lambda ax: (round(ax.theta, 9), round(ax.phi, 9), ax.theta, ax.phi))
        out.append(axes)
    return out


def _coupled(comps: np.ndarray) -> np.ndarray:
    """Nested stretched coupling of stacked rank-1 components (..., k, 3) to (..., 2k+1)."""
    acc = comps[..., 0, :]
    for rank in range(2, comps.shape[-2] + 1):
        acc = couple(acc, comps[..., rank - 1, :], rank)
    return acc


def _scales(targets: np.ndarray, axes_rows: list) -> list:
    """(r, flipped, residual) of stacked rank-k components against their k axes, as :func:`scalar_r`.

    Raises the DecompositionError of the lowest row whose coupled axis tensor vanishes.
    """
    k = len(axes_rows[0])
    comps = np.array([[_spherical_components(ax.theta, ax.phi) for ax in axes] for axes in axes_rows])
    prod = _coupled(comps.reshape(len(axes_rows), k, 3))
    every = np.arange(len(prod))
    imax = np.argmax(np.abs(prod), axis=1)
    pmax = prod[every, imax]
    vanishing = np.abs(pmax) < 1e-10
    if vanishing.any():
        raise _row_error(np.argmax(vanishing), f"coupled axis tensor vanishes at rank {k} "
                         "while the tensor components do not", "scale")
    r = (targets[every, imax] / pmax).real
    flipped = r < 0.0
    r = np.where(flipped, -r, r)
    prod = np.where(flipped[:, None], -prod, prod)
    residual = np.max(np.abs(targets - r[:, None] * prod), axis=1)
    return list(zip(r.tolist(), flipped.tolist(), residual.tolist()))


def reconstruct_tensor(form: MultiaxialForm) -> TensorComponents:
    """Rebuild t[k,q] = r_k P[k,q] from the axes; absent ranks give zeros."""
    blocks = [np.ones(1)]
    for k in range(1, form.j.twice + 1):
        dec = form.ranks.get(k)
        blocks.append(np.zeros(2 * k + 1) if dec is None else dec.r * coupled_axes_tensor(dec.axes))
    return TensorComponents(form.j, np.concatenate(blocks))
