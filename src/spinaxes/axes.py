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

Every stage works on all (item, rank) rows of a stack of same-j tensors in
one pass (:func:`decompose_many`); the single-item functions build_polynomial,
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
    coeffs, deficiency, present = _polynomials(row[None], np.array([k]))
    if not present[0]:
        return None
    return RankPolynomial(k=k, coefficients=coeffs[0], degree_deficiency=int(deficiency[0]))


def solve_axes(poly: RankPolynomial) -> list[tuple[float, float]]:
    """All 2k root points (theta, phi), with deficiency roots placed at theta = 0.

    Finite roots come from the companion-matrix eigensolve (as np.roots) and
    are checked against a residual bound of ROOT_RESIDUAL_TOL relative to the
    coefficient scale; failures raise DecompositionError with diagnostics.
    """
    return _root_points(poly.coefficients[None], np.array([poly.degree_deficiency]), np.array([poly.k]))[0]


def pair_and_canonicalize(points) -> list[Axis]:
    """Match the 2k root points into antipodal pairs and pick one axis per pair.

    Greedy nearest-antipode matching: each round takes the first row-major
    minimum of atan2(|v_i x v_j|, -v_i . v_j) over unmatched pairs i < j. An
    m-fold root cluster is only accurate to about eps^(1/m), so the matching
    tolerance widens from PAIRING_TOL accordingly. The representative is the
    pair member with z > 0 (ties broken by x, then y), and the result is
    sorted by (theta, phi). Unpairable points signal a conjugation-symmetry
    violation upstream and raise DecompositionError, as do non-finite ones.
    """
    pts = list(points)
    if len(pts) % 2:
        raise DecompositionError(f"expected an even number of root points, got {len(pts)}", stage="pairing", index=0)
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
    return _coupled([axes])[0]


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
    """:func:`decompose` of every tensor in a sequence of one j, each stage in one pass over the stack.

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
    error, count = None, len(ts)
    for index, t in enumerate(ts):
        try:
            t.validate(1e-8)
        except ValidationError as exc:
            exc.index = count = index
            error = exc
            break
    # one zero-padded row t[k, +k ... -k] per (item, rank), in the order a loop of decompose meets them
    tj, ks, cols = j.twice, np.arange(1, j.twice + 1), np.arange(2 * j.twice + 1)
    stack = np.array([t.array for t in ts[:count]]).reshape(count, (tj + 1) ** 2)
    rows = np.where(cols <= 2 * ks[:, None], stack[:, ks[:, None] ** 2 + cols], 0).reshape(-1, 2 * tj + 1)
    ks = np.arange(count * tj) % tj + 1
    live = len(rows)  # only the rows before the lowest failing row so far stay in play
    while True:  # rows are independent: without the failed suffix, the rest solve as they would alone
        try:
            decs = _ranks(rows[:live], ks[:live])
            break
        except DecompositionError as exc:
            error, live = exc, exc.index
            error.index = live // tj
    if error is not None:
        raise error
    return [MultiaxialForm(j=j, ranks=dict(zip(range(1, tj + 1), decs[i * tj:(i + 1) * tj]))) for i in range(count)]


def _ranks(rows: np.ndarray, ks: np.ndarray) -> list:
    """Decomposition of each row t[k, +k ... -k] (k = ks[i], zero-padded), ``None`` where the rank is absent.

    Runs polynomial, roots, pairing, scale and residual check, each once over
    all rows. The first stage at which some row fails raises a "rank k: ..."
    DecompositionError from that stage's error, with ``index`` set to its row.
    """
    coeffs, deficiency, present = _polynomials(rows, ks)
    items = np.flatnonzero(present)
    decs = [None] * len(rows)
    if not items.size:
        return decs
    try:
        axes_rows = _pairings(_root_points(coeffs[items], deficiency[items], ks[items]))
        scales = _scales(rows[items], axes_rows)
        for row, (_, _, residual) in enumerate(scales):
            if residual > RESIDUAL_TOL:
                raise DecompositionError(f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}",
                                         stage="residual", index=row)
    except DecompositionError as exc:
        row = int(items[exc.index])
        k = int(ks[row])
        raise DecompositionError(f"rank {k}: {exc}", rank=k, stage=exc.stage, index=row) from exc
    for item, axes, (r, flipped, residual) in zip(items.tolist(), axes_rows, scales):
        if flipped:
            axes[-1] = axes[-1].antipode()
        decs[item] = RankDecomposition(tuple(axes), r, flipped, residual)
    return decs


def _polynomials(rows: np.ndarray, ks: np.ndarray):
    """Axis polynomials of stacked components, row i holding t[k, +k ... -k] for k = ks[i], zero-padded.

    Returns the coefficients C_0 ... C_2k of each row, zero-padded to the
    width of ``rows``, the degree deficiency of each row and whether each row
    is present (some component at least EMPTY_RANK_TOL in magnitude).
    """
    present = ~(np.abs(rows).max(axis=1) < EMPTY_RANK_TOL)
    width = rows.shape[1]
    # C_r = sqrt(binom(2k, r)) t[k, r-k]; past r = 2k the weight is 0 and the index wraps onto padding
    weights = np.sqrt([[math.comb(2 * k, r) for r in range(width)] for k in range(width // 2 + 1)])[ks]
    coeffs = weights * rows[np.arange(len(rows))[:, None], (2 * ks[:, None] - np.arange(width)) % width]
    mags = np.abs(coeffs)
    big = mags > DEFICIENCY_REL_TOL * mags.max(axis=1, keepdims=True)
    return coeffs, 2 * ks - (width - 1 - np.argmax(big[:, ::-1], axis=1)), present


def _root_point(z: complex) -> tuple[float, float]:
    theta = 2.0 * math.atan2(1.0, abs(z))
    phi = 0.0 if z == 0 else _wrap_azimuth(-cmath.phase(z))
    return (theta, phi)


def _root_points(coeffs: np.ndarray, deficiency: np.ndarray, ks: np.ndarray) -> list:
    """Root points of stacked rank-ks[i] polynomials, zero-padded, one list per row as :func:`solve_axes` gives it.

    As np.roots does, exact zeros at either end of C_0 ... C_degree are
    stripped from the companion matrix, the low ones becoming roots at Z = 0;
    rows are grouped by rank, degree and stripped span, one eigensolve per
    group. A group with a row whose roots miss the residual bound, or whose
    eigensolve does not converge, raises that row's DecompositionError.
    """
    out = [None] * len(coeffs)
    groups = {}
    for row, (k, defic, nonzero) in enumerate(zip(ks.tolist(), deficiency.tolist(), (coeffs != 0).tolist())):
        degree = 2 * k - defic
        span = [r for r in range(degree + 1) if nonzero[r]] or [0]
        groups.setdefault((k, degree, span[0], span[-1]), []).append(row)
    for (k, degree, low, high), rows in groups.items():
        if high == 0:  # no finite nonzero root
            for row in rows:
                out[row] = [(0.0, 0.0)] * (2 * k - degree)
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
            raise DecompositionError(f"root {roots[g, i]!r} of the rank-{k} polynomial has residual "
                                     f"{values[g, i]:.3e} (bound {bounds[g, i]:.3e})", stage="roots", index=rows[g])
        for row, row_roots in zip(rows, roots.tolist()):
            out[row] = [(0.0, 0.0)] * (2 * k - degree) + [_root_point(z) for z in row_roots]
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
            raise DecompositionError(f"root solver did not converge for rank {k} (coefficients {coeffs[row]!r})",
                                     stage="roots", index=row) from exc
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
    """Antipodal pairing of stacked root-point sets of even sizes, one axis list per set.

    Each set is paired as :func:`pair_and_canonicalize` describes, padded to
    the largest with points of mismatch +inf that join no cluster. Raises the
    DecompositionError of the lowest set holding a non-finite point, else of
    the lowest set with a point that has no antipodal partner.
    """
    sizes = np.array([len(pts) for pts in points])
    flat = [point for pts in points for point in pts]
    bad = np.flatnonzero(~np.isfinite(np.array(flat, dtype=float)).all(axis=1))
    if bad.size:
        raise DecompositionError(f"root point {flat[bad[0]]} is not finite", stage="pairing",
                                 index=int(np.searchsorted(np.cumsum(sizes), bad[0], side="right")))
    count, n = len(points), int(sizes.max())
    real = np.arange(n) < sizes[:, None]
    vecs = np.array([[_cartesian(theta, phi) for theta, phi in pts] + [(0.0, 0.0, 0.0)] * (n - len(pts))
                     for pts in points]).reshape(count, n, 3)
    a, b = vecs[:, :, None, :], vecs[:, None, :, :]
    # |v_i x v_j| with np.cross's products and np.linalg.norm's sum order
    c0 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c1 = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    cross = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    dots = vecs @ vecs.transpose(0, 2, 1)
    both = real[:, :, None] & real[:, None, :]
    # largest number of points within 1e-3 rad of one point, itself included
    cluster = ((np.arctan2(cross, dots) < 1e-3) & both).sum(axis=2).max(axis=1)
    eff_tol = np.array([max(PAIRING_TOL, 100.0 * _EPS ** (1.0 / m)) for m in cluster.tolist()])
    mismatch = np.arctan2(cross, -dots)
    mismatch[~both | np.tri(n, dtype=bool)] = np.inf  # only pairs i < j of real points
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
    paired = np.arange(n // 2) < sizes[:, None] // 2  # rounds that matched two real points
    too_far = (ang > eff_tol[:, None]) & paired
    if too_far.any():
        row, rnd = np.argwhere(too_far)[0]
        raise DecompositionError(f"root point {points[row][first[row, rnd]]} has no antipodal partner "
                                 f"(best mismatch {ang[row, rnd]:.3e} rad > {eff_tol[row]:.3e}); "
                                 "the input tensor likely violates conjugation symmetry", stage="pairing",
                                 index=int(row))
    # the pair difference averages out opposite-signed root noise
    mean = (vecs[every[:, None], first] - vecs[every[:, None], second])[paired]
    mean /= np.sqrt(mean[:, None, :] @ mean[:, :, None])[:, 0]  # np.linalg.norm's dot product
    out, pairs = [], iter(mean)
    for size in sizes.tolist():
        axes = [Axis.from_cartesian(_canonical_rep(next(pairs))) for _ in range(size // 2)]
        # coarse-then-fine key so fp-level theta ties still order by phi
        axes.sort(key=lambda ax: (round(ax.theta, 9), round(ax.phi, 9), ax.theta, ax.phi))
        out.append(axes)
    return out


def _coupled(axes_rows) -> np.ndarray:
    """Nested stretched couplings (...((Q1 x Q2)^2 x Q3)^3 ...) of stacked axis sets, in one shared chain.

    Step r couples every set of at least r axes in one :func:`couple` call.
    Row i of the result holds the rank-k tensor of set i's k axes, zero-padded.
    """
    ks = np.array([len(axes) for axes in axes_rows])
    order = np.argsort(-ks, kind="stable")  # by descending k: the sets still coupling at a step are a prefix
    top = int(ks[order[0]])
    live = np.cumsum(np.bincount(ks)[::-1])[::-1].tolist() + [0]  # sets with k >= r, per r
    chain = np.array([[_spherical_components(ax.theta, ax.phi) for ax in axes_rows[row]] + [(0j, 0j, 0j)] * (top - k)
                      for row, k in zip(order.tolist(), ks[order].tolist())])
    out = np.zeros((len(ks), 2 * top + 1), dtype=complex)
    acc = chain[:, 0]
    for rank in range(1, top + 1):
        if rank > 1:
            acc = couple(acc[:live[rank]], chain[:live[rank], rank - 1], rank)
        out[order[live[rank + 1]:live[rank]], :2 * rank + 1] = acc[live[rank + 1]:]
    return out


def _scales(targets: np.ndarray, axes_rows: list) -> list:
    """(r, flipped, residual) of stacked components against their axes, as :func:`scalar_r`.

    Row i of ``targets`` holds t[k, +k ... -k] for its k axes, zero-padded.
    Raises the DecompositionError of the lowest row whose coupled axis tensor vanishes.
    """
    prod = _coupled(axes_rows)
    targets = targets[:, :prod.shape[1]]
    every = np.arange(len(prod))
    imax = np.argmax(np.abs(prod), axis=1)
    pmax = prod[every, imax]
    vanishing = np.abs(pmax) < 1e-10
    if vanishing.any():
        row = int(np.argmax(vanishing))
        raise DecompositionError(f"coupled axis tensor vanishes at rank {len(axes_rows[row])} "
                                 "while the tensor components do not", stage="scale", index=row)
    r = (targets[every, imax] / pmax).real
    flipped = r < 0.0
    r = np.where(flipped, -r, r)
    prod = np.where(flipped[:, None], -prod, prod)
    residual = np.max(np.abs(targets - r[:, None] * prod), axis=1)
    return list(zip(r.tolist(), flipped.tolist(), residual.tolist()))


def reconstruct_tensor(form: MultiaxialForm) -> TensorComponents:
    """Rebuild t[k,q] = r_k P[k,q] from the axes, all ranks in one coupling chain; absent ranks give zeros."""
    decs = [form.ranks.get(k) for k in range(1, form.j.twice + 1)]
    present = [dec.axes for dec in decs if dec is not None]
    prods = iter(_coupled(present) if present else ())
    blocks = [np.ones(1)]
    for k, dec in enumerate(decs, start=1):
        blocks.append(np.zeros(2 * k + 1) if dec is None else dec.r * next(prods)[:2 * len(dec.axes) + 1])
    return TensorComponents(form.j, np.concatenate(blocks))
