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

Every stage works on all (item, rank) rows of an (N, (2j+1)^2) component
stack in one pass, and the core returns arrays (:func:`_decompose_stack`);
the single-item functions run the same code on a stack of one. Root points
and axes travel as zero-padded (theta, phi) arrays, one row per (item, rank).
Only :func:`decompose_many` builds Axis, RankDecomposition and MultiaxialForm
objects, and functions given Axis objects read their angles into one array.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .angular import _TWO_PI, HalfInt, _wrap_azimuth, angle_between, couple, unit_vector, unit_vector_components
from .errors import DecompositionError, DomainError, ValidationError
from .tensors import TensorComponents, _check_tensor_stack

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
INPUT_TOL = 1e-8             # |t[0,0] - 1| and conjugation defect of the tensors decompose accepts

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
        return cls(*_polar(np.asarray(vec, dtype=float).reshape(1, 3))[0].tolist())

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
        count = int(_deficiencies(arr[None], np.array([self.k]))[0])
        if self.degree_deficiency != count:
            raise DomainError(f"coefficients {arr!r} have degree deficiency {count}, not {self.degree_deficiency}")
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

    Finite roots come from the companion-matrix eigensolve (as np.roots), sorted by real, then imaginary
    part, and are checked against a residual bound of ROOT_RESIDUAL_TOL relative to the coefficient scale,
    times max(1, |Z|)^degree (for |Z| > 1 both sides are divided by it, so neither overflows); the first
    root that misses it raises DecompositionError with diagnostics.
    """
    points = _root_points(poly.coefficients[None], np.array([poly.degree_deficiency]), np.array([poly.k]))
    return [tuple(point) for point in points[0].tolist()]


def pair_and_canonicalize(points) -> list[Axis]:
    """Match the 2k root points into antipodal pairs and pick one axis per pair.

    Greedy nearest-antipode matching: a scan of the pairs i < j by atan2(|v_i x v_j|, -v_i . v_j), row-major on
    ties, takes each pair of two unmatched points, at each step the first row-major minimum over them. An
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
    angles = _pairings(np.array(pts, dtype=float).reshape(1, len(pts), 2), np.array([len(pts) // 2]))
    return [Axis(theta, phi) for theta, phi in angles[0].tolist()]


def coupled_axes_tensor(axes) -> np.ndarray:
    """Nested stretched coupling (...((Q1 x Q2)^2 x Q3)^3 ...) of unit axes.

    Rank equals the number of axes; the result is symmetric under axis
    reordering and flips sign when any single axis is inverted.
    """
    return _coupled(*_angle_rows([list(axes)]))[0]


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
    r, flipped, residual = _scales(t.rank_array(k)[None], *_angle_rows([axes]))
    return float(r[0]), bool(flipped[0]), float(residual[0])


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
    forms = []
    for item in zip(*(array.tolist() for array in _decompose_stack(np.array([t.array for t in ts]), j.twice))):
        ranks = {k: RankDecomposition(tuple(Axis(theta, phi) for theta, phi in pairs[:k]), r, flipped, residual)
                 if present else None for k, (present, pairs, r, flipped, residual) in enumerate(zip(*item), start=1)}
        forms.append(MultiaxialForm(j=j, ranks=ranks))
    return forms


def _decompose_stack(stack: np.ndarray, tj: int) -> tuple:
    """Arrays (present, angles, r, flipped, residual) of an (N, (2j+1)^2) component stack; raises as decompose_many.

    Entry [i, k - 1] of each is rank k of item i: present or not, the (theta, phi) of its k axes (zero-padded
    to 2j, as :class:`Axis` stores them), r_k, flipped, residual; every one 0 where the rank is absent.
    """
    ks, cols, count = np.arange(1, tj + 1), np.arange(2 * tj + 1), len(stack)
    error = None
    try:
        _check_tensor_stack(stack, tj, INPUT_TOL)
    except ValidationError as exc:
        error, count = exc, exc.index
    # one zero-padded row t[k, +k ... -k] per (item, rank), in the order a loop of decompose meets them
    rows = np.where(cols <= 2 * ks[:, None], stack[:count, ks[:, None] ** 2 + cols], 0).reshape(-1, 2 * tj + 1)
    ks = np.arange(count * tj) % tj + 1
    live = len(rows)  # only the rows before the lowest failing row so far stay in play
    while True:  # rows are independent: without the failed suffix, the rest solve as they would alone
        try:
            arrays = _ranks(rows[:live], ks[:live])
            break
        except DecompositionError as exc:
            error, live = exc, exc.index
            error.index = live // tj
    if error is not None:
        raise error
    return tuple(array.reshape((count, tj) + array.shape[1:]) for array in arrays)


def _ranks(rows: np.ndarray, ks: np.ndarray) -> tuple:
    """:func:`_decompose_stack`'s arrays for rows t[k, +k ... -k] (k = ks[i], zero-padded), one row each.

    Runs polynomial, roots, pairing, scale and residual check, each once over
    all rows. The first stage at which some row fails raises a "rank k: ..."
    DecompositionError from that stage's error, with ``index`` set to its row.
    """
    coeffs, deficiency, present = _polynomials(rows, ks)
    angles = np.zeros((len(rows), rows.shape[1] // 2, 2))
    r, flipped, residual = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool), np.zeros(len(rows))
    items = np.flatnonzero(present)
    if not items.size:
        return present, angles, r, flipped, residual
    ks = ks[items]
    try:
        pairs = _pairings(_root_points(coeffs[items], deficiency[items], ks), ks)
        r[items], flipped[items], residual[items] = _scales(rows[items], pairs, ks)
        bad = residual[items] > RESIDUAL_TOL
        if bad.any():
            row = int(np.argmax(bad))
            raise DecompositionError(f"reconstruction residual {residual[items[row]]:.3e} exceeds {RESIDUAL_TOL:.1e}",
                                     stage="residual", index=row)
    except DecompositionError as exc:
        k = int(ks[exc.index])
        raise DecompositionError(f"rank {k}: {exc}", rank=k, stage=exc.stage, index=int(items[exc.index])) from exc
    theta, phi = pairs[..., 0], pairs[..., 1]
    flips = np.flatnonzero(flipped[items])
    last = ks[flips] - 1  # the last axis of a flipped row becomes its antipode, as Axis.antipode makes it
    theta[flips, last] = math.pi - theta[flips, last]
    phi[flips, last] += math.pi
    # Axis's clamp of theta and wrap of phi
    angles[items, :pairs.shape[1], 0] = np.minimum(np.maximum(theta, 0.0), math.pi)
    angles[items, :pairs.shape[1], 1] = _wrap(phi)
    return present, angles, r, flipped, residual


@lru_cache(maxsize=None)
def _binomial_weights(width: int) -> np.ndarray:
    """Read-only sqrt(binom(2k, r)) for r < width, one row per k = 0 ... width // 2."""
    weights = np.sqrt([[math.comb(2 * k, r) for r in range(width)] for k in range(width // 2 + 1)])
    weights.setflags(write=False)
    return weights


def _polynomials(rows: np.ndarray, ks: np.ndarray):
    """Axis polynomials of stacked components, row i holding t[k, +k ... -k] for k = ks[i], zero-padded.

    Returns the coefficients C_0 ... C_2k of each row, zero-padded to the
    width of ``rows``, the degree deficiency of each row and whether each row
    is present (some component at least EMPTY_RANK_TOL in magnitude).
    """
    present = ~(np.abs(rows).max(axis=1) < EMPTY_RANK_TOL)
    width = rows.shape[1]
    # C_r = sqrt(binom(2k, r)) t[k, r-k]; past r = 2k the weight is 0 and the index wraps onto padding
    weights = _binomial_weights(width)[ks]
    coeffs = weights * rows[np.arange(len(rows))[:, None], (2 * ks[:, None] - np.arange(width)) % width]
    return coeffs, _deficiencies(coeffs, ks), present


def _deficiencies(coeffs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Degree deficiency of each row of zero-padded C_0 ... C_2k: the leading coefficients below tol * max."""
    mags = np.abs(coeffs)
    big = mags > DEFICIENCY_REL_TOL * mags.max(axis=1, keepdims=True)
    return 2 * ks - (coeffs.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1))


def _root_points(coeffs: np.ndarray, deficiency: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Root points (theta, phi) of stacked rank-ks[i] polynomials as :func:`solve_axes` gives them, zero-padded.

    Row i of the (rows, 2 max(ks), 2) result holds its 2 ks[i] points. As
    np.roots does, exact zeros at either end of C_0 ... C_degree are
    stripped from the companion matrix, the low ones becoming roots at Z = 0; rows are grouped in a dict by rank,
    degree and stripped span (found for all rows at once, as are the companion first rows), one eigensolve per
    group; then the roots of all rows are sorted, checked and converted in one pass each. A row whose eigensolve
    does not converge, else the lowest row with a root missing the residual bound, raises.
    """
    degrees = 2 * ks - deficiency
    real = np.zeros((len(ks), 2 * int(ks.max())), dtype=bool)  # the finite roots, after the deficiency roots
    zs = np.zeros(real.shape, dtype=complex)  # the low roots at Z = 0 stay +0
    cols = np.arange(coeffs.shape[1])
    nonzero = (coeffs != 0) & (cols <= degrees[:, None])  # in C_0 ... C_degree; none gives the span [0, 0]
    first, last = np.argmax(nonzero, axis=1), (cols * nonzero).max(axis=1)
    # companion first rows -C_{high-1} ... -C_low over C_high, read up to each span; a row of zeros has no span
    top = np.take_along_axis(coeffs, last[:, None], axis=1)
    first_rows = -np.take_along_axis(coeffs, last[:, None] - 1 - cols[:-1], axis=1)  # -C_{high-1}, -C_{high-2} ...
    first_rows /= np.where(top == 0, 1.0, top)
    groups = {}
    for row, key in enumerate(zip(ks.tolist(), degrees.tolist(), first.tolist(), last.tolist())):
        groups.setdefault(key, []).append(row)
    for (k, degree, low, high), rows in groups.items():
        real[rows, 2 * k - degree:2 * k] = high > 0  # C_0 alone: no finite root, every point at (0, 0)
        size = high - low
        if size:
            companion = np.zeros((len(rows), size, size), dtype=complex)
            companion.reshape(len(rows), -1)[:, size::size + 1] = 1.0  # the subdiagonal
            companion[:, 0, :] = first_rows[rows, :size]
            zs[rows, 2 * k - degree:2 * k - degree + size] = _eigvals(companion, rows, coeffs[:, :2 * k + 1], k)
    row, z = np.nonzero(real)[0], zs[real]
    z = z[np.lexsort((z.imag, z.real, row))]  # each row's roots by real, then imaginary part, stable
    # Horner as np.polyval over C_degree ... C_0 at Z, or for |Z| > 1 over C_0 ... C_degree at 1/Z, giving
    # |p(Z)| / |Z|^degree so nothing overflows; front-padded with +0, as 0 * x + 0 stays +0 until C starts
    steps = np.arange(int(degrees.max()) + 1)
    low_first = steps - (steps[-1] - degrees[row, None])  # index in C_0 ... C_degree per step, < 0 on padding
    big = np.abs(z) > 1.0
    seq = coeffs[row[:, None], np.where(big[:, None], low_first, steps[::-1])]  # steps[::-1] is degree - low_first
    seq[low_first < 0] = 0.0
    x = np.divide(1.0, z, out=z.copy(), where=big)
    values = np.zeros_like(z)
    for step in steps:
        values = values * x + seq[:, step]
    bound = (ROOT_RESIDUAL_TOL * np.abs(coeffs).max(axis=1) * (degrees + 1))[row]
    bad = ~(np.abs(values) <= bound)  # a NaN residual fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise DecompositionError(f"root {z[i]!r} of the rank-{ks[row[i]]} polynomial has residual "
                                 f"{abs(values[i]):.3e} (bound {bound[i]:.3e})", stage="roots", index=int(row[i]))
    # theta = 2 atan2(1, |Z|), phi = -arg Z wrapped as _wrap_azimuth does; Python's atan2 and phase for their bits
    flat = z.tolist()
    theta = 2.0 * np.fromiter(map(math.atan2, repeat(1.0), map(abs, flat)), float, len(flat))
    phi = _wrap(-np.fromiter(map(cmath.phase, flat), float, len(flat)))
    phi[z == 0] = 0.0
    out = np.zeros(real.shape + (2,))  # deficiency roots sit at (0, 0)
    out[real] = np.stack((theta, phi), axis=-1)
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
    """Each row of u, or its negative: the representative with z > 0; on a tie, x > 0, then y > 0."""
    zxy = u[:, [2, 0, 1]]
    first = zxy[np.arange(len(u)), np.argmax(zxy != 0.0, axis=1)]  # first nonzero of z, x, y
    return np.where(first[:, None] < 0.0, -u, u)


def _wrap(phi: np.ndarray) -> np.ndarray:
    """Finite azimuths wrapped as _wrap_azimuth wraps them: into [0, 2 pi), a hair below 2 pi mapping to 0."""
    phi = np.remainder(phi, _TWO_PI)
    phi[_TWO_PI - phi < 1e-12] = 0.0
    return phi


def _polar(vecs: np.ndarray) -> np.ndarray:
    """(theta, phi) of each row of stacked 3-vectors as :class:`Axis` holds it, the inverse of unit_vector.

    At the poles the azimuth is noise and is set to 0. A zero vector raises DomainError. Python's acos, atan2
    and hypot give the bits: numpy's arccos and arctan2 do not always match them.
    """
    norms = np.sqrt(vecs[:, None, :] @ vecs[:, :, None])[:, 0]  # np.linalg.norm's dot product
    if (norms < 1e-300).any():
        raise DomainError("cannot build an axis from the zero vector")
    unit = vecs / norms
    x, y, z = unit.T.tolist()
    polar = np.empty((len(vecs), 2))
    polar[:, 0] = list(map(math.acos, map(min, repeat(1.0), map(max, repeat(-1.0), z))))
    polar[:, 1] = _wrap(np.fromiter(map(math.atan2, y, x), float, len(vecs)))
    pole = np.fromiter(map(math.hypot, x, y), float, len(vecs)) < 1e-12
    polar[pole, 0] = np.where(unit[pole, 2] > 0.0, 0.0, math.pi)
    polar[pole, 1] = 0.0
    return polar


def _pairings(points: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Antipodal pairing of stacked root-point sets, row i holding 2 ks[i] points (theta, phi), zero-padded.

    Each set is paired as :func:`pair_and_canonicalize` describes, by one stable argsort of the mismatches of its
    pairs i < j and a greedy scan (none for two points); padded points get mismatch +inf and join no cluster.
    Returns the (theta, phi) of each set's ks[i] axes, zero-padded to (rows, points.shape[1] // 2, 2). Raises the
    DecompositionError of the lowest set holding a non-finite point, else of the lowest set with a point that has
    no antipodal partner.

    Scratch: one (3, rows, n, n) float block, allocated per call, holds |v_i x v_j|, v_i . v_j and a spare square;
    every elementwise pass writes into it with ``out=``, the spare ending as the mismatches. The argsort sorts only
    the n (n - 1) / 2 pairs i < j, gathered in row-major order through a cached index: the gathered mismatches and
    their order add two (rows, n (n - 1) / 2) arrays, just under one square. Cluster sizes are counted only for
    sets with a picked pair beyond PAIRING_TOL, since the widened tolerance is never below it.
    """
    count, n = points.shape[:2]
    real = np.arange(n) < 2 * ks[:, None]
    bad = real & ~np.isfinite(points).all(axis=2)
    if bad.any():
        row, i = np.argwhere(bad)[0]
        raise DecompositionError(f"root point {tuple(points[row, i].tolist())} is not finite", stage="pairing",
                                 index=int(row))
    vecs = unit_vector(points[..., 0], points[..., 1])
    a, b = vecs[:, :, None, :], vecs[:, None, :, :]
    cross, dots, spare = np.empty((3, count, n, n))
    # |v_i x v_j| with np.cross's products c_i = a_p b_q - a_q b_p and np.linalg.norm's sum order: c_0 is squared
    # in cross, c_1 and c_2 in dots, each then added to cross
    for c, (p, q) in zip((cross, dots, dots), ((1, 2), (2, 0), (0, 1))):
        np.multiply(a[..., p], b[..., q], out=c)
        np.subtract(c, np.multiply(a[..., q], b[..., p], out=spare), out=c)
        np.multiply(c, c, out=c)
        if c is dots:
            np.add(cross, dots, out=cross)
    np.sqrt(cross, out=cross)
    np.matmul(vecs, vecs.transpose(0, 2, 1), out=dots)
    mismatch = np.arctan2(cross, np.negative(dots, out=spare), out=spare)
    both = real[:, :, None] & real[:, None, :]
    mismatch[~both] = np.inf  # padded points pair with none
    upper = _upper_pairs(n)
    ranked = np.argsort(mismatch.reshape(count, n * n)[:, upper], axis=1, kind="stable")  # ties in row-major order
    picks = []
    for row, k in enumerate(ks.tolist()):
        if k == 1:  # the only real pair, (0, 1), needs no scan
            picks.append(1)
            continue
        free, done = [True] * (2 * k), len(picks) + k
        for pick in upper[ranked[row, :k * (2 * k - 1)]].tolist():  # the real pairs i < j, as i * n + j
            i, j = divmod(pick, n)
            if free[i] and free[j]:
                free[i] = free[j] = False
                picks.append(pick)
                if len(picks) == done:
                    break
    every = np.arange(count)
    paired = np.arange(n // 2) < ks[:, None]  # rounds that matched two real points
    first, second = np.zeros((2, count, n // 2), dtype=np.intp)
    first[paired], second[paired] = np.divmod(picks, n)
    ang = mismatch[every[:, None], first, second]
    loose = (ang > PAIRING_TOL) & paired
    if loose.any():
        sets = loose.any(axis=1)
        # largest number of points within 1e-3 rad of one point, itself included
        cluster = ((np.arctan2(cross[sets], dots[sets]) < 1e-3) & both[sets]).sum(axis=2).max(axis=1)
        eff_tol = np.full(count, PAIRING_TOL)
        eff_tol[sets] = [max(PAIRING_TOL, 100.0 * _EPS ** (1.0 / m)) for m in cluster.tolist()]
        too_far = (ang > eff_tol[:, None]) & paired
        if too_far.any():
            row, rnd = np.argwhere(too_far)[0]
            raise DecompositionError(f"root point {tuple(points[row, first[row, rnd]].tolist())} has no antipodal "
                                     f"partner (best mismatch {ang[row, rnd]:.3e} rad > {eff_tol[row]:.3e}); "
                                     "the input tensor likely violates conjugation symmetry", stage="pairing",
                                     index=int(row))
    # the pair difference averages out opposite-signed root noise
    mean = (vecs[every[:, None], first] - vecs[every[:, None], second])[paired]
    mean /= np.sqrt(mean[:, None, :] @ mean[:, :, None])[:, 0]  # np.linalg.norm's dot product
    # each row's axes sorted by (theta, phi) to 9 decimals (keys left 0 in a row of one axis), so fp-level
    # theta ties still order by phi, then exactly, padding last; Python's round, as np.round is not correctly
    # rounded and could reorder near-ties
    keyed = np.zeros((count, n // 2, 4))
    keyed[paired, 2:] = _polar(_canonical_rep(mean))
    several = paired & (ks[:, None] > 1)
    keyed[several, :2] = np.reshape(list(map(round, keyed[several, 2:].ravel().tolist(), repeat(9))), (-1, 2))
    order = np.lexsort((*keyed[..., ::-1].transpose(2, 0, 1), ~paired), axis=-1)
    return keyed[every[:, None], order, 2:]


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> np.ndarray:
    """Read-only flat positions i * n + j of the pairs i < j of n points, in row-major order."""
    flat = np.flatnonzero(~np.tri(n, dtype=bool))
    flat.setflags(write=False)
    return flat


def _angle_rows(axes_rows: list) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of stacked axis sets, zero-padded to shape (sets, largest set, 2), and each set's size."""
    ks = [len(axes) for axes in axes_rows]
    if not min(ks):
        raise DomainError("need at least one axis")
    pad = [(0.0, 0.0)] * max(ks)
    return np.array([[(ax.theta, ax.phi) for ax in axes] + pad[len(axes):] for axes in axes_rows]), np.array(ks)


def _coupled(angles: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Nested stretched couplings (...((Q1 x Q2)^2 x Q3)^3 ...) of stacked axis sets, in one shared chain.

    Row i of ``angles`` holds the (theta, phi) of set i's ks[i] axes,
    zero-padded. Step r couples every set of at least r axes in one
    :func:`couple` call. Row i of the result holds the rank-ks[i] tensor of
    set i, zero-padded.
    """
    order = np.argsort(-ks, kind="stable")  # by descending k: the sets still coupling at a step are a prefix
    top = int(ks[order[0]])
    live = np.cumsum(np.bincount(ks)[::-1])[::-1].tolist() + [0]  # sets with k >= r, per r
    chain = unit_vector_components(angles[order, :top, 0], angles[order, :top, 1])
    out = np.zeros((len(ks), 2 * top + 1), dtype=complex)
    acc = chain[:, 0]
    for rank in range(1, top + 1):
        if rank > 1:
            acc = couple(acc[:live[rank]], chain[:live[rank], rank - 1], rank)
        out[order[live[rank + 1]:live[rank]], :2 * rank + 1] = acc[live[rank + 1]:]
    return out


def _scales(targets: np.ndarray, angles: np.ndarray, ks: np.ndarray) -> tuple:
    """Arrays r, flipped and residual of stacked components against their axes, as :func:`scalar_r`.

    Row i of ``targets`` holds t[k, +k ... -k] for k = ks[i], and row i of
    ``angles`` the (theta, phi) of its k axes, both zero-padded. Raises the
    DecompositionError of the lowest row whose coupled axis tensor vanishes.
    """
    prod = _coupled(angles, ks)
    targets = targets[:, :prod.shape[1]]
    every = np.arange(len(prod))
    imax = np.argmax(np.abs(prod), axis=1)
    pmax = prod[every, imax]
    vanishing = np.abs(pmax) < 1e-10
    if vanishing.any():
        row = int(np.argmax(vanishing))
        raise DecompositionError(f"coupled axis tensor vanishes at rank {ks[row]} "
                                 "while the tensor components do not", stage="scale", index=row)
    r = (targets[every, imax] / pmax).real
    flipped = r < 0.0
    r = np.where(flipped, -r, r)
    prod = np.where(flipped[:, None], -prod, prod)
    residual = np.max(np.abs(targets - r[:, None] * prod), axis=1)
    return r, flipped, residual


def reconstruct_tensor(form: MultiaxialForm) -> TensorComponents:
    """Rebuild t[k,q] = r_k P[k,q]: all ranks in one coupling chain, one scale, one scatter; absent ranks give 0."""
    decs = {k: dec for k in range(1, form.j.twice + 1) if (dec := form.ranks.get(k)) is not None}
    out = np.zeros((form.j.twice + 1) ** 2, dtype=complex)
    out[0] = 1.0
    if decs:
        angles, ks = _angle_rows([dec.axes for dec in decs.values()])
        prods = np.array([dec.r for dec in decs.values()])[:, None] * _coupled(angles, ks)
        cols = np.arange(prods.shape[1])
        within = cols <= 2 * ks[:, None]  # each row's q = +k ... -k, then padding
        out[(np.square(list(decs))[:, None] + cols)[within]] = prods[within]
    return TensorComponents(form.j, out)
