"""Rotational (local-unitary) invariants of the axial decomposition.

The scale factors r_k and all pairwise scalar couplings
(Qi x Qj)^0_0 = -(Qi . Qj)/sqrt(3) of the axes are unchanged when the state
is rotated, giving C(M, 2) + (#ranks present) invariants for M axes; for a
full-rank spin-j state that is C(j(2j+1), 2) + 2j. Signed pairwise values
depend on the hemisphere convention used to pick axis representatives, so
the convention-free absolute cosines are carried alongside.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .angular import _TWO_PI, HalfInt, clebsch_gordan, euler_rotation_cartesian, unit_vector, unit_vector_components
from .axes import MultiaxialForm, _pairs, decompose
from .errors import DomainError
from .tensors import DensityMatrix, rotate_tensor, to_tensor

__all__ = [
    "InvarianceReport",
    "InvariantSet",
    "enumerate_invariants",
    "invariant_count",
    "spin1_named",
    "verify_invariance",
]

SCALAR_TOL = 1e-8     # verify_invariance: largest accepted change of an r_k under rotation
PAIRWISE_TOL = 1e-8   # ... of a sorted |pairwise| value
AXIS_TOL = 1e-7       # ... of an axis direction, in radians

# C(1 1 0; q -q 0) for q = +1, 0, -1, the weights of the rank-0 coupling of two axes
_CG_SCALAR = np.array([clebsch_gordan(1, 1, 0, q, -q, 0) for q in (1, 0, -1)])
_CG_SCALAR.setflags(write=False)


@dataclass(frozen=True, eq=False)
class InvariantSet:
    """Scalars r_k plus every pairwise axis invariant, with labels (rank, index); arrays are read-only."""

    j: HalfInt
    scalars: tuple            # ((k, r_k), ...)
    values: np.ndarray        # signed (Qa x Qb)^0_0 for (a, b) in combinations(axis_labels, 2)
    abs_cosines: np.ndarray   # |Qi . Qj| over all axes, diagonal 1
    axis_labels: tuple
    count: int

    @property
    def pairwise(self) -> tuple:
        """((label_a, label_b, signed value), ...) in the order of ``values``."""
        return tuple((la, lb, v) for (la, lb), v in zip(combinations(self.axis_labels, 2), self.values.tolist()))

    def pairwise_abs_sorted(self) -> np.ndarray:
        return np.sort(np.abs(self.values))


def invariant_count(j) -> int:
    """C(j(2j+1), 2) + 2j, the invariant count for a full-rank spin-j state."""
    tj = HalfInt.coerce(j).twice
    if tj < 1:
        raise DomainError("j must be at least 1/2")
    n_axes = tj * (tj + 1) // 2  # j(2j+1) is always an integer
    return math.comb(n_axes, 2) + tj


def enumerate_invariants(form: MultiaxialForm) -> InvariantSet:
    """All invariants of a decomposition: r_k plus (Qi x Qj)^0_0 over every axis pair.

    Pairs span all ranks, intra-rank included. Axes of absent ranks contribute
    nothing, so the count reflects the axes actually present.
    """
    ranks = form.present_ranks
    labels = tuple((k, i) for k in ranks for i in range(k))  # rank k has k axes
    values, abs_cos = _invariant_stack(np.concatenate([form.ranks[k].angles for k in ranks] or [np.empty((0, 2))])[None])
    return InvariantSet(j=form.j, scalars=form.scalars, values=values[0], abs_cosines=abs_cos[0],
                        axis_labels=labels, count=len(ranks) + values.shape[1])


def _invariant_stack(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pairwise invariants of an (m, n, 2) stack of axis angles (theta, phi), n axes per item.

    Returns the signed (Qa x Qb)^0_0 over the pairs a < b, shape (m, n(n-1)/2),
    and |Qa . Qb|, shape (m, n, n) with diagonal 1, in one pass over the stack.

    Scratch: one complex (m, n, n) square, allocated by the first product and written by the other two with
    ``out=``, and one float square that sums their real parts and then becomes the returned |Qa . Qb|.
    """
    m, n = angles.shape[:2]
    # all angles in one flat run: each elementwise pass is one 1-d loop, as it is for a single form
    theta, phi = angles.reshape(m * n, 2).T
    comps = unit_vector_components(theta, phi).reshape(m, n, 3)
    coupled = np.zeros((m, n, n))
    # couple(a, b, 0)[0] for every pair, summed in couple's order: sum_q C(1 1 0; q -q 0) a_q b_-q; a complex
    # sum adds real and imaginary parts apart, so summing the real parts alone gives its real part's bits
    weighted = comps * _CG_SCALAR
    term = None
    for i in range(3):
        term = np.multiply(weighted[..., i, None], comps[:, None, :, 2 - i], out=term)
        coupled += term.real
    rows, cols = _pairs(n)
    values = coupled[:, rows, cols]
    vecs = unit_vector(theta, phi).reshape(m, n, 3)
    abs_cos = np.abs(np.matmul(vecs, vecs.transpose(0, 2, 1), out=coupled), out=coupled)
    abs_cos.reshape(m, n * n)[:, ::n + 1] = 1.0  # the diagonals
    values.setflags(write=False)
    abs_cos.setflags(write=False)
    return values, abs_cos


# the axes (k, i), the i-th of rank k, whose pairs give I3, I4 and I5 in combinations order
_SPIN1_AXES = ((1, 0), (2, 0), (2, 1))


def spin1_named(inv: InvariantSet) -> dict:
    """The five classic spin-1 invariants keyed I1..I5; ``None`` where a rank is absent.

    I1 = r_1, I2 = r_2, I3 = (Q11 x Q21)^0_0, I4 = (Q11 x Q22)^0_0,
    I5 = (Q21 x Q22)^0_0, with Qki the i-th axis of rank k.
    """
    if inv.j != HalfInt(2):
        raise DomainError("named invariants I1..I5 are defined for spin-1 only")
    scal = dict(inv.scalars)
    pw = dict(zip(combinations(inv.axis_labels, 2), inv.values.tolist()))
    pairs = dict(zip(("I3", "I4", "I5"), combinations(_SPIN1_AXES, 2)))
    return {"I1": scal.get(1), "I2": scal.get(2), **{name: pw.get(pair) for name, pair in pairs.items()}}


def _spin1_stack(present: np.ndarray, angles: np.ndarray, r: np.ndarray) -> np.ndarray:
    """I1..I5 of each item of a spin-1 stack as :func:`spin1_named` gives them, 0.0 for ``None``, shape (N, 5).

    ``present``, ``angles`` and ``r`` are the arrays :func:`spinaxes.axes._decompose_stack` returns.
    """
    rank_at, axis_at = np.array(_SPIN1_AXES).T - [[1], [0]]  # index (k - 1, i) of axis (k, i)
    values, _ = _invariant_stack(angles[:, rank_at, axis_at])
    rows, cols = _pairs(len(_SPIN1_AXES))
    return np.concatenate((r, np.where(present[:, rank_at[rows]] & present[:, rank_at[cols]], values, 0.0)), axis=1)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of randomized rotation-invariance trials."""

    trials: int
    passed: bool
    max_scalar_dev: float
    max_pairwise_dev: float
    max_axis_dev: float
    failures: tuple


def _match_lines(expected: list[np.ndarray], actual: list[np.ndarray]) -> float:
    """Greedy +-line matching; returns the largest matched angle in radians."""
    worst = 0.0
    pool = list(actual)
    for e in expected:
        dots = [abs(float(np.dot(e, a))) for a in pool]
        best = int(np.argmax(dots))
        worst = max(worst, math.acos(min(1.0, dots[best])))
        pool.pop(best)
    return worst


def verify_invariance(rho: DensityMatrix, trials: int = 50, seed: int = 0) -> InvarianceReport:
    """Compare the invariants of rho against those of randomly rotated copies.

    For each trial a random Euler triple rotates the tensor components; the
    r_k must match within SCALAR_TOL, the multiset of |pairwise| values within
    PAIRWISE_TOL, and the axes (as unsigned lines, after rotating the
    originals along) within AXIS_TOL. Signed pairwise values are
    convention-dependent and are compared at the absolute-value level.
    """
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
            failures.append(
                f"trial {trial}: rank structure changed under rotation "
                f"(phi={phi!r}, theta={theta!r}, psi={psi!r})"
            )
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
            max_axis = max(max_axis, _match_lines(expected, actual))
        if max_scalar > SCALAR_TOL or max_pair > PAIRWISE_TOL or max_axis > AXIS_TOL:
            failures.append(
                f"trial {trial}: deviation beyond tolerance at rotation "
                f"(phi={phi!r}, theta={theta!r}, psi={psi!r}): "
                f"scalar {max_scalar:.3e}, pairwise {max_pair:.3e}, axis {max_axis:.3e}"
            )
            break
    passed = not failures and max_scalar <= SCALAR_TOL and max_pair <= PAIRWISE_TOL and max_axis <= AXIS_TOL
    return InvarianceReport(trials=trials, passed=passed, max_scalar_dev=max_scalar, max_pairwise_dev=max_pair,
                            max_axis_dev=max_axis, failures=tuple(failures))
