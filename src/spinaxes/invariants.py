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
from .axes import MultiaxialForm, _decompose_stack, _pairs
from .errors import DecompositionError, DomainError, ValidationError
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


def verify_invariance(rho: DensityMatrix, trials: int = 50, seed: int = 0) -> InvarianceReport:
    """Compare the invariants of rho against those of randomly rotated copies.

    For each trial a random Euler triple rotates the tensor components; the
    r_k must match within SCALAR_TOL, the multiset of |pairwise| values within
    PAIRWISE_TOL, and the axes (as unsigned lines, after rotating the
    originals along) within AXIS_TOL. Signed pairwise values are
    convention-dependent and are compared at the absolute-value level. The
    tolerances are absolute, so past 2j = 16, where r_k reaches ~5e4 at 2j = 20, SCALAR_TOL flags accurate r_k.

    The state and all its copies decompose as one stack, and the report reads as a loop over the trials: it stops
    at the first trial past a tolerance, records a trial whose rank structure changed and goes on, and a copy that
    fails to decompose raises its error, with ``index`` 0, unless an earlier trial stopped the loop. A negative
    trial count raises DomainError.
    """
    if trials < 0:
        raise DomainError(f"trials={trials} must be non-negative")
    rng = np.random.default_rng(seed)
    eulers = [(rng.uniform(0.0, _TWO_PI), math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, _TWO_PI))
              for _ in range(trials)]
    base_t = to_tensor(rho)
    stack = np.array([base_t.array] + [rotate_tensor(base_t, *euler).array for euler in eulers])
    try:
        error, (present, angles, r) = None, _decompose_stack(stack, base_t.j.twice)[:3]
    except (DecompositionError, ValidationError) as exc:
        error, count = exc, exc.index
        if not count:  # the state itself fails
            raise
        error.index = 0  # as decompose of the failing copy alone raises it; the copies before it still count
        present, angles, r = _decompose_stack(stack[:count], base_t.j.twice)[:3]
    ks = np.flatnonzero(present[0]) + 1
    rank_at, axis_at = np.array([(k - 1, i) for k in ks for i in range(k)], dtype=int).reshape(-1, 2).T
    axes = angles[:, rank_at, axis_at]
    abs_sorted = np.sort(np.abs(_invariant_stack(axes)[0]), axis=1)
    devs = np.zeros((len(r) - 1, 3))  # per copy: the largest change of an r_k, a sorted |pairwise| and an axis line
    devs[:, 0] = np.abs(r[1:, ks - 1] - r[0, ks - 1]).max(axis=1, initial=0.0)
    devs[:, 1] = np.abs(abs_sorted[1:] - abs_sorted[0]).max(axis=1, initial=0.0)
    # each copy's axes against the state's rotated along, v R = R^T v, matched as lines rank by rank
    vecs = unit_vector(axes[..., 0], axes[..., 1])
    mats = np.array([euler_rotation_cartesian(*euler) for euler in eulers[:len(devs)]]).reshape(-1, 3, 3)
    expected, actual, copies = vecs[0] @ mats, vecs[1:], np.arange(len(devs))
    for start, k in zip((np.cumsum(ks) - ks).tolist(), ks.tolist()):
        dots = np.abs(expected[:, start:start + k] @ actual[:, start:start + k].transpose(0, 2, 1))
        for i in range(start, start + k):  # each expected axis in turn takes the nearest free line, first on ties
            best = dots[:, i - start].argmax(axis=1)
            # the line angle atan2(|e x a|, |e . a|), as angle_between, resolves angles below acos's ~1.5e-8 floor
            cross = np.linalg.norm(np.cross(expected[:, i], actual[copies, start + best]), axis=1)
            np.maximum(devs[:, 2], np.arctan2(cross, dots[copies, i - start, best]), out=devs[:, 2])
            dots[copies, :, best] = -1.0
    maxima, failures = np.zeros(3), []
    for trial, (phi, theta, psi) in enumerate(eulers[:len(devs)]):
        at = f"(phi={phi!r}, theta={theta!r}, psi={psi!r})"
        if (present[trial + 1] != present[0]).any():
            failures.append(f"trial {trial}: rank structure changed under rotation {at}")
            continue
        np.maximum(maxima, devs[trial], out=maxima)
        if (maxima > [SCALAR_TOL, PAIRWISE_TOL, AXIS_TOL]).any():
            failures.append(f"trial {trial}: deviation beyond tolerance at rotation {at}: "
                            "scalar {:.3e}, pairwise {:.3e}, axis {:.3e}".format(*maxima))
            break
    else:
        if error is not None:
            raise error
    # every trial past a tolerance is a failure, so the copies passed when none failed
    return InvarianceReport(trials, not failures, *maxima.tolist(), failures=tuple(failures))
