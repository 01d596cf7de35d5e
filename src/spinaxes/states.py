"""State constructors: symmetric projections of qubit products and a PPT flag.

Covers the two families used throughout the examples and sweeps: the
symmetrized product of two (or N) spinors, and the two-beam mixed state
obtained by projecting a product of polarized qubits onto the triplet
(spin-1) subspace. Both are built in the frame whose z-axis bisects the two
constituent directions and whose x-axis lies in their plane (azimuths 0 and
pi), the standard choice in which the rank-1 components t[1,+-1] vanish.
Two-beam states and PPT flags are built as stacks (``spinaxes sweep`` builds
its whole grid so); channel_mixed and ppt_separable are the stack-of-one case.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angular import _TWO_PI, HalfInt, _polar_angles, _spin, unit_vector
from .errors import DomainError, ValidationError
from .tensors import DensityMatrix

__all__ = [
    "ChannelParams",
    "PptResult",
    "Spinor",
    "TRIPLET_ISOMETRY",
    "channel_mixed",
    "ppt_separable",
    "pure_two_spinor",
    "random_density_matrix",
    "symmetrize_pure",
]

# rows |1,1>, |1,0>, |1,-1> in the product basis up-up, up-down, down-up, down-down
TRIPLET_ISOMETRY = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
TRIPLET_ISOMETRY.setflags(write=False)
PPT_TOL = 1e-10  # ppt_separable: most negative partial-transpose eigenvalue still separable


@dataclass(frozen=True)
class Spinor:
    """Single-qubit pure state by Bloch angles: (cos(theta/2), sin(theta/2) e^{i phi})."""

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = _polar_angles(self.theta, self.phi, 1e-12)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array(
            [
                complex(math.cos(self.theta / 2.0)),
                math.sin(self.theta / 2.0) * complex(math.cos(self.phi), math.sin(self.phi)),
            ]
        )


@dataclass(frozen=True)
class ChannelParams:
    """Two polarized beams: magnitudes p1, p2 in [0,1] and the angle parameter two_theta.

    two_theta is the sum of the polar tilts of the two polarization directions
    from the frame z-axis (equal to their opening angle when it is <= pi); the
    closed-form literature writes everything in terms of the half-angle
    theta = two_theta / 2.
    """

    p1: float
    p2: float
    two_theta: float

    def __post_init__(self):
        _channel_array([self.p1], [self.p2], [self.two_theta])

    @classmethod
    def equal(cls, p: float, two_theta: float) -> "ChannelParams":
        return cls(p, p, two_theta)


def _channel_array(p1, p2, two_theta) -> np.ndarray:
    """(N, 3) array of items (p1[i], p2[i], two_theta[i]); raises ChannelParams's DomainError for the first bad one."""
    values = np.array((p1, p2, two_theta), dtype=float).T
    bad = np.argwhere(~((values >= [0.0, 0.0, -1e-12]) & (values <= [1.0, 1.0, _TWO_PI + 1e-12])))  # item-major
    if bad.size:
        item, field = bad[0]
        raise DomainError(f"{('p1', 'p2', 'two_theta')[field]}={(p1, p2, two_theta)[field][item]} outside "
                          + ("[0, 2 pi]" if field == 2 else "[0, 1]"))
    return values


def symmetrize_pure(spinors) -> DensityMatrix:
    """Project a product of N spinors onto the symmetric (spin N/2) subspace.

    The Dicke-basis amplitudes are read off combinatorially: with
    |chi_i> = a_i |up> + b_i |down>, the coefficient of x^n in
    prod_i (a_i x + b_i) is the unnormalized amplitude on the n-up Dicke
    state, up to the binomial normalization. Scales to dozens of qubits
    without ever forming the 2^N product space.
    """
    spinors = list(spinors)
    n = len(spinors)
    if n < 1:
        raise DomainError("need at least one spinor")
    poly = np.array([1.0 + 0j])
    for sp in spinors:
        poly = np.convolve(poly, sp.amplitudes)
    # poly[i] multiplies x^(n-i); index i corresponds to m = j - i
    amps = poly / np.sqrt([math.comb(n, i) for i in range(n + 1)])
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if norm2 < 1e-14:
        raise ValidationError("symmetric component of the product state vanishes")
    vec = amps / math.sqrt(norm2)
    return DensityMatrix(np.outer(vec, vec.conj()), HalfInt(n))


def pure_two_spinor(two_theta: float) -> DensityMatrix:
    """Symmetrized two-spinor pure state in the bisector frame, as a spin-1 matrix.

    The spinors sit at polar angle theta = two_theta/2 with azimuths 0 and pi,
    giving amplitudes only on m = +1 and m = -1 with a relative minus sign.
    """
    _channel_array([1.0], [1.0], [two_theta])  # the channel_mixed range check at p1 = p2 = 1
    theta = two_theta / 2.0
    ch2 = math.cos(theta / 2.0) ** 2
    sh2 = math.sin(theta / 2.0) ** 2
    scale = 2.0 / (1.0 + math.cos(theta) ** 2)
    mat = scale * np.array(
        [
            [ch2 * ch2, 0.0, -sh2 * ch2],
            [0.0, 0.0, 0.0],
            [-sh2 * ch2, 0.0, sh2 * sh2],
        ]
    )
    return DensityMatrix(mat, HalfInt(2))


def _slf_polar_angles(p1: float, p2: float, two_theta: float) -> tuple[float, float]:
    """Polar tilts (alpha, beta) of the two beams, azimuths 0 and pi respectively.

    Chosen so the frame z-axis carries the whole rank-1 polarization:
    p1 sin(alpha) = p2 sin(beta) with alpha + beta = two_theta. For equal
    magnitudes this is the bisector alpha = beta = theta only up to rounding: near two_theta = pi,
    x = p1 + p2 cos(two_theta) cancels, and alpha - beta reaches 5.8e-10 at p = 0.13, two_theta = pi + 4.9e-7.
    Only |x| and |y| both below 1e-15 give the bisector itself.
    """
    y = p2 * math.sin(two_theta)
    x = p1 + p2 * math.cos(two_theta)
    if abs(y) < 1e-15 and abs(x) < 1e-15:
        half = two_theta / 2.0
        return (half, half)
    alpha = math.atan2(y, x) % math.pi
    if alpha < two_theta - math.pi - 1e-9:
        alpha += math.pi
    beta = two_theta - alpha
    alpha = min(max(alpha, 0.0), math.pi)
    beta = min(max(beta, 0.0), math.pi)
    return (alpha, beta)


def _channel_stack(p1, p2, two_theta) -> np.ndarray:
    """(N, 3, 3) stack of :func:`channel_mixed` matrices of items (p1[i], p2[i], two_theta[i]), checked in one pass."""
    return _channel_matrices(_channel_array(p1, p2, two_theta))


def _channel_matrices(p: np.ndarray) -> np.ndarray:
    """The (N, 3, 3) stack of :func:`_channel_stack` for an (N, 3) array of items already range-checked."""
    polar = np.array(list(map(_slf_polar_angles, *p.T.tolist()))).reshape(-1, 2)  # libm bits, not arctan2's
    # Bloch vector components of both beams (azimuths 0 and pi) of every item, each of shape (N, 2)
    nx, ny, nz = np.moveaxis(p[:, :2, None] * unit_vector(polar, np.array([0.0, math.pi])), -1, 0)
    q1, q2 = (0.5 * np.array([[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]])).transpose(3, 2, 0, 1)
    combined = (q1[:, :, None, :, None] * q2[:, None, :, None, :]).reshape(-1, 4, 4)  # kron, item by item
    projected = TRIPLET_ISOMETRY @ combined @ TRIPLET_ISOMETRY.conj().T
    return projected / np.trace(projected, axis1=1, axis2=2).real[:, None, None]


def channel_mixed(params: ChannelParams) -> DensityMatrix:
    """Triplet projection of two polarized beams, renormalized to unit trace.

    The beams are placed in the xz-plane (azimuths 0 and pi) with polar tilts
    splitting two_theta so that the rank-1 polarization lies along z; the
    product state is then projected onto the spin-1 subspace. At p1 = p2 = 1
    this reduces exactly to :func:`pure_two_spinor`.
    """
    items = np.array([[params.p1, params.p2, params.two_theta]], dtype=float)  # checked when params was built
    return DensityMatrix(_channel_matrices(items)[0], HalfInt(2))


class PptResult(NamedTuple):
    separable: bool
    min_eigenvalue: float


def _ppt_stack(mats: np.ndarray) -> np.ndarray:
    """:func:`ppt_separable`'s min_eigenvalue of each matrix of an (N, 3, 3) stack, in one batched eigensolve."""
    four = TRIPLET_ISOMETRY.conj().T @ mats @ TRIPLET_ISOMETRY
    pt = four.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(pt)[:, 0]


def ppt_separable(rho: DensityMatrix) -> PptResult:
    """Peres-Horodecki test for a spin-1 (triplet-embedded) state.

    Embeds the 3x3 matrix into the two-qubit space with zero singlet
    component, partial-transposes the second qubit, and reports the minimum
    eigenvalue, separable when it is at least -PPT_TOL; for 2x2 systems
    positivity of the partial transpose is exact for separability.
    """
    if rho.dim != 3:
        raise DomainError("PPT flag is implemented for spin-1 (3x3) states")
    lowest = float(_ppt_stack(rho.matrix[None])[0])
    return PptResult(separable=lowest >= -PPT_TOL, min_eigenvalue=lowest)


def random_density_matrix(j, rng: "np.random.Generator", *, pure: bool = False) -> DensityMatrix:
    """Random unit-trace positive matrix (Ginibre construction) or random pure state."""
    dim = _spin(j).twice + 1
    if pure:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        return DensityMatrix(np.outer(vec, vec.conj()), j)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace().real, j)
