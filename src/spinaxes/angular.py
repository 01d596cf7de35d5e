"""Numerical angular momentum algebra.

Clebsch-Gordan coefficients and Wigner d/D rotation matrices are evaluated from
their exact finite-sum expressions with integer factorial arithmetic: a Racah
sum is one integer over the lcm of its term denominators, and each ratio one
correctly rounded int / int division, which keeps them accurate to a few ulp
for the quantum numbers used here (j up to ~10, far past the cancellation that
ruins float factorials). The tensor operators tau[k,q], normalized to
``Tr(tau[k,q]^dag tau[k',q']) = (2j+1) delta_kk' delta_qq'``, are nonzero only
on their q-th diagonal: those diagonals are built once per j from the
coefficients that the CG symmetries do not give, the rest filled in by sign, as
are the coupling tables, and the dense operator stack is scattered from them.
The D matrix, and each d and D element, contract a cached table of Wigner-sum
coefficients over the monomials cos(theta/2)^(2j-n) sin(theta/2)^n with the
monomial vector (D with two phase vectors, computed alike for a matrix and an
element). Spherical components of unit vectors and the coupling of spherical
tensors complete it.

Conventions
-----------
* Half-integer quantum numbers are exact: :class:`HalfInt` stores twice the
  value as an integer.
* Matrix bases are ordered by descending projection, ``m = +j ... -j``.
* Component arrays of a rank-k spherical tensor are likewise ordered by
  descending projection, ``q = +k ... -k``.
* The statistical tensor components of a spin-j state, the stacked
  operator basis ``tau[k,q]`` and the table of its diagonals are stored flat
  with k ascending and q descending within each rank: ``t[k,q]`` sits at
  index ``k^2 + k - q`` (:func:`tensor_index`), ``(2j+1)^2`` entries in all.
* Euler angles ``(phi, theta, psi)`` follow the z-y-z convention with

  ``D[k][q',q](phi, theta, psi) = exp(-i q' phi) d[k][q',q](theta) exp(-i q psi)``

  so that the components of a tensor in a rotated frame are
  ``t'[q] = sum_q' D[k][q',q] t[q']`` (sum over the first index).
* A direction's polar angles lie in theta in [0, pi], phi in [0, 2 pi). Every
  module wraps phi by the one rule here, on a float or an array, and checks
  and clamps outside input through it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "HalfInt",
    "angle_between",
    "clebsch_gordan",
    "couple",
    "euler_rotation_cartesian",
    "tensor_index",
    "tensor_operator",
    "unit_vector",
    "unit_vector_components",
    "wigner_D",
    "wigner_D_matrix",
    "wigner_d_small",
]

_TWO_PI = 2.0 * math.pi


def _wrap_azimuth(phi):
    """Finite azimuths, a float or an array, in [0, 2 pi): those a hair below 2 pi (or below 0) map to +0."""
    phi = phi % _TWO_PI  # Python's % on a float, np.remainder on an array: the same bits
    return phi * (_TWO_PI - phi >= 1e-12)


def _polar_angles(theta: float, phi: float, slack: float) -> tuple[float, float]:
    """(theta, phi) with theta clamped into [0, pi] and phi wrapped; theta beyond slack or a non-finite phi raise."""
    if not -slack <= theta <= math.pi + slack:
        raise DomainError(f"theta={theta} outside [0, pi]")
    if not math.isfinite(phi):
        raise DomainError(f"azimuth phi={phi} is not finite")
    return min(max(theta, 0.0), math.pi), _wrap_azimuth(phi)


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact integer or half-integer quantum number, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, (int, np.integer)) or isinstance(self.twice, bool):
            raise DomainError(f"HalfInt stores an integer twice-value, got {self.twice!r}")

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        """Accept a HalfInt, an int, an exactly half-integral float, or a string like '3/2'."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return cls(2 * int(value))
        if isinstance(value, float):
            if not math.isfinite(value):
                raise DomainError(f"{value!r} is not an integer or half-integer")
            twice = round(2.0 * value)
            if abs(2.0 * value - twice) > 1e-9:
                raise DomainError(f"{value!r} is not an integer or half-integer")
            return cls(twice)
        if isinstance(value, str):
            text = value.strip()
            num, slash, den = text.partition("/")
            try:
                if not slash:
                    return cls.coerce(float(text))
                if den.strip() == "2":
                    return cls(int(num))
            except ValueError:
                pass
            raise DomainError(f"cannot parse {value!r} as a half-integer")
        raise DomainError(f"cannot interpret {value!r} as a half-integer")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def _twice(value) -> int:
    return HalfInt.coerce(value).twice


def _spin(j) -> HalfInt:
    """j as a HalfInt; a negative j raises DomainError naming it."""
    jj = HalfInt.coerce(j)
    if jj.twice < 0:
        raise DomainError(f"angular momentum must be non-negative, got j={jj}")
    return jj


def _check_projection(tj: int, tm: int, names: str = "m, j") -> None:
    if (tj + tm) % 2:
        raise DomainError(f"projection and momentum must differ by an integer ({names})")
    if abs(tm) > tj:
        raise DomainError(f"|projection| exceeds momentum ({names})")


def _cg_exact(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    """Clebsch-Gordan coefficient from the Racah sum in exact integer arithmetic.

    Arguments are twice the quantum numbers. Selection-rule failures return 0;
    structurally invalid combinations raise DomainError.
    """
    if min(tj1, tj2, tj3) < 0:
        raise DomainError("angular momenta must be non-negative")
    if (tj1 + tj2 + tj3) % 2:
        raise DomainError("j1 + j2 + j3 must be an integer")
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        raise DomainError("each m must differ from its j by an integer")
    if (tm1 + tm2 != tm3 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2
            or abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3):
        return 0.0

    f = math.factorial
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    num = (tj3 + 1) * f(a) * f(b) * f(c) * f((tj1 + tm1) // 2) * f((tj1 - tm1) // 2) \
        * f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2) * f((tj3 + tm3) // 2) * f((tj3 - tm3) // 2)
    den = f((tj1 + tj2 + tj3) // 2 + 1)
    j1m1 = (tj1 - tm1) // 2
    j2pm2 = (tj2 + tm2) // 2
    d1 = (tj3 - tj2 + tm1) // 2
    d2 = (tj3 - tj1 - tm2) // 2
    zs = range(max(0, -d1, -d2), min(a, j1m1, j2pm2) + 1)
    denoms = [f(z) * f(a - z) * f(j1m1 - z) * f(j2pm2 - z) * f(d1 + z) * f(d2 + z) for z in zs]
    common = math.lcm(*denoms)
    total = sum(-(common // d) if z % 2 else common // d for z, d in zip(zs, denoms))
    return (total / common) * math.sqrt(num / den)


def clebsch_gordan(j1, j2, j3, m1, m2, m3) -> float:
    """Clebsch-Gordan coefficient C(j1 j2 j3; m1 m2 m3) = <j1 m1 j2 m2 | j3 m3>.

    Evaluated via the Racah finite sum with exact integer factorials,
    converted to float only at the end. Returns 0 when the triangle rule
    or m3 = m1 + m2 fails; raises DomainError for structurally invalid
    half-integer combinations (e.g. j1 + j2 + j3 not an integer).
    """
    return _cg_exact(_twice(j1), _twice(j2), _twice(j3), _twice(m1), _twice(m2), _twice(m3))


def wigner_d_small(j, mp, m, theta: float) -> float:
    """Wigner small-d element d^j_{m',m}(theta): its :func:`wigner_D_matrix` table row, contracted alike."""
    tj, tmp, tm = _twice(j), _twice(mp), _twice(m)
    _check_projection(tj, tmp, "m', j")
    _check_projection(tj, tm, "m, j")
    _, cos_pow, sin_pow, _ = _rotation_factors(tj, 0.0, theta, 0.0)
    row = (tj - tmp) // 2 * (tj + 1) + (tj - tm) // 2
    return float(np.einsum("en,n->e", _wigner_d_table(tj)[row:row + 1], cos_pow[::-1] * sin_pow)[0])


def wigner_D(k, qp, q, phi: float, theta: float, psi: float) -> complex:
    """Wigner rotation matrix element D^k_{q',q}(phi, theta, psi), its :func:`wigner_D_matrix` element.

    z-y-z convention: exp(-i q' phi) d^k_{q',q}(theta) exp(-i q psi), with the
    phases computed and multiplied as the matrix does.
    Accepts half-integer ranks so the same routine serves spin-j rotations.
    """
    _check_angles(phi=phi, theta=theta, psi=psi)
    d = wigner_d_small(k, qp, q, theta)
    return complex((_phases(np.array([_twice(qp) / 2.0]), phi) * d * _phases(np.array([_twice(q) / 2.0]), psi))[0])


@lru_cache(maxsize=None)
def _wigner_d_table(tj: int) -> np.ndarray:
    """Read-only ((2j+1)^2, 2j+1) table of Wigner-sum coefficients for j = tj/2.

    Term k of d^j_{m',m}(theta) is a coefficient times the monomial
    cos(theta/2)^(2j-n) sin(theta/2)^n with n = m' - m + 2k, distinct for each
    k, so row r * (2j+1) + c (element r, c of d, ordered m = +j ... -j) holds
    that element's coefficient of each monomial n. Each coefficient is the
    square root of an exact rational built from integer factorials, so the
    theta = 0 diagonal is exactly 1.
    """
    dim = tj + 1
    f = math.factorial
    table = np.zeros((dim * dim, dim))
    for r, tmp in enumerate(range(tj, -tj - 2, -2)):
        for c, tm in enumerate(range(tj, -tj - 2, -2)):
            jm, jmm = (tj + tm) // 2, (tj - tm) // 2
            jmp, jmmp = (tj + tmp) // 2, (tj - tmp) // 2
            mu = (tmp - tm) // 2  # m' - m
            pref2 = f(jmp) * f(jmmp) * f(jm) * f(jmm)
            for k in range(max(0, -mu), min(jm, jmmp) + 1):
                denom = f(jm - k) * f(k) * f(mu + k) * f(jmmp - k)
                table[r * dim + c, mu + 2 * k] = (-1) ** (mu + k) * math.sqrt(pref2 / (denom * denom))
    table.setflags(write=False)
    return table


def _check_angles(**angles: float) -> None:
    """Raise DomainError naming the first of the given Euler angles that is not finite."""
    for name, value in angles.items():
        if not math.isfinite(value):
            raise DomainError(f"Euler angle {name}={value} is not finite")


def _phases(m: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i m angle) for each projection m."""
    return np.exp(-1j * m * angle)


def _rotation_factors(top: int, phi: float, theta: float, psi: float) -> tuple:
    """exp(-i m phi), cos(theta/2)^n, sin(theta/2)^n and exp(-i m psi) for m = top/2 ... -top/2, n = 0 ... top."""
    _check_angles(phi=phi, theta=theta, psi=psi)
    m, powers = np.arange(top, -top - 2, -2) / 2.0, np.arange(top + 1)
    return _phases(m, phi), math.cos(theta / 2.0) ** powers, math.sin(theta / 2.0) ** powers, _phases(m, psi)


def _wigner_D_rule(tj: int, factors: tuple) -> np.ndarray:
    """D^j for j = tj/2 from the Wigner table and slices of :func:`_rotation_factors` of a top >= tj, same parity."""
    phase_phi, cos_pow, sin_pow, phase_psi = factors
    dim = tj + 1
    m = slice((len(phase_phi) - dim) // 2, (len(phase_phi) + dim) // 2)  # m = +j ... -j
    # einsum, not the BLAS matrix-vector product: near theta = pi/2 at 2j = 32
    # the terms reach 1e4 and cancel, and the BLAS summation order loses about
    # twice as much there
    d = np.einsum("en,n->e", _wigner_d_table(tj), cos_pow[tj::-1] * sin_pow[:dim]).reshape(dim, dim)
    return phase_phi[m, None] * d * phase_psi[None, m]


def wigner_D_matrix(j, phi: float, theta: float, psi: float) -> np.ndarray:
    """Full (2j+1) x (2j+1) Wigner D matrix, rows/columns ordered m = +j ... -j, by the D rule rotate_tensor shares."""
    tj = _spin(j).twice
    return _wigner_D_rule(tj, _rotation_factors(tj, phi, theta, psi))


def tensor_index(k: int, q: int) -> int:
    """Position of t[k,q] (and of tau[k,q]) in the flat component layout."""
    if not isinstance(k, (int, np.integer)) or not isinstance(q, (int, np.integer)):
        raise DomainError("tensor rank k and projection q must be integers")
    if k < 0 or abs(q) > k:
        raise DomainError(f"projection q={q} exceeds rank k={k}")
    return int(k * k + k - q)


@lru_cache(maxsize=None)
def _tensor_diagonals(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nonzero diagonals of every tau[k,q] for j = tj/2, and the flat positions of their transposes.

    tau[k,q] is nonzero only where m' = m + q. Row :func:`tensor_index` of the complex ((2j+1)^2, 2j+1) table
    holds tau[k,q][r, r+q] for r ascending, zero-padded at the end. The same row of the position table holds
    (r+q) (2j+1) + r, the flat position of the entry [r+q, r] that Tr(rho tau[k,q]) multiplies with it; its
    padding is 0, entry (0, 0), which is zero in every tau[k,q] with q != 0. Half of each q >= 0 diagonal is
    evaluated; C(j k j; m q m') = (-1)^(k+q) C(j k j; -m' q -m) mirrors it and C(j k j; -m -q -m') =
    (-1)^k C(j k j; m q m') gives the q < 0 diagonal reversed, bit for bit.
    """
    dim = tj + 1
    table = np.zeros((dim * dim, dim), dtype=complex)
    for k in range(tj + 1):
        scale = math.sqrt(2 * k + 1)
        for q in range(k + 1):
            diag = table[k * k + k - q]
            # entry col - q is C(j k j; m q m + q) with m = j - col
            for col in range(q, (tj + q) // 2 + 1):
                v = scale * _cg_exact(tj, 2 * k, tj, tj - 2 * col, 2 * q, tj - 2 * (col - q))
                diag[col - q] = v
                diag[tj - col] = 0.0 - v if (k + q) % 2 else v  # 0.0 - v keeps zeros +0.0
            if q:
                table[k * k + k + q, :dim - q] = 0.0 - diag[dim - q - 1::-1] if k % 2 else diag[dim - q - 1::-1]
    k = np.repeat(np.arange(dim), 2 * np.arange(dim) + 1)
    q = (k * k + k - np.arange(dim * dim))[:, None]
    r = np.arange(dim) + np.maximum(-q, 0)
    positions = np.where(np.arange(dim) < dim - np.abs(q), (r + q) * dim + r, 0)
    table.setflags(write=False)
    positions.setflags(write=False)
    return table, positions


@lru_cache(maxsize=None)
def _tensor_operator_cached(tj: int) -> np.ndarray:
    """Read-only stack of every tau[k,q] for j = tj/2, indexed by :func:`tensor_index`: the diagonals scattered.

    The padding of :func:`_tensor_diagonals` writes +0.0 over the +0.0 at (0, 0), so the stack has the bits of
    the diagonals and +0.0 elsewhere.
    """
    table, positions = _tensor_diagonals(tj)
    basis = np.zeros((len(table), tj + 1, tj + 1), dtype=complex)
    basis[np.arange(len(table))[:, None], positions % (tj + 1), positions // (tj + 1)] = table
    basis.setflags(write=False)
    return basis


def tensor_operator(j, k: int, q: int) -> np.ndarray:
    """Irreducible tensor operator tau^k_q in the |j,m> basis (m = +j ... -j).

    Matrix elements <j m'|tau^k_q|j m> = sqrt(2k+1) C(j k j; m q m'), which
    yields Tr(tau^k_q^dag tau^k'_q') = (2j+1) delta_kk' delta_qq',
    tau^k_q^dag = (-1)^q tau^k_{-q}, and tau^0_0 = identity. The returned
    array is a read-only view into the cached basis of every tau[k,q] for j.
    """
    tj = _twice(j)
    index = tensor_index(k, q)
    if k > tj:
        raise DomainError(f"rank k={k} outside 0 <= k <= 2j for j={HalfInt(tj)}")
    return _tensor_operator_cached(tj)[index]


@lru_cache(maxsize=None)
def _couple_table(k1: int, k2: int, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only terms of :func:`couple` as gather tables, one row per output q = +rank ... -rank.

    Row r lists the nonzero C(k1 k2 K; q1 q2 q) with their positions in a and
    b, in the order of a scan over a, then b. Shorter rows are padded at the
    front with zero-weight terms, which leave the zero-started sums unchanged.
    """
    terms = [[] for _ in range(2 * rank + 1)]
    for i1 in range(2 * k1 + 1):
        for i2 in range(max(0, k1 - i1 + k2 - rank), min(2 * k2, k1 - i1 + k2) + 1):  # 0 <= q <= rank
            q = k1 - i1 + k2 - i2
            cg = _cg_exact(2 * k1, 2 * k2, 2 * rank, 2 * (k1 - i1), 2 * (k2 - i2), 2 * q)
            if cg:
                terms[rank - q].append((i1, i2, cg))
    odd = (k1 + k2 - rank) % 2  # C(k1 k2 K; -q1 -q2 -q) = (-1)^(k1+k2-K) C(k1 k2 K; q1 q2 q), in reverse scan order
    terms[rank + 1:] = [[(2 * k1 - i1, 2 * k2 - i2, 0.0 - cg if odd else cg) for i1, i2, cg in row[::-1]]
                        for row in terms[:rank][::-1]]
    width = max(len(row) for row in terms)
    padded = np.array([[(0, 0, 0.0)] * (width - len(row)) + row for row in terms])
    tables = (padded[..., 0].astype(np.intp), padded[..., 1].astype(np.intp), padded[..., 2].astype(complex))
    for table in tables:
        table.setflags(write=False)
    return tables


def couple(a, b, rank: int) -> np.ndarray:
    """Clebsch-Gordan coupling of two spherical tensors to a tensor of the given rank.

    Component arrays are ordered by descending projection along their last
    axis; leading axes are batch axes and broadcast. The q component of the
    output is sum_{q1+q2=q} C(k1 k2 K; q1 q2 q) a_q1 b_q2.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] % 2 == 0 or b.shape[-1] % 2 == 0:
        raise DomainError("spherical tensor component arrays need an odd length along their last axis")
    k1 = (a.shape[-1] - 1) // 2
    k2 = (b.shape[-1] - 1) // 2
    if not abs(k1 - k2) <= rank <= k1 + k2:
        raise DomainError(f"rank {rank} violates the triangle rule for inputs of rank {k1}, {k2}")
    i1, i2, weight = _couple_table(k1, k2, rank)
    x, y = weight * a[..., i1], b[..., i2]  # exact as in the scalar product: one factor is real
    # (cg a_q1) b_q2 with the real and imaginary parts written out: numpy's
    # complex array product may fuse multiply-adds, its scalar product does not
    terms = np.empty(x.shape if x.shape == y.shape else np.broadcast(x, y).shape, dtype=complex)
    np.subtract(x.real * y.real, x.imag * y.imag, out=terms.real)
    np.add(x.real * y.imag, x.imag * y.real, out=terms.imag)
    out = 0.0  # summed from zero in scan order, as a scalar accumulator would
    for t in range(terms.shape[-1]):
        out = out + terms[..., t]
    return out


def unit_vector_components(theta, phi) -> np.ndarray:
    """Spherical (rank-1) components of the unit vectors at polar angles (theta, phi).

    Ordered (+1, 0, -1) along a new last axis: Q_0 = cos(theta),
    Q_{+-1} = -+ sin(theta) exp(+-i phi) / sqrt(2), i.e. sqrt(4 pi / 3) Y_{1q}(theta, phi).
    Arrays of theta and phi broadcast; scalars give shape (3,). Each element has
    the bits of the formula in Python's scalar complex arithmetic, which up to
    Python 3.13 takes a real factor or divisor as a complex with imaginary part 0.
    """
    s, c = np.sin(theta), np.cos(phi)
    re = s * c / math.sqrt(2.0)
    im = (-(s * np.sin(phi)) + 0.0 * c) / math.sqrt(2.0)  # shared by Q_{-1} = -conj(Q_{+1})
    out = np.empty(np.broadcast(theta, phi).shape + (3,), dtype=complex)
    # the + 0.0 terms give a zero part the sign Python's complex product and quotient give it
    out.real[..., 0], out.real[..., 1], out.real[..., 2] = -re + 0.0, np.cos(theta), re + 0.0
    out.imag[..., 0], out.imag[..., 1], out.imag[..., 2] = im, 0.0, im
    return out


def unit_vector(theta, phi) -> np.ndarray:
    """Cartesian unit vectors at polar angles (theta, phi), (x, y, z) along a new last axis; arrays broadcast."""
    s = np.sin(theta)
    out = np.empty(np.broadcast(theta, phi).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = s * np.cos(phi), s * np.sin(phi), np.cos(theta)
    return out


def angle_between(a, b) -> float:
    """Angle in [0, pi] between two vectors, accurate also near 0 and pi."""
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))


def euler_rotation_cartesian(phi: float, theta: float, psi: float) -> np.ndarray:
    """3x3 rotation matrix Rz(phi) Ry(theta) Rz(psi), z-y-z Euler convention; non-finite angles raise DomainError."""
    _check_angles(phi=phi, theta=theta, psi=psi)

    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(phi) @ ry(theta) @ rz(psi)
