"""Seeded inputs, timed operations and correctness oracles of the benchmark workloads.

Each workload yields endless rounds of operations (ops). A round has a fixed
composition (sizes, state kinds), so a run of whole rounds always measures the
same mix whatever its seed. Inputs are generated here from the seed alone;
the program only receives the generated states and arguments. Every reference
an oracle compares against is computed in ``check``, outside the timed
``run``.
"""

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from spinaxes import axes, cli, invariants, tensors
from spinaxes.errors import DecompositionError, ValidationError

# errors an op may raise as a refusal; they count as failed ops, not crashes
REFUSALS = (DecompositionError, ValidationError)

ROUNDTRIP_TOL = 1e-8   # reconstruction oracles of decompose-highj and rotate-roundtrip
INVARIANT_TOL = 1e-8   # r_k and |pairwise| under rotation, as in `spinaxes selfcheck`
CLOSED_FORM_TOL = 1e-9  # sweep invariants against the two-beam closed forms
PPT_TOL = 1e-10        # separable == (ppt_min_eig >= -PPT_TOL)
SQRT3 = math.sqrt(3.0)
# coherent, Dicke and GHZ states from this 2j up are expected to fail off the z-axis
KNOWN_DEFECT_TJ = 4


@dataclass(frozen=True)
class Op:
    """One timed unit of work and the oracle for its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # why the output is wrong, or None
    known_defect: bool = False  # expected to fail at this commit (ROADMAP item 3)
    states: int = 1  # density matrices the op processes


def random_state(rng: np.random.Generator, tj: int, pure: bool) -> tensors.DensityMatrix:
    """Random pure state, or a Ginibre mixed state, of spin j = tj/2."""
    dim = tj + 1
    if pure:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        return tensors.DensityMatrix(np.outer(vec, vec.conj()))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return tensors.DensityMatrix(mat / mat.trace().real)


def special_state(rng: np.random.Generator, kind: str, tj: int) -> tensors.DensityMatrix:
    """Degenerate states along z: coherent |j,j>, Dicke |j,m> near m = 0, GHZ."""
    vec = np.zeros(tj + 1, dtype=complex)
    if kind == "coherent":
        vec[0] = 1.0
    elif kind == "dicke":
        vec[tj // 2] = 1.0
    elif kind == "ghz":
        vec[0] = 1.0
        vec[-1] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        vec /= math.sqrt(2.0)
    else:
        raise ValueError(f"unknown special state {kind!r}")
    return tensors.DensityMatrix(np.outer(vec, vec.conj()))


def euler_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniformly random rotation as z-y-z Euler angles."""
    return (rng.uniform(0.0, 2.0 * math.pi), math.acos(rng.uniform(-1.0, 1.0)),
            rng.uniform(0.0, 2.0 * math.pi))


def _tensor_mismatch(a, b) -> float:
    return max(abs(value - b[key]) for key, value in a.items())


class SweepGrid:
    """`spinaxes sweep` in process over a 7 p x 9 theta sub-grid with seeded ranges.

    A round is three sweeps; the first starts its p range at 0 so the p = 0
    oracle runs in every round.
    """

    def __init__(self, seed: int, out_path: str, p_steps: int = 7, theta_steps: int = 9):
        self.seed = seed
        self.out_path = out_path
        self.p_steps = p_steps
        self.theta_steps = theta_steps

    def rounds(self):
        rng = np.random.default_rng([self.seed, 0])
        while True:
            yield [self._op(rng, p_from_zero=(i == 0)) for i in range(3)]

    def warmup(self) -> list[Op]:
        return [self._op(np.random.default_rng([self.seed, 1]), p_from_zero=True)]

    def _op(self, rng, p_from_zero: bool) -> Op:
        p0 = 0.0 if p_from_zero else float(rng.uniform(0.05, 0.5))
        p1 = float(rng.uniform(0.6, 1.0))
        t0 = float(rng.uniform(0.0, 1.2))
        t1 = float(rng.uniform(1.9, math.pi))
        argv = ["sweep", "--p", f"{p0!r}:{p1!r}:{self.p_steps}",
                "--theta", f"{t0!r}:{t1!r}:{self.theta_steps}", "--out", self.out_path]
        # the same grid `cli.parse_range` builds from these strings
        p_values = np.linspace(p0, p1, self.p_steps).tolist()
        theta_values = np.linspace(t0, t1, self.theta_steps).tolist()

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code):
            if code != 0:
                return f"sweep exited with code {code}"
            return self._check_csv(p_values, theta_values)

        return Op(f"sweep-{self.p_steps}x{self.theta_steps}", run, check,
                  states=self.p_steps * self.theta_steps)

    def _check_csv(self, p_values, theta_values) -> "str | None":
        with open(self.out_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        cells = [(p, th) for p in p_values for th in theta_values]
        if len(rows) != len(cells):
            return f"{len(rows)} rows, expected {len(cells)}"
        for row, (p, theta) in zip(rows, cells):
            got = {key: float(row[key]) for key in ("p", "theta", "I1", "I2", "I3", "I4", "I5",
                                                    "abs_I3", "abs_I4", "abs_I5", "ppt_min_eig")}
            where = f"cell p={p!r}, theta={theta!r}"
            if abs(got["p"] - p) > CLOSED_FORM_TOL or abs(got["theta"] - theta) > CLOSED_FORM_TOL:
                return f"{where}: row is for p={got['p']}, theta={got['theta']}"
            if (row["separable"] == "true") != (got["ppt_min_eig"] >= -PPT_TOL):
                return f"{where}: separable={row['separable']} but ppt_min_eig={got['ppt_min_eig']}"
            if p == 0.0:
                nonzero = [key for key in ("I1", "I2", "I3", "I4", "I5", "abs_I3", "abs_I4", "abs_I5")
                           if got[key] != 0.0]
                if nonzero:
                    return f"{where}: p = 0 row has nonzero {nonzero}"
                continue
            c = math.cos(theta)
            denom = 3.0 + p * p * math.cos(2.0 * theta)
            expected = {
                "I1": 2.0 * math.sqrt(6.0) * p * abs(c) / denom,
                "I2": 2.0 * SQRT3 * p * p / denom,
                "I5": -math.cos(2.0 * theta) / SQRT3,
                "|I3|": abs(c) / SQRT3,
                "|I4|": abs(c) / SQRT3,
            }
            actual = {"I1": got["I1"], "I2": got["I2"], "I5": got["I5"],
                      "|I3|": abs(got["I3"]), "|I4|": abs(got["I4"])}
            for key, value in expected.items():
                if abs(actual[key] - value) > CLOSED_FORM_TOL:
                    return f"{where}: {key} = {actual[key]!r}, closed form {value!r}"
        return None


class DecomposeHighJ:
    """to_tensor -> decompose -> enumerate_invariants on random states at large 2j.

    A round is one pure and one mixed state at each size.
    """

    def __init__(self, seed: int, sizes=(8, 12, 16)):
        self.seed = seed
        self.sizes = tuple(sizes)

    def rounds(self):
        rng = np.random.default_rng([self.seed, 0])
        while True:
            yield [self._op(random_state(rng, tj, pure), "pure" if pure else "mixed")
                   for pure in (True, False) for tj in self.sizes]

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1])
        return [self._op(random_state(rng, tj, False), "mixed") for tj in self.sizes]

    @staticmethod
    def _op(rho, kind: str) -> Op:
        def run():
            t = tensors.to_tensor(rho)
            form = axes.decompose(t)
            return t, form, invariants.enumerate_invariants(form)

        def check(out):
            t, form, _ = out
            err = _tensor_mismatch(t, axes.reconstruct_tensor(form))
            if err > ROUNDTRIP_TOL:
                return f"reconstruct_tensor misses the input tensor by {err:.3e}"
            return None

        return Op(f"{kind}-{rho.j.twice}", run, check)


class _PoolState(NamedTuple):
    label: str
    rho: tensors.DensityMatrix
    t: tensors.TensorComponents
    known_defect: bool


class RotateRoundtrip:
    """rotate_tensor -> decompose -> enumerate_invariants -> reconstruct_tensor -> from_tensor.

    The pool holds `randoms` random states (pure and mixed alternating) at
    each 2j in `sizes`, plus the degenerate `specials` placed on the z-axis;
    every op gives its pool state a fresh seeded rotation. Of the 42 ops in
    a default round, 6 are coherent, Dicke or GHZ states. The three at
    2j >= 6 fail off the z-axis at this commit (ROADMAP item 3): two raise,
    and GHZ at 2j = 6 decomposes but its invariants drift ~1e-4 under
    rotation. The three at 2j <= 3 pass. That keeps failures at 1/14 of the
    ops, so latency_p90_ms lands on a finished op.
    """

    def __init__(self, seed: int, sizes=range(2, 11), randoms: int = 4,
                 specials=(("coherent", 3), ("dicke", 2), ("ghz", 2),
                           ("coherent", 6), ("dicke", 8), ("ghz", 6))):
        self.seed = seed
        rng = np.random.default_rng([self.seed, 2])
        pool = []
        for tj in sizes:
            for i in range(randoms):
                pure = i % 2 == 0
                pool.append((f"{'pure' if pure else 'mixed'}-{tj}", random_state(rng, tj, pure), False))
        for kind, tj in specials:
            pool.append((f"{kind}-{tj}", special_state(rng, kind, tj), tj >= KNOWN_DEFECT_TJ))
        self.pool = [_PoolState(label, rho, tensors.to_tensor(rho), defect)
                     for label, rho, defect in pool]
        self._references = {}  # pool index -> invariants of the unrotated state, or None

    def rounds(self):
        rng = np.random.default_rng([self.seed, 0])
        while True:
            yield [self._op(i, euler_angles(rng)) for i in range(len(self.pool))]

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1])
        first = {}
        for i, state in enumerate(self.pool):
            if not state.known_defect:
                first.setdefault(state.rho.j.twice, i)
        return [self._op(i, euler_angles(rng)) for i in first.values()]

    def _reference(self, index: int):
        if index not in self._references:
            try:
                ref = invariants.enumerate_invariants(axes.decompose(self.pool[index].t))
            except REFUSALS:
                ref = None
            self._references[index] = ref
        return self._references[index]

    def _op(self, index: int, angles) -> Op:
        state = self.pool[index]

        def run():
            form = axes.decompose(tensors.rotate_tensor(state.t, *angles))
            inv = invariants.enumerate_invariants(form)
            return inv, tensors.from_tensor(axes.reconstruct_tensor(form))

        def check(out):
            inv, rho_back = out
            expected = tensors.rotate_density(state.rho, *angles).matrix
            err = float(np.max(np.abs(rho_back.matrix - expected)))
            if err > ROUNDTRIP_TOL:
                return f"round trip misses rotate_density by {err:.3e}"
            ref = self._reference(index)
            if ref is None:
                return None
            scalars, ref_scalars = dict(inv.scalars), dict(ref.scalars)
            if scalars.keys() != ref_scalars.keys():
                return f"ranks {sorted(scalars)} under rotation, {sorted(ref_scalars)} unrotated"
            dev = max((abs(r - ref_scalars[k]) for k, r in scalars.items()), default=0.0)
            if dev > INVARIANT_TOL:
                return f"r_k moved by {dev:.3e} under rotation"
            pw, ref_pw = inv.pairwise_abs_sorted(), ref.pairwise_abs_sorted()
            if pw.size != ref_pw.size:
                return f"{pw.size} pairwise invariants under rotation, {ref_pw.size} unrotated"
            dev = float(np.max(np.abs(pw - ref_pw))) if pw.size else 0.0
            if dev > INVARIANT_TOL:
                return f"|pairwise| moved by {dev:.3e} under rotation"
            return None

        return Op(state.label, run, check, state.known_defect)
