"""`spinaxes sweep` against a per-cell reference, byte for byte.

The reference below is the per-cell code the sweep ran before it built its
grid as stacks: a kron-based two-beam state, one expansion in the tensor
operator basis per cell, one PPT eigensolve per cell and one invariant pass
per decomposition. It calls none of the stacked helpers (nor channel_mixed,
to_tensor, ppt_separable or enumerate_invariants, which now run them on a
stack of one), so any bit the stacked sweep changes shows up here. The sweep
is also rendered through the public objects (decompose_many,
enumerate_invariants, spin1_named, ppt_separable), which its array path must
match byte for byte.
"""

import math

import numpy as np
import pytest

from spinaxes import cli
from spinaxes.angular import HalfInt, clebsch_gordan, tensor_operator, unit_vector, unit_vector_components
from spinaxes.axes import decompose, decompose_many
from spinaxes.invariants import enumerate_invariants, spin1_named
from spinaxes.states import (
    TRIPLET_ISOMETRY, ChannelParams, _slf_polar_angles, channel_mixed, ppt_separable, random_density_matrix,
)
from spinaxes.tensors import DensityMatrix, TensorComponents, to_tensor

CG_SCALAR = tuple(clebsch_gordan(1, 1, 0, q, -q, 0) for q in (1, 0, -1))


def polarized_qubit(p, polar, azimuth):
    nx, ny, nz = p * unit_vector(polar, azimuth)
    return 0.5 * np.array([[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]])


def reference_channel_mixed(params):
    alpha, beta = _slf_polar_angles(params.p1, params.p2, params.two_theta)
    combined = np.kron(polarized_qubit(params.p1, alpha, 0.0), polarized_qubit(params.p2, beta, math.pi))
    projected = TRIPLET_ISOMETRY @ combined @ TRIPLET_ISOMETRY.conj().T
    return DensityMatrix(projected / float(projected.trace().real), HalfInt(2))


def reference_tensor(rho):
    """t[k,q] = Tr(rho tau[k,q]) of one matrix, as to_tensor computed it per matrix."""
    tj = rho.j.twice
    basis = np.array([tensor_operator(HalfInt(tj), k, q) for k in range(tj + 1) for q in range(k, -k - 1, -1)])
    return TensorComponents(rho.j, np.einsum("ij,nji->n", rho.matrix, basis))


def reference_ppt(rho, tol=1e-10):
    four = TRIPLET_ISOMETRY.conj().T @ rho.matrix @ TRIPLET_ISOMETRY
    pt = four.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    lowest = float(np.linalg.eigvalsh(pt)[0])
    return lowest, bool(lowest >= -tol)


def reference_invariants(form):
    """(scalars, pairwise, abs_cosines, axis_labels, count) of one form."""
    labeled = [((k, i), ax) for k in form.present_ranks for i, ax in enumerate(form.rank(k).axes)]
    labels = tuple(lbl for lbl, _ in labeled)
    n = len(labeled)
    theta, phi = np.array([(ax.theta, ax.phi) for _, ax in labeled]).reshape(n, 2).T
    comps = unit_vector_components(theta, phi)
    coupled = np.zeros((n, n), dtype=complex)
    for i, weight in enumerate(CG_SCALAR):
        coupled += (weight * comps[:, i])[:, None] * comps[None, :, 2 - i]
    rows, cols = np.triu_indices(n, 1)
    pairwise = tuple((labels[a], labels[b], coupled.real[a, b].item()) for a, b in zip(rows, cols))
    vecs = unit_vector(theta, phi)
    abs_cos = np.abs(vecs @ vecs.T)
    np.fill_diagonal(abs_cos, 1.0)
    return form.scalars, pairwise, abs_cos, labels, len(form.scalars) + len(pairwise)


def reference_named(scalars, pairwise):
    scal = dict(scalars)
    pw = {(la, lb): v for la, lb, v in pairwise}
    return [scal.get(1), scal.get(2), pw.get(((1, 0), (2, 0))), pw.get(((1, 0), (2, 1))), pw.get(((2, 0), (2, 1)))]


def reference_csv(p_range, theta_range):
    fmt = "{:.12g}".format
    lines = ["p,theta,I1,I2,I3,I4,I5,abs_I3,abs_I4,abs_I5,ppt_min_eig,separable"]
    for p in cli.parse_range(p_range):
        for theta in cli.parse_range(theta_range):
            p, theta = float(p), float(theta)
            rho = reference_channel_mixed(ChannelParams(p, p, 2.0 * theta))
            scalars, pairwise, _, _, _ = reference_invariants(decompose(reference_tensor(rho)))
            values = [0.0 if v is None else v for v in reference_named(scalars, pairwise)]
            lowest, separable = reference_ppt(rho)
            lines.append(",".join([fmt(p), fmt(theta)] + [fmt(v) for v in values]
                                  + [fmt(abs(v)) for v in values[2:]] + [fmt(lowest), str(separable).lower()]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("p_range, theta_range", [
    ("0:1:21", "0deg:180deg:37"),  # the README grid
    ("0:0:1", "0:3:4"),  # p = 0: every rank absent, no axes at all
    ("0.6:0.6:1", "40deg:40deg:1"),  # a single cell
    ("0.5:1:3", "0:180deg:5"),  # through theta = pi/2 and p = 1: forms of different present ranks
])
def test_sweep_csv_equals_per_cell_reference(tmp_path, capsys, p_range, theta_range):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--p", p_range, "--theta", theta_range, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == reference_csv(p_range, theta_range)


def test_states_and_ppt_equal_per_cell_reference():
    """Matrix and eigenvalue bits, finer than the 12 digits the CSV shows."""
    rng = np.random.default_rng(13)
    params = [ChannelParams.equal(float(p), 2.0 * float(t))
              for p in cli.parse_range("0:1:21") for t in cli.parse_range("0deg:180deg:37")]
    params += [ChannelParams(*rng.uniform(0, 1, 2), rng.uniform(0, 2 * math.pi)) for _ in range(200)]
    for item in params:
        rho, reference = channel_mixed(item), reference_channel_mixed(item)
        assert rho.matrix.tobytes() == reference.matrix.tobytes()
        result, (lowest, separable) = ppt_separable(rho), reference_ppt(rho)
        assert repr(result.min_eigenvalue) == repr(lowest) and result.separable is separable


def test_mixed_rank_grid_mixes_rank_structures():
    cells = [(float(p), 2.0 * float(t)) for p in cli.parse_range("0.5:1:3") for t in cli.parse_range("0:180deg:5")]
    ranks = {decompose(reference_tensor(reference_channel_mixed(ChannelParams.equal(*cell)))).present_ranks
             for cell in cells}
    assert {(1, 2), (2,)} <= ranks


def test_enumerate_invariants_equals_per_form_reference():
    rng = np.random.default_rng(12)
    forms = [decompose(reference_tensor(random_density_matrix(HalfInt(tj), rng, pure=tj % 3 == 0)))
             for tj in range(1, 17)]
    forms += [decompose(reference_tensor(reference_channel_mixed(ChannelParams.equal(1.0, math.pi)))),  # rank 1 absent
              decompose(reference_tensor(DensityMatrix.maximally_mixed(2)))]  # no axes
    assert forms[-2].present_ranks == (2,) and forms[-1].present_ranks == ()
    for form in forms:
        inv = enumerate_invariants(form)
        scalars, pairwise, abs_cos, labels, count = reference_invariants(form)
        assert repr(inv.scalars) == repr(scalars)
        assert repr(inv.pairwise) == repr(pairwise)
        abs_sorted = np.sort(np.array([abs(v) for *_, v in pairwise]))
        assert inv.pairwise_abs_sorted().shape == abs_sorted.shape
        assert inv.pairwise_abs_sorted().tobytes() == abs_sorted.tobytes()
        assert inv.abs_cosines.shape == abs_cos.shape and inv.abs_cosines.tobytes() == abs_cos.tobytes()
        assert inv.axis_labels == labels and inv.count == count


def test_spin1_named_equals_triple_lookup_reference():
    t_rank1_only = TensorComponents(HalfInt(2), {(1, 1): 0.1 - 0.2j, (1, 0): 0.3, (1, -1): -0.1 - 0.2j})
    forms = [decompose(reference_tensor(reference_channel_mixed(ChannelParams.equal(p, t))))
             for p in (0.3, 0.8, 1.0) for t in (0.5, 2.0, 3.0)]
    forms += [decompose(reference_tensor(reference_channel_mixed(ChannelParams.equal(1.0, math.pi)))),  # rank 1 absent
              decompose(t_rank1_only),  # rank 2 absent
              decompose(reference_tensor(DensityMatrix.maximally_mixed(1)))]  # no axes
    assert {form.present_ranks for form in forms} == {(1, 2), (2,), (1,), ()}
    for form in forms:
        scalars, pairwise, *_ = reference_invariants(form)
        assert repr(list(spin1_named(enumerate_invariants(form)).values())) == repr(reference_named(scalars, pairwise))


def public_csv(cells, mats):
    """The sweep CSV of these (p, theta) cells and their matrices, through the public objects."""
    rhos = [DensityMatrix(mat, HalfInt(2)) for mat in mats]
    lines = [cli.CSV_COLUMNS]
    for (p, theta), rho, form in zip(cells, rhos, decompose_many(to_tensor(rho) for rho in rhos)):
        named = spin1_named(enumerate_invariants(form))
        values = [0.0 if named[key] is None else named[key] for key in ("I1", "I2", "I3", "I4", "I5")]
        ppt = ppt_separable(rho)
        lines.append(",".join([f"{v:.12g}" for v in [p, theta, *values, *map(abs, values[2:]), ppt.min_eigenvalue]]
                              + [str(ppt.separable).lower()]))
    return "\n".join(lines) + "\n"


def grid_cells(p_range, theta_range):
    return [(float(p), float(t)) for p in cli.parse_range(p_range) for t in cli.parse_range(theta_range)]


def run_sweep(tmp_path, capsys, p_range, theta_range):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--p", p_range, "--theta", theta_range, "--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_text(encoding="utf-8")


def seeded_grid(seed):
    rng = np.random.default_rng(seed)
    p0 = 0.0 if seed % 2 else float(rng.uniform(0.0, 0.5))  # every other grid has p = 0 rows
    p1, t0, t1 = float(rng.uniform(p0, 1.0)), float(rng.uniform(0.0, 1.5)), float(rng.uniform(1.5, math.pi))
    return f"{p0!r}:{p1!r}:{int(rng.integers(1, 8))}", f"{t0!r}:{t1!r}:{int(rng.integers(1, 10))}"


@pytest.mark.parametrize("p_range, theta_range", [
    ("0:1:21", "0deg:180deg:37"),  # the README grid
    ("0:0:1", "0:3:4"),  # p = 0 only
    ("0.6:0.6:1", "40deg:40deg:1"),  # a single cell
    ("0:1:5", "0:180deg:5"),  # p = 0 rows and forms with ranks (1, 2), (2,) and ()
] + [seeded_grid(seed) for seed in range(20)])
def test_sweep_csv_equals_public_object_rendering(tmp_path, capsys, p_range, theta_range):
    cells = grid_cells(p_range, theta_range)
    mats = [channel_mixed(ChannelParams.equal(p, 2.0 * theta)).matrix for p, theta in cells]
    assert run_sweep(tmp_path, capsys, p_range, theta_range) == public_csv(cells, mats)


def test_sweep_of_every_rank_structure_equals_public_object_rendering(tmp_path, capsys, monkeypatch):
    rank1_only = np.diag([1.0 / 3.0 + 0.2, 1.0 / 3.0, 1.0 / 3.0 - 0.2])  # t[2, q] = 0, t[1, 0] != 0
    real = cli._channel_stack

    def with_rank1_cell(p1, p2, two_theta):
        mats = real(p1, p2, two_theta).copy()
        mats[-1] = rank1_only
        return mats

    monkeypatch.setattr(cli, "_channel_stack", with_rank1_cell)
    cells = grid_cells("0:1:3", "0:180deg:3")
    mats = [channel_mixed(ChannelParams.equal(p, 2.0 * theta)).matrix for p, theta in cells[:-1]] + [rank1_only]
    forms = decompose_many(to_tensor(DensityMatrix(mat)) for mat in mats)
    assert {form.present_ranks for form in forms} == {(1, 2), (2,), (1,), ()}
    assert run_sweep(tmp_path, capsys, "0:1:3", "0:180deg:3") == public_csv(cells, mats)
