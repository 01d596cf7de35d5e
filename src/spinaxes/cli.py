"""Command-line front end.

Subcommands:

* ``analyze <file>``: tensor components, axes, scales, and invariants of a
  state read from a file.
* ``sweep --p a:b:n --theta a:b:n --out csv``: the five spin-1 invariants and
  the PPT separability flag over a (p, theta) grid of two-beam mixed states.
* ``selfcheck --seed S --trials T``: randomized and algebraic consistency
  suites; exit code 0 iff everything passes.
* ``make-state pure|mixed``: write a state file for the built-in constructors.

Angles on the command line are radians unless suffixed with ``deg``. The
``theta`` arguments are the half-angle between the two constituent
directions, the variable all the closed-form expressions use.

State file format (text): comment lines start with ``#`` (``# key: value``
comments are kept as metadata); the first data line is ``j <twice_j>``; then
2j+1 rows of 2(2j+1) whitespace-separated reals, alternating re and im. A
``.json`` file with fields ``twice_j`` (or half-integral ``j``), ``matrix``
as nested [re, im] pairs, and optional ``label``/``source`` is also accepted.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .angular import (
    HalfInt, angle_between, clebsch_gordan, tensor_index, tensor_operator, unit_vector, wigner_D_matrix,
)
from .axes import EMPTY_RANK_TOL, _decompose_stack, build_polynomial, decompose, pair_and_canonicalize, solve_axes
from .errors import DecompositionError, DomainError, StateFileError, ValidationError
from .invariants import _spin1_stack, enumerate_invariants, invariant_count, verify_invariance
from .states import (
    PPT_TOL, ChannelParams, _channel_stack, _ppt_stack, channel_mixed, pure_two_spinor, random_density_matrix,
)
from .tensors import DensityMatrix, _density_stack, _tensor_stack, random_tensor_components, to_tensor

__all__ = ["main", "read_state_file", "write_state_file", "parse_angle", "parse_range"]

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CSV_COLUMNS = "p,theta,I1,I2,I3,I4,I5,abs_I3,abs_I4,abs_I5,ppt_min_eig,separable"
_CSV_ROW = ",".join(["%.12g"] * 11 + ["%s"])  # one sweep row; %-formatting gives _fmt's strings


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit formatting used for all numeric output."""
    return f"{x:.12g}"


def parse_angle(text: str) -> float:
    """Angle in radians; a trailing ``deg`` marks degrees."""
    text = text.strip()
    degrees = text.lower().endswith("deg")
    try:
        value = float(text[:-3] if degrees else text)
    except ValueError:
        raise DomainError(f"cannot parse angle {text!r}") from None
    return math.radians(value) if degrees else value


def parse_range(text: str) -> np.ndarray:
    """``start:stop:steps`` (angles may carry a deg suffix) to a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"range {text!r} must look like start:stop:steps")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        steps = int(parts[2])
    except ValueError:
        raise DomainError(f"range {text!r} needs an integer step count") from None
    if steps < 1:
        raise DomainError(f"range {text!r} needs at least 1 step")
    return np.linspace(start, stop, steps)


def read_state_file(path: str):
    """Parse a state file; returns (DensityMatrix, metadata dict)."""
    read = _read_state_json if path.endswith(".json") else _read_state_text
    try:
        return read(path)
    except (DomainError, ValidationError) as exc:
        raise StateFileError(str(exc)) from exc


def _read_state_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StateFileError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(payload, dict):
        raise StateFileError("top level must be a JSON object")
    if "twice_j" in payload:
        twice_j = payload["twice_j"]
        if not isinstance(twice_j, int) or isinstance(twice_j, bool):
            raise StateFileError(f"twice_j must be an integer, got {twice_j!r}")
        jj = HalfInt(twice_j)
    elif "j" in payload:
        jj = HalfInt.coerce(payload["j"])
    else:
        raise StateFileError("missing 'twice_j' (or 'j') field")
    if jj.twice < 0:
        raise StateFileError("twice_j must be non-negative")
    rows = payload.get("matrix")
    dim = jj.twice + 1
    if not isinstance(rows, list) or len(rows) != dim:
        raise StateFileError(f"'matrix' must have {dim} rows for j={jj}")
    mat = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise StateFileError(f"matrix row {r + 1} must have {dim} [re, im] entries")
        for c, entry in enumerate(row):
            try:
                re, im = entry
                mat[r, c] = complex(float(re), float(im))
            except (TypeError, ValueError) as exc:
                raise StateFileError(f"matrix row {r + 1}, column {c + 1}: expected [re, im]") from exc
    metadata = {k: payload[k] for k in ("label", "source") if k in payload}
    return DensityMatrix(mat, jj), metadata


def _read_state_text(path: str):
    metadata = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "j":
                    raise StateFileError("expected header 'j <twice_j>'", line=lineno)
                try:
                    header = int(parts[1])
                except ValueError as exc:
                    raise StateFileError(f"twice_j must be an integer, got {parts[1]!r}", line=lineno) from exc
                if header < 0:
                    raise StateFileError("twice_j must be non-negative", line=lineno)
                continue
            dim = header + 1
            values = line.split()
            if len(values) != 2 * dim:
                raise StateFileError(
                    f"expected {2 * dim} values (re im pairs for {dim} columns), got {len(values)}",
                    line=lineno,
                )
            try:
                numbers = [float(v) for v in values]
            except ValueError as exc:
                raise StateFileError(f"non-numeric entry: {exc}", line=lineno) from exc
            rows.append(numbers)
    if header is None:
        raise StateFileError("empty state file (no 'j <twice_j>' header)")
    dim = header + 1
    if len(rows) != dim:
        raise StateFileError(f"expected {dim} matrix rows, found {len(rows)}")
    return DensityMatrix(np.array(rows).view(complex), HalfInt(header)), metadata  # re, im pairs


def write_state_file(handle, rho: DensityMatrix, metadata=None) -> None:
    """Write the text state format to an open handle."""
    for key, value in (metadata or {}).items():
        handle.write(f"# {key}: {value}\n")
    handle.write(f"j {rho.j.twice}\n")
    for row in rho.matrix:
        handle.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")


def _analyze_payload(rho: DensityMatrix, metadata) -> dict:
    t = to_tensor(rho)
    form = decompose(t)
    inv = enumerate_invariants(form)
    payload = {
        "label": metadata.get("label") if metadata else None,
        "twice_j": rho.j.twice,
        "j": str(rho.j),
        "dim": rho.dim,
        "min_eigenvalue": rho.min_eigenvalue(),
        "tensor": {f"{k},{q}": [value.real, value.imag] for (k, q), value in t.items()},
        "ranks": {},
        "invariants": {
            "count": inv.count,
            "expected_full_rank": invariant_count(rho.j) if rho.j.twice >= 1 else 0,
            "scalars": {str(k): r for k, r in inv.scalars},
            "pairwise": [
                {"axes": [list(la), list(lb)], "value": v, "abs_cosine": abs(v) * math.sqrt(3.0)}
                for la, lb, v in inv.pairwise
            ],
        },
    }
    for k in sorted(form.ranks):
        dec = form.ranks[k]
        payload["ranks"][str(k)] = None if dec is None else {
            "r": dec.r, "flipped": dec.flipped, "residual": dec.residual,
            "axes": [{"theta": theta, "phi": phi, "xyz": unit_vector(theta, phi).tolist()}
                     for theta, phi in dec.angles.tolist()],
        }
    return payload


def _print_analysis(payload: dict, out) -> None:
    label = payload.get("label")
    out.write(f"state: spin j = {payload['j']} (dimension {payload['dim']})"
              + (f", label: {label}" if label else "") + "\n")
    out.write(f"min eigenvalue: {_fmt(payload['min_eigenvalue'])}\n")
    out.write("tensor components t[k,q] (re, im):\n")
    for key, (re, im) in payload["tensor"].items():
        k, q = key.split(",")
        out.write(f"  t[{k},{int(q):+d}] = {_fmt(re)} {_fmt(im)}\n")
    out.write("axial decomposition:\n")
    any_axes = False
    for k in sorted(payload["ranks"], key=int):
        dec = payload["ranks"][k]
        if dec is None:
            out.write(f"  rank {k}: empty (all components below {EMPTY_RANK_TOL:.0e})\n")
            continue
        any_axes = True
        out.write(f"  rank {k}: r = {_fmt(dec['r'])} (residual {dec['residual']:.3e}"
                  + (", last axis inverted for positivity" if dec["flipped"] else "") + ")\n")
        for i, ax in enumerate(dec["axes"]):
            xyz = ", ".join(_fmt(v) for v in ax["xyz"])
            out.write(f"    axis ({k},{i}): theta = {_fmt(ax['theta'])}, phi = {_fmt(ax['phi'])}, "
                      f"xyz = ({xyz})\n")
    inv = payload["invariants"]
    if not any_axes:
        out.write("no axes; invariant set empty\n")
        return
    out.write(f"invariants: count {inv['count']} (full-rank formula gives {inv['expected_full_rank']})\n")
    for k, r in inv["scalars"].items():
        out.write(f"  r[{k}] = {_fmt(r)}\n")
    for pair in inv["pairwise"]:
        (ka, ia), (kb, ib) = pair["axes"]
        out.write(f"  ({ka},{ia})x({kb},{ib}): value = {_fmt(pair['value'])}, "
                  f"|cos| = {_fmt(pair['abs_cosine'])}\n")


def cmd_analyze(args) -> int:
    try:
        rho, metadata = read_state_file(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StateFileError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        payload = _analyze_payload(rho, metadata)
    except (DecompositionError, ValidationError) as exc:
        print(f"error: decomposition failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")  # one write, not json.dump's millions
    else:
        _print_analysis(payload, sys.stdout)
    return EXIT_OK


def cmd_sweep(args) -> int:
    p, theta = (axis.ravel() for axis in np.meshgrid(parse_range(args.p), parse_range(args.theta), indexing="ij"))
    mats = _channel_stack(p, p, 2.0 * theta)  # the first bad cell raises a DomainError, reported by main
    try:
        present, angles, r, _, _ = _decompose_stack(_tensor_stack(*_density_stack(mats, HalfInt(2))), 2)
    except (DecompositionError, ValidationError) as exc:
        print(f"error: decomposition failed during sweep at p={_fmt(float(p[exc.index]))}, "
              f"theta={_fmt(float(theta[exc.index]))}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    values, lowest = _spin1_stack(present, angles, r), _ppt_stack(mats)
    table = np.column_stack((p, theta, values, np.abs(values[:, 2:]), lowest)).tolist()
    separable = np.where(lowest >= -PPT_TOL, "true", "false").tolist()
    lines = [CSV_COLUMNS] + [_CSV_ROW % (*row, flag) for row, flag in zip(table, separable)]
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(lines) - 1} rows to {args.out}")
    return EXIT_OK


def _suite_tau_orthogonality(inject_fault: bool) -> tuple[float, float]:
    worst = 0.0
    for tj in (1, 2, 3, 4):
        ops = np.array([tensor_operator(HalfInt(tj), k, q) for k in range(tj + 1) for q in range(k, -k - 1, -1)])
        if inject_fault:
            ops[tensor_index(1, 0)] *= 1.001
        dim = tj + 1
        # Tr(a^dag b) over every pair, against (2j+1) delta
        gram = np.einsum("aij,bij->ab", ops.conj(), ops)
        worst = max(worst, float(np.max(np.abs(gram - dim * np.eye(dim * dim)))))
        for k in range(tj + 1):
            rank = ops[tensor_index(k, k) : tensor_index(k, -k) + 1]  # q = +k ... -k
            sign = (-1.0) ** np.arange(k, -k - 1, -1)
            mirrored = sign[:, None, None] * rank[::-1]  # (-1)^q tau[k,-q]
            worst = max(worst, float(np.max(np.abs(rank.conj().transpose(0, 2, 1) - mirrored))))
    return worst, 1e-12


def _suite_cg_orthogonality() -> tuple[float, float]:
    worst = 0.0
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            j3_range = range(abs(tj1 - tj2), tj1 + tj2 + 2, 2)
            for tj3 in j3_range:
                for tj3p in j3_range:
                    for tm3 in range(-min(tj3, tj3p), min(tj3, tj3p) + 2, 2):
                        total = 0.0
                        for tm1 in range(-tj1, tj1 + 2, 2):
                            tm2 = tm3 - tm1
                            if abs(tm2) > tj2:
                                continue
                            total += clebsch_gordan(j1, j2, HalfInt(tj3), HalfInt(tm1), HalfInt(tm2), HalfInt(tm3)) * \
                                clebsch_gordan(j1, j2, HalfInt(tj3p), HalfInt(tm1), HalfInt(tm2), HalfInt(tm3))
                        expected = 1.0 if tj3 == tj3p else 0.0
                        worst = max(worst, abs(total - expected))
    return worst, 1e-12


def _suite_d_unitarity(rng) -> tuple[float, float]:
    worst = 0.0
    for tj in (1, 2, 3, 4):
        for _ in range(5):
            theta = rng.uniform(0.0, math.pi)
            d = wigner_D_matrix(HalfInt(tj), 0.0, theta, 0.0).real
            worst = max(worst, float(np.max(np.abs(d @ d.T - np.eye(tj + 1)))))
    return worst, 1e-12


def _suite_rotation_invariance(rng, trials: int) -> tuple[float, float]:
    worst = 0.0
    kinds = [(HalfInt(2), True), (HalfInt(2), False), (HalfInt(3), False)]
    for i in range(trials):
        j, pure = kinds[i % len(kinds)]
        rho = random_density_matrix(j, rng, pure=pure)
        report = verify_invariance(rho, trials=3, seed=int(rng.integers(0, 2**31 - 1)))
        if report.failures:
            raise DecompositionError("; ".join(report.failures))
        worst = max(worst, report.max_scalar_dev, report.max_pairwise_dev)
    return worst, 1e-8


def _suite_root_closure(rng, trials: int) -> tuple[float, float]:
    worst = 0.0
    for i in range(trials):
        k = 1 + i % 4
        t = random_tensor_components(HalfInt(2 * k), rng)
        poly = build_polynomial(t, k)
        points = solve_axes(poly)
        vecs = [unit_vector(theta, phi) for theta, phi in points]
        for v in vecs:
            best = min(angle_between(v, -w) for w in vecs if w is not v)
            worst = max(worst, best)
        pair_and_canonicalize(points)
    return worst, 1e-8


def cmd_selfcheck(args) -> int:
    if args.trials < 0:
        raise DomainError(f"trials={args.trials} must be non-negative")
    rng = np.random.default_rng(args.seed)
    inject = args.inject_fault == "tau-norm"
    suites = [
        ("tau-orthogonality", lambda: _suite_tau_orthogonality(inject)),
        ("cg-orthogonality", _suite_cg_orthogonality),
        ("d-unitarity", lambda: _suite_d_unitarity(rng)),
    ]
    if args.trials > 0:
        suites.append(("rotation-invariance", lambda: _suite_rotation_invariance(rng, args.trials)))
        suites.append(("root-antipodal-closure", lambda: _suite_root_closure(rng, args.trials)))
    else:
        print("warning: trials=0, randomized suites skipped (vacuous pass)")
    all_ok = True
    for name, fn in suites:
        try:
            deviation, tol = fn()
        except DecompositionError as exc:
            print(f"{name}: FAIL ({exc})")
            all_ok = False
            continue
        ok = deviation <= tol
        all_ok = all_ok and ok
        print(f"{name}: max deviation {deviation:.3e} (tol {tol:.0e}) {'PASS' if ok else 'FAIL'}")
    print(f"selfcheck: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_SELFCHECK


def cmd_make_state(args) -> int:
    theta = parse_angle(args.theta)
    if args.kind == "pure":
        rho = pure_two_spinor(2.0 * theta)
        label = f"pure two-spinor state, half-angle theta = {_fmt(theta)}"
    else:
        p2 = args.p if args.p2 is None else args.p2
        rho = channel_mixed(ChannelParams(args.p, p2, 2.0 * theta))
        label = (f"two-beam mixed state, p1 = {_fmt(args.p)}, p2 = {_fmt(p2)}, "
                 f"half-angle theta = {_fmt(theta)}")
    metadata = {"label": label, "source": "spinaxes make-state"}
    if args.out == "-":
        write_state_file(sys.stdout, rho, metadata)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_state_file(handle, rho, metadata)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spinaxes`` parser, built once per process and shared by every :func:`main` call; do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="spinaxes",
        description="Axial decomposition and rotational invariants of spin-j density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="decompose a state file and report invariants")
    p_analyze.add_argument("file", help="state file (text format or .json)")
    p_analyze.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="invariants and separability over a (p, theta) grid")
    p_sweep.add_argument("--p", required=True, help="polarization range start:stop:steps")
    p_sweep.add_argument("--theta", required=True,
                         help="half-angle range start:stop:steps (radians, or deg suffix)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("selfcheck", help="run randomized and algebraic consistency suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=50)
    p_check.add_argument("--inject-fault", choices=("tau-norm",), default=None,
                         help=argparse.SUPPRESS)
    p_check.set_defaults(func=cmd_selfcheck)

    p_make = sub.add_parser("make-state", help="write a state file for the built-in constructors")
    p_make.add_argument("kind", choices=("pure", "mixed"))
    p_make.add_argument("--theta", required=True,
                        help="half-angle between the two directions (radians, or deg suffix)")
    p_make.add_argument("--p", type=float, default=1.0, help="polarization magnitude (mixed)")
    p_make.add_argument("--p2", type=float, default=None,
                        help="second beam polarization (defaults to --p)")
    p_make.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_make.set_defaults(func=cmd_make_state)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
