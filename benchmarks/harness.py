"""Closed-loop benchmark of spinaxes: one caller, one process, BLAS pinned to one thread.

``run.py --workload W --seed N --seconds S --trace 0`` prints the end-to-end
metrics of workload W; ``--trace 1`` prints the per-layer metrics of a traced
run instead (see BENCHMARK.json for both lists). The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

An op is one unit of work of the workload (see workloads.py). An op fails when
it raises DecompositionError or ValidationError or its output fails the
workload's oracle. ``correct`` is false when an op crashes with any other
exception, or when an op fails that is not one of the degenerate states known
to fail at this commit (ROADMAP item 3); those still count in ``failed``.
"""

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out")
RUN_PY = os.path.join(ROOT, "benchmarks", "run.py")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On shared 2-vCPU virtual machines host speed swings by up to 1.5x in phases of seconds, so
# raw run-to-run spreads reach 40%. A fixed calibration sample (no spinaxes code) runs
# between ops and tracks those phases; each op time is scaled by
# CALIBRATION_NOMINAL_S / (median of the samples around it). The nominal value is the
# sample time in the fast phase of a shared 2-vCPU Xeon VM. Unscaled times are printed too.
CALIBRATION_NOMINAL_S = 0.002
CALIBRATION_EVERY_S = 0.1  # op time between calibration samples
SETUP_PROBES = 3        # fresh processes per run; setup_s is their median
PROBE_CALIBRATION_SAMPLES = 5  # per calibration point of a set-up probe
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ERROR_COUNTED = ("axes.solve_axes", "axes.pair_and_canonicalize", "axes.scalar_r")

_E2E = "states_per_s and latency_* on "
# which end-to-end metric, on which workload, each per-layer metric should move
LAYER_TARGETS = {
    **dict.fromkeys(("axes.pair_and_canonicalize", "axes.solve_axes", "axes.scalar_r",
                     "axes.coupled_axes_tensor", "axes.build_polynomial", "axes.decompose",
                     "invariants.enumerate_invariants", "angular.couple"),
                    _E2E + "decompose-highj"),
    **dict.fromkeys(("tensors.rotate_tensor", "angular.wigner_D_matrix", "axes.reconstruct_tensor",
                     "tensors.from_tensor"), _E2E + "rotate-roundtrip"),
    **dict.fromkeys(("states.channel_mixed", "states.ppt_separable", "tensors.to_tensor",
                     "cli.main"), _E2E + "sweep-grid"),
    "angular.cg_cache.hit_ratio": "setup_s and peak_rss_mb on every workload",
    "angular.tensor_operator_cache.hit_ratio": "setup_s and peak_rss_mb on every workload",
    **{f"{name}.errors": "ok_share on rotate-roundtrip" for name in ERROR_COUNTED},
    "trace.overhead_share": "nothing: traced over untraced time of the same ops, minus 1",
}


def load_program():
    """Import spinaxes from this checkout's src/; exit non-zero if it is not there."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import spinaxes
    except ImportError as exc:
        raise SystemExit(f"error: cannot import spinaxes from {SRC}: {exc}") from exc
    if not os.path.abspath(spinaxes.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: spinaxes imported from {spinaxes.__file__}, not from {SRC}")
    return spinaxes


WORKLOADS = ("sweep-grid", "decompose-highj", "rotate-roundtrip")


def build_workload(name: str, seed: int, scratch: str):
    import workloads

    if name == "sweep-grid":
        return workloads.SweepGrid(seed, os.path.join(scratch, "sweep.csv"))
    if name == "decompose-highj":
        return workloads.DecomposeHighJ(seed)
    return workloads.RotateRoundtrip(seed)


@dataclass
class Tally:
    """Outcome of every op attempted in one measured phase."""

    durations: list = field(default_factory=list)  # seconds per attempted op
    ok: list = field(default_factory=list)
    ok_states: int = 0  # states processed by ops that passed
    failures: dict = field(default_factory=dict)  # op label -> [count, first reason]
    correct: bool = True
    calibration: list = field(default_factory=list)  # seconds per calibration sample
    samples_before: list = field(default_factory=list)  # per op: samples taken before it

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def timed_s(self) -> float:
        return sum(self.durations)

    def scaled_durations(self) -> list:
        """Op times at the nominal host speed, from the two calibration samples on each side."""
        out = []
        for duration, before in zip(self.durations, self.samples_before):
            near = sorted(self.calibration[max(0, before - 2):before + 2])
            local = (near[(len(near) - 1) // 2] + near[len(near) // 2]) / 2.0
            out.append(duration * CALIBRATION_NOMINAL_S / local)
        return out

    def add(self, op, duration: float, reason, crashed: bool) -> None:
        self.durations.append(duration)
        self.samples_before.append(len(self.calibration))
        self.ok.append(reason is None)
        if reason is None:
            self.ok_states += op.states
            return
        entry = self.failures.setdefault(op.label, [0, reason])
        entry[0] += 1
        if crashed or not op.known_defect:
            self.correct = False


def calibration_sample() -> float:
    """Seconds for a fixed mix of interpreter loop and small numpy calls, as in the ops."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    vec = np.array([0.3, 0.4, 0.5])
    mat = np.full((8, 8), 0.1)
    for _ in range(50):
        acc += float(np.linalg.norm(np.cross(vec, mat[0, :3])))
        mat = mat @ mat
    return perf_counter() - start


def run_op(op, tally: Tally, tracer=None, caches=None) -> None:
    """Time op.run(), then check its output outside the timed region."""
    from workloads import REFUSALS

    call = op.run
    if caches is not None:
        call = functools.partial(caches.count, call)
    if tracer is not None:
        call = functools.partial(tracer.run_op, tally.attempted, call)
    crashed = False
    start = perf_counter()
    try:
        out = call()
        reason = None
    except REFUSALS as exc:
        reason = f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash must not end the run: count it, keep the traceback
        reason, crashed = traceback.format_exc(), True
    duration = perf_counter() - start
    if reason is None:
        try:
            reason = op.check(out)
        except Exception:
            reason, crashed = traceback.format_exc(), True
    tally.add(op, duration, reason, crashed)


def measure(workload, seconds: float, tracer=None, caches=None) -> Tally:
    """Run whole rounds of ops until their timed total reaches `seconds`."""
    tally = Tally()
    since_sample = math.inf
    for ops in workload.rounds():
        for op in ops:
            if since_sample >= CALIBRATION_EVERY_S:
                tally.calibration.append(calibration_sample())
                since_sample = 0.0
            run_op(op, tally, tracer, caches)
            since_sample += tally.durations[-1]
        if tally.timed_s >= seconds:
            tally.calibration.append(calibration_sample())
            return tally


def warm_up(workload, caches=None) -> None:
    """One untimed, unchecked op per distinct 2j, filling the program's caches."""
    from workloads import REFUSALS

    for op in workload.warmup():
        try:
            caches.count(op.run) if caches is not None else op.run()
        except REFUSALS:
            pass


def latency_ms(durations: list, ok: list, q: float) -> float:
    """Nearest-rank percentile of op time; failed ops sort after every finished one.

    A percentile that lands on a failed op reads as the whole timed wall
    clock of the run, which no finished op can exceed.
    """
    ordered = sorted(d if passed else math.inf for d, passed in zip(durations, ok))
    value = ordered[math.ceil(q * len(ordered)) - 1]
    return 1000.0 * (sum(durations) if value == math.inf else value)


def time_setup(workload, started: float) -> tuple[float, float]:
    """Set-up seconds since `started` and the median calibration sample taken meanwhile.

    Runs the warm-up ops; the clock pauses while calibration samples are
    taken once the workload's inputs are built and after each op.
    """
    from workloads import REFUSALS

    samples = []
    paused = 0.0

    def calibrate():
        nonlocal paused
        start = perf_counter()
        samples.extend(calibration_sample() for _ in range(PROBE_CALIBRATION_SAMPLES))
        paused += perf_counter() - start

    calibrate()
    for op in workload.warmup():
        try:
            op.run()
        except REFUSALS:
            pass
        calibrate()
    samples.sort()
    return perf_counter() - started - paused, samples[len(samples) // 2]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh process takes to import spinaxes and warm up (see time_setup).

    Scaled to the nominal host speed by the probe's calibration samples.
    """
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    elapsed, calibration = map(float, proc.stdout.split()[-2:])
    return elapsed * CALIBRATION_NOMINAL_S / calibration


def run_info(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_samples: list) -> dict:
    ordered = sorted(setup_samples)
    scaled = tally.scaled_durations()
    values = {
        "states_per_s": tally.ok_states / sum(scaled),
        "latency_p50_ms": latency_ms(scaled, tally.ok, 0.5),
        "latency_p90_ms": latency_ms(scaled, tally.ok, 0.9),
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": ordered[len(ordered) // 2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer_names() -> dict:
    """Name -> unit of every per-layer metric, in output order."""
    from tracing import CACHES, TRACED

    names = {}
    for module, function in TRACED:
        names[f"{module}.{function}.self_ms"] = "ms/op"
        names[f"{module}.{function}.calls"] = "calls/op"
    for name in ERROR_COUNTED:
        names[f"{name}.errors"] = "errors/op"
    for name, _ in CACHES:
        names[f"{name}.hit_ratio"] = "ratio"
    names["trace.overhead_share"] = "ratio"
    return names


def per_layer(summary: dict, ops: int, scale: float, caches, overhead: float) -> dict:
    """Per-op layer metrics; self times are multiplied by `scale`, the host speed factor."""
    values = {}
    for name, unit in per_layer_names().items():
        base, _, kind = name.rpartition(".")
        entry = summary.get(base, {"calls": 0, "self_s": 0.0, "errors": 0})
        if kind == "self_ms":
            values[name] = metric(1000.0 * scale * entry["self_s"] / ops, unit)
        elif kind in ("calls", "errors"):
            values[name] = metric(entry[kind] / ops, unit)
        elif kind == "hit_ratio":
            values[name] = metric(caches.hit_ratio(base), unit)
    values["trace.overhead_share"] = metric(overhead, "ratio")
    return values


def report(tally: Tally) -> None:
    for label, (count, reason) in sorted(tally.failures.items()):
        last_line = reason.strip().splitlines()[-1][:160]
        print(f"failed: {label} x{count}: {last_line}")
    print(f"ops: {tally.attempted} attempted, {tally.failed} failed "
          f"(fail share {tally.failed / tally.attempted:.4f}); latency percentiles over "
          f"{tally.attempted} ops; unscaled: timed {tally.timed_s:.3f} s, "
          f"p50 {latency_ms(tally.durations, tally.ok, 0.5):.6g} ms, "
          f"p90 {latency_ms(tally.durations, tally.ok, 0.9):.6g} ms; "
          f"{len(tally.calibration)} calibration samples")


def run_untraced(args, workload) -> tuple[list, dict]:
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    warm_up(workload)
    tally = measure(workload, args.seconds)
    return [tally], end_to_end(tally, setup)


def run_traced(args, workload, info: dict) -> tuple[list, dict]:
    """Untraced then traced pass over the same ops, half of --seconds each."""
    from spinaxes import angular
    from tracing import CacheCounter, Tracer
    from workloads import REFUSALS

    caches = CacheCounter(angular)
    warm_up(workload, caches)
    plain = measure(workload, args.seconds / 2.0)
    tracer = Tracer(REFUSALS)
    tracer.install()
    try:
        traced = measure(workload, args.seconds / 2.0, tracer, caches)
    finally:
        tracer.uninstall()
    common = min(plain.attempted, traced.attempted)
    plain_scaled, traced_scaled = plain.scaled_durations(), traced.scaled_durations()
    overhead = sum(traced_scaled[:common]) / sum(plain_scaled[:common]) - 1.0
    summary = tracer.summary()
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, {"meta": info, "summary": summary, "layer_targets": LAYER_TARGETS})
    print(json.dumps({"trace_file": os.path.relpath(path, ROOT), "spans": len(tracer.spans)}))
    print(json.dumps({"layer_targets": LAYER_TARGETS}))
    scale = sum(traced_scaled) / traced.timed_s
    return [plain, traced], per_layer(summary, traced.attempted, scale, caches, overhead)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import and warm-up in this fresh process, print seconds, exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv, started: float) -> int:
    """Entry point; `started` is perf_counter() taken before numpy or spinaxes was imported."""
    args = parse_args(argv)
    load_program()
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, scratch)
        if args.setup_probe:
            print(*time_setup(workload, started))
            return 0
        info = run_info(args)
        print(json.dumps({"meta": info}))
        if args.trace:
            tallies, metrics = run_traced(args, workload, info)
        else:
            tallies, metrics = run_untraced(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for tally in tallies:
        report(tally)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": all(t.correct for t in tallies),
                      "attempted": sum(t.attempted for t in tallies),
                      "failed": sum(t.failed for t in tallies), "metrics": metrics}))
    return 0
