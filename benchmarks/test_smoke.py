"""Smoke run of the benchmark harness at tiny sizes (2j <= 4, a handful of ops).

Run with ``python3 -m pytest benchmarks/test_smoke.py``. It is not part of
the tier-1 suite, which collects ``tests/`` only.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

harness.load_program()

import workloads  # noqa: E402
from spinaxes import angular, axes  # noqa: E402
from tracing import CacheCounter, Tracer  # noqa: E402
from workloads import REFUSALS  # noqa: E402


def tiny_rotate(seed=0):
    return workloads.RotateRoundtrip(seed, sizes=(2, 3, 4), randoms=2, specials=(("coherent", 6),))


def test_failing_op_is_counted_not_raised():
    tally = harness.measure(tiny_rotate(), seconds=1e-9)  # exactly one round
    assert tally.attempted == 7
    assert tally.failed == 1
    assert list(tally.failures) == ["coherent-6"]
    assert "DecompositionError" in tally.failures["coherent-6"][1]
    assert tally.correct  # a state of the known defect fails without making the run incorrect
    metrics = harness.end_to_end(tally, [0.3, 0.1, 0.2])
    timed = sum(tally.scaled_durations())
    assert metrics["ok_share"]["value"] == 6 / 7
    assert metrics["states_per_s"]["value"] == 6 / timed
    assert metrics["setup_s"]["value"] == 0.2
    # 1 of 7 failed: the nearest-rank p90 lands on it and reads as the whole timed wall clock
    assert metrics["latency_p90_ms"]["value"] == 1000.0 * timed
    assert metrics["latency_p50_ms"]["value"] < 1000.0 * timed


def test_unexpected_failures_make_the_run_incorrect():
    def wrong_output():
        return None

    def crash():
        raise KeyError("boom")

    for run, check in ((wrong_output, lambda out: "wrong"), (crash, lambda out: None)):
        tally = harness.Tally()
        harness.run_op(workloads.Op("bad", run, check), tally)
        assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_tiny_sweep_and_decompose_pass_their_oracles(tmp_path):
    sweep = workloads.SweepGrid(1, str(tmp_path / "sweep.csv"), p_steps=2, theta_steps=3)
    tally = harness.measure(sweep, seconds=1e-9)
    assert (tally.attempted, tally.failed, tally.ok_states, tally.correct) == (3, 0, 18, True)
    tally = harness.measure(workloads.DecomposeHighJ(1, sizes=(2, 4)), seconds=1e-9)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 0, True)


def test_oracles_catch_wrong_outputs(tmp_path):
    sweep = workloads.SweepGrid(2, str(tmp_path / "sweep.csv"), p_steps=2, theta_steps=2)
    op = next(sweep.rounds())[0]
    assert op.check(op.run()) is None
    with open(tmp_path / "sweep.csv", encoding="utf-8") as handle:
        text = handle.read().splitlines()
    row = text[-1].split(",")
    row[2] = repr(float(row[2]) + 1e-6)  # I1 of the last cell
    (tmp_path / "sweep.csv").write_text("\n".join(text[:-1] + [",".join(row)]) + "\n")
    assert "I1" in op.check(0)

    op = next(workloads.DecomposeHighJ(2, sizes=(3,)).rounds())[0]
    t, form, inv = op.run()
    rank = form.ranks[1]
    moved = axes.RankDecomposition(rank.axes, rank.r * (1 + 1e-6), rank.flipped, rank.residual)
    bad = axes.MultiaxialForm(form.j, {**form.ranks, 1: moved})
    assert "reconstruct_tensor" in op.check((t, bad, inv))


def test_traced_run_reports_every_layer_and_restores_the_program():
    original = axes.couple
    workload = workloads.DecomposeHighJ(3, sizes=(2, 4))
    caches = CacheCounter(angular)
    harness.warm_up(workload, caches)
    tracer = Tracer(REFUSALS)
    tracer.install()
    try:
        assert axes.couple is not original
        tally = harness.measure(workload, 1e-9, tracer, caches)
    finally:
        tracer.uninstall()
    assert axes.couple is original
    summary = tracer.summary()
    assert summary["op"]["calls"] == tally.attempted == 4
    assert summary["axes.decompose"]["calls"] == 4
    assert summary["angular.couple"]["calls"] > 0
    assert all(entry["self_s"] <= entry["total_s"] + 1e-12 for entry in summary.values())
    metrics = harness.per_layer(summary, tally.attempted, 1.0, caches, overhead=0.1)
    assert list(metrics) == list(harness.per_layer_names())
    assert metrics["axes.decompose.calls"]["value"] == 1.0
    assert 0.0 < metrics["angular.cg_cache.hit_ratio"]["value"] <= 1.0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_names()
    assert tuple(w["name"] for w in spec["workloads"]) == harness.WORKLOADS


def test_command_prints_result_last_and_fails_without_the_program(tmp_path):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "sweep-grid", "--seed", "4",
           "--seconds", "0.2", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())

    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
