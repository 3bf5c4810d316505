"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name):
    start = time.perf_counter()
    out = run_bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                    "--smoke")
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr[-3000:]
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert elapsed < 60


def test_traced_smoke_run_emits_every_per_layer_metric():
    out = run_bench("--workload", "steady-sweep", "--seed", "5",
                    "--seconds", "0.5", "--smoke", "--trace", "1")
    assert out.returncode == 0, out.stderr[-3000:]
    metrics = last_json(out)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics["solver.backend.factorize.calls"]["value"] > 0
    assert metrics["campaign.cache.hit_ratio"]["value"] == pytest.approx(0.25)
    assert metrics["unaccounted.share"]["value"] < 0.10


def test_times_are_stated_in_reference_seconds():
    import run

    ref = calibrate.REFERENCE_S
    # the first unit ran while the kernel took twice its reference time
    # (a host at half speed), the second at reference speed; the traced
    # unit does not count; the set-ups ran at reference speed but one
    unit = {"wall_s": 2.0, "calibration_s": [1.5 * ref, 2.5 * ref],
            "traced": False, "work": 10.0, "error": None}
    record = {"units": [unit, dict(unit, wall_s=1.0, calibration_s=[ref, ref]),
                        dict(unit, traced=True, wall_s=9.0)],
              "setup_samples_s": [1.0, 3.0, 4.0],
              "setup_calibration_s": [[ref, ref], [ref, ref], [ref, 3 * ref]],
              "peak_rss_mb": 50.0}
    scaled = run.end_to_end(record)
    assert scaled["unit_s.p50"] == (pytest.approx(1.0), "s")
    assert scaled["work_per_s"] == (pytest.approx(10.0), "work/s")
    assert scaled["setup_s"] == (pytest.approx(2.0), "s")
    wall = run.end_to_end(record, wall_clock=True)
    assert wall["unit_s.p50"] == (1.5, "s")
    assert wall["work_per_s"] == (pytest.approx(20.0 / 3.0), "work/s")
    assert wall["setup_s"] == (3.0, "s")
    assert calibrate.calibrate() > 0


def _setup(cls, seed, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
    workload = cls(seed, True, str(tmp_path / f"seed{seed}"))
    workload.setup()
    return workload


def test_seed_changes_steady_sweep_inputs_not_job_count(tmp_path, monkeypatch):
    a = _setup(workloads.SteadySweep, 1, tmp_path, monkeypatch)
    b = _setup(workloads.SteadySweep, 2, tmp_path, monkeypatch)
    assert len(a.spec.jobs) == len(b.spec.jobs) == 36
    assert a.n_cached == b.n_cached == 9
    assert [j.model for j in a.spec.jobs] == [j.model for j in b.spec.jobs]
    assert ([j.param("power_blocks") for j in a.spec.jobs]
            != [j.param("power_blocks") for j in b.spec.jobs])


def test_seed_changes_trace_transient_inputs_not_job_count(tmp_path, monkeypatch):
    a = _setup(workloads.TraceTransient, 1, tmp_path, monkeypatch)
    b = _setup(workloads.TraceTransient, 2, tmp_path, monkeypatch)
    assert [len(c.jobs) for c in a.campaigns] == [2, 8]
    assert [len(c.jobs) for c in b.campaigns] == [2, 8]
    assert a.seeds != b.seeds


def test_compare_tolerance_envelope():
    want = {"x": np.array([10.0, 20.0, 30.0])}
    assert workloads.compare({"x": want["x"] * (1 + 1e-9)}, want) is None
    assert workloads.compare({"x": want["x"] * (1 + 1e-4)}, want) is not None
    assert workloads.compare({"x": want["x"][:2]}, want) is not None
    assert workloads.compare({}, want) is not None


def test_tolerance_backend_passes_the_output_check(tmp_path, monkeypatch):
    from repro.solver.backends import backend_override

    workload = _setup(workloads.SteadySweep, 3, tmp_path, monkeypatch)
    reference = workload.compute_reference()
    ctx = workload.prepare()
    with backend_override("cholesky"):
        outputs, work = workload.run(ctx)
    assert work == 36
    assert workload.check(outputs, reference) is None


def test_corrupted_reference_fails_units(tmp_path, monkeypatch):
    workload = _setup(workloads.SteadySweep, 4, tmp_path, monkeypatch)
    reference = workload.compute_reference()
    key = sorted(reference)[0]
    reference[key] = reference[key] * (1 + 1e-4)
    path = str(tmp_path / "corrupt.npz")
    workloads.save_outputs(path, reference)
    out = run_bench("--workload", "steady-sweep", "--seed", "4",
                    "--seconds", "0.5", "--smoke", "--reference", path)
    assert out.returncode == 1
    result = last_json(out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED unit" in out.stderr


def test_reproduce_check_requires_every_claim():
    workload = workloads.ReproduceCold(1, True, "")
    ok = {"exit_code": np.array([0]), "checks": np.array([21, 21])}
    assert workload.check(ok, {}) is None
    short = {"exit_code": np.array([0]), "checks": np.array([20, 21])}
    assert workload.check(short, {}) is not None
    crashed = {"exit_code": np.array([2]), "checks": np.array([21, 21])}
    assert workload.check(crashed, {}) is not None
    assert workloads.checks_passed("x\n21/21 claim checks passed (5 s).") == (21, 21)
