"""Tests for the campaign engine: specs, cache, executor, manifests."""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    JobResult,
    JobSpec,
    ModelSpec,
    ResultCache,
    get_campaign,
    manifest_summary,
    read_manifest,
    run_campaign,
)
from repro.campaign.runners import runner
from repro.errors import CampaignError
from repro.power import PowerTrace

TWO_BLOCK_POWER = (("IntReg", 3.0), ("Dcache", 2.0))


def steady_job(tag="job", nx=6, direction="left_to_right"):
    return JobSpec.make(
        "steady_blocks",
        tag=tag,
        model=ModelSpec(chip="ev6", package="oil", nx=nx, ny=nx,
                        direction=direction, ambient_c=45.0),
        power="blocks", power_blocks=TWO_BLOCK_POWER,
    )


# ---------------------------------------------------------------------------
# specs and hashing
# ---------------------------------------------------------------------------


def test_spec_hash_is_deterministic_and_param_sensitive():
    a = steady_job()
    b = steady_job()
    assert a.content_hash == b.content_hash
    assert a.content_hash != steady_job(nx=8).content_hash
    assert a.content_hash != steady_job(direction="top_to_bottom").content_hash
    # the tag is a label, not an identity: same work shares a hash
    assert a.content_hash == steady_job(tag="other").content_hash


def test_spec_hash_stable_across_processes():
    """Same spec in a fresh interpreter (different hash seed) -> same hash."""
    expected = steady_job().content_hash
    code = (
        "from repro.campaign import JobSpec, ModelSpec\n"
        "spec = JobSpec.make('steady_blocks', tag='job',\n"
        "    model=ModelSpec(chip='ev6', package='oil', nx=6, ny=6,\n"
        "                    direction='left_to_right', ambient_c=45.0),\n"
        "    power='blocks', power_blocks=(('IntReg', 3.0), ('Dcache', 2.0)))\n"
        "print(spec.content_hash)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "12345"  # prove independence of hash seed
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


def test_campaign_rejects_duplicate_tags_and_empty():
    with pytest.raises(CampaignError):
        CampaignSpec(name="dup", jobs=(steady_job("x"), steady_job("x")))
    with pytest.raises(CampaignError):
        CampaignSpec(name="empty", jobs=())


def test_params_must_be_primitives():
    with pytest.raises(CampaignError):
        JobSpec.make("diagnostic", tag="bad", callback=lambda: None)


# ---------------------------------------------------------------------------
# cache round trips
# ---------------------------------------------------------------------------


def test_cache_round_trip_steady_and_transient_shapes(tmp_path):
    cache = ResultCache(tmp_path)
    steady = JobResult(
        scalars={"t_max_k": 330.25},
        arrays={"block_temps_k": np.linspace(300.0, 330.0, 18)},
        meta={"block_names": ["a", "b"], "ambient_k": 318.15},
    )
    transient = JobResult(
        arrays={"times": np.arange(50) * 1e-3,
                "block_rise_k": np.random.default_rng(0).normal(size=(50, 18))},
        meta={"block_names": ["a", "b"]},
    )
    cache.put("k-steady", steady)
    cache.put("k-transient", transient)
    assert cache.get("k-steady").same_values(steady)
    assert cache.get("k-transient").same_values(transient)
    assert cache.get("missing-key") is None
    assert cache.contains("k-steady")
    stats = cache.stats()
    assert stats["n_results"] == 2 and stats["bytes"] > 0


def test_cache_trace_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    trace = PowerTrace(["a", "b"],
                       np.abs(np.random.default_rng(1).normal(size=(9, 2))),
                       dt=3.3e-6)
    cache.put_trace("trace/v1/test", trace)
    loaded = cache.get_trace("trace/v1/test")
    assert loaded.block_names == trace.block_names
    assert loaded.dt == trace.dt
    np.testing.assert_array_equal(loaded.samples, trace.samples)
    assert cache.get_trace("trace/v1/other") is None


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    (tmp_path / "results" / "bad.json").write_text("{not json")
    assert cache.get("bad") is None


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


def test_serial_and_parallel_runs_are_identical(tmp_path):
    campaign = CampaignSpec(
        name="equiv",
        jobs=(steady_job("l2r", direction="left_to_right"),
              steady_job("t2b", direction="top_to_bottom")),
    )
    serial = run_campaign(campaign, jobs=1)
    parallel = run_campaign(campaign, jobs=2)
    assert serial.ok and parallel.ok
    assert parallel.parallel
    for tag in ("l2r", "t2b"):
        assert serial.result_for(tag).same_values(parallel.result_for(tag))


def _with_quick_job(job, n_workers):
    """The campaign jobs for ``job`` under ``n_workers``.

    A single pending job never starts the pool, so pool runs add a
    second, quick job.
    """
    if n_workers == 1:
        return (job,)
    return (job, JobSpec.make("diagnostic", tag="quick", value=1.0))


@pytest.mark.parametrize("n_workers", [1, 2], ids=["in_process", "pool"])
def test_executor_retries_injected_failure(tmp_path, n_workers):
    job = JobSpec.make(
        "diagnostic", tag="flaky", value=7.0,
        fail_times=1, marker_dir=str(tmp_path / "markers"),
    )
    run = run_campaign(
        CampaignSpec(name="retry", jobs=_with_quick_job(job, n_workers)),
        jobs=n_workers, retries=2, backoff=0.0,
    )
    assert run.parallel == (n_workers > 1)
    assert run.ok
    outcome = run.outcome_for("flaky")
    assert outcome.status == "ok"
    assert outcome.retries == 1
    assert outcome.error is None
    assert outcome.worker == str(int(outcome.result.scalars["pid"]))
    assert run.result_for("flaky").scalars["value"] == 7.0


@pytest.mark.parametrize("n_workers", [1, 2], ids=["in_process", "pool"])
def test_executor_reports_exhausted_retries(tmp_path, n_workers):
    job = JobSpec.make(
        "diagnostic", tag="doomed", fail_times=99,
        marker_dir=str(tmp_path / "markers"),
    )
    manifest = tmp_path / "run.jsonl"
    run = run_campaign(
        CampaignSpec(name="fail", jobs=_with_quick_job(job, n_workers)),
        jobs=n_workers, retries=1, backoff=0.0, manifest_path=str(manifest),
    )
    assert run.parallel == (n_workers > 1)
    assert not run.ok
    outcome = run.outcome_for("doomed")
    assert outcome.status == "failed"
    assert outcome.retries == 1
    assert outcome.worker == ""
    assert outcome.error == "CampaignError: injected failure (attempt 2/99)"
    with pytest.raises(CampaignError):
        run.result_for("doomed")
    records = read_manifest(manifest)
    job_records = {r["tag"]: r for r in records if r["type"] == "job"}
    assert job_records["doomed"]["status"] == "failed"
    assert job_records["doomed"]["retries"] == 1


@pytest.mark.parametrize("refuse", ["__init__", "submit"])
def test_pool_that_cannot_start_runs_in_process(monkeypatch, refuse):
    from concurrent.futures import ProcessPoolExecutor

    def refused(*args, **kwargs):
        raise OSError("no semaphores here")

    monkeypatch.setattr(ProcessPoolExecutor, refuse, refused)
    notes = []
    jobs = tuple(JobSpec.make("diagnostic", tag=f"j{i}", value=float(i))
                 for i in range(3))
    run = run_campaign(CampaignSpec(name="nopool", jobs=jobs), jobs=2,
                       progress=notes.append)
    assert run.ok and not run.parallel
    assert all(o.worker == str(os.getpid()) for o in run.outcomes)
    assert "process pool unavailable (OSError: no semaphores here)" in notes[0]


@runner("crash_probe")
def _crash_probe(specs):
    """Kill the pool worker that runs this group, as a segfault would.

    Never the test process itself: run in the campaign driver it raises
    instead, so a regression fails the test rather than ending pytest.
    """
    if os.getpid() == int(specs[0].param("driver_pid")):
        raise CampaignError("crash probe ran in the campaign driver")
    os._exit(3)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the probe runner is registered in this module; "
                           "only forked workers see it")
def test_dead_worker_fails_its_job_and_keeps_the_driver(tmp_path):
    jobs = tuple(
        JobSpec.make("crash_probe", tag="j2", driver_pid=os.getpid())
        if i == 2 else JobSpec.make("diagnostic", tag=f"j{i}", value=float(i))
        for i in range(5)
    )
    campaign = CampaignSpec(name="crash", jobs=jobs)
    cache = ResultCache(tmp_path / "cache")
    manifest = tmp_path / "run.jsonl"
    run = run_campaign(campaign, jobs=2, cache=cache, backoff=0.0,
                       manifest_path=str(manifest))
    assert run.parallel
    crashed = run.outcome_for("j2")
    assert crashed.status == "failed"
    assert "BrokenProcessPool" in crashed.error
    # nothing ran in the driver after the worker died
    driver = str(os.getpid())
    assert all(o.worker != driver for o in run.outcomes)
    ok = [o for o in run.outcomes if o.ok]
    assert all(o.result.scalars["pid"] != os.getpid() for o in ok)
    assert {"j0", "j1"} <= {o.spec.tag for o in ok}
    records = read_manifest(manifest)
    assert [r["tag"] for r in records if r["type"] == "job"] == [
        f"j{i}" for i in range(5)
    ]
    assert sum(r["type"] == "summary" for r in records) == 1
    # finished results were stored: a rerun serves each from the cache
    rerun = run_campaign(campaign, cache=cache, retries=0)
    for outcome in ok:
        assert rerun.outcome_for(outcome.spec.tag).status == "cached"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the probe runner is registered in this module; "
                           "only forked workers see it")
def test_dead_worker_in_a_group_fails_its_members_and_keeps_the_driver(
        tmp_path):
    model = steady_job().model
    probes = tuple(JobSpec.make("crash_probe", tag=f"p{i}", model=model,
                                driver_pid=os.getpid()) for i in range(3))
    quick = tuple(JobSpec.make("diagnostic", tag=f"d{i}", value=float(i))
                  for i in range(2))
    manifest = tmp_path / "run.jsonl"
    run = run_campaign(CampaignSpec(name="group-crash", jobs=probes + quick),
                       jobs=2, backoff=0.0, manifest_path=str(manifest))
    assert run.parallel
    for probe in probes:
        outcome = run.outcome_for(probe.tag)
        assert outcome.status == "failed"
        assert "BrokenProcessPool" in outcome.error
    driver = str(os.getpid())
    assert all(o.worker != driver for o in run.outcomes)
    records = read_manifest(manifest)
    assert sum(r["type"] == "job" for r in records) == 5
    assert sum(r["type"] == "summary" for r in records) == 1


def test_executor_times_out_stragglers():
    jobs = (
        JobSpec.make("diagnostic", tag="straggler", sleep=1.5),
        JobSpec.make("diagnostic", tag="quick", value=1.0),
    )
    run = run_campaign(CampaignSpec(name="slow", jobs=jobs),
                       jobs=2, timeout=0.3, retries=0)
    assert run.outcome_for("straggler").status == "timeout"
    assert run.outcome_for("quick").ok
    assert not run.ok


def test_group_timeout_budget_scales_with_its_size():
    """A group of K jobs gets K times the per-job budget: the group
    that outlives it ends ``timeout`` member by member, the one that
    only outlives a single job's budget finishes."""
    slow = steady_job(direction="left_to_right").model
    fits = steady_job(direction="top_to_bottom").model
    jobs = tuple(
        JobSpec.make("diagnostic", tag=f"slow{i}", model=slow, sleep=1.0)
        for i in range(2)
    ) + tuple(
        JobSpec.make("diagnostic", tag=f"fits{i}", model=fits, sleep=0.2)
        for i in range(3)
    )
    run = run_campaign(CampaignSpec(name="group-slow", jobs=jobs),
                       jobs=2, timeout=0.4, retries=0)
    for tag in ("slow0", "slow1"):
        outcome = run.outcome_for(tag)
        assert outcome.status == "timeout"
        assert outcome.error == "exceeded 0.8 s budget"
    for tag in ("fits0", "fits1", "fits2"):
        assert run.outcome_for(tag).ok
        assert run.outcome_for(tag).worker == "batched"


@runner("raises_timeout_error")
def _raises_timeout_error(spec):
    raise TimeoutError("socket read timed out")


def test_job_raising_timeout_error_is_a_failure_not_a_straggler():
    job = JobSpec.make("raises_timeout_error", tag="t")
    run = run_campaign(CampaignSpec(name="te", jobs=(job,)),
                       retries=1, backoff=0.0)
    outcome = run.outcome_for("t")
    assert outcome.status == "failed"
    assert outcome.retries == 1
    assert outcome.error == "TimeoutError: socket read timed out"


def test_unknown_kind_fails_cleanly():
    job = JobSpec.make("no_such_runner", tag="x")
    run = run_campaign(CampaignSpec(name="bad", jobs=(job,)), retries=0)
    assert run.outcome_for("x").status == "failed"
    assert "unknown job kind" in run.outcome_for("x").error


# ---------------------------------------------------------------------------
# cache + executor: the short-circuit path
# ---------------------------------------------------------------------------


def test_second_run_is_all_cache_hits(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = CampaignSpec(
        name="cached",
        jobs=(steady_job("l2r", direction="left_to_right"),
              steady_job("b2t", direction="bottom_to_top")),
    )
    manifest = tmp_path / "run.jsonl"
    cold = run_campaign(campaign, cache=cache)
    warm = run_campaign(campaign, cache=cache, manifest_path=str(manifest))
    assert cold.summary.hit_rate == 0.0
    assert warm.summary.hit_rate == 1.0
    assert all(o.status == "cached" for o in warm.outcomes)
    for tag in ("l2r", "b2t"):
        assert cold.result_for(tag).same_values(warm.result_for(tag))
    summary = manifest_summary(manifest)
    assert summary.n_cached == 2 and summary.all_ok
    # force recomputes despite the warm cache
    forced = run_campaign(campaign, cache=cache, force=True)
    assert forced.summary.hit_rate == 0.0
    assert forced.ok


def test_cache_misses_count_batched_jobs(tmp_path):
    from repro.experiments.dtm_study import dtm_campaign

    dtm_jobs = tuple(j for j in dtm_campaign(nx=6, ny=6, cycles=2).jobs
                     if j.tag.startswith("oil/"))
    assert len(dtm_jobs) == 3
    campaign = CampaignSpec(
        name="misses",
        jobs=dtm_jobs + (JobSpec.make("diagnostic", tag="d", value=1.0),),
    )
    run = run_campaign(campaign, cache=ResultCache(tmp_path / "cache"))
    assert run.ok
    assert sum(o.worker == "batched" for o in run.outcomes) == 3
    assert run.summary.metrics["campaign.cache.misses"] == 4.0  # repro-ok: float-equality
    assert run.summary.metrics["campaign.cache.hits"] == 0.0  # repro-ok: float-equality


STEADY_MAPS = (
    (("IntReg", 3.0), ("Dcache", 2.0)),
    (("IntReg", 1.0), ("FPAdd", 4.0)),
    (("Icache", 2.5), ("Dcache", 0.5), ("IntReg", 1.5)),
)


def steady_sweep(**overrides):
    """2 models x 3 power maps of steady_blocks jobs."""
    jobs = []
    for direction in ("left_to_right", "top_to_bottom"):
        model = steady_job(direction=direction).model
        for k, power in enumerate(STEADY_MAPS):
            tag = f"{direction}-p{k}"
            params = {"power": "blocks", "power_blocks": power}
            params.update(overrides.get(tag, {}))
            jobs.append(JobSpec.make("steady_blocks", tag=tag, model=model,
                                     **params))
    return CampaignSpec(name="steady-sweep", jobs=tuple(jobs))


def _factorizations():
    from repro import obs

    return obs.metrics().counter("solver.steady.factorizations").value


def test_steady_blocks_batch_factors_each_model_once():
    campaign = steady_sweep()
    before = _factorizations()
    batched = run_campaign(campaign, jobs=1, batch=True)
    batched_factorizations = _factorizations() - before
    before = _factorizations()
    serial = run_campaign(campaign, jobs=1, batch=False)
    serial_factorizations = _factorizations() - before

    assert batched.ok and serial.ok
    assert all(o.worker == "batched" for o in batched.outcomes)
    assert not any(o.worker == "batched" for o in serial.outcomes)
    assert (batched_factorizations, serial_factorizations) == (2, 6)
    for job in campaign.jobs:
        a = batched.result_for(job.tag)
        b = serial.result_for(job.tag)
        assert np.array_equal(a.arrays["block_temps_k"],
                              b.arrays["block_temps_k"])
        assert a.same_values(b)


def test_steady_blocks_bad_job_falls_back_per_job():
    """One job without a power map makes its group unbatchable: the
    group reruns per job, only the bad job fails."""
    bad = "left_to_right-p1"
    campaign = steady_sweep(**{bad: {"power_blocks": None}})
    run = run_campaign(campaign, jobs=1, retries=0)
    failed = [o.spec.tag for o in run.outcomes if o.status == "failed"]
    assert failed == [bad]
    assert "power_blocks" in run.outcome_for(bad).error
    for outcome in run.outcomes:
        same_model = outcome.spec.model == run.outcome_for(bad).spec.model
        # the bad job's siblings ran alone; the other model still batched
        assert (outcome.worker == "batched") == (not same_model)
        if outcome.spec.tag != bad:
            assert outcome.status == "ok"


def _global_deltas(before):
    """Global metric counts since ``before`` (latency sums excluded:
    wall time is never bitwise repeatable)."""
    from repro import obs

    delta = obs.flatten_snapshot(
        obs.snapshot_diff(obs.metrics().snapshot(), before)
    )
    return {name: value for name, value in delta.items()
            if not name.endswith("sum_s")}


def test_same_model_groups_run_in_the_pool():
    from repro import obs
    from repro.experiments.dtm_study import dtm_campaign

    campaign = dtm_campaign(nx=6, ny=6, cycles=2)
    before = obs.metrics().snapshot()
    serial = run_campaign(campaign, jobs=1, capture_obs=True)
    serial_deltas = _global_deltas(before)
    before = obs.metrics().snapshot()
    pooled = run_campaign(campaign, jobs=2, capture_obs=True)
    pooled_deltas = _global_deltas(before)

    assert serial.ok and pooled.ok
    assert pooled.parallel and not serial.parallel
    assert all(o.worker == "batched" for o in pooled.outcomes)
    assert len(pooled.outcomes) == 6
    for job in campaign.jobs:
        assert (pooled.result_for(job.tag).scalars
                == serial.result_for(job.tag).scalars)
    # one lockstep stepping loop per package: 2 x 100 trace samples
    assert serial_deltas["solver.transient.steps"] == 200
    assert serial_deltas["campaign.jobs.batched"] == 6
    assert pooled_deltas == serial_deltas
    # each group's span tree came back from its worker once
    assert len(pooled.span_roots()) == 2


def test_package_metrics_warmup_that_never_crosses_is_nan(monkeypatch):
    from repro.analysis import time_constants
    from repro.campaign.runners import run_package_metrics
    from repro.errors import SolverError

    real = time_constants.rise_time
    job = JobSpec.make("package_metrics", tag="p", model=steady_job().model,
                       power="blocks", power_blocks=TWO_BLOCK_POWER,
                       warmup_t_end=1.0)

    def warmup_fails_with(error):
        def rise_time(times, values, fraction=0.63):
            if times[-1] > 0.5:  # the warm-up, not the 0.4 s pulse
                raise error
            return real(times, values, fraction)
        return rise_time

    monkeypatch.setattr(time_constants, "rise_time", warmup_fails_with(
        SolverError("trace never reaches the target fraction")))
    result = run_package_metrics([job])["p"]
    assert np.isnan(result.scalars["t63_warm"])
    assert np.isfinite(result.scalars["t63"])
    # any other error is a bug, not a NaN for the cache to keep
    monkeypatch.setattr(time_constants, "rise_time",
                        warmup_fails_with(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        run_package_metrics([job])


# ---------------------------------------------------------------------------
# registry and figure integration
# ---------------------------------------------------------------------------


def test_registry_builds_parameterized_campaigns():
    spec = get_campaign("fig11", nx=6, instructions=10_000)
    assert spec.name == "fig11" and len(spec) == 4
    assert {j.tag for j in spec.jobs} == {
        "left_to_right", "right_to_left", "bottom_to_top", "top_to_bottom"
    }
    with pytest.raises(CampaignError):
        get_campaign("no_such_campaign")
    with pytest.raises(CampaignError):
        get_campaign("fig11", bogus_parameter=1)


def test_fig11_through_cache_matches_direct(tmp_path, monkeypatch):
    """The refactored figure gives identical numbers cached and fresh."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "machine"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    from repro.experiments.fig11 import run_fig11

    cache = ResultCache(tmp_path / "cache")
    fresh = run_fig11(nx=6, instructions=10_000, cache=cache)
    cached = run_fig11(nx=6, instructions=10_000, cache=cache)
    assert fresh.temps_c == cached.temps_c


def test_gcc_trace_disk_cache_round_trips(tmp_path, monkeypatch):
    """The functional-simulation trace persists across 'processes'."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "machine"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    from repro.experiments.common import gcc_power_trace

    gcc_power_trace.cache_clear()
    first = gcc_power_trace(instructions=10_000)
    gcc_power_trace.cache_clear()  # simulate a fresh process
    second = gcc_power_trace(instructions=10_000)
    assert first is not second  # loaded from disk, not the lru
    np.testing.assert_array_equal(first.samples, second.samples)
    store = ResultCache(tmp_path / "machine")
    assert store.stats()["n_traces"] == 1
    gcc_power_trace.cache_clear()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_campaign_list(capsys):
    from repro.cli import main

    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig11", "fig12", "design_space", "dtm_policies", "smoke"):
        assert name in out


def test_cli_campaign_run_and_rerun_hit_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "machine"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    from repro.cli import main

    argv = [
        "campaign", "run", "fig11", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--manifest", str(tmp_path / "run.jsonl"),
        "-P", "nx=6", "-P", "instructions=10000",
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "4/4 jobs ok" in cold and "hit rate 0%" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "4 cached" in warm and "hit rate 100%" in warm

    records = read_manifest(tmp_path / "run.jsonl")
    jobs = [r for r in records if r["type"] == "job"]
    assert len(jobs) == 8  # two runs appended to one manifest
    assert all(r["cached"] for r in jobs[4:])
    assert {"wall_s", "worker", "retries", "status", "key"} <= set(jobs[0])

    assert main(["campaign", "status",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", str(tmp_path / "run.jsonl")]) == 0
    status = capsys.readouterr().out
    assert "results: 4" in status and "hit rate 100%" in status


def test_cli_campaign_run_smoke_no_cache(capsys):
    from repro.cli import main

    assert main(["campaign", "run", "smoke", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "2/2 jobs ok" in out
