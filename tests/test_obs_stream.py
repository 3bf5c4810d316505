"""Tests for repro.obs v2: event streaming, sampling, progress."""

import io
import json
import multiprocessing
import os
import queue
import threading
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    JobSpec,
    ModelSpec,
    ResultCache,
    run_campaign,
)
from repro.cli import main
from repro.obs.events import EventBuffer, EventPublisher, read_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import ResourceSampler, read_samples_jsonl

TWO_BLOCK_POWER = (("IntReg", 3.0), ("Dcache", 2.0))


def steady_job(tag="job", nx=6):
    return JobSpec.make(
        "steady_blocks",
        tag=tag,
        model=ModelSpec(chip="ev6", package="oil", nx=nx, ny=nx,
                        direction="left_to_right", ambient_c=45.0),
        power="blocks", power_blocks=TWO_BLOCK_POWER,
    )


@pytest.fixture(autouse=True)
def clean_tracer():
    obs.disable_tracing()
    obs.tracer().clear()
    yield
    obs.disable_tracing()
    obs.tracer().clear()


# ---------------------------------------------------------------------------
# the event ring buffer
# ---------------------------------------------------------------------------


def test_event_buffer_assigns_monotonic_seq_and_cursor_reads():
    buf = EventBuffer(capacity=10)
    for i in range(3):
        buf.append(obs.make_event("job_started", tag=f"j{i}"))
    assert buf.last_seq == 3
    assert [e["seq"] for e in buf.events()] == [1, 2, 3]
    assert [e["tag"] for e in buf.events(since=2)] == ["j2"]
    assert buf.events(since=3) == []


def test_event_buffer_ring_eviction_never_blocks_writers():
    buf = EventBuffer(capacity=4)
    for i in range(10):
        buf.append(obs.make_event("job_heartbeat", tag=str(i)))
    assert len(buf) == 4
    assert buf.evicted == 6
    assert [e["tag"] for e in buf.events()] == ["6", "7", "8", "9"]


def test_event_buffer_subscribers_fire_and_bad_ones_are_dropped():
    buf = EventBuffer()
    seen = []
    buf.subscribe(seen.append)

    def explode(_event):
        raise RuntimeError("renderer crashed")

    buf.subscribe(explode)
    buf.append(obs.make_event("job_started", tag="a"))
    buf.append(obs.make_event("job_finished", tag="a"))
    assert [e["tag"] for e in seen] == ["a", "a"]  # healthy one kept
    buf.unsubscribe(seen.append)
    buf.append(obs.make_event("job_started", tag="b"))
    assert len(seen) == 2


# ---------------------------------------------------------------------------
# the publisher: non-blocking, drop-counting backpressure
# ---------------------------------------------------------------------------


def test_publisher_drops_on_full_queue_instead_of_blocking():
    sink = queue.Queue(maxsize=2)
    publisher = EventPublisher(sink)
    t0 = time.perf_counter()
    for i in range(50):
        publisher.publish(obs.make_event("job_heartbeat", tag=str(i)))
    elapsed = time.perf_counter() - t0
    assert publisher.published == 2
    assert publisher.dropped == 48
    assert elapsed < 1.0  # put_nowait: a full queue must never stall the job
    # cumulative stream stats ride on every event, so the parent learns
    # about drops even though the dropped events never arrived
    last_delivered = sink.get_nowait(), sink.get_nowait()
    assert last_delivered[1]["stream"]["published"] == 2


def test_dropped_counts_fold_into_live_metrics_from_stream_stats():
    stream = obs.EventStream(cross_process=False)
    stream.start()
    stream.emit("job_heartbeat", tag="j", metrics={},
                stream={"published": 3, "dropped": 2})
    stream.emit("job_heartbeat", tag="j", metrics={},
                stream={"published": 5, "dropped": 7})
    assert stream.sync(5.0)
    totals = stream.live_totals()
    assert totals["obs.events.published"] == 5.0  # repro-ok: float-equality
    assert totals["obs.events.dropped"] == 7.0  # repro-ok: float-equality
    assert stream.dropped == 7.0  # repro-ok: float-equality
    stream.stop()


# ---------------------------------------------------------------------------
# the drain: cumulative heartbeat folding
# ---------------------------------------------------------------------------


def test_heartbeat_folding_is_incremental_and_survives_drops():
    stream = obs.EventStream(cross_process=False)
    stream.start()
    # cumulative deltas 3 -> (dropped beat carrying 5) -> 9: the live
    # total must converge on 9, not 3+9
    stream.emit("job_heartbeat", tag="j", metrics={"solver.steady.solves": 3.0})
    stream.emit("job_heartbeat", tag="j", metrics={"solver.steady.solves": 9.0})
    stream.emit("job_finished", tag="j", status="ok", elapsed_s=0.1,
                metrics={"solver.steady.solves": 9.0})
    assert stream.sync(5.0)
    assert stream.live_totals()["solver.steady.solves"] == 9.0  # repro-ok: float-equality
    stream.stop()


def test_two_jobs_fold_independently():
    stream = obs.EventStream(cross_process=False)
    stream.start()
    stream.emit("job_heartbeat", tag="a", metrics={"solver.steady.solves": 2.0})
    stream.emit("job_heartbeat", tag="b", metrics={"solver.steady.solves": 5.0})
    stream.emit("job_finished", tag="a", status="ok", elapsed_s=0.1,
                metrics={"solver.steady.solves": 4.0})
    stream.emit("job_finished", tag="b", status="ok", elapsed_s=0.1,
                metrics={"solver.steady.solves": 5.0})
    assert stream.sync(5.0)
    assert stream.live_totals()["solver.steady.solves"] == 9.0  # repro-ok: float-equality
    stream.stop()


# ---------------------------------------------------------------------------
# cross-process transport: fork and spawn
# ---------------------------------------------------------------------------


def _publish_from_child(cfg, tag):
    publisher = cfg.publisher()
    publisher.publish(obs.make_event("job_started", tag=tag))
    publisher.publish(obs.make_event(
        "job_heartbeat", tag=tag,
        metrics={"solver.steady.solves": 2.0},
    ))


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_cross_process_publishing(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    stream = obs.EventStream(heartbeat_s=0.1)
    if not stream.cross_process:
        pytest.skip("multiprocessing.Manager unavailable in this sandbox")
    stream.start()
    try:
        ctx = multiprocessing.get_context(method)
        child = ctx.Process(
            target=_publish_from_child, args=(stream.worker_config(), "x")
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert stream.sync(10.0)
        types = [e["type"] for e in stream.events()]
        assert "job_started" in types
        assert "job_heartbeat" in types
        assert stream.live_totals()["solver.steady.solves"] == 2.0  # repro-ok: float-equality
        child_pids = {e["pid"] for e in stream.events()}
        assert os.getpid() not in child_pids
    finally:
        stream.stop()


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------


def _per_tag_seqs(events):
    seqs = {}
    for event in events:
        seqs.setdefault(event["tag"], []).append((event["type"], event["seq"]))
    return seqs


def test_campaign_stream_shows_heartbeat_before_each_completion(tmp_path):
    """The acceptance criterion: >=1 mid-flight heartbeat per job, before
    that job's completion record, on a pool-executed campaign."""
    campaign = CampaignSpec(
        name="stream-pool",
        jobs=tuple(steady_job(f"j{i}", nx=10 + i) for i in range(3)),
    )
    stream = obs.EventStream(heartbeat_s=0.05)
    manifest = str(tmp_path / "run.jsonl")
    run = run_campaign(
        campaign, jobs=2, cache=None, manifest_path=manifest,
        capture_obs=True, stream=stream,
    )
    stream.stop()
    assert run.ok
    seqs = _per_tag_seqs(stream.events())
    for spec in campaign.jobs:
        entries = seqs[spec.tag]
        beats = [s for t, s in entries if t == "job_heartbeat"]
        finished = [s for t, s in entries if t == "job_finished"]
        assert len(finished) == 1, f"{spec.tag}: {entries}"
        assert beats, f"{spec.tag} streamed no heartbeat: {entries}"
        assert min(beats) < finished[0], f"{spec.tag}: {entries}"
    # events mirrored to the sidecar for `repro obs tail`
    sidecar = read_events_jsonl(manifest + ".events.jsonl")
    assert [e["type"] for e in sidecar][0] == "campaign_started"
    assert [e["type"] for e in sidecar][-1] == "campaign_finished"


def test_streaming_leaves_summary_metrics_identical(tmp_path):
    """The other half of the acceptance criterion: the final merged
    metrics of a streamed run match a streaming-disabled run exactly
    (latency sums excluded — wall time is never bitwise repeatable)."""
    jobs = tuple(steady_job(f"m{i}", nx=8 + i) for i in range(2))
    plain = run_campaign(
        CampaignSpec(name="ident-plain", jobs=jobs),
        jobs=1, cache=None, capture_obs=True,
    )
    stream = obs.EventStream(heartbeat_s=0.05)
    streamed = run_campaign(
        CampaignSpec(name="ident-stream", jobs=jobs),
        jobs=1, cache=None, capture_obs=True, stream=stream,
    )
    stream.stop()
    m_plain = plain.summary.metrics
    m_streamed = streamed.summary.metrics
    assert set(m_plain) == set(m_streamed)
    for name in m_plain:
        if name.endswith("sum_s"):
            continue
        assert m_plain[name] == m_streamed[name], name


def test_campaign_stream_emits_cached_events(tmp_path):
    campaign = CampaignSpec(name="stream-cached", jobs=(steady_job("c1"),))
    cache = ResultCache(tmp_path / "cache")
    run_campaign(campaign, jobs=1, cache=cache)
    stream = obs.EventStream(cross_process=False)
    run = run_campaign(campaign, jobs=1, cache=cache, stream=stream)
    stream.stop()
    assert run.outcomes[0].status == "cached"
    types = [e["type"] for e in stream.events()]
    assert "job_cached" in types
    assert "job_started" not in types  # cache hits never reach a worker


def test_batched_jobs_get_apportioned_obs_records():
    pytest.importorskip("scipy")
    base = ModelSpec(chip="ev6", package="oil", nx=6, ny=6,
                     direction="left_to_right", ambient_c=45.0)
    jobs = tuple(
        JobSpec.make(
            "trace_transient", tag=f"t{i}", model=base,
            duration=0.002, instructions=20_000, seed=i, init="ambient",
        )
        for i in range(3)
    )
    campaign = CampaignSpec(name="stream-batched", jobs=jobs)
    run = run_campaign(campaign, jobs=1, cache=None, capture_obs=True)
    assert all(o.worker == "batched" for o in run.outcomes)
    records = [o.obs_record() for o in run.outcomes]
    assert all(r is not None for r in records)
    assert all(r["apportioned"] == 3 for r in records)
    # each member carries an even 1/K share of the group's counters
    shares = [r["metrics"].get("solver.batched.scenarios", 0.0)
              for r in records]
    assert shares[0] == shares[1] == shares[2]
    assert sum(shares) == 3.0  # repro-ok: float-equality
    # apportioned records must NOT be re-merged by the pool merge loop
    assert all(o.obs["snapshot"] is None for o in run.outcomes)
    assert all(o.obs["pid"] == os.getpid() for o in run.outcomes)


# ---------------------------------------------------------------------------
# satellite: cache counters survive concurrent read-modify-write
# ---------------------------------------------------------------------------


def test_cache_counters_concurrent_bumps_lose_nothing(tmp_path):
    """Two campaigns bumping one store must not interleave-and-lose.

    Each thread opens its own ResultCache (its own lockfile fd, like a
    separate process would); the flock around the read-modify-write
    makes the persisted total exact.
    """
    root = tmp_path / "store"
    ResultCache(root)  # create the store layout once
    n_threads, n_bumps = 8, 30
    barrier = threading.Barrier(n_threads)

    def hammer():
        cache = ResultCache(root)
        barrier.wait()
        for _ in range(n_bumps):
            cache._bump("hits")

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    persisted = ResultCache(root).persisted_counters()
    assert persisted["hits"] == n_threads * n_bumps


# ---------------------------------------------------------------------------
# satellite: internally consistent registry snapshots
# ---------------------------------------------------------------------------


def test_registry_instruments_share_one_lock():
    registry = MetricsRegistry()
    counter = registry.counter("solver.steady.solves")
    gauge = registry.gauge("campaign.triage.screened")
    hist = registry.histogram("solver.steady.solve_seconds")
    assert counter._lock is registry._lock
    assert gauge._lock is registry._lock
    assert hist._lock is registry._lock


def test_registry_snapshot_consistent_under_concurrent_increments():
    registry = MetricsRegistry()
    a = registry.counter("solver.steady.solves")
    b = registry.counter("solver.steady.factorizations")
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            a.inc()
            b.inc()

    def reader():
        while not stop.is_set():
            snap = registry.snapshot()["counters"]
            va = snap.get("solver.steady.solves", 0.0)
            vb = snap.get("solver.steady.factorizations", 0.0)
            # a is always incremented first, so a consistent view can
            # never show b ahead of a
            if vb > va:
                torn.append((va, vb))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert torn == []


# ---------------------------------------------------------------------------
# the resource sampler
# ---------------------------------------------------------------------------


def test_sampler_rows_carry_resources_and_metrics():
    registry = MetricsRegistry()
    registry.counter("solver.steady.solves").inc(4)
    sampler = ResourceSampler(registry, interval_s=0.05)
    row = sampler.sample_now()
    for key in ("t_wall", "rss_bytes", "cpu_s", "gc_gen0"):
        assert key in row
    assert row["rss_bytes"] > 0
    assert row["cpu_s"] >= 0
    assert row["metrics"]["solver.steady.solves"] == 4.0  # repro-ok: float-equality
    assert sampler.count == 1


def test_sampler_thread_samples_on_cadence_and_ring_evicts():
    sampler = ResourceSampler(MetricsRegistry(), interval_s=0.02, capacity=3)
    with sampler:
        time.sleep(0.15)
    assert sampler.count > 3
    assert len(sampler.rows()) == 3  # ring retention
    assert sampler.evicted == sampler.count - 3


def test_sampler_jsonl_roundtrip_and_chrome_counters(tmp_path):
    registry = MetricsRegistry()
    sampler = ResourceSampler(registry, interval_s=0.05)
    registry.counter("solver.steady.solves").inc()
    sampler.sample_now()
    registry.counter("solver.steady.solves").inc()
    sampler.sample_now()
    path = str(tmp_path / "samples.jsonl")
    assert sampler.write_jsonl(path) == 2
    rows = read_samples_jsonl(path)
    assert len(rows) == 2
    assert rows[1]["metrics"]["solver.steady.solves"] == 2.0  # repro-ok: float-equality

    events = sampler.chrome_counter_events()
    assert events and all(e["ph"] == "C" for e in events)
    assert obs.validate_chrome_trace(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    ) == []
    names = {e["name"] for e in events}
    assert "repro.resources" in names
    assert "solver.steady.solves" in names


# ---------------------------------------------------------------------------
# the progress model and live renderer
# ---------------------------------------------------------------------------


def _synthetic_run_events():
    return [
        obs.make_event("campaign_started", campaign="fake", total=3,
                       tags=["a", "b", "c"]),
        obs.make_event("job_cached", tag="a", elapsed_s=0.01),
        obs.make_event("job_started", tag="b", kind="steady_blocks"),
        obs.make_event("job_heartbeat", tag="b", elapsed_s=0.05, metrics={}),
        obs.make_event("job_finished", tag="b", status="ok", elapsed_s=0.1,
                       metrics={}),
        obs.make_event("job_started", tag="c", kind="steady_blocks"),
    ]


def test_progress_model_folds_lifecycle():
    progress = obs.CampaignProgress()
    for event in _synthetic_run_events():
        progress.observe(event)
    counts = progress.counts()
    assert counts["cached"] == 1
    assert counts["finished"] == 1
    assert counts["running"] == 1
    assert progress.done == 2
    assert progress.total == 3
    assert progress.cache_hit_rate() == 0.5  # repro-ok: float-equality
    assert progress.eta_s() is not None
    [job_b] = [j for j in progress.jobs() if j.tag == "b"]
    assert job_b.heartbeats == 1
    assert job_b.state == "finished"
    line = progress.render_line()
    assert "2/3 done" in line
    assert "1 running" in line
    table = progress.render_table()
    assert "cached" in table and "running" in table


def test_progress_finishes_and_eta_drops_to_zero():
    progress = obs.CampaignProgress()
    events = _synthetic_run_events() + [
        obs.make_event("job_finished", tag="c", status="failed",
                       elapsed_s=0.2, error="boom", metrics={}),
        obs.make_event("campaign_finished", campaign="fake", total=3),
    ]
    for event in events:
        progress.observe(event)
    assert progress.finished
    assert progress.counts()["failed"] == 1
    assert progress.eta_s() == 0.0  # repro-ok: float-equality
    assert progress.throughput() >= 0.0


def test_live_renderer_paints_to_stream():
    out = io.StringIO()
    renderer = obs.LiveRenderer(obs.CampaignProgress(), out=out,
                                min_interval_s=0.0)
    for event in _synthetic_run_events():
        renderer.on_event(event)
    renderer.close()
    text = out.getvalue()
    assert "done" in text
    assert "eta" in text


# ---------------------------------------------------------------------------
# the CLI: obs subcommands and campaign --live/--sample
# ---------------------------------------------------------------------------


def test_cli_campaign_live_and_obs_tail(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    manifest = str(tmp_path / "run.jsonl")
    sample_path = str(tmp_path / "samples.jsonl")
    code = main([
        "-q", "campaign", "run", "smoke", "--no-cache",
        "--manifest", manifest, "--live", "--heartbeat", "0.05",
        "--sample", sample_path, "--sample-interval", "0.05",
    ])
    assert code == 0
    assert os.path.exists(manifest + ".events.jsonl")
    events = read_events_jsonl(manifest + ".events.jsonl")
    types = [e["type"] for e in events]
    assert types[0] == "campaign_started"
    assert types[-1] == "campaign_finished"
    assert "job_finished" in types
    assert read_samples_jsonl(sample_path)  # sampler artifact written
    capsys.readouterr()

    assert main(["obs", "tail", manifest, "--no-follow"]) == 0
    out = capsys.readouterr().out
    assert "done" in out
    assert main(["obs", "tail", manifest, "--no-follow", "--raw"]) == 0
    raw = capsys.readouterr().out
    assert "campaign_finished" in raw


def test_cli_obs_tail_missing_stream_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["obs", "tail", missing, "--no-follow"]) == 1
    assert "--live" in capsys.readouterr().err
