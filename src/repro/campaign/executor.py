"""The campaign executor: cached, parallel, observable job execution.

Execution of one campaign proceeds in three steps:

1. **Cache probe** — each job's content hash is looked up in the
   result cache (when one is configured); hits short-circuit without
   ever reaching a worker.
2. **Fan-out** — misses go through one job loop: submit every job to
   an executor, then wait on each in order.  ``jobs > 1`` uses a
   ``ProcessPoolExecutor``; ``jobs == 1``, or a pool that cannot start
   (no ``fork``/``spawn``, sandboxed ``/dev/shm``, ...), uses an
   in-process executor that runs each job when its result is read —
   identical results, only the timeout is then advisory.  Failures
   retry with exponential backoff up to ``retries`` times; a per-job
   ``timeout`` (measured from the moment the loop starts waiting on
   that job) marks stragglers failed and abandons their worker.  A
   worker that dies mid-run fails every unfinished job
   (``BrokenProcessPool``); none is rerun in this process.
3. **Record** — fresh results are stored back to the cache and every
   job appends a manifest record; the run closes with a summary
   (hit rate, p50/p95 job latency, aggregated metrics).

Observability: progress is reported through the stdlib
``repro.campaign`` logger (wire a handler with
:func:`repro.obs.logging_setup`).  When tracing is enabled — or
``capture_obs=True`` is passed — each worker runs its job under a
span, snapshots the :mod:`repro.obs` metrics registry before and
after, and ships the span tree plus the metrics delta back through
:class:`JobOutcome`, so per-job solver behaviour (factorizations,
steps, cache hits) survives the process-pool boundary and lands in
the JSONL manifest.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import time
from concurrent.futures import BrokenExecutor, Executor, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import (
    Annotated,
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Tuple,
)

from .. import obs, units
from ..errors import CampaignError
from .cache import JobResult, ResultCache
from .manifest import CampaignSummary, ManifestWriter, summarize
from .runners import get_runner
from .spec import CampaignSpec, JobSpec

logger = logging.getLogger("repro.campaign")

_ATTEMPTS = obs.metrics().counter("campaign.jobs.attempts")
_RETRIES = obs.metrics().counter("campaign.jobs.retries")
_TIMEOUTS = obs.metrics().counter("campaign.jobs.timeouts")
_FAILURES = obs.metrics().counter("campaign.jobs.failures")
_BATCHED = obs.metrics().counter("campaign.jobs.batched")
_JOB_SECONDS = obs.metrics().histogram("campaign.job.wall_seconds")

#: What a worker returns: result, wall seconds, worker pid, and the
#: observability capture (``None`` unless capture was requested).
WorkerReturn = Tuple[JobResult, float, int, Optional[Dict[str, Any]]]


def _backend_scope(spec: JobSpec) -> ContextManager[Any]:
    """The solver-backend selection scope for one job.

    Jobs that pin a backend run inside
    :func:`repro.solver.backends.backend_override`, so every solver
    call the runner makes — without threading a parameter through the
    runner signature — resolves to the spec's engine.  Imported lazily:
    spec handling must stay importable without scipy.
    """
    if spec.backend is None:
        return contextlib.nullcontext()
    from ..solver.backends import backend_override

    return backend_override(spec.backend)


def execute_job(
    spec: JobSpec,
    capture: bool = False,
    stream: Optional[obs.StreamConfig] = None,
) -> WorkerReturn:
    """Run one job in the current process (the worker entry point).

    Module-level so it pickles to pool workers.  ``capture`` adds a
    forced-on ``campaign.job`` span and returns an observability record:
    the serialized span tree, a flat metrics delta for manifests, and
    the structured delta snapshot for merging into the parent registry.
    With ``stream`` the job also publishes ``job_started`` and heartbeat
    events while it runs (see :mod:`repro.obs.events`); they are
    advisory and never change the return value.
    """
    start = time.perf_counter()
    registry = obs.metrics()
    tracer = obs.tracer()
    was_enabled = tracer.enabled
    tracer.enabled = was_enabled or capture
    before = registry.snapshot() if capture else None
    _, heartbeat = obs.job_telemetry(
        stream, spec.tag, spec.kind, registry, before
    )
    job_scope: ContextManager[Any] = (
        obs.Span("campaign.job", {"tag": spec.tag, "kind": spec.kind},
                 tracer=tracer)
        if capture else contextlib.nullcontext()
    )
    try:
        with job_scope as job_span:
            with _backend_scope(spec):
                result = get_runner(spec.kind)(spec)
    finally:
        tracer.enabled = was_enabled
        if heartbeat is not None:
            heartbeat.stop()
    captured: Optional[Dict[str, Any]] = None
    if before is not None:
        delta = obs.snapshot_diff(registry.snapshot(), before)
        captured = {
            "pid": os.getpid(),
            "span": job_span.to_dict(),
            "metrics": obs.flatten_snapshot(delta),
            "snapshot": delta,
        }
    return result, time.perf_counter() - start, os.getpid(), captured


@dataclass
class JobOutcome:
    """How one job of a campaign run ended."""

    spec: JobSpec
    status: str  # "ok" | "cached" | "failed" | "timeout"
    result: Optional[JobResult] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    worker: str = ""
    retries: int = 0
    #: Observability capture from the (possibly remote) worker:
    #: ``{"pid", "span", "metrics", "snapshot"}`` or ``None``.
    obs: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether a result is available (fresh or cached)."""
        return self.status in ("ok", "cached")

    def obs_record(self) -> Optional[Dict[str, Any]]:
        """The condensed observability record for the manifest.

        Per-span-name count/total aggregates plus the flat metrics
        delta — small enough for one JSONL line, rich enough to show
        where a job's time went without loading a trace file.
        """
        if not self.obs:
            return None
        record: Dict[str, Any] = {
            "worker_pid": self.obs.get("pid"),
            "spans": (obs.span_summary([self.obs["span"]])
                      if self.obs.get("span") else []),
            "metrics": self.obs.get("metrics", {}),
        }
        # Batched jobs carry an even 1/K share of the group's delta
        # (see _run_batched); record K so readers know it's apportioned.
        if self.obs.get("apportioned"):
            record["apportioned"] = self.obs["apportioned"]
        return record

    def record(self, campaign: str) -> Dict[str, Any]:
        """The manifest record for this outcome."""
        return {
            "campaign": campaign,
            "tag": self.spec.tag,
            "kind": self.spec.kind,
            "key": self.spec.content_hash,
            "status": self.status,
            "cached": self.status == "cached",
            "wall_s": round(self.wall_s, 6),
            "worker": self.worker,
            "retries": self.retries,
            "error": self.error,
            "obs": self.obs_record(),
        }


@dataclass
class CampaignRun:
    """The full result of one campaign execution."""

    campaign: CampaignSpec
    outcomes: List[JobOutcome] = field(default_factory=list)
    summary: Optional[CampaignSummary] = None
    manifest_path: Optional[str] = None
    parallel: bool = False

    @property
    def ok(self) -> bool:
        """Whether every job produced a result."""
        return all(outcome.ok for outcome in self.outcomes)

    def outcome_for(self, tag: str) -> JobOutcome:
        """The outcome of the job tagged ``tag``."""
        for outcome in self.outcomes:
            if outcome.spec.tag == tag:
                return outcome
        raise CampaignError(
            f"campaign {self.campaign.name!r} has no job tagged {tag!r}"
        )

    def result_for(self, tag: str) -> JobResult:
        """The result of the job tagged ``tag``; raises if it failed."""
        outcome = self.outcome_for(tag)
        if outcome.result is None:
            raise CampaignError(
                f"job {tag!r} of campaign {self.campaign.name!r} "
                f"{outcome.status}: {outcome.error}"
            )
        return outcome.result

    def span_roots(self) -> List[Dict[str, Any]]:
        """Span trees captured in *other* processes during this run.

        Spans recorded in this process are already on the global
        tracer; these are the worker-side trees to export alongside
        them (each shows up as its own pid track in Chrome/Perfetto).
        """
        parent_pid = os.getpid()
        roots: List[Dict[str, Any]] = []
        for outcome in self.outcomes:
            if outcome.obs and outcome.obs.get("pid") != parent_pid:
                roots.append(outcome.obs["span"])
        return roots


def _backoff_sleep(
    backoff: float, attempt: int
) -> Annotated[None, units.effects("blocks-on-io")]:
    """Exponential-backoff delay between submit retries.

    Deliberately blocking — retry pacing is its whole purpose — and
    declared as such so the blocking-in-hot-path rule (R14) knows this
    sleep is a contract, not an accident, should a solver span ever
    grow a path into the retry machinery.
    """
    if backoff > 0:
        time.sleep(backoff * (2 ** attempt))


def _publish(
    outcome: JobOutcome,
    progress: Optional[Callable[[str], None]],
    stream: Optional[obs.EventStream],
) -> None:
    """Report one finished job: its progress line and completion event.

    Completion events come from the parent's outcome — not the worker —
    so failures, timeouts, and cache hits all stream uniformly, and a
    worker whose events were dropped still gets a correct final record.
    """
    line = _progress_line(outcome)
    logger.info(line)
    if progress is not None:
        progress(line)
    if stream is None:
        return
    if outcome.status == "cached":
        stream.emit("job_cached", tag=outcome.spec.tag,
                    kind=outcome.spec.kind, elapsed_s=outcome.wall_s)
        return
    metrics = outcome.obs.get("metrics", {}) if outcome.obs else {}
    stream.emit(
        "job_finished", tag=outcome.spec.tag, kind=outcome.spec.kind,
        status=outcome.status, elapsed_s=outcome.wall_s,
        worker=outcome.worker, retries=outcome.retries,
        error=outcome.error, metrics=metrics,
    )


class _DeferredFuture(Future[Any]):
    """A future whose call runs in this process when its result is read."""

    def __init__(self, call: Callable[[], Any]) -> None:
        super().__init__()
        self._call = call

    def result(self, timeout: Optional[float] = None) -> Any:
        # ``timeout`` is advisory: a running call cannot be interrupted.
        if not self.done():
            try:
                self.set_result(self._call())
            except Exception as exc:  # noqa: BLE001 - re-raised just below
                self.set_exception(exc)
        return super().result()


class _InProcessExecutor(Executor):
    """Runs each job in this process when its result is read: job by job."""

    def submit(  # type: ignore[override]
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future[Any]:
        return _DeferredFuture(functools.partial(fn, *args, **kwargs))


class _PoolUnavailable(Exception):
    """The pool could not be created or refused its first job."""


def _run_batched(
    pending: List[JobSpec],
    progress: Optional[Callable[[str], None]],
    capture: bool = False,
    stream: Optional[obs.EventStream] = None,
) -> Tuple[Dict[str, JobOutcome], List[JobSpec]]:
    """Execute same-model job groups in-process through batch runners.

    Returns the batched outcomes plus the jobs still pending: jobs with
    no batchable group, and whole groups whose batch runner raised (a
    mixed trace grid, a model quirk, ...) — those silently fall back to
    normal per-job execution, so batching can only change cost, never
    the campaign's results.  Batched outcomes report ``worker``
    ``"batched"`` and the group's amortized per-job wall time.

    With ``capture``, the group's metric delta is measured around the
    lockstep run and apportioned evenly across its K member jobs
    (:func:`repro.obs.scale_snapshot`), so manifest ``"obs"`` records
    stay populated under batching instead of silently lumping K jobs'
    solver counters into nothing.  Apportioned records carry
    ``"snapshot": None`` and this process's pid — the deltas are
    already counted in the parent registry, so the cross-process merge
    loop must not fold them again.
    """
    from .batching import batch_groups, get_batch_runner

    groups, rest = batch_groups(pending)
    outcomes: Dict[str, JobOutcome] = {}
    registry = obs.metrics()
    for group in groups:
        kind = group[0].kind
        start = time.perf_counter()
        _ATTEMPTS.inc(len(group))
        if stream is not None:
            for spec in group:
                stream.emit("job_started", tag=spec.tag, kind=kind)
                stream.emit("job_heartbeat", tag=spec.tag, kind=kind,
                            elapsed_s=0.0, metrics={}, batched=True)
        before = registry.snapshot() if capture else None
        try:
            # one scope for the whole group: batch_groups keys on the
            # backend, so every member shares the same selection
            with obs.span("campaign.batch", kind=kind, n_jobs=len(group)):
                with _backend_scope(group[0]):
                    results = get_batch_runner(kind)(group)
            missing = [s.tag for s in group if s.tag not in results]
            if missing:
                raise CampaignError(
                    f"batch runner for {kind!r} returned no result for "
                    f"{missing}"
                )
        except Exception as exc:  # noqa: BLE001 - fall back, don't fail
            logger.warning(
                "batch of %d %r jobs not batchable (%s: %s); "
                "falling back to per-job execution",
                len(group), kind, type(exc).__name__, exc,
            )
            rest.extend(group)
            continue
        wall = (time.perf_counter() - start) / len(group)
        _BATCHED.inc(len(group))
        share: Optional[Dict[str, float]] = None
        if before is not None:
            delta = obs.snapshot_diff(registry.snapshot(), before)
            share = obs.flatten_snapshot(
                obs.scale_snapshot(delta, 1.0 / len(group))
            )
        for spec in group:
            _JOB_SECONDS.observe(wall)
            captured: Optional[Dict[str, Any]] = None
            if share is not None:
                captured = {
                    "pid": os.getpid(),
                    "span": None,
                    "metrics": dict(share),
                    "snapshot": None,
                    "apportioned": len(group),
                }
            outcomes[spec.tag] = JobOutcome(
                spec=spec, status="ok", result=results[spec.tag],
                wall_s=wall, worker="batched", obs=captured,
            )
            _publish(outcomes[spec.tag], progress, stream)
    return outcomes, rest


def _submit(
    executor: Executor,
    spec: JobSpec,
    capture: bool,
    stream_cfg: Optional[obs.StreamConfig],
) -> Future[Any]:
    """Submit one job; a refused submit comes back as a failed future."""
    try:
        return executor.submit(execute_job, spec, capture, stream_cfg)
    except Exception as exc:  # noqa: BLE001 - a broken pool refuses work
        refused: Future[Any] = Future()
        refused.set_exception(exc)
        return refused


def _run_jobs(
    executor: Executor,
    pending: List[JobSpec],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    progress: Optional[Callable[[str], None]],
    capture: bool,
    stream: Optional[obs.EventStream] = None,
) -> Dict[str, JobOutcome]:
    """Submit every pending job, then wait, retry and record each in order.

    The one job loop for a process pool and the in-process executor
    alike.  Raises :class:`_PoolUnavailable` when the first submit
    fails; nothing has run then.  A job whose worker died
    (``BrokenExecutor``) ends ``failed`` without a retry.
    """
    # Only a cross-process-capable stream (a manager-backed queue) can
    # be pickled out to pool workers; otherwise workers run silent and
    # the parent still emits the completion events.
    stream_cfg = None
    if stream is not None:
        stream_cfg = (stream.local_config()
                      if isinstance(executor, _InProcessExecutor)
                      else stream.worker_config())
    outcomes: Dict[str, JobOutcome] = {}
    abandoned = False
    try:
        try:
            futures = [executor.submit(execute_job, pending[0], capture,
                                       stream_cfg)]
        except Exception as exc:  # noqa: BLE001 - classified by the caller
            raise _PoolUnavailable(f"{type(exc).__name__}: {exc}") from exc
        futures += [_submit(executor, spec, capture, stream_cfg)
                    for spec in pending[1:]]
        _ATTEMPTS.inc(len(futures))
        for fut, spec in zip(futures, pending):
            attempt = 0
            while True:
                try:
                    result, wall, pid, captured = fut.result(timeout=timeout)
                    _JOB_SECONDS.observe(wall)
                    outcome = JobOutcome(
                        spec=spec, status="ok", result=result, wall_s=wall,
                        worker=str(pid), retries=attempt, obs=captured,
                    )
                except Exception as exc:  # noqa: BLE001 - job isolation boundary
                    # a TimeoutError the job raised itself is a failure
                    if isinstance(exc, FutureTimeoutError) and not fut.done():
                        fut.cancel()
                        abandoned = True
                        _TIMEOUTS.inc()
                        outcome = JobOutcome(
                            spec=spec, status="timeout",
                            error=f"exceeded {timeout:g} s budget",
                            wall_s=float(timeout or 0.0), retries=attempt,
                        )
                    # a dead worker broke the pool: a retry could only
                    # fail again, and must never run the job here instead
                    elif attempt < retries and not isinstance(exc, BrokenExecutor):
                        logger.debug(
                            "job %s attempt %d failed (%s); retrying",
                            spec.tag, attempt + 1, exc,
                        )
                        _RETRIES.inc()
                        _backoff_sleep(backoff, attempt)
                        attempt += 1
                        _ATTEMPTS.inc()
                        fut = _submit(executor, spec, capture, stream_cfg)
                        continue
                    else:
                        _FAILURES.inc()
                        outcome = JobOutcome(
                            spec=spec, status="failed",
                            error=f"{type(exc).__name__}: {exc}",
                            retries=attempt,
                        )
                break
            outcomes[spec.tag] = outcome
            _publish(outcome, progress, stream)
    finally:
        # A timed-out worker cannot be interrupted; don't block the
        # campaign on it — abandon the pool and let it drain on exit.
        executor.shutdown(wait=not abandoned, cancel_futures=abandoned)
    return outcomes


def _open_pool(jobs: int) -> Executor:
    """A ``jobs``-worker process pool, or :class:`_PoolUnavailable`."""
    from concurrent.futures import ProcessPoolExecutor

    try:
        return ProcessPoolExecutor(max_workers=jobs)
    except Exception as exc:  # noqa: BLE001 - no fork/spawn, no /dev/shm, ...
        raise _PoolUnavailable(f"{type(exc).__name__}: {exc}") from exc


def _progress_line(outcome: JobOutcome) -> str:
    status = outcome.status.upper()
    detail = f"{outcome.wall_s:.3f} s" if outcome.ok else (outcome.error or "")
    retry_note = f" (retries={outcome.retries})" if outcome.retries else ""
    return f"[{status:>7}] {outcome.spec.tag}: {detail}{retry_note}"


def _aggregate_metrics(run: CampaignRun) -> Dict[str, float]:
    """Fold per-job metric deltas plus engine counters for the summary."""
    totals: Dict[str, float] = {}
    for outcome in run.outcomes:
        if outcome.obs:
            for name, value in outcome.obs.get("metrics", {}).items():
                totals[name] = totals.get(name, 0.0) + float(value)
    hits = sum(1 for o in run.outcomes if o.status == "cached")
    totals["campaign.cache.hits"] = float(hits)
    totals["campaign.cache.misses"] = float(len(run.outcomes) - hits)  # batched too
    batched = sum(1 for o in run.outcomes if o.worker == "batched")
    if batched:
        totals["campaign.jobs.batched"] = float(batched)
    retries = sum(o.retries for o in run.outcomes)
    if retries:
        totals["campaign.jobs.retries"] = float(retries)
    timeouts = sum(1 for o in run.outcomes if o.status == "timeout")
    if timeouts:
        totals["campaign.jobs.timeouts"] = float(timeouts)
    return {name: round(value, 9) for name, value in sorted(totals.items())}


def run_campaign(
    campaign: CampaignSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest_path: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.1,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    capture_obs: Optional[bool] = None,
    batch: bool = True,
    stream: Optional[obs.EventStream] = None,
) -> CampaignRun:
    """Execute a campaign; see the module docstring for semantics.

    A pool that cannot start reruns the job loop in-process; a worker
    that dies mid-run fails the unfinished jobs, and the run still
    returns, caches the finished ones and writes its manifest.

    Parameters
    ----------
    campaign:
        The declarative campaign to run.
    jobs:
        Worker processes; ``1`` runs the jobs one by one in-process.
    cache:
        Content-addressed result store; ``None`` disables caching.
    manifest_path:
        Where to append the JSONL run manifest; ``None`` skips it.
    timeout:
        Per-job wall budget in seconds (pool mode only; advisory in
        serial mode).
    retries:
        How many times a *failing* job is re-attempted (timeouts are
        final: the straggler would just straggle again).
    backoff:
        Base of the exponential retry backoff, seconds.
    force:
        Recompute even on cache hits (refreshes the stored entries).
    progress:
        Optional extra per-job callback; progress always goes to the
        ``repro.campaign`` logger regardless.
    capture_obs:
        Capture per-job span trees and metric deltas across the pool.
        ``None`` (default) follows the global tracer's enabled flag.
    batch:
        Recognize pending jobs that share ``(kind, model)`` and run
        each such group as one in-process lockstep solve (see
        :mod:`repro.campaign.batching`); results are bitwise identical
        to per-job execution, groups that cannot batch fall back
        automatically.  Batched jobs' spans land on this process's
        tracer; their metric deltas are measured around the group run
        and apportioned evenly across member jobs when capturing.
    stream:
        Optional live-telemetry stream (see
        :class:`repro.obs.EventStream`).  Workers publish
        ``job_started``/``job_heartbeat`` events while running; the
        parent emits the authoritative lifecycle events
        (``campaign_started``, ``job_cached``, ``job_finished``,
        ``campaign_finished``) from outcomes.  Streaming never changes
        results or recorded metrics — drop-tolerant advisory telemetry
        only.  When a ``manifest_path`` is also given, events mirror to
        ``<manifest_path>.events.jsonl`` for ``repro obs tail``.
    """
    capture = obs.tracing_enabled() if capture_obs is None else capture_obs
    start = time.perf_counter()
    run = CampaignRun(campaign=campaign, manifest_path=manifest_path)
    logger.debug("campaign %s: %d jobs, %d worker(s), capture=%s",
                 campaign.name, len(campaign.jobs), jobs, capture)
    if stream is not None:
        stream.start()
        if manifest_path:
            stream.attach_jsonl(manifest_path + ".events.jsonl")
        stream.emit(
            "campaign_started", campaign=campaign.name,
            total=len(campaign.jobs),
            tags=[spec.tag for spec in campaign.jobs],
        )

    with obs.span("campaign.run", campaign=campaign.name,
                  n_jobs=len(campaign.jobs), workers=jobs):
        pending: List[JobSpec] = []
        cached: Dict[str, JobOutcome] = {}
        with obs.span("campaign.cache.probe", campaign=campaign.name) as probe:
            for spec in campaign.jobs:
                if cache is not None and not force:
                    probe_start = time.perf_counter()
                    hit = cache.get(spec.content_hash)
                    if hit is not None:
                        cached[spec.tag] = JobOutcome(
                            spec=spec, status="cached", result=hit,
                            wall_s=time.perf_counter() - probe_start,
                            worker="cache",
                        )
                        _publish(cached[spec.tag], progress, stream)
                        continue
                pending.append(spec)
            probe.annotate(hits=len(cached), misses=len(pending))

        fresh: Dict[str, JobOutcome] = {}
        if pending and batch:
            fresh, pending = _run_batched(pending, progress, capture, stream)
        if pending:
            loop_args = (pending, timeout, retries, backoff, progress,
                         capture, stream)
            try:
                executor = (_open_pool(jobs) if jobs > 1 and len(pending) > 1
                            else _InProcessExecutor())
                fresh.update(_run_jobs(executor, *loop_args))
            except _PoolUnavailable as exc:
                note = f"process pool unavailable ({exc}); running serially"
                logger.warning(note)
                if progress:
                    progress(f"[  NOTE ] {note}")
                executor = _InProcessExecutor()
                fresh.update(_run_jobs(executor, *loop_args))
            run.parallel = not isinstance(executor, _InProcessExecutor)

        # Fold worker-side metric deltas into this process's registry so
        # pool runs and serial runs leave identical global counts.
        parent_pid = os.getpid()
        for outcome in fresh.values():
            if (outcome.obs and outcome.obs.get("pid") != parent_pid
                    and outcome.obs.get("snapshot")):
                obs.metrics().merge(outcome.obs["snapshot"])

        if cache is not None:
            with obs.span("campaign.cache.store", n=len(fresh)):
                for outcome in fresh.values():
                    if outcome.status == "ok" and outcome.result is not None:
                        cache.put(outcome.spec.content_hash, outcome.result)

        run.outcomes = [
            cached.get(spec.tag) or fresh[spec.tag] for spec in campaign.jobs
        ]
        records = [outcome.record(campaign.name) for outcome in run.outcomes]
        run.summary = summarize(
            campaign.name, records, time.perf_counter() - start,
            metrics=_aggregate_metrics(run),
        )
        if manifest_path:
            writer = ManifestWriter(manifest_path)
            for record in records:
                writer.job(record)
            writer.summary(run.summary)
            logger.debug("manifest appended: %s", manifest_path)
    if stream is not None:
        stream.emit(
            "campaign_finished", campaign=campaign.name,
            total=len(campaign.jobs),
            duration_s=time.perf_counter() - start,
            ok=run.ok,
        )
        # Flush the queue so the buffer/sidecar hold the full run before
        # the caller renders or tails it (best effort; never blocks long).
        stream.sync(timeout=5.0)
    return run
