"""Live structured-event streaming across the campaign process pool.

PR 3's observability crosses the process boundary exactly once per
job, at completion, through ``JobOutcome.obs`` — which makes a long
campaign a black box while it runs.  This module adds the *during*:

* :class:`EventBuffer` — a bounded ring of structured events with a
  cursor-based reader and a subscriber API; the parent's single source
  of truth for "what is happening right now".
* :class:`EventPublisher` — the worker-side half: ``put_nowait`` onto
  a cross-process queue, **never blocking** the job.  A full queue
  drops the event and counts it (the cumulative drop count rides every
  later event, so the parent learns about drops it never saw).
* :class:`_HeartbeatThread` — emits one immediate heartbeat when a job
  starts and another every ``heartbeat_s``, each carrying the job's
  cumulative metric delta since start (flat ``name -> value``).
  Cumulative, not incremental: a dropped heartbeat self-heals at the
  next one.
* :class:`EventStream` — the parent-side assembly: queue creation
  (a ``multiprocessing.Manager`` queue when cross-process transport is
  available, a plain ``queue.Queue`` otherwise), a daemon drain thread
  folding events into the buffer and into a **live** metrics registry,
  and an optional JSONL sidecar so ``repro obs tail`` can follow a
  run from another process.

Design rule — *heartbeats are advisory, outcomes are authoritative*:
the drain folds heartbeat deltas only into the stream's own
``live_metrics`` registry (display state), never into the process-wide
:func:`repro.obs.metrics` registry, and workers count publish/drop on
plain attributes rather than global counters.  The completion path
(``JobOutcome.obs`` snapshots, manifest records, summary metrics)
is therefore bitwise identical with streaming on or off, and losing
every single event changes nothing but the live view.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import Annotated, Any, Callable, Dict, List, Optional, Tuple

from .. import units
from .metrics import MetricsRegistry, Snapshot, flatten_snapshot, snapshot_diff

#: Event types emitted by the campaign engine, in lifecycle order.
EVENT_TYPES = (
    "campaign_started",
    "job_started",
    "job_heartbeat",
    "job_cached",
    "job_finished",
    "campaign_finished",
)

#: Sentinel event type that stops a drain thread.
_STOP = "__stop__"
#: Sentinel event type used by :meth:`EventStream.sync`.
_MARK = "__mark__"

Event = Dict[str, Any]
Subscriber = Callable[[Event], None]


def make_event(type: str, tag: str = "", **payload: Any) -> Event:
    """A plain-dict event: JSON-able, picklable, queue-able."""
    event: Event = {"type": type, "tag": tag, "t_wall": time.time(),
                    "pid": os.getpid()}
    event.update(payload)
    return event


class EventBuffer:
    """A bounded ring of events with sequence numbers and subscribers.

    Appends assign a monotonically increasing ``seq`` (stamped onto
    the event dict); once ``capacity`` is exceeded the oldest events
    are evicted — ring *retention*, not backpressure, so a slow reader
    loses history but never stalls a writer.  Subscribers run in the
    appender's thread; a raising subscriber is dropped (one bad
    renderer must not kill the drain).
    """

    #: concurrency contract, checked whole-program by R12: every
    #: mutation of the ring state must hold ``_lock``
    _events: Annotated[List[Event], units.guarded_by("_lock")]
    _seq: Annotated[int, units.guarded_by("_lock")]
    _subscribers: Annotated[List[Subscriber], units.guarded_by("_lock")]
    evicted: Annotated[int, units.guarded_by("_lock")]

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("event buffer capacity must be >= 1")
        self.capacity = capacity
        self.evicted = 0
        self._events: List[Event] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._subscribers: List[Subscriber] = []

    def append(self, event: Event) -> int:
        """Stamp a ``seq`` onto ``event``, retain it, notify; returns seq."""
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._events.append(event)
            if len(self._events) > self.capacity:
                drop = len(self._events) - self.capacity
                del self._events[:drop]
                self.evicted += drop
            subscribers = list(self._subscribers)
            seq = self._seq
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:  # noqa: BLE001 - a bad renderer must not kill drain
                self.unsubscribe(subscriber)
        return seq

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Call ``subscriber(event)`` on every future append."""
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a subscriber (no-op when unknown)."""
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def events(self, since: int = 0) -> List[Event]:
        """Retained events with ``seq > since`` (cursor-style reads)."""
        with self._lock:
            return [e for e in self._events if e.get("seq", 0) > since]

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class EventPublisher:
    """Worker-side event sender: non-blocking, drop-counting.

    Wraps any queue with ``put_nowait`` (a ``multiprocessing`` manager
    proxy in pool workers, a plain ``queue.Queue`` in-process).  The
    job must never stall on telemetry, so a full queue — or a broken
    manager connection — drops the event and bumps ``dropped``.
    Cumulative ``published``/``dropped`` counts are attached to every
    event under ``"stream"``, which is how the parent learns about
    drops even though the dropped events themselves never arrive.
    """

    published: Annotated[int, units.guarded_by("_lock")]
    dropped: Annotated[int, units.guarded_by("_lock")]

    def __init__(self, sink: Any) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self.published = 0
        self.dropped = 0

    def publish(self, event: Event) -> bool:
        """Enqueue without blocking; returns whether the event made it.

        The count-stamp-send sequence runs under ``_lock`` so that
        concurrent publishers (the job thread and its heartbeat thread
        share one publisher) never tear the accounting: every event's
        ``"stream"`` stamp is consistent with the counters at the
        moment it was enqueued, and ``published + dropped`` equals the
        number of :meth:`publish` calls exactly.  ``put_nowait`` never
        blocks, so holding the lock across it is cheap.
        """
        with self._lock:
            event["stream"] = {"published": self.published + 1,
                               "dropped": self.dropped}
            try:
                self._sink.put_nowait(event)
            except (queue.Full, OSError, ValueError, EOFError,
                    BrokenPipeError):
                self.dropped += 1
                event["stream"] = {"published": self.published,
                                   "dropped": self.dropped}
                return False
            self.published += 1
            return True


class _HeartbeatThread(threading.Thread):
    """Emits heartbeats for one running job on a fixed cadence.

    The first beat goes out immediately (so even sub-cadence jobs show
    at least one mid-flight event before their completion record), the
    rest every ``heartbeat_s``.  Each beat carries the cumulative flat
    metric delta since the job's ``before`` snapshot.
    """

    def __init__(
        self,
        publisher: EventPublisher,
        tag: str,
        kind: str,
        registry: MetricsRegistry,
        before: Snapshot,
        heartbeat_s: float,
    ) -> None:
        super().__init__(name=f"repro-heartbeat-{tag}", daemon=True)
        self._publisher = publisher
        self._tag = tag
        self._kind = kind
        self._registry = registry
        self._before = before
        self._heartbeat_s = max(0.01, float(heartbeat_s))
        self._halt = threading.Event()
        self._t0 = time.perf_counter()
        self.beats = 0

    def _beat(self) -> None:
        cumulative = flatten_snapshot(
            snapshot_diff(self._registry.snapshot(), self._before)
        )
        self._publisher.publish(make_event(
            "job_heartbeat", tag=self._tag, kind=self._kind,
            elapsed_s=time.perf_counter() - self._t0, metrics=cumulative,
        ))
        self.beats += 1

    def run(self) -> None:
        self._beat()  # immediate: every job shows up mid-flight at least once
        while not self._halt.wait(self._heartbeat_s):
            self._beat()

    def stop(self, timeout: float = 2.0) -> None:
        self._halt.set()
        self.join(timeout=timeout)


class StreamConfig:
    """The picklable worker-side slice of an :class:`EventStream`.

    Carries only what ``execute_group`` needs: the queue (a manager
    proxy survives pickling to pool workers under both ``fork`` and
    ``spawn``) and the heartbeat cadence.
    """

    __slots__ = ("queue", "heartbeat_s")

    def __init__(self, queue: Any, heartbeat_s: float) -> None:
        self.queue = queue
        self.heartbeat_s = heartbeat_s

    def publisher(self) -> EventPublisher:
        return EventPublisher(self.queue)


def job_telemetry(
    stream: Optional[StreamConfig],
    tag: str,
    kind: str,
    registry: MetricsRegistry,
    before: Optional[Snapshot] = None,
) -> Annotated[
    Tuple[Optional[EventPublisher], Optional[_HeartbeatThread]],
    units.effects("spawns-thread"),
]:
    """Start job-lifecycle streaming for one worker-side job.

    Publishes ``job_started`` and launches the heartbeat thread;
    returns ``(publisher, heartbeat)`` (both ``None`` when ``stream``
    is ``None``).  The caller must ``heartbeat.stop()`` when the job
    body finishes, whatever the outcome.
    """
    if stream is None:
        return None, None
    publisher = stream.publisher()
    publisher.publish(make_event("job_started", tag=tag, kind=kind))
    heartbeat = _HeartbeatThread(
        publisher, tag, kind, registry,
        before if before is not None else registry.snapshot(),
        stream.heartbeat_s,
    )
    heartbeat.start()
    return publisher, heartbeat


class EventStream:
    """Parent-side live-telemetry pipeline for campaign runs.

    Owns the queue, the :class:`EventBuffer`, a ``live_metrics``
    registry of folded heartbeat deltas, and the daemon drain thread.
    Construct one, pass it to
    :func:`repro.campaign.executor.run_campaign`, subscribe renderers
    with :meth:`subscribe`, and :meth:`stop` it when done (or use it
    as a context manager).

    ``cross_process=True`` asks for a ``multiprocessing.Manager``
    queue so pool workers can publish; when the manager cannot start
    (sandboxes without ``/dev/shm`` or process spawning) the stream
    degrades to a plain in-process queue and sets
    ``cross_process=False`` — the executor then simply runs pool
    workers without worker-side streaming, mirroring its own
    pool-unavailable fallback.
    """

    #: the JSONL sidecar handle is attached/detached from the caller
    #: thread while the drain thread writes to it
    _sidecar: Annotated[Optional[Any], units.guarded_by("_sidecar_lock")]

    def __init__(
        self,
        heartbeat_s: float = 0.5,
        capacity: int = 8192,
        cross_process: bool = True,
    ) -> None:
        self.heartbeat_s = float(heartbeat_s)
        self.buffer = EventBuffer(capacity)
        self.live_metrics = MetricsRegistry()
        self._manager: Optional[Any] = None
        self.cross_process = False
        if cross_process:
            try:
                import multiprocessing

                self._manager = multiprocessing.Manager()
                self._queue: Any = self._manager.Queue()
                self.cross_process = True
            except Exception:  # noqa: BLE001 - degrade like the executor's pool path
                self._manager = None
        if not self.cross_process:
            self._queue = queue.Queue()
        #: last cumulative flat metrics seen per running job tag
        self._last_flat: Dict[str, Dict[str, float]] = {}
        #: last cumulative (published, dropped) per publisher pid
        self._stream_stats: Dict[int, Tuple[float, float]] = {}
        self._drain: Optional[threading.Thread] = None
        self._marks: "queue.Queue[int]" = queue.Queue()
        self._sidecar: Optional[Any] = None
        self._sidecar_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EventStream":
        """Start the drain thread (idempotent); returns self."""
        if self._drain is None or not self._drain.is_alive():
            self._drain = threading.Thread(
                target=self._drain_loop, name="repro-event-drain", daemon=True
            )
            self._drain.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the drain thread and close the sidecar/manager."""
        if self._drain is not None and self._drain.is_alive():
            try:
                self._queue.put(make_event(_STOP))
            except Exception:  # noqa: BLE001 - queue may already be torn down
                pass
            self._drain.join(timeout=timeout)
        self._drain = None
        with self._sidecar_lock:
            if self._sidecar is not None:
                try:
                    self._sidecar.close()
                finally:
                    self._sidecar = None
        if self._manager is not None:
            try:
                self._manager.shutdown()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self._manager = None
            self.cross_process = False
            self._queue = queue.Queue()

    def __enter__(self) -> "EventStream":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- producing ----------------------------------------------------------

    def worker_config(self) -> Optional[StreamConfig]:
        """The picklable config for pool workers (``None`` if in-process only)."""
        if not self.cross_process:
            return None
        return StreamConfig(self._queue, self.heartbeat_s)

    def local_config(self) -> StreamConfig:
        """The config for same-process publishers (serial jobs, batches)."""
        return StreamConfig(self._queue, self.heartbeat_s)

    def emit(self, type: str, tag: str = "", **payload: Any) -> None:
        """Publish a parent-side event onto the stream."""
        try:
            self._queue.put_nowait(make_event(type, tag=tag, **payload))
        except (queue.Full, OSError, ValueError):
            pass

    def sync(self, timeout: float = 5.0) -> bool:
        """Block until every event queued before this call has drained."""
        if self._drain is None or not self._drain.is_alive():
            return False
        token = time.monotonic_ns()
        try:
            self._queue.put(make_event(_MARK, token=token))
        except Exception:  # noqa: BLE001 - queue torn down mid-run
            return False
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                seen = self._marks.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                return False
            if seen == token:
                return True
        return False

    # -- consuming ----------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Run ``subscriber`` on every drained event (drain thread)."""
        return self.buffer.subscribe(subscriber)

    def attach_jsonl(self, path: str) -> None:
        """Mirror every drained event to a JSONL sidecar at ``path``.

        This is the file ``repro obs tail`` follows for already-running
        campaigns; each line is one event, flushed immediately.
        """
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with self._sidecar_lock:
            if self._sidecar is not None:
                self._sidecar.close()
            self._sidecar = open(path, "a", encoding="utf-8")

    def events(self, since: int = 0) -> List[Event]:
        """Retained events with ``seq > since`` (see :class:`EventBuffer`)."""
        return self.buffer.events(since)

    def live_totals(self) -> Dict[str, float]:
        """The folded live metric totals (flat ``name -> value``)."""
        return flatten_snapshot(self.live_metrics.snapshot())

    @property
    def dropped(self) -> float:
        """Total events known dropped across all publishers."""
        return self.live_metrics.counter("obs.events.dropped").value

    # -- the drain thread ---------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            try:
                event = self._queue.get(timeout=0.25)
            except queue.Empty:
                continue
            except (OSError, EOFError, ValueError):
                return  # queue torn down under us: stop draining
            if not isinstance(event, dict):
                continue
            etype = event.get("type")
            if etype == _STOP:
                return
            if etype == _MARK:
                self._marks.put(event.get("token", 0))
                continue
            self._fold(event)
            self.live_metrics.counter("campaign.stream.events").inc()
            self.buffer.append(event)
            self._write_sidecar(event)

    def _write_sidecar(self, event: Event) -> None:
        with self._sidecar_lock:
            if self._sidecar is None:
                return
            try:
                self._sidecar.write(json.dumps(event, sort_keys=True,
                                               default=str) + "\n")
                self._sidecar.flush()
            except (OSError, ValueError):
                self._sidecar = None

    def _fold(self, event: Event) -> None:
        """Incrementally fold one event into the live registry.

        Heartbeats carry *cumulative* job metrics; the fold adds only
        the increment over the last beat seen for that tag, so dropped
        beats self-heal and the live totals converge on the true
        counts without ever double-counting.
        """
        etype = event.get("type")
        tag = str(event.get("tag", ""))
        if etype == "job_heartbeat":
            self._fold_flat(tag, event.get("metrics"))
            self.live_metrics.counter("obs.events.heartbeats").inc()
        elif etype == "job_finished":
            self._fold_flat(tag, event.get("metrics"))
            self._last_flat.pop(tag, None)
        elif etype in ("campaign_started", "campaign_finished"):
            self._last_flat.clear()
        stream = event.get("stream")
        if isinstance(stream, dict):
            self._fold_stream_stats(int(event.get("pid", 0)), stream)

    def _fold_flat(self, tag: str, cumulative: Any) -> None:
        if not isinstance(cumulative, dict):
            return
        last = self._last_flat.get(tag, {})
        for name, value in cumulative.items():
            try:
                increment = float(value) - float(last.get(name, 0.0))
            except (TypeError, ValueError):
                continue
            if increment > 0:
                self.live_metrics.counter(str(name)).inc(increment)
        self._last_flat[tag] = {
            str(k): float(v) for k, v in cumulative.items()
            if isinstance(v, (int, float))
        }

    def _fold_stream_stats(self, pid: int, stats: Dict[str, Any]) -> None:
        published = float(stats.get("published", 0.0))
        dropped = float(stats.get("dropped", 0.0))
        last_pub, last_drop = self._stream_stats.get(pid, (0.0, 0.0))
        if published > last_pub:
            self.live_metrics.counter("obs.events.published").inc(
                published - last_pub
            )
        if dropped > last_drop:
            self.live_metrics.counter("obs.events.dropped").inc(
                dropped - last_drop
            )
        self._stream_stats[pid] = (max(published, last_pub),
                                   max(dropped, last_drop))


def read_events_jsonl(path: str) -> List[Event]:
    """All events of a JSONL sidecar file, skipping malformed lines."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "type" in record:
                events.append(record)
    return events
