"""Group runners: the solve kinds a campaign job can request.

The unit of work is a *group*: K >= 1 jobs of one kind that share a
model and backend (see :func:`repro.campaign.batching.batch_groups`).
Every kind registers exactly one group runner with :func:`runner`; it
maps the group's :class:`~repro.campaign.spec.JobSpec` list to one
:class:`~repro.campaign.cache.JobResult` per job tag, and a lone job
is simply the K=1 call.  Results must not depend on K: a group's
per-job results are bitwise those of its members run alone, which is
what lets the executor split a failing group into K=1 groups.

Runners execute inside worker processes, so they import the heavy
model/solver modules lazily and return only picklable data — raw
Kelvin temperatures or rises plus enough metadata (block names,
ambient) for the experiment modules to reassemble their figure-level
result objects.  The lockstep runners (``steady_blocks``,
``trace_transient``, ``dtm_policy``) live in
:mod:`repro.campaign.batching`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from ..errors import CampaignError, SolverError
from .cache import JobResult
from .spec import JobSpec

#: A group runner: a job list of one kind (and, when the jobs declare
#: one, one model and backend) to per-tag results.
GroupRunner = Callable[[Sequence[JobSpec]], Dict[str, JobResult]]

RUNNERS: Dict[str, GroupRunner] = {}


def runner(kind: str) -> Callable[[GroupRunner], GroupRunner]:
    """Register the group runner of a job ``kind``."""

    def register(fn: GroupRunner) -> GroupRunner:
        RUNNERS[kind] = fn
        return fn

    return register


def get_runner(kind: str) -> GroupRunner:
    """Look up a group runner; unknown kinds are campaign errors."""
    try:
        return RUNNERS[kind]
    except KeyError:
        raise CampaignError(
            f"unknown job kind {kind!r}; registered: {sorted(RUNNERS)}"
        ) from None


def _block_powers(spec: JobSpec) -> Dict[str, float]:
    """Resolve a job's power source to a per-block power dict.

    ``power="gcc_average"`` (default) uses the cached gcc-like EV6
    trace's time average; ``power="blocks"`` takes an explicit
    ``power_blocks`` mapping (frozen as ``(name, watts)`` pairs).
    """
    source = spec.param("power", "gcc_average")
    if source == "gcc_average":
        from ..experiments.common import gcc_average_power

        return gcc_average_power(int(spec.param("instructions", 500_000)))
    if source == "blocks":
        pairs = spec.param("power_blocks")
        if not pairs:
            raise CampaignError("power='blocks' needs a power_blocks mapping")
        return {str(name): float(watts) for name, watts in pairs}
    raise CampaignError(f"unknown power source {source!r}")


@runner("package_metrics")
def run_package_metrics(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """The design-space figures of merit, one package model per group.

    Per job: steady peak rise and across-die spread under the gcc power
    map, the short-term t63 of a single-block pulse (DTM
    responsiveness), and optionally (``warmup_t_end > 0``) the warm-up
    t63 of the full workload from ambient.  The model is built once
    and shared by the group's jobs.
    """
    from ..analysis.time_constants import rise_time
    from ..solver import steady_state, transient_step_response

    assert specs and specs[0].model is not None
    model = specs[0].model.build()
    plan = model.floorplan
    out: Dict[str, JobResult] = {}
    for spec in specs:
        powers = _block_powers(spec)
        rise = steady_state(model.network, model.node_power(powers))
        block_rise = model.block_rise(rise)

        pulse_block = str(spec.param("pulse_block", "IntReg"))
        pulse = transient_step_response(
            model.network,
            model.node_power({pulse_block: float(spec.param("pulse_power", 3.0))}),
            t_end=float(spec.param("pulse_t_end", 0.4)),
            dt=float(spec.param("pulse_dt", 2e-3)),
            projector=model.block_rise,
        )
        series = pulse.states[:, plan.index_of(pulse_block)]
        scalars = {
            "tmax": float(block_rise.max()),
            "dt": float(block_rise.max() - block_rise.min()),
            "t63": float(rise_time(pulse.times, series)),
        }

        warmup_t_end = float(spec.param("warmup_t_end", 0.0))
        if warmup_t_end > 0:
            warm = transient_step_response(
                model.network, model.node_power(powers),
                t_end=warmup_t_end,
                dt=float(spec.param("warmup_dt", 0.5)),
                projector=model.block_rise,
            )
            try:
                scalars["t63_warm"] = float(
                    rise_time(warm.times, warm.states.mean(axis=1))
                )
            except SolverError:  # the warm-up never crossed 63 %
                scalars["t63_warm"] = float("nan")

        out[spec.tag] = JobResult(
            scalars=scalars,
            arrays={"block_rise_k": block_rise},
            meta={"block_names": list(plan.names),
                  "ambient_k": model.config.ambient},
        )
    return out


def dtm_setup(spec: JobSpec, model: Any) -> Tuple[Any, Any]:
    """Build the (controller, trace) pair a ``dtm_policy`` job describes.

    Called per job by :func:`repro.campaign.batching.batch_dtm_policy`
    after it builds the model once.
    """
    from ..dtm import ClockGating, DTMController, DVFS, FetchThrottle
    from ..power import pulse_train
    from ..sensors import SensorArray, place_at_block

    plan = model.floorplan
    policies = {
        "fetch_throttle": FetchThrottle,
        "dvfs": DVFS,
        "clock_gating": ClockGating,
    }
    name = str(spec.param("policy"))
    if name not in policies:
        raise CampaignError(
            f"unknown DTM policy {name!r}; expected one of {sorted(policies)}"
        )
    strength = float(spec.param("strength"))
    targets = spec.param("targets")
    if name == "dvfs":
        policy = DVFS(strength)
    else:
        policy = policies[name](strength, targets=list(targets) if targets else None)

    base_power = dict(spec.param("base_power") or ())
    trace = pulse_train(
        plan,
        str(spec.param("pulse_block", "Dcache")),
        on_power=float(spec.param("on_power", 14.0)),
        on_time=float(spec.param("on_time", 0.015)),
        off_time=float(spec.param("off_time", 0.035)),
        cycles=int(spec.param("cycles", 6)),
        dt=float(spec.param("trace_dt", 1e-3)),
        base_power={str(k): float(v) for k, v in base_power.items()} or None,
    )
    sensors = SensorArray(
        [place_at_block(plan, str(spec.param("sensor_block", "Dcache")))]
    )
    controller = DTMController(
        model, sensors, policy,
        threshold=model.config.ambient + float(spec.param("threshold_rise", 22.0)),
        engagement_duration=float(spec.param("engagement_duration", 10e-3)),
    )
    return controller, trace


def _claim_attempt(marker_dir: str) -> int:
    """Atomically claim the next attempt number in ``marker_dir``.

    Creating ``attempt-N`` with ``O_EXCL`` is atomic across processes,
    so concurrent retries of one diagnostic job count correctly.
    """
    os.makedirs(marker_dir, exist_ok=True)
    attempt = 0
    while True:
        path = os.path.join(marker_dir, f"attempt-{attempt}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return attempt
        except FileExistsError:
            attempt += 1


@runner("diagnostic")
def run_diagnostic(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """No-solve jobs for exercising the executor and CI smoke runs.

    Per job, in order: ``sleep`` stalls (timeout path); ``fail_times``
    with a ``marker_dir`` makes the first N attempts raise (retry
    path); ``value`` is echoed back so tests can check result plumbing.
    """
    out: Dict[str, JobResult] = {}
    for spec in specs:
        sleep = float(spec.param("sleep", 0.0))
        if sleep > 0:
            time.sleep(sleep)
        fail_times = int(spec.param("fail_times", 0))
        if fail_times > 0:
            marker_dir = spec.param("marker_dir")
            if not marker_dir:
                raise CampaignError("diagnostic fail_times needs a marker_dir")
            attempt = _claim_attempt(str(marker_dir))
            if attempt < fail_times:
                raise CampaignError(
                    f"injected failure (attempt {attempt + 1}/{fail_times})"
                )
        value = float(spec.param("value", 0.0))
        out[spec.tag] = JobResult(
            scalars={"value": value, "pid": float(os.getpid())},
            arrays={"echo": np.array([value])},
            meta={"tag": spec.tag},
        )
    return out
