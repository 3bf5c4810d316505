"""Same-model job groups: how a campaign's jobs become work items.

The executor's unit of work is a group of K >= 1 jobs sharing
``(kind, model, backend)``.  Most sweeps — a DTM policy comparison on
one package, a seed ensemble of trace runs, steady power maps on one
package — repeat the *same* model under different inputs, which is
exactly the shape :mod:`repro.solver.batched` integrates in lockstep
(and a steady solve serves from one cached factor) for the cost of
roughly one job.

* :func:`batch_groups` partitions pending jobs into the groups of two
  or more — :class:`~repro.campaign.spec.ModelSpec` is a frozen
  dataclass, so value equality is exactly "same network" — and the
  jobs left over, each of which the executor runs as a K=1 group.
* The lockstep group runners of the ``steady_blocks``,
  ``trace_transient`` and ``dtm_policy`` kinds live here, registered
  with :func:`repro.campaign.runners.runner` like every other kind.
  A group's results are bitwise those of its members run as K=1
  groups; when a group cannot run together after all (e.g. mismatched
  trace grids), the runner raises and the executor reruns the members
  one by one — grouping is a fast path, never a semantic change.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CampaignError
from .cache import JobResult
from .runners import _block_powers, dtm_setup, runner
from .spec import JobSpec


def batch_groups(
    pending: Sequence[JobSpec],
) -> Tuple[List[List[JobSpec]], List[JobSpec]]:
    """Partition pending jobs into same-model groups and leftovers.

    A group is two or more jobs sharing ``(kind, model, backend)``
    where the model is declared (the network — and the linear-algebra
    engine that factorizes it — is what the group shares).  Leftovers
    — singleton groups and model-less jobs — keep their original
    order.
    """
    groups: Dict[Tuple[str, object, object], List[JobSpec]] = {}
    order: List[JobSpec] = []
    for spec in pending:
        if spec.model is not None:
            groups.setdefault(
                (spec.kind, spec.model, spec.backend), []
            ).append(spec)
        else:
            order.append(spec)
    batched: List[List[JobSpec]] = []
    for members in groups.values():
        if len(members) >= 2:
            batched.append(members)
        else:
            order.extend(members)
    return batched, order


@runner("steady_blocks")
def batch_steady_blocks(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """All steady solves of one model on a single factorization.

    Builds the model once and solves each job's power map on it; the
    network's factor cache serves every job after the first, so K jobs
    cost one assembly and one factorization.  Each solve is the one a
    lone job makes, so results are bitwise those of K=1 groups.
    """
    from ..solver import steady_block_temperatures

    assert specs and specs[0].model is not None
    model = specs[0].model.build()
    names = list(model.floorplan.names)
    out: Dict[str, JobResult] = {}
    for spec in specs:
        temps = steady_block_temperatures(model, _block_powers(spec))
        block_temps = np.array([temps[name] for name in names])
        out[spec.tag] = JobResult(
            scalars={"t_max_k": float(block_temps.max()),
                     "t_min_k": float(block_temps.min())},
            arrays={"block_temps_k": block_temps},
            meta={"block_names": list(names),
                  "ambient_k": model.config.ambient},
        )
    return out


@runner("trace_transient")
def batch_trace_transient(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """All trace runs of one model as a single lockstep integration.

    Builds the model once, synthesizes each job's trace, and integrates
    the schedules through
    :func:`~repro.solver.batched.batched_simulate_schedules`.

    Parameters: ``duration``, ``instructions``, ``seed``,
    ``mean_dwell`` (trace synthesis), ``thermal_stride`` (power-sample
    binning), ``init`` (``"steady"`` starts from the average-power
    steady state, anything else from ambient).  Jobs whose traces land
    on different boundary grids (different ``duration``/
    ``thermal_stride``) make the solver raise, which the executor
    answers by re-running the group per job.
    """
    from ..experiments.common import gcc_synthesized_trace
    from ..solver import batched_simulate_schedules, steady_state

    assert specs and specs[0].model is not None
    model = specs[0].model.build()
    schedules = []
    x0s = []
    dts: List[float] = []
    for spec in specs:
        trace = gcc_synthesized_trace(
            float(spec.param("duration", 0.040)),
            int(spec.param("instructions", 500_000)),
            int(spec.param("seed", 0)),
            float(spec.param("mean_dwell", 0.005)),
        )
        stride = int(spec.param("thermal_stride", 1))
        if stride > 1:
            trace = trace.resampled(stride)
        schedules.append(trace.to_schedule(model))
        dts.append(trace.dt)
        x0 = None
        if spec.param("init", "steady") == "steady":
            x0 = steady_state(
                model.network, model.node_power(trace.average())
            )
        x0s.append(x0)
    # exact step identity required for lockstep; near-equal is a mismatch
    if any(dt != dts[0] for dt in dts):
        raise CampaignError(
            "trace_transient group mixes thermal step sizes; cannot batch"
        )
    result = batched_simulate_schedules(
        model.network, schedules, dt=dts[0], x0s=x0s,
        projector=model.block_rise, tags=[spec.tag for spec in specs],
    )
    meta = {"block_names": list(model.floorplan.names),
            "ambient_k": model.config.ambient}
    out: Dict[str, JobResult] = {}
    for k, spec in enumerate(specs):
        column = result.scenario(k)
        out[spec.tag] = JobResult(
            arrays={"times": column.times.copy(),
                    "block_rise_k": column.states},
            meta=dict(meta),
        )
    return out


@runner("dtm_policy")
def batch_dtm_policy(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """All DTM policies of one package as a single lockstep run.

    One model, one factorization, K controllers advancing together
    through :func:`~repro.dtm.controller.run_dtm_batch`; each job's
    controller and pulse-train stimulus comes from
    :func:`~repro.campaign.runners.dtm_setup`: a pulse train on
    ``pulse_block`` (the Fig. 8-style stimulus of the DTM bench) and a
    policy selected by name with one ``strength`` knob and optional
    ``targets``.
    """
    from ..dtm.controller import run_dtm_batch

    assert specs and specs[0].model is not None
    model = specs[0].model.build()
    pairs = [dtm_setup(spec, model) for spec in specs]
    runs = run_dtm_batch(
        [controller for controller, _ in pairs],
        [trace for _, trace in pairs],
    )
    return {
        spec.tag: JobResult(
            scalars={
                "peak_temperature_k": run.peak_temperature,
                "performance": run.performance,
                "engaged_fraction": run.engaged_fraction,
                "n_engagements": float(run.n_engagements),
            },
            meta={"ambient_k": model.config.ambient},
        )
        for spec, run in zip(specs, runs)
    }
