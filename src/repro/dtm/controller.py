"""Closed-loop DTM simulation over the thermal model.

The controller walks a power trace through the transient solver.  At
every sensor sampling instant it reads the hottest sensor; readings at
or above the trigger threshold engage the policy for a fixed
engagement duration (re-triggering extends the engagement).  While
engaged, block powers are scaled by the policy and performance
accumulates at the policy's reduced rate.

This is the machinery behind the paper's Section 5.1: for the same
workload and threshold, the package with the slower transient response
(OIL-SILICON) stays hot longer after a trigger and therefore needs
longer engagement durations, costing more performance.

A DTM policy sweep runs the *same* package model under several
policies, so :func:`run_dtm_batch` advances K controllers as one
``(n_nodes, K)`` state matrix through one shared
:class:`~repro.solver.transient.TrapezoidalStepper`.  Only the linear
solve is shared: each controller keeps its own engagement state,
sensor sampling and performance accounting, and each column is bitwise
identical to running that controller alone.  :meth:`DTMController.run`
is the K=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, List, Optional, Sequence

import numpy as np

from .. import units
from ..errors import ConfigurationError
from ..power.trace import PowerTrace
from ..rcmodel.grid import ThermalGridModel
from ..sensors.sensor import SensorArray
from ..solver.transient import TrapezoidalStepper
from .policies import DTMPolicy


@dataclass
class DTMRun:
    """Results of one closed-loop DTM simulation.

    Temperatures are absolute Kelvin.  ``engaged`` flags each sample
    interval; ``performance`` is the fraction of nominal work completed
    over the run (1.0 = no DTM penalty).
    """

    times: np.ndarray
    sensor_max: np.ndarray
    true_max: np.ndarray
    block_temps: np.ndarray
    engaged: np.ndarray
    performance: float
    n_engagements: int

    @property
    def engaged_fraction(self) -> float:
        """Fraction of intervals spent with DTM engaged."""
        return float(np.mean(self.engaged))

    @property
    def peak_temperature(self) -> float:
        """Hottest true die temperature over the run, K."""
        return float(self.true_max.max())


class DTMController:
    """Sensor-driven DTM over a thermal model.

    Parameters
    ----------
    model:
        The thermal model of the die in its package.
    sensors:
        The on-die sensor array the controller can actually see.
    policy:
        The response engaged on a trigger.
    threshold:
        Trigger temperature, Kelvin (absolute).
    engagement_duration:
        How long each trigger engages the policy, seconds.
    sampling_interval:
        Sensor sampling period, seconds; must be a multiple of the
        power trace's dt (the controller acts between trace samples).
    """

    def __init__(
        self,
        model: ThermalGridModel,
        sensors: SensorArray,
        policy: DTMPolicy,
        threshold: float,
        engagement_duration: float,
        sampling_interval: Optional[float] = None,
    ) -> None:
        if threshold <= model.config.ambient:
            raise ConfigurationError("threshold must exceed ambient")
        if engagement_duration <= 0:
            raise ConfigurationError("engagement_duration must be positive")
        self.model = model
        self.sensors = sensors
        self.policy = policy
        self.threshold = float(threshold)
        self.engagement_duration = float(engagement_duration)
        self.sampling_interval = sampling_interval

    def run(
        self, trace: PowerTrace, x0: Optional[np.ndarray] = None
    ) -> DTMRun:
        """Simulate the trace under closed-loop DTM (a K=1 :func:`run_dtm_batch`)."""
        return run_dtm_batch([self], [trace], [x0])[0]


def run_dtm_batch(
    controllers: Sequence[DTMController],
    traces: Sequence[PowerTrace],
    x0s: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Annotated[List[DTMRun], units.hot_path()]:
    """Run K (controller, trace) pairs in lockstep on one shared model.

    Declared a :func:`repro.units.hot_path` root for the
    blocking-in-hot-path rule (R14): the lockstep stepping loop is the
    tightest per-sample path in the codebase, so nothing reachable
    from here may sleep, flock, or block on a queue.

    All controllers must reference the *same* model instance (one
    network, one factorization) and all traces must share one time
    grid (same ``dt``, same sample count) so the columns step
    together.  Violations raise :class:`ConfigurationError`; campaign
    callers treat that as "fall back to per-job execution".
    """
    if not controllers:
        raise ConfigurationError("need at least one controller")
    if len(traces) != len(controllers):
        raise ConfigurationError(
            f"{len(controllers)} controllers but {len(traces)} traces"
        )
    model = controllers[0].model
    for k, controller in enumerate(controllers[1:], start=1):
        if controller.model is not model:
            raise ConfigurationError(
                f"controller {k} uses a different model instance; "
                "batched DTM requires one shared model"
            )
    dt = traces[0].dt
    n_samples = traces[0].n_samples
    for k, trace in enumerate(traces):
        trace.check_floorplan(model.floorplan)
        # exact grid identity is required for lockstep stepping
        if trace.dt != dt or trace.n_samples != n_samples:
            raise ConfigurationError(
                f"trace {k} has a different time grid "
                f"(dt={trace.dt:g}, n={trace.n_samples}); batched DTM "
                f"requires dt={dt:g}, n={n_samples}"
            )

    n_scenarios = len(controllers)
    stepper = TrapezoidalStepper(model.network, dt)
    scales = [
        c.policy.power_scale_vector(model.floorplan) for c in controllers
    ]
    strides = [
        max(1, int(round((c.sampling_interval or dt) / dt)))
        for c in controllers
    ]
    ambient = model.config.ambient

    x = np.zeros((model.n_nodes, n_scenarios))
    if x0s is not None:
        if len(x0s) != n_scenarios:
            raise ConfigurationError(
                f"{len(x0s)} initial states for {n_scenarios} controllers"
            )
        for k, x0 in enumerate(x0s):
            if x0 is not None:
                x[:, k] = np.asarray(x0, float)

    engaged_until = [-np.inf] * n_scenarios
    n_engagements = [0] * n_scenarios
    work = [0.0] * n_scenarios

    times = np.empty(n_samples)
    sensor_max = [np.empty(n_samples) for _ in range(n_scenarios)]
    true_max = [np.empty(n_samples) for _ in range(n_scenarios)]
    engaged_flags = [
        np.zeros(n_samples, dtype=bool) for _ in range(n_scenarios)
    ]
    block_temps = [
        np.empty((n_samples, len(model.floorplan)))
        for _ in range(n_scenarios)
    ]

    power = np.empty((model.n_nodes, n_scenarios))
    for i in range(n_samples):
        now = i * dt
        engaged_now = [now < engaged_until[k] for k in range(n_scenarios)]
        for k, controller in enumerate(controllers):
            block_power = traces[k].samples[i] * (
                scales[k] if engaged_now[k] else 1.0
            )
            power[:, k] = model.node_power(block_power)
            work[k] += (
                controller.policy.performance_factor if engaged_now[k]
                else 1.0
            ) * dt
        x = stepper.step(x, power)
        times[i] = now + dt
        for k, controller in enumerate(controllers):
            column = np.ascontiguousarray(x[:, k])
            silicon_field = model.silicon_cell_rise(column) + ambient
            true_max[k][i] = silicon_field.max()
            block_temps[k][i] = model.block_rise(column) + ambient
            engaged_flags[k][i] = engaged_now[k]
            if i % strides[k] == 0:
                reading = controller.sensors.max_reading(
                    silicon_field, model.mapping
                )
                sensor_max[k][i] = reading
                if reading >= controller.threshold:
                    if not engaged_now[k]:
                        n_engagements[k] += 1
                    engaged_until[k] = (
                        now + dt + controller.engagement_duration
                    )
            else:
                sensor_max[k][i] = sensor_max[k][i - 1] if i else np.nan

    return [
        DTMRun(
            times=times.copy(),
            sensor_max=sensor_max[k],
            true_max=true_max[k],
            block_temps=block_temps[k],
            engaged=engaged_flags[k],
            performance=work[k] / traces[k].duration,
            n_engagements=n_engagements[k],
        )
        for k in range(n_scenarios)
    ]
