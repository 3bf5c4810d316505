"""A plain reference loop as the oracle for the one transient integrator.

Every fixed-step transient entry point (``transient_simulate``,
``simulate_schedule``, ``DTMController.run``) runs as a K=1 column of
the batched core, so the batch can no longer be checked against a
separate serial loop.  This module keeps a minimal loop built only on
the 1-D ``_ImplicitStepper.step`` and asserts, with ``np.array_equal``,
that every entry point and every column of a K=3 batch reproduces it.
"""

import numpy as np
import pytest

from repro.floorplan import uniform_grid_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import (
    BatchScenario,
    PiecewiseConstantSchedule,
    batched_simulate_schedules,
    batched_transient_simulate,
    simulate_schedule,
    transient_simulate,
)
from repro.solver.transient import plan_fixed_steps, stepper_class

METHODS = ("trapezoidal", "backward_euler")


def reference_fixed_grid(network, power_at, t_end, dt, method, x0):
    """Full ``dt`` steps, then one exact partial step onto ``t_end``."""
    cls = stepper_class(method)
    n_full, dt_final = plan_fixed_steps(t_end, dt)
    stepper = cls(network, dt)
    x = np.array(x0, dtype=float)
    times, states = [0.0], [x.copy()]
    p_now = power_at(0.0)
    for i in range(1, n_full + 1):
        p_next = power_at(i * dt)
        x = stepper.step(x, p_now, p_next)
        p_now = p_next
        times.append(i * dt)
        states.append(x.copy())
    if dt_final is not None:
        x = cls(network, dt_final).step(x, p_now, power_at(t_end))
        times.append(t_end)
        states.append(x.copy())
    return np.array(times), np.vstack(states)


def reference_schedule_walk(network, schedule, dt, method, x0):
    """``dt`` steps through each segment, a short step onto its end."""
    cls = stepper_class(method)
    stepper, short = cls(network, dt), {}
    x = np.array(x0, dtype=float)
    times, states = [0.0], [x.copy()]
    now = 0.0
    for power, seg_end in zip(schedule.powers, schedule.boundaries[1:]):
        while now < seg_end - 1e-12:
            remaining = seg_end - now
            if remaining >= dt - 1e-12:
                x, now = stepper.step(x, power), now + dt
            else:
                key = round(remaining, 15)  # short steppers are shared
                if key not in short:
                    short[key] = cls(network, remaining)
                x, now = short[key].step(x, power), seg_end
            times.append(now)
            states.append(x.copy())
    return np.array(times), np.vstack(states)


@pytest.fixture(scope="module")
def model():
    plan = uniform_grid_floorplan(16e-3, 16e-3, nx=3, ny=3)
    config = oil_silicon_package(16e-3, 16e-3, uniform_h=True,
                                 include_secondary=False, ambient=318.15)
    return ThermalGridModel(plan, config, nx=6, ny=6)


def assert_matches(result, reference):
    times, states = reference
    assert np.array_equal(result.times, times)
    assert np.array_equal(result.states, states)


@pytest.mark.parametrize("method", METHODS)
def test_fixed_grid_entry_points_match_reference(model, method):
    net = model.network
    rng = np.random.default_rng(21)
    bases = [rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(3)]
    x0s = [rng.uniform(0.0, 3.0, net.n_nodes) for _ in range(3)]
    powers = [
        (lambda t, b=b, w=w: b * (1.0 + 0.5 * np.sin(w * t)))
        for b, w in zip(bases, (5.0, 11.0, 17.0))
    ]
    t_end, dt = 0.205, 0.01  # 20 full steps plus an exact 5 ms step
    references = [
        reference_fixed_grid(net, p, t_end, dt, method, x0)
        for p, x0 in zip(powers, x0s)
    ]
    for p, x0, reference in zip(powers, x0s, references):
        assert_matches(
            transient_simulate(net, p, t_end, dt, x0=x0, method=method),
            reference,
        )
    batch = batched_transient_simulate(
        net, [BatchScenario(power=p, x0=x0) for p, x0 in zip(powers, x0s)],
        t_end, dt, method=method,
    )
    for k, reference in enumerate(references):
        assert_matches(batch.scenario(k), reference)


@pytest.mark.parametrize("method", METHODS)
def test_schedule_walk_entry_points_match_reference(model, method):
    net = model.network
    rng = np.random.default_rng(22)
    boundaries = (0.0, 0.1, 0.25, 0.4)
    schedules = [
        PiecewiseConstantSchedule(
            boundaries,
            tuple(rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(3)),
        )
        for _ in range(3)
    ]
    x0s = [rng.uniform(0.0, 3.0, net.n_nodes) for _ in range(3)]
    dt = 0.007  # divides no segment: a short step ends every one
    references = [
        reference_schedule_walk(net, s, dt, method, x0)
        for s, x0 in zip(schedules, x0s)
    ]
    for schedule, x0, reference in zip(schedules, x0s, references):
        assert_matches(
            simulate_schedule(net, schedule, dt, x0=x0, method=method),
            reference,
        )
    batch = batched_simulate_schedules(net, schedules, dt, x0s=x0s,
                                       method=method)
    for k, reference in enumerate(references):
        assert_matches(batch.scenario(k), reference)


def test_dtm_runs_match_reference():
    from repro.campaign import ModelSpec
    from repro.campaign.runners import dtm_setup
    from repro.campaign.spec import JobSpec
    from repro.dtm.controller import run_dtm_batch

    ev6 = ModelSpec(chip="ev6", package="oil", nx=8, ny=8,
                    uniform_h=True, target_resistance=1.0,
                    include_secondary=False, ambient_c=45.0).build()
    pairs = [
        dtm_setup(JobSpec.make("dtm_policy", tag=policy, model=None,
                               policy=policy, strength=strength, cycles=3,
                               base_power={"Dcache": 4.0}), ev6)
        for policy, strength in (("fetch_throttle", 0.3), ("dvfs", 0.7),
                                 ("clock_gating", 0.15))
    ]
    batch = run_dtm_batch([c for c, _ in pairs], [t for _, t in pairs])
    for (controller, trace), batched in zip(pairs, batch):
        run = controller.run(trace)
        assert run.n_engagements > 0  # the throttled path is exercised
        # the controller's own engagement decisions drive the reference
        # power: segment i is sample i, scaled while engaged
        scale = controller.policy.power_scale_vector(ev6.floorplan)
        segments = tuple(
            ev6.node_power(sample * (scale if engaged else 1.0))
            for sample, engaged in zip(trace.samples, run.engaged)
        )
        schedule = PiecewiseConstantSchedule(
            tuple(i * trace.dt for i in range(len(segments) + 1)), segments
        )
        _, states = reference_schedule_walk(
            ev6.network, schedule, trace.dt, "trapezoidal",
            np.zeros(ev6.n_nodes),
        )
        block_temps = np.vstack(
            [ev6.block_rise(x) for x in states[1:]]
        ) + ev6.config.ambient
        assert np.array_equal(run.block_temps, block_temps)
        assert np.array_equal(batched.block_temps, block_temps)
        assert np.array_equal(batched.engaged, run.engaged)
