"""Bench: batched lockstep engine vs K serial integrations.

Not a paper figure -- the performance contract for
:mod:`repro.solver.batched`.  Runs the same K=8 scenario set through
K serial :func:`transient_simulate` calls and through one batched
lockstep integration on the EV6 grid, then checks the two halves of
the batched engine's bargain:

* **fidelity** -- every batched trajectory is bitwise identical to its
  serial twin (the engine per-column-solves each scenario in the exact
  serial operation order; see DESIGN.md for why SuperLU's blocked
  multi-RHS kernel cannot be used under this contract), and
* **amortization** -- the batched run retires the same trajectories
  with >= 3x fewer matrix factorizations and >= 3x fewer Python
  stepping-loop iterations (both exactly K-fold fewer, asserted on the
  deterministic ``repro.obs`` counters rather than the wall clock),
  and is measurably faster end to end.

Wall-clock speedups are recorded, not gated at 3x: with bitwise
fidelity the per-scenario triangular solves cannot be amortized, and
the solve is more than a third of total cost at every honest
configuration, so the wall-clock gate is a conservative floor and the
measured ratio ships in the ``BENCH_solver.json`` artifact
(``$REPRO_BENCH_ARTIFACT`` or the working directory).
"""

import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec, ModelSpec
from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import (
    BatchScenario,
    batched_transient_simulate,
    get_backend,
    available_backends,
    steady_state,
    transient_simulate,
)

K = 8  # scenarios per batch; the amortization asserts divide by this

ARTIFACT: dict = {"bench": "batched", "k_scenarios": K}


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Persist the measured numbers after the module's benches ran."""
    yield
    path = os.environ.get("REPRO_BENCH_ARTIFACT", "BENCH_solver.json")
    merged = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                merged = json.load(fh)
        except ValueError:
            merged = {}
    merged.update(ARTIFACT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
    print(f"\n  wrote {path}")


def _best_of(fn, reps=3):
    """Best wall time over ``reps`` runs plus the last return value."""
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _counters(*names):
    return {name: obs.metrics().counter(name).value for name in names}


def _deltas(after, before):
    return {name: after[name] - before[name] for name in after}


def ev6_model(nx=8):
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, uniform_h=True,
        target_resistance=0.3, ambient=celsius(45.0),
    )
    return ThermalGridModel(plan, config, nx=nx, ny=nx)


def test_bench_batched_vs_serial_transient(benchmark):
    """K=8 power maps on the EV6 grid: one batch vs eight serial runs."""
    model = ev6_model(nx=8)
    rng = np.random.default_rng(2009)
    powers = [
        model.node_power({
            "IntReg": rng.uniform(1.0, 4.0), "Dcache": rng.uniform(4.0, 10.0),
            "FPAdd": rng.uniform(0.5, 3.0), "Icache": rng.uniform(2.0, 6.0),
        })
        for _ in range(K)
    ]
    t_end, dt = 0.02, 1e-4

    names = ("solver.transient.matrix_builds", "solver.transient.steps")

    def serial():
        return [
            transient_simulate(model.network, p, t_end=t_end, dt=dt)
            for p in powers
        ]

    def batched():
        return batched_transient_simulate(
            model.network, [BatchScenario(power=p) for p in powers],
            t_end=t_end, dt=dt,
        )

    before = _counters(*names)
    serial_results = serial()
    serial_cost = _deltas(_counters(*names), before)

    before = _counters(*names)
    batch_result = benchmark.pedantic(batched, rounds=1, iterations=1)
    batch_cost = _deltas(_counters(*names), before)

    # fidelity: every column is its serial twin, bit for bit
    for k, serial_run in enumerate(serial_results):
        column = batch_result.scenario(k)
        assert np.array_equal(serial_run.times, column.times)
        assert np.array_equal(serial_run.states, column.states)

    # amortization: the batch retires the same K trajectories with
    # K-fold fewer factorizations and stepping-loop iterations -- the
    # deterministic >= 3x contract the wall clock then reflects
    for name in names:
        assert serial_cost[name] >= 3 * batch_cost[name], (
            f"{name}: serial {serial_cost[name]} vs batched {batch_cost[name]}"
        )
    assert batch_cost["solver.transient.matrix_builds"] == 1
    assert serial_cost["solver.transient.matrix_builds"] == K

    t_serial, _ = _best_of(serial)
    t_batch, _ = _best_of(batched)
    speedup = t_serial / t_batch
    n_steps = round(t_end / dt)
    ARTIFACT["solver"] = {
        "n_nodes": model.n_nodes,
        "n_steps": n_steps,
        "serial_s": t_serial,
        "batched_s": t_batch,
        "speedup": speedup,
        "steps_per_sec_serial": K * n_steps / t_serial,
        "steps_per_sec_batched": K * n_steps / t_batch,
        "factorizations_serial": serial_cost["solver.transient.matrix_builds"],
        "factorizations_batched": batch_cost["solver.transient.matrix_builds"],
        "factor_cache_hits": serial_cost["solver.transient.matrix_builds"]
        - batch_cost["solver.transient.matrix_builds"],
    }
    print(f"\n  solver: serial {1e3 * t_serial:.0f} ms | batched "
          f"{1e3 * t_batch:.0f} ms | speedup {speedup:.2f}x | "
          f"factorizations {K} -> 1")
    # conservative wall-clock floor; the honest ratio is in the artifact
    assert speedup > 1.1


def test_bench_backend_matrix(benchmark):
    """Every registered backend through steady + transient on one grid.

    The equivalence contract is asserted inline -- bitwise backends
    must reproduce the default engine exactly, tolerance backends
    within their documented ``rtol`` envelope -- and the measured wall
    times per backend ship in the artifact.
    """
    model = ev6_model(nx=8)
    power = model.node_power({
        "IntReg": 3.0, "Dcache": 8.0, "FPAdd": 1.5, "Icache": 4.0,
    })
    t_end, dt = 0.01, 1e-4

    def run(name):
        rise = steady_state(model.network, power, backend=name)
        tr = transient_simulate(
            model.network, power, t_end=t_end, dt=dt, backend=name,
        )
        return rise, tr

    ref_rise, ref_run = benchmark.pedantic(
        lambda: run("superlu-serial"), rounds=1, iterations=1
    )
    table = {}
    for name in available_backends():
        backend = get_backend(name)
        t_wall, out = _best_of(lambda: run(name), reps=2)
        rise, tr = out
        if backend.bitwise:
            assert np.array_equal(rise, ref_rise)
            assert np.array_equal(tr.states, ref_run.states)
        else:
            np.testing.assert_allclose(
                rise, ref_rise, rtol=100 * backend.rtol, atol=1e-9
            )
            np.testing.assert_allclose(
                tr.states, ref_run.states,
                rtol=100 * backend.rtol, atol=1e-9,
            )
        table[name] = {
            "wall_s": t_wall,
            "bitwise": backend.bitwise,
            "rtol": backend.rtol,
        }
        print(f"\n  backend {name}: {1e3 * t_wall:.1f} ms | "
              f"{'bitwise' if backend.bitwise else f'rtol {backend.rtol:g}'}")
    ARTIFACT["backends"] = table


def test_bench_campaign_batched_trace_ensemble(benchmark):
    """A K=8 seed ensemble through the campaign engine, both paths."""
    model = ModelSpec(chip="ev6", package="oil", nx=8, ny=8, uniform_h=True,
                      target_resistance=0.3, ambient_c=45.0)
    campaign = CampaignSpec(name="bench-batch", jobs=tuple(
        JobSpec.make("trace_transient", tag=f"seed{s}", model=model,
                     duration=0.004, instructions=30_000, seed=s,
                     thermal_stride=10, init="steady")
        for s in range(K)
    ))

    def serial():
        return run_campaign(campaign, jobs=1, cache=None, batch=False)

    def batched():
        return run_campaign(campaign, jobs=1, cache=None, batch=True)

    before = obs.metrics().counter("campaign.jobs.batched").value
    batch_run = benchmark.pedantic(batched, rounds=1, iterations=1)
    grouped = obs.metrics().counter("campaign.jobs.batched").value - before
    assert grouped == K  # the whole ensemble rode one in-process batch

    serial_run = serial()
    for s in range(K):
        tag = f"seed{s}"
        for key in ("times", "block_rise_k"):
            assert np.array_equal(serial_run.result_for(tag).arrays[key],
                                  batch_run.result_for(tag).arrays[key])

    t_serial, _ = _best_of(serial, reps=2)
    t_batch, _ = _best_of(batched, reps=2)
    speedup = t_serial / t_batch
    ARTIFACT["campaign"] = {
        "serial_s": t_serial,
        "batched_s": t_batch,
        "speedup": speedup,
        "jobs_batched": grouped,
    }
    print(f"\n  campaign: serial {1e3 * t_serial:.0f} ms | batched "
          f"{1e3 * t_batch:.0f} ms | speedup {speedup:.2f}x")
    assert speedup > 1.1


def test_bench_campaign_batched_steady_sweep(benchmark):
    """One EV6 model under 4 power maps: one factorization, not four.

    The steady batch runner builds the model once and serves every job
    from the network's cached factor; the amortization is asserted on
    the deterministic factorization counter, the fidelity bit for bit.
    """
    n_maps = 4
    model = ModelSpec(chip="ev6", package="oil", nx=8, ny=8, uniform_h=True,
                      target_resistance=0.3, ambient_c=45.0)
    rng = np.random.default_rng(2009)
    names = ("IntReg", "Dcache", "FPAdd", "Icache")
    campaign = CampaignSpec(name="bench-steady-batch", jobs=tuple(
        JobSpec.make("steady_blocks", tag=f"map{k}", model=model,
                     power="blocks", power_blocks=tuple(
                         (name, float(rng.uniform(0.5, 8.0)))
                         for name in names))
        for k in range(n_maps)
    ))
    counter = "solver.steady.factorizations"

    def run(batch):
        before = _counters(counter)
        out = run_campaign(campaign, jobs=1, cache=None, batch=batch)
        return out, _deltas(_counters(counter), before)[counter]

    batch_run, batch_factors = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1
    )
    serial_run, serial_factors = run(False)
    assert all(o.worker == "batched" for o in batch_run.outcomes)
    assert (batch_factors, serial_factors) == (1, n_maps)
    for k in range(n_maps):
        assert np.array_equal(
            serial_run.result_for(f"map{k}").arrays["block_temps_k"],
            batch_run.result_for(f"map{k}").arrays["block_temps_k"],
        )

    t_serial, _ = _best_of(lambda: run(False), reps=2)
    t_batch, _ = _best_of(lambda: run(True), reps=2)
    ARTIFACT["steady_campaign"] = {
        "serial_s": t_serial,
        "batched_s": t_batch,
        "speedup": t_serial / t_batch,
        "factorizations_serial": serial_factors,
        "factorizations_batched": batch_factors,
    }
    print(f"\n  steady campaign: serial {1e3 * t_serial:.0f} ms | batched "
          f"{1e3 * t_batch:.0f} ms | factorizations {n_maps} -> 1")
