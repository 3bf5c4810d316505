"""Bench: the analytic (Green's-function / FFT) engine vs the direct solve.

The performance contract behind campaign triage
(:mod:`repro.campaign.triage`): on the EV6 grid the warm-path analytic
solve must retire steady cases at least **10x faster** than the warm
(LU-cached) sparse :func:`~repro.solver.steady.steady_state` path,
while staying inside the documented accuracy envelope (DESIGN.md §8).

The sweep measures both engines over a batch of gcc-like power maps at
nx in {8, 16, 32} and writes the per-grid curve into the shared
``BENCH_solver.json`` artifact (``$REPRO_BENCH_ARTIFACT`` or the
working directory) under the ``"analytic"`` key, merging with the
batched-engine numbers rather than clobbering them.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import steady_state
from repro.solver.analytic import AnalyticSteadyEngine, kernel_cache_clear

GRIDS = (8, 16, 32)
N_MAPS = 8  # power maps per repetition (a mini triage screen)

ARTIFACT: dict = {}


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Merge the measured curve into the shared solver artifact."""
    yield
    path = os.environ.get("REPRO_BENCH_ARTIFACT", "BENCH_solver.json")
    merged = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                merged = json.load(fh)
        except ValueError:
            merged = {}
    merged["analytic"] = ARTIFACT
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
    print(f"\n  wrote {path}")


def _best_of(fn, reps=3):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def ev6_model(nx):
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, uniform_h=True,
        target_resistance=0.3, ambient=celsius(45.0),
    )
    return ThermalGridModel(plan, config, nx=nx, ny=nx)


def _power_maps(plan):
    rng = np.random.default_rng(2009)
    return [
        {name: float(p) for name, p in
         zip(plan.names, rng.uniform(0.5, 8.0, len(plan.names)))}
        for _ in range(N_MAPS)
    ]


def test_bench_analytic_vs_direct_steady(benchmark):
    """The triage bargain: >= 10x faster warm solves, few-% accurate."""
    kernel_cache_clear()
    builds = obs.metrics().counter("solver.analytic.kernel_builds")
    hits = obs.metrics().counter("solver.analytic.kernel_cache_hits")
    builds_before, hits_before = builds.value, hits.value

    curve = []
    for nx in GRIDS:
        model = ev6_model(nx)
        engine = AnalyticSteadyEngine(model)
        maps = _power_maps(model.floorplan)
        node_vectors = [model.node_power(bp) for bp in maps]
        cell_vectors = [
            model.mapping.block_power_to_cells(
                model.floorplan.power_vector(bp))
            for bp in maps
        ]

        def direct():
            return [steady_state(model.network, v) for v in node_vectors]

        def analytic():
            return [engine.solve_cells(c).active_rise for c in cell_vectors]

        direct_fields = direct()    # warm the LU cache
        analytic_fields = analytic()  # warm path (kernel already built)

        # accuracy alongside speed: stay inside the documented envelope
        worst_rel = 0.0
        for rise, cells in zip(direct_fields, analytic_fields):
            reference = model.silicon_cell_rise(rise)
            err = float(np.abs(cells - reference).max())
            worst_rel = max(worst_rel, err / float(reference.max()))
        assert worst_rel < 0.05

        t_direct, _ = _best_of(direct)
        if nx == GRIDS[-1]:
            benchmark.pedantic(analytic, rounds=1, iterations=1)
        t_analytic, _ = _best_of(analytic)
        curve.append({
            "nx": nx,
            "n_nodes": model.n_nodes,
            "n_maps": N_MAPS,
            "direct_ms": 1e3 * t_direct,
            "analytic_ms": 1e3 * t_analytic,
            "speedup": t_direct / t_analytic,
            "worst_rel_err": worst_rel,
        })
        print(f"\n  nx={nx}: direct {1e3 * t_direct:.2f} ms | analytic "
              f"{1e3 * t_analytic:.2f} ms | speedup "
              f"{t_direct / t_analytic:.1f}x | worst rel err "
              f"{100 * worst_rel:.2f}%")

    # one kernel build per grid size, and the warm path reused them
    assert builds.value - builds_before == len(GRIDS)
    assert hits.value - hits_before >= 0

    ARTIFACT["grids"] = curve
    ev6 = curve[-1]
    ARTIFACT["ev6_speedup"] = ev6["speedup"]
    # the gate: the EV6 triage grid must clear 10x over the warm LU path
    assert ev6["speedup"] >= 10.0, ev6


def test_bench_kernel_build_amortizes(benchmark):
    """Cold kernel build + N solves still beats N direct solves early."""
    kernel_cache_clear()
    model = ev6_model(32)
    maps = _power_maps(model.floorplan)
    node_vectors = [model.node_power(bp) for bp in maps]
    steady_state(model.network, node_vectors[0])  # warm the LU cache

    t0 = time.perf_counter()
    engine = AnalyticSteadyEngine(model)  # cold: builds the kernel
    build_s = time.perf_counter() - t0

    cells = model.mapping.block_power_to_cells(
        model.floorplan.power_vector(maps[0]))
    t_solve, _ = _best_of(lambda: engine.solve_cells(cells))
    t_direct, _ = _best_of(
        lambda: steady_state(model.network, node_vectors[0]))

    # solves amortize the build within a handful of triage screens
    breakeven = build_s / max(t_direct - t_solve, 1e-12)
    ARTIFACT["kernel_build_s"] = build_s
    ARTIFACT["solve_s"] = t_solve
    ARTIFACT["direct_s"] = t_direct
    ARTIFACT["breakeven_solves"] = breakeven
    print(f"\n  kernel build {1e3 * build_s:.1f} ms | solve "
          f"{1e3 * t_solve:.2f} ms | direct {1e3 * t_direct:.2f} ms | "
          f"break-even after {breakeven:.1f} solves")
    assert breakeven < 100
