"""Bench: solver cost scaling with grid resolution, per backend.

Not a paper figure -- the performance baseline for the harness itself.
Times the expensive primitives (model assembly + factorization, steady
solve, a 100-step transient) across grid resolutions, and checks that
the per-solve cost after factorization stays far below the build cost
(the property every sweep in this suite exploits via LU caching).

The backend-scaling bench repeats the measurement per registered
linear-algebra backend and ships the curves in the
``BENCH_solver.json`` artifact.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import TrapezoidalStepper, steady_state

ARTIFACT: dict = {}


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    """Merge the per-backend scaling curves into the solver artifact."""
    yield
    if not ARTIFACT:
        return
    path = os.environ.get("REPRO_BENCH_ARTIFACT", "BENCH_solver.json")
    merged = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                merged = json.load(fh)
        except ValueError:
            merged = {}
    merged["backend_scaling"] = ARTIFACT
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
    print(f"\n  wrote {path}")


def build_and_time(grid: int, backend=None):
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, include_secondary=True,
        ambient=celsius(45.0),
    )
    t0 = time.perf_counter()
    model = ThermalGridModel(plan, config, nx=grid, ny=grid)
    power = model.node_power({"IntReg": 3.0, "Dcache": 8.0})
    steady_state(model.network, power, backend=backend)  # + factorization
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(20):
        steady_state(model.network, power, backend=backend)  # cached factor
    t_solve = (time.perf_counter() - t0) / 20

    stepper = TrapezoidalStepper(model.network, dt=1e-3, backend=backend)
    x = np.zeros(model.n_nodes)
    t0 = time.perf_counter()
    for _ in range(100):
        x = stepper.step(x, power)
    t_transient = time.perf_counter() - t0
    return model.n_nodes, t_build, t_solve, t_transient


@pytest.mark.parametrize("grid", [16, 32, 48])
def test_bench_solver_scaling(benchmark, grid):
    n_nodes, t_build, t_solve, t_transient = benchmark.pedantic(
        build_and_time, args=(grid,), rounds=1, iterations=1
    )
    print(f"\n  grid {grid}x{grid}: {n_nodes} nodes | build+factor "
          f"{1e3 * t_build:.1f} ms | steady resolve "
          f"{1e6 * t_solve:.0f} us | 100 transient steps "
          f"{1e3 * t_transient:.1f} ms")
    # cached steady solves must be much cheaper than the first
    # build+factorization, and everything stays interactive
    assert t_solve < t_build
    assert t_transient < 10.0


BACKEND_GRIDS = [
    ("superlu-serial", 16), ("superlu-serial", 32), ("superlu-serial", 48),
    ("cholesky", 16), ("cholesky", 32), ("cholesky", 48),
]


@pytest.mark.parametrize("backend,grid", BACKEND_GRIDS)
def test_bench_backend_scaling(benchmark, backend, grid):
    """Per-backend cost curves: same primitives, every registered engine."""
    n_nodes, t_build, t_solve, t_transient = benchmark.pedantic(
        build_and_time, args=(grid,), kwargs={"backend": backend},
        rounds=1, iterations=1,
    )
    print(f"\n  [{backend}] grid {grid}x{grid}: {n_nodes} nodes | "
          f"build+factor {1e3 * t_build:.1f} ms | steady resolve "
          f"{1e6 * t_solve:.0f} us | 100 transient steps "
          f"{1e3 * t_transient:.1f} ms")
    ARTIFACT.setdefault(backend, {})[str(grid)] = {
        "n_nodes": n_nodes,
        "build_factor_s": t_build,
        "steady_resolve_s": t_solve,
        "transient_100_steps_s": t_transient,
    }
    assert t_solve < t_build
    assert t_transient < 10.0
