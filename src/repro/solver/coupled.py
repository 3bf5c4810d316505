"""Temperature-power coupled solves (leakage feedback).

Leakage power grows (roughly exponentially) with temperature, so the
power map depends on the temperature map it produces.  The paper's
Conclusions flag exactly this coupling as what complicates translating
IR-bench measurements to the real package.  This module closes the
loop:

* :func:`steady_state_with_leakage` -- fixed-point iteration
  ``T -> P_leak(T) -> T`` with convergence and thermal-runaway
  detection;
* :func:`transient_with_leakage` -- transient stepping where each
  step's power is re-evaluated at the previous step's temperatures
  (first-order lag, adequate for thermal time scales).

Both accept any model exposing the common interface
(``ThermalGridModel`` or ``ThermalBlockModel``) and any callable
``leakage(block_temps_K) -> block_watts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..errors import SolverError
from .steady import steady_state
from .transient import TransientResult, TrapezoidalStepper, plan_fixed_steps

if TYPE_CHECKING:
    from ..rcmodel.blockmodel import ThermalBlockModel
    from ..rcmodel.grid import ThermalGridModel

#: Either thermal model flavor (they share the solve-facing interface).
ThermalModel = Union["ThermalBlockModel", "ThermalGridModel"]

#: Per-block power: a vector in floorplan order or a name -> Watts map.
BlockPower = Union[np.ndarray, Dict[str, float], Sequence[float]]

LeakageFunction = Callable[[np.ndarray], np.ndarray]


@dataclass
class CoupledSteadyResult:
    """Converged coupled steady state."""

    rise: np.ndarray             # node temperature rises
    block_temps: np.ndarray      # absolute block temperatures (K)
    leakage: np.ndarray          # converged per-block leakage (W)
    iterations: int
    converged: bool

    @property
    def total_leakage(self) -> float:
        """Total leakage power at the converged temperatures, W."""
        return float(self.leakage.sum())


def steady_state_with_leakage(
    model: ThermalModel,
    dynamic_power: BlockPower,
    leakage: LeakageFunction,
    tolerance: float = 1e-3,
    max_iterations: int = 100,
    runaway_temperature: float = 500.0,
) -> CoupledSteadyResult:
    """Fixed-point coupled steady solve.

    Parameters
    ----------
    model:
        A thermal model (grid or block flavor).
    dynamic_power:
        Per-block dynamic power, vector or name->W dict.
    leakage:
        Callable mapping absolute block temperatures (K) to per-block
        leakage power (W).
    tolerance:
        Convergence threshold on the max block-temperature change per
        iteration, K.
    max_iterations:
        Iteration cap; exceeding it returns ``converged=False``.
    runaway_temperature:
        Raise :class:`SolverError` if any block exceeds this (K) --
        the leakage-thermal runaway the positive feedback can produce.
    """
    if isinstance(dynamic_power, dict):
        dynamic_power = model.floorplan.power_vector(dynamic_power)
    dynamic_power = np.asarray(dynamic_power, dtype=float)
    ambient = model.config.ambient
    block_temps = np.full(len(model.floorplan), ambient)
    rise = np.zeros(model.n_nodes)
    leak = np.zeros_like(dynamic_power)
    for iteration in range(1, max_iterations + 1):
        leak = np.asarray(leakage(block_temps), dtype=float)
        if leak.shape != dynamic_power.shape or np.any(leak < 0):
            raise SolverError("leakage() must return non-negative W per block")
        rise = steady_state(
            model.network, model.node_power(dynamic_power + leak)
        )
        new_temps = model.block_rise(rise) + ambient
        if np.any(new_temps > runaway_temperature):
            raise SolverError(
                f"thermal runaway: block temperature exceeded "
                f"{runaway_temperature} K at iteration {iteration}"
            )
        change = float(np.max(np.abs(new_temps - block_temps)))
        block_temps = new_temps
        if change < tolerance:
            return CoupledSteadyResult(
                rise=rise, block_temps=block_temps, leakage=leak,
                iterations=iteration, converged=True,
            )
    return CoupledSteadyResult(
        rise=rise, block_temps=block_temps, leakage=leak,
        iterations=max_iterations, converged=False,
    )


def transient_with_leakage(
    model: ThermalModel,
    dynamic_power_at: Callable[[float], np.ndarray],
    leakage: LeakageFunction,
    t_end: float,
    dt: float,
    x0: Optional[np.ndarray] = None,
    record_every: int = 1,
) -> TransientResult:
    """Transient solve with leakage re-evaluated each step.

    ``dynamic_power_at(t)`` returns the per-block dynamic power; the
    leakage added on top uses the block temperatures from the previous
    step (one-step lag).  Records per-block absolute temperatures.
    When ``dt`` does not divide ``t_end`` the run ends with one exact
    partial step, so the last record is at ``t_end``.
    """
    n_full, dt_final = plan_fixed_steps(t_end, dt)
    stepper = TrapezoidalStepper(model.network, dt)
    ambient = model.config.ambient
    x = np.zeros(model.n_nodes) if x0 is None else np.asarray(x0, float).copy()
    block_temps = model.block_rise(x) + ambient

    def node_power(t: float) -> np.ndarray:
        dynamic = np.asarray(dynamic_power_at(t), dtype=float)
        leak = np.asarray(leakage(block_temps), dtype=float)
        return model.node_power(dynamic + leak)

    # the exact final partial step lands the run on t_end when dt does
    # not divide it, as in transient_simulate
    steps = [(step * dt, stepper) for step in range(1, n_full + 1)]
    if dt_final is not None:
        steps.append((t_end, TrapezoidalStepper(model.network, dt_final)))
    times = [0.0]
    records = [block_temps.copy()]
    p_now = node_power(0.0)
    for step, (t, step_with) in enumerate(steps, start=1):
        p_next = node_power(t)
        x = step_with.step(x, p_now, p_next)
        p_now = p_next
        block_temps = model.block_rise(x) + ambient
        if step % record_every == 0 or step == len(steps):
            times.append(t)
            records.append(block_temps.copy())
    return TransientResult(
        times=np.asarray(times), states=np.vstack(records)
    )
