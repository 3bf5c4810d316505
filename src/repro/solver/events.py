"""Piecewise-constant power schedules for transient experiments.

The paper's transient workloads are piecewise constant: a 6 s step on
one block (Fig. 6), a 15 ms-on / 85 ms-off pulse train (Fig. 8), a
power hand-off between IntReg and FPMap at 10 ms (Fig. 9), and the
10 kcycle-sampled simulator traces of Fig. 12.  This module provides a
schedule container plus :func:`simulate_schedule`, which steps through
the segments with a single reused factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PowerTraceError
from ..rcmodel.network import ThermalNetwork
from .transient import TransientResult


@dataclass(frozen=True)
class PiecewiseConstantSchedule:
    """A node-power schedule: power vector i applies on [t_i, t_{i+1}).

    ``boundaries`` has one more entry than ``powers`` and must start at
    0.  After the last boundary the final power persists.
    """

    boundaries: Tuple[float, ...]
    powers: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.powers) + 1:
            raise PowerTraceError(
                "need len(boundaries) == len(powers) + 1 "
                f"(got {len(self.boundaries)} and {len(self.powers)})"
            )
        if abs(self.boundaries[0]) > 1e-15:
            raise PowerTraceError("schedule must start at t = 0")
        diffs = np.diff(self.boundaries)
        if np.any(diffs <= 0):
            raise PowerTraceError("boundaries must be strictly increasing")

    @classmethod
    def from_segments(
        cls, segments: Sequence[Tuple[float, np.ndarray]]
    ) -> "PiecewiseConstantSchedule":
        """Build from (duration, power_vector) pairs."""
        if not segments:
            raise PowerTraceError("schedule needs at least one segment")
        boundaries = [0.0]
        powers: List[np.ndarray] = []
        for duration, power in segments:
            if duration <= 0:
                raise PowerTraceError("segment durations must be positive")
            boundaries.append(boundaries[-1] + float(duration))
            powers.append(np.asarray(power, dtype=float))
        return cls(tuple(boundaries), tuple(powers))

    @property
    def t_end(self) -> float:
        """End of the defined schedule, seconds."""
        return self.boundaries[-1]

    def power_at(self, time: float) -> np.ndarray:
        """Power vector in effect at ``time``."""
        index = int(np.searchsorted(self.boundaries, time, side="right")) - 1
        index = min(max(index, 0), len(self.powers) - 1)
        return self.powers[index]

    def repeated(self, cycles: int) -> "PiecewiseConstantSchedule":
        """The schedule repeated ``cycles`` times back to back."""
        if cycles < 1:
            raise PowerTraceError("cycles must be >= 1")
        period = self.t_end
        boundaries = [0.0]
        powers: List[np.ndarray] = []
        for cycle in range(cycles):
            offset = cycle * period
            for i, power in enumerate(self.powers):
                boundaries.append(offset + self.boundaries[i + 1])
                powers.append(power)
        return PiecewiseConstantSchedule(tuple(boundaries), tuple(powers))

    def time_average(self) -> np.ndarray:
        """Duration-weighted average power vector over the schedule.

        The paper uses exactly this to pick the initial condition for
        the Fig. 8 oscillation study: solve the steady state under the
        average power of the periodic trace.
        """
        durations = np.diff(self.boundaries)
        stacked = np.vstack(self.powers)
        return (durations[:, None] * stacked).sum(axis=0) / durations.sum()


def simulate_schedule(
    network: ThermalNetwork,
    schedule: PiecewiseConstantSchedule,
    dt: float,
    x0: Optional[np.ndarray] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    backend: Optional[str] = None,
) -> TransientResult:
    """Integrate through a piecewise-constant schedule.

    Each segment is stepped with the shared factorized stepper; segment
    boundaries are always hit exactly (the last step of a segment is
    shortened if needed by inserting a dedicated small-step stepper, but
    in practice experiments choose ``dt`` dividing segment lengths).
    Runs as the single column of
    :func:`~repro.solver.batched.batched_simulate_schedules`.
    """
    from .batched import batched_simulate_schedules

    return batched_simulate_schedules(
        network, [schedule], dt, x0s=[x0], method=method,
        record_every=record_every, projector=projector, backend=backend,
    ).scenario(0)
