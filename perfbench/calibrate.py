"""Host-speed calibration: the benchmark's times in reference seconds.

The benchmark runs on shared hosts whose speed drifts by tens of per
cent over seconds to minutes, so two runs of the same code can differ
more than any regression worth catching.  A fixed calibration kernel,
timed right before and right after every timed interval (a set-up, a
unit), measures that drift: the interval's wall time is scaled by
``REFERENCE_S`` over the mean of its two calibrations, and then reads
as the seconds it would take on a host where the kernel takes
``REFERENCE_S``.  ``run.py`` runs the kernel in its own process, pinned
to the same CPU as the process being timed.

The kernel has two halves, chosen because they followed the program's
slow-downs on a shared VM better than tight loops did: interpreted
Python with a large code footprint (parsing and walking source, JSON,
method calls: the campaign bookkeeping, the static analyzer, the
microarchitecture simulator) and SuperLU back-solves with a factor far
larger than a core's private cache (transient stepping; steady solves
stream their factors the same way).  It uses no code of the program, so
a change to the program moves the scaled times and a change of host
speed does not.
"""

from __future__ import annotations

import ast
import json
import time
from typing import Any, Dict

import numpy as np

#: The kernel's median time on the reference host (a 2-vCPU Intel Xeon
#: VM, Python 3.11, numpy 2.4, scipy 1.17).  Scaled times are in
#: seconds of that host; only their ratios between runs matter.
REFERENCE_S = 0.075

#: Sizes of the two halves, about 35 ms each on that host (the factor
#: holds about 1e6 nonzeros, some 12 MB).
SOURCE_FUNCTIONS, JSON_RECORDS, OBJECTS = 60, 400, 3000
GRID, BACK_SOLVES = 120, 10

SOURCE = "\n".join(
    f"def f{i}(a, b=2, *args, **kw):\n"
    f"    x = [a * k for k in range(b) if k % 3]\n"
    f"    y = {{str(k): (k, a) for k in x}}\n"
    f"    return sorted(y.items(), key=lambda kv: kv[1])[:{i % 7}]\n"
    f"class C{i}:\n"
    f"    z: int = {i}\n"
    f"    def m(self, q):\n"
    f"        return f'{{q!r}}-{{self.z}}' + str(q).upper()\n"
    for i in range(SOURCE_FUNCTIONS))

_state: Dict[str, Any] = {}


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def step(self, k: int) -> int:
        return self.a * k + self.b


def _laplacian(grid: int):
    """A five-point grid Laplacian: SPD and sparse, as the thermal
    conductance matrices are."""
    import scipy.sparse as sparse

    n = grid * grid
    ones = np.ones(n)
    horizontal = ones.copy()
    horizontal[grid - 1::grid] = 0.0  # no coupling across row ends
    matrix = sparse.diags(
        [4.01 * ones, -horizontal[:-1], -horizontal[:-1], -ones[:-grid],
         -ones[:-grid]], [0, 1, -1, grid, -grid])
    return matrix.tocsc()


def kernel() -> float:
    """One pass of the calibration work; returns a checksum."""
    if not _state:
        import scipy.sparse.linalg as splinalg

        _state["factor"] = splinalg.splu(_laplacian(GRID))
    total = float(sum(1 for _ in ast.walk(ast.parse(SOURCE))))
    records = {f"k{i}": {"v": [i, i * 0.5, str(i)], "n": {"x": i}}
               for i in range(JSON_RECORDS)}
    total += len(json.loads(json.dumps(records, sort_keys=True)))
    total += sum(_Cell(i, i + 1).step(3) for i in range(OBJECTS))
    x = np.ones(GRID * GRID)
    for _ in range(BACK_SOLVES):
        x = _state["factor"].solve(x)
    return total + float(x.sum())


def calibrate() -> float:
    """Seconds one kernel pass takes now (the first call also warms up)."""
    if not _state:
        kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds, from the calibrations around it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
