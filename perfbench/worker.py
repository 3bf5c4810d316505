"""One workload in one fresh process: set-up, then timed units.

Started by ``run.py`` (never by hand) in one of three phases:

* ``setup``: set up, print the ready marker, exit (a set-up sample);
* ``reference``: a set-up sample that then computes the reference
  outputs on the reference backend and saves them to ``--reference``;
* ``run``: set up, print the ready marker, run units in a closed loop
  (one caller, one unit at a time) for ``--seconds``, check each
  unit's outputs, and print one JSON record as the last stdout line.

With ``--trace 1`` units alternate untraced and traced, so the tracing
overhead is measured on neighbouring units.  Right after the ready
marker (the end of its set-up) and right before and after every unit,
the worker has ``run.py`` time the calibration kernel, so each time can
be stated in reference seconds (see :mod:`calibrate`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SRC, WORKLOADS, load_outputs, save_outputs  # noqa: E402

sys.path.insert(0, SRC)

READY = "PERFBENCH-READY"
UNITS_START = "PERFBENCH-UNITS-START"
CALIBRATE = "PERFBENCH-CALIBRATE"


def calibrate() -> float:
    """Have ``run.py`` time the calibration kernel; waits for it."""
    print(CALIBRATE, flush=True)
    return float(sys.stdin.readline())


def provenance() -> Dict[str, Any]:
    import numpy
    import scipy

    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        from repro.solver.backends import get_backend

        info["solver_backend"] = get_backend().name
    except (ImportError, AttributeError):
        info["solver_backend"] = None
    return info


def run_units(workload: Any, reference: Any, seconds: float,
              trace: bool) -> Dict[str, Any]:
    from layers import LayerTracer

    tracer = LayerTracer() if trace else None
    records: List[Dict[str, Any]] = []
    sys.stderr.write(UNITS_START + "\n")
    sys.stderr.flush()
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        ctx = workload.prepare()
        gc.collect()  # no unit pays for the garbage of the one before
        outputs, work, error = {}, 0.0, None
        before = calibrate()
        start = time.perf_counter()
        try:
            if traced:
                outputs, work, wall = workload.run_traced(ctx, tracer)
            else:
                outputs, work = workload.run(ctx)
                wall = time.perf_counter() - start
        except Exception as exc:  # a failed unit is recorded, not fatal
            wall = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
        after = calibrate()
        if error is None:
            error = workload.check(outputs, reference)
        workload.finish(ctx)
        records.append({"wall_s": wall, "calibration_s": [before, after],
                        "traced": traced, "work": work, "error": error})
        enough = len(records) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            break
    result: Dict[str, Any] = {
        "units": records,
        "peak_rss_mb": workload.peak_rss_mb(),
        "describe": workload.describe(),
        "provenance": provenance(),
    }
    if tracer is not None:
        from repro.obs.export import write_chrome_trace

        trace_path = os.path.join(workload.work_dir, "trace.json")
        write_chrome_trace(tracer.roots, trace_path)
        layers = tracer.to_json()
        del layers["roots"]
        result["layers"] = layers
        result["trace_file"] = trace_path
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "reference", "run"),
                        required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.work_dir)
    workload.setup()
    print(READY, flush=True)
    calibrate()  # the end of the set-up sample
    if args.phase == "reference":
        save_outputs(args.reference, workload.compute_reference())
    if args.phase != "run":
        return 0
    reference = load_outputs(args.reference) if args.reference else {}
    result = run_units(workload, reference, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
