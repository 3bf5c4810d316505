"""Base-vs-head performance gate on the repository benchmark.

    python benchmarks/perf_gate.py BASE HEAD --workload W [...] [--pairs N] [--seconds S]

BASE and HEAD are two checkouts, e.g. the merge base in a ``git
worktree`` and the commit under test.  Per workload, each tree's own
``perfbench/run.py --workload W --seconds S`` runs N times on this
machine, in pairs that alternate which tree goes first; its timing,
calibration and output checks are used as they are, and the summary it
prints on its last line is read.  Exit 1 when, for any end-to-end metric
of HEAD's ``BENCHMARK.json``, the median head/base ratio is worse than
the metric's ``bound`` in its ``better`` direction, or when HEAD has
more failed units than BASE; a metric BASE does not report is skipped
and said so.  Exit 2 when a benchmark could not run.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

Summary = Dict[str, Any]


class GateError(RuntimeError):
    """One side's benchmark could not run; no verdict is possible."""


def run_bench(tree: str, workload: str, seconds: float) -> Summary:
    """One ``run.py`` run in ``tree``; its last stdout line, parsed."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    # run.py exits 1 when a unit failed and still prints its summary
    if proc.returncode not in (0, 1):
        raise GateError(f"{tree}: {workload} exited {proc.returncode}")
    try:
        summary = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        summary = None
    if not isinstance(summary, dict) or not {"metrics", "failed"} <= summary.keys():
        raise GateError(f"{tree}: {workload} printed no summary line")
    return summary


def _ratio(head: float, base: float) -> float:
    return head / base if base else (1.0 if head == 0 else float("inf"))


def compare(workload: str, end_to_end: List[Dict[str, Any]],
            base: List[Summary], head: List[Summary]) -> Tuple[List[str], List[str]]:
    """``(regressions, report lines)`` for one workload's paired runs."""
    regressions: List[str] = []
    lines: List[str] = []
    for entry in end_to_end:
        name = entry["name"]
        if any(name not in run["metrics"] for run in base):  # an older base
            lines.append(f"{workload} {name}: skipped, not reported by base")
            continue
        ratio = statistics.median(
            _ratio(h["metrics"][name]["value"], b["metrics"][name]["value"])
            for b, h in zip(base, head))
        worse = ratio - 1.0 if entry["better"] == "lower" else 1.0 - ratio
        lines.append(f"{workload} {name}: median head/base {ratio:.3f} "
                     f"({entry['better']} is better, bound {entry['bound']:g}) "
                     f"{'REGRESSION' if worse > entry['bound'] else 'ok'}")
        if worse > entry["bound"]:
            regressions.append(lines[-1])
    failed = [sum(run["failed"] for run in runs) for runs in (base, head)]
    lines.append(f"{workload} failed units: base {failed[0]}, head {failed[1]}")
    if failed[1] > failed[0]:
        regressions.append(lines[-1])
    return regressions, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("head", help="checkout of the commit under test")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    with open(os.path.join(args.head, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    regressions: List[str] = []
    try:
        for workload in args.workload:
            runs: Dict[str, List[Summary]] = {"base": [], "head": []}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_bench(getattr(args, side), workload,
                                                args.seconds))
                print(f"{workload}: pair {pair + 1}/{args.pairs} done "
                      f"({order[0]} first)", flush=True)
            found, lines = compare(workload, end_to_end, runs["base"], runs["head"])
            print("\n".join(lines), flush=True)
            regressions += found
    except GateError as exc:
        print(f"perf gate: benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for line in regressions:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"perf gate: {'FAIL' if regressions else 'pass'} "
          f"({len(regressions)} regression(s))")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
