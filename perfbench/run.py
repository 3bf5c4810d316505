"""The repository benchmark: one command, every workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the repository root.  For each workload it pins the
environment (BLAS/OpenMP threads, solver-backend selection, disk cache),
takes set-up samples in fresh processes (the first also computes the
reference outputs on the reference backend, unless the default seed's
are stored), then runs the units in one more fresh process and checks
every output.  The end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) of BENCHMARK.json are printed, by name and with
units, as one JSON object on the last line of stdout.  Times in the
end-to-end metrics are in reference seconds: each set-up and each unit
is scaled by the calibration kernel timed right before and after it
(see ``calibrate.py``), so host-speed drift cancels; the wall-clock
values are printed beside them.  Every process runs on one CPU.  The
exit code is 1 when any unit failed, 2 when the benchmark itself could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up is repeated in this many fresh processes per run (the last is
#: the process that then runs the units); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Every thread pool the numeric stack may start is pinned to this size
#: (one caller, one unit at a time; at most nproc).
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: A workload's processes are killed this long after it starts (the
#: whole command must end within 180 s).
DEADLINE_S = 170.0

for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = THREADS

sys.path.insert(0, HERE)
from calibrate import calibrate, scaled  # noqa: E402
from layers import LAYERS, import_seconds, layer_metrics  # noqa: E402
from worker import CALIBRATE, READY, UNITS_START  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, src_digest  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a unit failing)."""


def pinned_env(work_dir: str) -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    ``REPRO_SOLVER_BACKEND`` is removed so units always run the
    program's default engine (computed references name their backend
    explicitly); ``REPRO_CACHE_DIR`` points inside the run's work
    directory and each unit re-points it at its own empty directory.
    """
    env = dict(os.environ)
    env.pop("REPRO_SOLVER_BACKEND", None)
    env.update({var: THREADS for var in THREAD_VARS})
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "REPRO_DISK_CACHE": "1",
        "REPRO_CACHE_DIR": os.path.join(work_dir, "cache"),
        "TMPDIR": tmp,
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
    })
    return env


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Worker:
    """One worker process; stdout is read line by line, stderr to a file.

    The worker asks for every calibration on stdout and waits for the
    answer on stdin, so the kernel runs here, in one warm process whose
    memory is not the worker's, while the worker is idle.
    """

    def __init__(self, argv: List[str], env: Dict[str, str],
                 err_path: str, deadline: float) -> None:
        self.err_path = err_path
        self._err = open(err_path, "wb")
        #: the calibrations served, the first taken before the start
        self.calibrations = [calibrate()]
        self.start = time.perf_counter()
        # a session of its own, so a kill also reaches unit processes
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err,
                                     start_new_session=True)
        self.lines: List[str] = []
        self.timed_out = False
        self._watchdog = threading.Timer(
            max(1.0, deadline - time.perf_counter()), self._expire)
        self._watchdog.start()

    def _expire(self) -> None:
        self.timed_out = True
        self._kill_group()

    def _serve(self, until_ready: bool) -> Optional[float]:
        """Read stdout, answering calibration requests; at the ready
        marker (with ``until_ready``) returns the seconds since start."""
        assert self.proc.stdout is not None and self.proc.stdin is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            if line == CALIBRATE:
                self.calibrations.append(calibrate())
                answer = f"{self.calibrations[-1]!r}\n".encode()
                try:
                    self.proc.stdin.write(answer)
                    self.proc.stdin.flush()
                except BrokenPipeError:
                    pass  # the worker died; finish() reports its exit
            elif line == READY and until_ready:
                return time.perf_counter() - self.start
            else:
                self.lines.append(line)
        return None

    def wait_ready(self) -> float:
        """Seconds from process start to the ready marker."""
        ready_s = self._serve(until_ready=True)
        if ready_s is None:
            self.finish()  # raises the reason
            raise BenchError(f"worker ended before set-up finished\n"
                             f"{self.stderr_tail()}")
        return ready_s

    def finish(self) -> List[str]:
        """Wait for exit; returns the remaining stdout lines."""
        self._serve(until_ready=False)
        self.proc.wait()
        self._watchdog.cancel()
        self._err.close()
        if self.timed_out:
            raise BenchError("worker timed out")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}\n"
                             f"{self.stderr_tail()}")
        return self.lines

    def setup_calibration(self) -> List[float]:
        """The calibrations around the set-up: [the one before the
        process started, the one it asks for right after its ready
        marker].  Call after :meth:`finish`."""
        return self.calibrations[:2]

    def _kill_group(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)

    def kill(self) -> None:
        self._watchdog.cancel()
        self._kill_group()
        self.proc.communicate()
        self._err.close()

    def stderr_tail(self, n: int = 20) -> str:
        if not self._err.closed:
            self._err.flush()
        with open(self.err_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-n:])


def start_worker(name: str, seed: int, phase: str, work_dir: str,
                 tag: str, deadline: float, flags: List[str] = (),
                 python_flags: List[str] = ()) -> Worker:
    """Start ``worker.py`` in one phase, in its own sub-directory."""
    sub_dir = os.path.join(work_dir, tag)
    os.makedirs(sub_dir, exist_ok=True)
    argv = ([sys.executable, *python_flags, os.path.join(HERE, "worker.py"),
             "--workload", name, "--seed", str(seed), "--work-dir", sub_dir,
             "--phase", phase, *flags])
    return Worker(argv, pinned_env(work_dir),
                  os.path.join(work_dir, f"{tag}.err"), deadline)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, reference: Optional[str]) -> Dict[str, Any]:
    """Run one workload; returns the worker record plus set-up samples."""
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    smoke_flag = ["--smoke"] if smoke else []

    def start(phase: str, tag: str, flags: List[str] = (),
              python_flags: List[str] = ()) -> Worker:
        return start_worker(name, seed, phase, work_dir, tag, deadline,
                            smoke_flag + list(flags), python_flags)

    workers: List[Worker] = []
    try:
        workload = WORKLOADS[name](seed, smoke, work_dir)
        phases = ["setup"] * (1 if smoke else SETUP_SAMPLES - 1)
        if reference is None:
            reference = workload.stored_reference()
        if reference is None and workload.seeded:
            # the first set-up sample computes it after its ready marker
            reference = os.path.join(work_dir, "reference.npz")
            phases[0] = "reference"
        ref_flags = ["--reference", reference] if reference else []
        setup_s: List[float] = []
        setup_calibration: List[List[float]] = []
        for i, phase in enumerate(phases):
            workers.append(start(phase, f"setup{i}",
                                 ref_flags if phase == "reference" else []))
            setup_s.append(workers[-1].wait_ready())
            workers[-1].finish()
            setup_calibration.append(workers[-1].setup_calibration())
        main = start("run", "run",
                     ref_flags + ["--seconds", str(seconds),
                                  "--trace", "1" if trace else "0"],
                     ["-X", "importtime"] if trace else [])
        workers.append(main)
        setup_s.append(main.wait_ready())
        lines = main.finish()
        setup_calibration.append(main.setup_calibration())
        record = json.loads(lines[-1])
        record["setup_samples_s"] = setup_s
        record["setup_calibration_s"] = setup_calibration
        if trace:
            with open(main.err_path, encoding="utf-8", errors="replace") as handle:
                err = handle.read().split(UNITS_START, 1)[0].splitlines()
            record["setup_import_s"] = import_seconds(err)
            trace_dir = os.path.join(OUT_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            kept = os.path.join(trace_dir, f"{name}-seed{seed}.json")
            shutil.copyfile(record["trace_file"], kept)
            record["trace_file"] = os.path.relpath(kept, ROOT)
        return record
    finally:
        for worker in workers:
            worker.kill()
        shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end(record: Dict[str, Any],
               wall_clock: bool = False) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics in reference seconds (or wall-clock ones)."""
    units = [u for u in record["units"] if not u["traced"]]
    times = [u["wall_s"] if wall_clock else
             scaled(u["wall_s"], *u["calibration_s"]) for u in units]
    setup = [s if wall_clock else scaled(s, *c) for s, c in
             zip(record["setup_samples_s"], record["setup_calibration_s"])]
    work = sum(u["work"] for u in units if u["error"] is None)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "unit_s.p50": (statistics.median(times), "s"),
        "work_per_s": (work / sum(times), "work/s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def per_layer(record: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    metrics = layer_metrics(record["layers"])
    untraced = [u["wall_s"] for u in record["units"] if not u["traced"]]
    traced = [u["wall_s"] for u in record["units"] if u["traced"]]
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    # the traced process's own set-up, which the import-time log covers
    metrics["import.setup_share"] = (
        record["setup_import_s"] / record["setup_samples_s"][-1], "share")
    return metrics


def layer_table(name: str, metrics: Dict[str, Tuple[float, str]],
                record: Dict[str, Any]) -> str:
    rows = [f"per-layer ({name}, {record['layers']['units']} traced units; "
            f"per unit):",
            f"  {'layer':<28} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        rows.append(
            f"  {layer:<28} {metrics[layer + '.calls'][0]:>9.1f} "
            f"{metrics[layer + '.self_s'][0]:>10.4f} "
            f"{metrics[layer + '.share'][0]:>7.1%}")
    rows.append(f"  {'(unaccounted)':<28} {'':>9} {'':>10} "
                f"{metrics['unaccounted.share'][0]:>7.1%}")
    largest = max(LAYERS, key=lambda layer: metrics[layer + ".share"][0])
    rows.append(f"  largest layer: {largest} "
                f"({metrics[largest + '.share'][0]:.1%} of unit wall)")
    rows.append(f"  setup imports: {record['setup_import_s']:.3f} s")
    for key, (value, unit) in metrics.items():
        if not key.endswith((".calls", ".self_s")) and (
                key.split(".share")[0] not in LAYERS):
            rows.append(f"  {key:<40} {value:>14.6g} {unit}")
    if record["layers"]["missing"]:
        rows.append("  not found (layer not traced): "
                    + ", ".join(record["layers"]["missing"]))
    return "\n".join(rows)


def names_of(workload: str) -> List[str]:
    return list(WORKLOADS) if workload == "all" else [workload]


def write_reference(name: str) -> None:
    """Store the default-seed reference of one workload with the benchmark."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-ref-", dir=OUT_DIR)
    path = WORKLOADS[name](DEFAULT_SEED, False, work_dir).stored_reference()
    try:
        start_worker(name, DEFAULT_SEED, "reference", work_dir, "reference",
                     time.perf_counter() + DEADLINE_S,
                     ["--reference", path]).finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs and two set-up samples")
    parser.add_argument("--reference",
                        help="check units against this reference file")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute the stored default-seed references "
                             "(on the reference backend) and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so each
    # calibration runs on the core whose speed it stands for
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.write_reference:
        for name in names_of(args.workload):
            if WORKLOADS[name](DEFAULT_SEED, False, "").stored_reference():
                write_reference(name)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        wanted = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    names = names_of(args.workload)
    sha, digest = git_sha(), src_digest()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke, args.reference)
        except BenchError as exc:
            print(f"{name}: benchmark failed: {exc}", file=sys.stderr)
            return 2
        failed = [u for u in record["units"] if u["error"] is not None]
        for unit in failed[:5]:
            print(f"{name}: FAILED unit: {unit['error']}", file=sys.stderr)
        measured = per_layer(record) if args.trace else end_to_end(record)
        metrics = {}
        for entry in wanted:
            value, unit = measured[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": unit}
        n_untraced = sum(1 for u in record["units"] if not u["traced"])
        run_info = {"workload": name, "seed": args.seed, "trace": args.trace,
                    "git_sha": sha, "src_sha256": digest,
                    **record["provenance"], "inputs": record["describe"]}
        print(json.dumps(run_info))
        with open(os.path.join(OUT_DIR, "runs.jsonl"), "a",
                  encoding="utf-8") as log:
            log.write(json.dumps({**run_info, "metrics": metrics,
                                  "units": record["units"]}) + "\n")
        print(f"{name}: attempted {len(record['units'])}, failed {len(failed)}; "
              f"set-up samples {[round(s, 3) for s in record['setup_samples_s']]}")
        if args.trace:
            print(layer_table(name, measured, record))
            print(f"  trace file: {record['trace_file']}")
        else:
            wall = end_to_end(record, wall_clock=True)
            for key, (value, unit) in measured.items():
                note = f" (n={n_untraced})" if key == "unit_s.p50" else ""
                if key != "peak_rss_mb":
                    note += f"; wall-clock {wall[key][0]:.6g} {unit}"
                print(f"  {key} = {value:.6g} {unit}{note}")
        summary["attempted"] += len(record["units"])
        summary["failed"] += len(failed)
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in metrics.items():
            summary["metrics"][prefix + key] = value
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
