"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
runs one unit per :meth:`Workload.run` call (the only timed code), and
checks the unit's outputs against a reference.  Units call the program
through its public API (``repro.campaign.run_campaign``,
``repro.analysis.static.analyze_paths``) or its CLI (``python -m repro
reproduce``); the program only ever sees the generated inputs.

Module attributes of the program are looked up at call time
(``campaign.run_campaign(...)``, not a ``from`` import) so the layer
wrappers of :mod:`layers` see every call.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

#: The seed whose references are stored with the benchmark; any other
#: seed computes its reference in set-up.
DEFAULT_SEED = 1

#: Outputs must agree with the reference to this share of the
#: reference's largest temperature rise.  The tolerance backends of
#: DESIGN.md §5.5 promise rtol <= 1e-9, so 1e-6 leaves a thousandfold
#: margin (room for a refined mixed-precision engine); a wrong
#: conductance or a dropped coupling moves block rises by 1e-3 or more.
RTOL = 1e-6

#: The backend every computed reference uses (bitwise reference engine).
REFERENCE_BACKEND = "superlu-serial"

Outputs = Dict[str, np.ndarray]


def campaign_results(campaigns: Any, cache_dir: Optional[str],
                     batch: bool = True) -> List[Tuple[str, str, Any]]:
    """Run campaigns in-process as the CLI does: (campaign, tag, result).

    With a ``cache_dir`` the run reads and writes that result cache and
    appends a manifest under it; a job without a result raises.
    """
    from repro import campaign

    results = []
    for spec in campaigns:
        cache = campaign.ResultCache(cache_dir) if cache_dir else None
        manifest = (os.path.join(cache_dir, "manifests", f"{spec.name}.jsonl")
                    if cache_dir else None)
        run = campaign.run_campaign(spec, jobs=1, cache=cache,
                                    manifest_path=manifest, batch=batch)
        for outcome in run.outcomes:
            if outcome.result is None:
                raise RuntimeError(f"job {outcome.spec.tag} {outcome.status}: "
                                   f"{outcome.error}")
            results.append((spec.name, outcome.spec.tag, outcome.result))
    return results


def compare(outputs: Outputs, reference: Outputs) -> Optional[str]:
    """Why ``outputs`` disagree with ``reference``, or ``None``."""
    if sorted(outputs) != sorted(reference):
        missing = sorted(set(reference) - set(outputs))
        extra = sorted(set(outputs) - set(reference))
        return f"output keys differ: missing {missing[:3]}, extra {extra[:3]}"
    for key in sorted(reference):
        got, want = np.asarray(outputs[key]), np.asarray(reference[key])
        if got.shape != want.shape:
            return f"{key}: shape {got.shape} != reference {want.shape}"
        if want.dtype.kind in "US":
            if not np.array_equal(got, want):
                return f"{key}: differs from reference"
            continue
        if not np.all(np.isfinite(got)):
            return f"{key}: non-finite values"
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        err = float(np.max(np.abs(got - want))) if want.size else 0.0
        if err > RTOL * scale + 1e-12:
            return f"{key}: max deviation {err:.3e} > {RTOL:g} x {scale:.3e}"
    return None


def save_outputs(path: str, outputs: Outputs) -> None:
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **outputs)


def load_outputs(path: str) -> Outputs:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


class Workload:
    """One workload: seeded inputs, a timed unit, an output check."""

    name = ""
    #: whether ``--seed`` changes the inputs
    seeded = True
    #: the modules set-up imports (the ``import`` layer of ``setup_s``)
    modules: Tuple[str, ...] = ()
    #: a cache directory set-up fills; every unit starts from a copy
    seed_cache: Optional[str] = None

    def __init__(self, seed: int, smoke: bool, work_dir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir

    def setup(self) -> None:
        """Import the program and build every input the units need."""
        import importlib

        for module in self.modules:
            importlib.import_module(module)

    def stored_reference(self) -> Optional[str]:
        """Path of the reference stored with the benchmark, if it applies."""
        if self.smoke or (self.seeded and self.seed != DEFAULT_SEED):
            return None
        return os.path.join(REFERENCE_DIR, f"{self.name}.npz")

    def compute_reference(self) -> Outputs:
        raise NotImplementedError

    def prepare(self) -> Any:
        """Untimed per-unit preparation; returns the unit's directory.

        Every unit gets its own ``REPRO_CACHE_DIR``: empty, or a copy of
        the cache set-up filled.
        """
        units = os.path.join(self.work_dir, "units")
        os.makedirs(units, exist_ok=True)
        unit = tempfile.mkdtemp(prefix="unit-", dir=units)
        cache_dir = os.path.join(unit, "cache")
        if self.seed_cache is not None:
            shutil.copytree(self.seed_cache, cache_dir)
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        return unit

    def run(self, ctx: Any) -> Tuple[Outputs, float]:
        """The timed unit: returns (outputs, work done)."""
        raise NotImplementedError

    def run_traced(self, ctx: Any, tracer: Any) -> Tuple[Outputs, float, float]:
        """A traced unit: returns (outputs, work, wall seconds)."""
        tracer.install()
        try:
            (outputs, work), wall = tracer.unit(lambda: self.run(ctx))
        finally:
            tracer.uninstall()
        return outputs, work, wall

    def finish(self, ctx: Any) -> None:
        shutil.rmtree(ctx, ignore_errors=True)

    def check(self, outputs: Outputs, reference: Outputs) -> Optional[str]:
        return compare(outputs, reference)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the units.

        Read as ``VmHWM``: ``ru_maxrss`` would also count the memory of
        ``run.py`` at the moment it started this process.
        """
        import resource

        try:
            with open("/proc/self/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def describe(self) -> Dict[str, Any]:
        return {}


# -- steady-sweep -------------------------------------------------------------


class SteadySweep(Workload):
    """A steady EV6 package sweep: the factorization-bound workload.

    One unit is one in-process ``run_campaign`` of 36 ``steady_blocks``
    jobs with a fresh result cache in which a seeded quarter of the
    jobs is already stored, writing a manifest as the CLI does.  The 18
    models are EV6 under oil (4 flow directions x 3 and 10 m/s x two
    grids) and under air (two convection resistances); each is solved
    with 2 seeded block-power maps, so a cross-job factor reuse would
    show.  Work is jobs completed.
    """

    name = "steady-sweep"
    modules = ("repro.campaign", "repro.solver", "repro.rcmodel",
               "repro.floorplan", "repro.package")
    DIRECTIONS = ("left_to_right", "right_to_left", "bottom_to_top",
                  "top_to_bottom")
    VELOCITIES = (3.0, 10.0)
    AIR_RESISTANCES = (0.5, 1.0)
    TOTAL_POWER_W = 40.0

    def grids(self) -> Tuple[Tuple[int, ...], int]:
        """(oil grids, air grid)."""
        return ((8, 12), 8) if self.smoke else ((16, 24), 16)

    def setup(self) -> None:
        super().setup()
        from repro.campaign import CampaignSpec, JobSpec, ModelSpec
        from repro.floorplan import ev6_floorplan

        rng = np.random.default_rng(self.seed)
        plan = ev6_floorplan()
        areas = np.array([block.area for block in plan.blocks])
        maps = []
        for _ in range(2):
            weights = rng.uniform(0.25, 1.0, len(areas)) * areas
            watts = self.TOTAL_POWER_W * weights / weights.sum()
            maps.append({n: float(w) for n, w in zip(plan.names, watts)})
        oil_grids, air_grid = self.grids()
        models: List[Tuple[str, Any]] = []
        for direction in self.DIRECTIONS:
            for velocity in self.VELOCITIES:
                for grid in oil_grids:
                    models.append((f"oil{grid}", ModelSpec(
                        chip="ev6", package="oil", nx=grid, ny=grid,
                        direction=direction, velocity=velocity)))
        for resistance in self.AIR_RESISTANCES:
            models.append((f"air{air_grid}", ModelSpec(
                chip="ev6", package="air", nx=air_grid, ny=air_grid,
                convection_resistance=resistance, include_secondary=False)))
        jobs = []
        strata: Dict[str, List[Any]] = {}
        for i, (stratum, model) in enumerate(models):
            for k, power in enumerate(maps):
                job = JobSpec.make("steady_blocks", tag=f"m{i:02d}-{stratum}-p{k}",
                                   model=model, power="blocks",
                                   power_blocks=power)
                jobs.append(job)
                strata.setdefault(stratum, []).append(job)
        self.spec = CampaignSpec(name="steady-sweep", jobs=tuple(jobs))
        # a seeded quarter of every (package, grid) stratum is cached, so
        # the cached share of the work does not depend on the seed
        cached = []
        for members in strata.values():
            picks = rng.choice(len(members), max(1, len(members) // 4),
                               replace=False)
            cached.extend(members[int(p)] for p in sorted(picks))
        self.n_cached = len(cached)
        self.seed_cache = os.path.join(self.work_dir, "seed-cache")
        os.environ["REPRO_CACHE_DIR"] = self.seed_cache
        campaign_results([CampaignSpec(name="steady-sweep-seed",
                                       jobs=tuple(cached))], self.seed_cache)

    @staticmethod
    def _rises(campaigns: Any, cache_dir: Optional[str]) -> Outputs:
        return {tag: result.arrays["block_temps_k"] - result.meta["ambient_k"]
                for _, tag, result in campaign_results(campaigns, cache_dir)}

    def run(self, ctx: Any) -> Tuple[Outputs, float]:
        outputs = self._rises([self.spec], os.path.join(ctx, "cache"))
        return outputs, float(len(outputs))

    def compute_reference(self) -> Outputs:
        return self._rises(
            [dataclasses.replace(self.spec, backend=REFERENCE_BACKEND)], None)

    def describe(self) -> Dict[str, Any]:
        oil, air = self.grids()
        return {"jobs": len(self.spec.jobs), "cached_jobs": self.n_cached,
                "oil_grids": list(oil), "air_grid": air}


# -- trace-transient ----------------------------------------------------------


class TraceTransient(Workload):
    """Trace-driven transients: the back-solve-bound workload.

    One unit runs the two-package ``fig12`` campaign (two models, so the
    serial ``simulate_schedule`` path, K=1) and a seeded 8-seed oil
    ``fig12_ensemble_campaign`` (one lockstep
    ``batched_simulate_schedules``, K=8).  The 9 distinct traces are
    simulated during set-up; they exceed the in-process trace LRU (4),
    so every unit reads them back from its disk trace cache.  Work is
    scenario-steps integrated.
    """

    name = "trace-transient"
    modules = ("repro.campaign", "repro.solver", "repro.rcmodel",
               "repro.experiments.fig12", "repro.experiments.common")
    ENSEMBLE = 8

    def params(self) -> Dict[str, Any]:
        if self.smoke:
            return dict(instructions=20_000, duration=0.004, nx=8, ny=8,
                        thermal_stride=40)
        return dict(instructions=20_000, duration=0.020, nx=24, ny=24,
                    thermal_stride=40)

    def setup(self) -> None:
        super().setup()
        from repro.experiments import common
        from repro.experiments.fig12 import (fig12_campaign,
                                             fig12_ensemble_campaign)

        rng = np.random.default_rng(self.seed)
        self.seeds = sorted(int(s) for s in rng.choice(
            np.arange(1, 1_000_000), self.ENSEMBLE, replace=False))
        params = self.params()
        self.campaigns = (
            fig12_campaign(**params),
            fig12_ensemble_campaign(self.seeds, package="oil", **params),
        )
        self.seed_cache = os.path.join(self.work_dir, "seed-cache")
        os.environ["REPRO_CACHE_DIR"] = self.seed_cache
        for seed in [0] + self.seeds:
            common.gcc_synthesized_trace(params["duration"],
                                         params["instructions"], seed)
        # units must read the traces back from disk, not from this LRU
        common.gcc_synthesized_trace.cache_clear()

    @staticmethod
    def _outputs(campaigns: Any, cache_dir: Optional[str],
                 batch: bool) -> Tuple[Outputs, float]:
        outputs: Outputs = {}
        steps = 0.0
        for name, tag, result in campaign_results(campaigns, cache_dir, batch):
            outputs[f"{name}/{tag}"] = result.arrays["block_rise_k"]
            steps += len(result.arrays["times"]) - 1
        return outputs, steps

    def run(self, ctx: Any) -> Tuple[Outputs, float]:
        return self._outputs(self.campaigns, os.path.join(ctx, "cache"), True)

    def compute_reference(self) -> Outputs:
        # serial per-job execution on the reference engine; traces come
        # from the set-up cache
        os.environ["REPRO_CACHE_DIR"] = self.seed_cache
        campaigns = [dataclasses.replace(spec, backend=REFERENCE_BACKEND)
                     for spec in self.campaigns]
        return self._outputs(campaigns, None, False)[0]

    def describe(self) -> Dict[str, Any]:
        return {**self.params(), "ensemble_seeds": self.seeds,
                "scenarios": sum(len(c.jobs) for c in self.campaigns)}


# -- reproduce-cold -----------------------------------------------------------

CHECKS_RE = re.compile(r"(\d+)/(\d+) claim checks passed")
#: The reproduction's claim-check count; a unit passes only at N/N with
#: N at least this.
MIN_CHECKS = 21


def checks_passed(text: str) -> Tuple[int, int]:
    """(passed, total) from ``repro reproduce`` output; (0, 0) if absent."""
    found = CHECKS_RE.findall(text)
    if not found:
        return 0, 0
    passed, total = found[-1]
    return int(passed), int(total)


class ReproduceCold(Workload):
    """The headline user command, cold: ``python -m repro reproduce``.

    One unit is a fresh process (fast mode) with an empty
    ``REPRO_CACHE_DIR``; it passes only if it exits 0 with every claim
    check passed.  The paper's inputs are fixed, so the seed does not
    apply.  Work is one reproduction.
    """

    name = "reproduce-cold"
    seeded = False
    modules = ("repro.cli",)
    TIMEOUT_S = 120.0

    def stored_reference(self) -> Optional[str]:
        return None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest unit process (its
        ``ru_maxrss``, which is at least this worker's memory when it
        started the unit process; the unit process is larger)."""
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _spawn(self, argv: List[str], ctx: str) -> Tuple[int, str, str]:
        out_path = os.path.join(ctx, "stdout.txt")
        err_path = os.path.join(ctx, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            # not the worker's stdin: that pipe carries calibrations
            proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                code = proc.wait(timeout=self.TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return code, stdout, stderr

    @staticmethod
    def _outputs(code: int, stdout: str) -> Outputs:
        passed, total = checks_passed(stdout)
        return {"exit_code": np.array([code]),
                "checks": np.array([passed, total])}

    def run(self, ctx: Any) -> Tuple[Outputs, float]:
        code, stdout, _ = self._spawn(
            [sys.executable, "-m", "repro", "reproduce"], ctx)
        return self._outputs(code, stdout), 1.0

    def run_traced(self, ctx: Any, tracer: Any) -> Tuple[Outputs, float, float]:
        from layers import import_seconds

        record = os.path.join(ctx, "layers.json")
        start = time.perf_counter()
        code, stdout, stderr = self._spawn(
            [sys.executable, "-X", "importtime",
             os.path.join(HERE, "traced_reproduce.py"), record], ctx)
        wall = time.perf_counter() - start
        if os.path.exists(record):
            with open(record, encoding="utf-8") as handle:
                tracer.merge(json.load(handle))
        tracer.add_layer_time("import", import_seconds(stderr.splitlines()))
        tracer.units += 1
        tracer.unit_wall_s += wall
        return self._outputs(code, stdout), 1.0, wall

    def check(self, outputs: Outputs, reference: Outputs) -> Optional[str]:
        code = int(outputs["exit_code"][0])
        passed, total = (int(v) for v in outputs["checks"])
        if code != 0:
            return f"reproduce exited {code}"
        if total < MIN_CHECKS or passed != total:
            return f"reproduce passed {passed}/{total} claim checks"
        return None

    def describe(self) -> Dict[str, Any]:
        return {"command": "python -m repro reproduce", "mode": "fast",
                "min_checks": MIN_CHECKS}


# -- analyze-src --------------------------------------------------------------

#: The analyzer input: ``src/repro`` and the analyzer's fixtures as of
#: commit 3d4b289, frozen so later edits to ``src/`` do not change it.
TREE_ARCHIVE = os.path.join(HERE, "data", "analyze-src-3d4b289.tar.gz")
TREE_SHA256 = "4d9862a6501c2264f2c6d080e829d6778c9c11f32e05cc6b87a90e2662f6af57"
#: Fixtures with deliberate violations, so the expected findings are
#: not empty and a silenced rule fails the check.
FIXTURES = ("r1_unit_positive", "r2_cache_positive", "r3_hash_positive",
            "r5_float_positive", "r10_alias_positive", "r11_dtype_positive")


class AnalyzeSrc(Workload):
    """A cold whole-program static analysis of a frozen source tree.

    One unit is an in-process ``analyze_paths(..., use_cache=False)``
    over ``src/repro`` of a pinned commit plus six positive rule
    fixtures.  The seed does not apply.  Work is files analyzed.
    """

    name = "analyze-src"
    seeded = False
    modules = ("repro.analysis.static", "repro.analysis.static.runner")

    def setup(self) -> None:
        super().setup()
        with open(TREE_ARCHIVE, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if digest != TREE_SHA256:
            raise RuntimeError(f"{TREE_ARCHIVE} does not match its digest")
        self.tree = os.path.join(self.work_dir, "tree")
        with tarfile.open(TREE_ARCHIVE, "r:gz") as archive:
            archive.extractall(self.tree)
        fixtures = [os.path.join(self.tree, "tests", "analysis_fixtures",
                                 f"{name}.py") for name in FIXTURES]
        if self.smoke:
            self.paths = fixtures
        else:
            self.paths = [os.path.join(self.tree, "src", "repro")] + fixtures

    def stored_reference(self) -> Optional[str]:
        return os.path.join(REFERENCE_DIR, f"{self.name}.npz")

    def compute_reference(self) -> Outputs:
        # the analyzer has no second engine: the stored reference is the
        # findings of the commit that stored it
        return self.run(None)[0]

    def run(self, ctx: Any) -> Tuple[Outputs, float]:
        from repro.analysis.static import runner

        result = runner.analyze_paths(self.paths, use_cache=False, jobs=1)
        findings = sorted(
            "|".join((f.rule, f.severity,
                      os.path.relpath(f.path, self.tree), str(f.line)))
            for f in result.findings)
        outputs = {"findings": np.array(findings, dtype=str),
                   "files": np.array([result.files_analyzed])}
        return outputs, float(result.files_analyzed)

    def check(self, outputs: Outputs, reference: Outputs) -> Optional[str]:
        if self.smoke:
            fixture_findings = np.array(
                [f for f in reference["findings"]
                 if f.split("|")[2].startswith("tests/")], dtype=str)
            reference = {"findings": fixture_findings,
                         "files": np.array([len(FIXTURES)])}
        return compare(outputs, reference)

    def describe(self) -> Dict[str, Any]:
        return {"tree": os.path.basename(TREE_ARCHIVE),
                "fixtures": list(FIXTURES)}


WORKLOADS = {cls.name: cls for cls in (SteadySweep, TraceTransient,
                                        ReproduceCold, AnalyzeSrc)}


def src_digest() -> str:
    """SHA-256 over the program's source files (path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()
