"""Per-layer tracing installed from outside the program.

The benchmark measures each layer by wrapping the public functions and
methods that enter it (no spans are added inside ``src/``).  A wrapper
pushes a frame on entry and pops it on exit; a layer's *self* time is
its frame's duration minus the time of the wrapped frames nested in it,
so the self times of all layers plus the unit root's own remainder add
up to the unit's wall time.  A call into a layer that is already the
innermost open frame folds into that frame (``solve_columns`` calling
``solve`` is one back-solve call, not two).

Spans are kept in memory as :meth:`repro.obs.tracing.Span.to_dict`
shaped dicts and written once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  They follow the program's module
#: layout and its span taxonomy (``repro.obs.taxonomy``).
LAYERS: Tuple[str, ...] = (
    "import",
    "microarch.simulate",
    "power.synthesize",
    "rcmodel.grid.assemble",
    "solver.backend.factorize",
    "solver.backend.solve",
    "solver.steady.solve",
    "solver.transient.schedule",
    "solver.batched.schedule",
    "campaign.run",
    "campaign.cache.get",
    "campaign.cache.put",
    "campaign.manifest.write",
    "validation.fd.solve",
    "analysis.static.file",
    "analysis.static.project",
)

UNIT = "bench.unit"


class _Frame:
    __slots__ = ("layer", "start", "child_s", "span")

    def __init__(self, layer: str, span: Dict[str, Any]) -> None:
        self.layer = layer
        self.start = time.perf_counter()
        self.child_s = 0.0
        self.span = span


class LayerTracer:
    """Frame stack, per-layer totals and in-memory spans of traced units."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.units = 0
        self.unit_wall_s = 0.0
        self.roots: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- frames -------------------------------------------------------------

    def _enter(self, layer: str) -> _Frame:
        span = {
            "name": layer, "t_wall": time.time(), "duration_s": 0.0,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "status": "ok", "attrs": {}, "children": [],
        }
        if self._stack:
            self._stack[-1].span["children"].append(span)
        frame = _Frame(layer, span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, status: str = "ok") -> float:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        frame.span["duration_s"] = duration
        frame.span["status"] = status
        if frame.layer != UNIT:
            self.calls[frame.layer] += 1
            self.self_s[frame.layer] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        return duration

    def unit(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one traced unit under a root frame; returns (result, wall)."""
        frame = self._enter(UNIT)
        status = "error"
        try:
            result = fn()
            status = "ok"
        finally:
            wall = self._exit(frame, status)
            self.unit_wall_s += wall
            self.units += 1
            self.roots.append(frame.span)
        return result, wall

    def add_layer_time(self, layer: str, seconds: float) -> None:
        """Book one call measured elsewhere (an import-time log) to a layer."""
        self.calls[layer] += 1
        self.self_s[layer] += seconds

    def merge(self, other: Dict[str, Any]) -> None:
        """Fold the :meth:`to_json` record of a traced child process in."""
        for layer, n in other["calls"].items():
            self.calls[layer] += n
        for layer, s in other["self_s"].items():
            self.self_s[layer] += s
        for name, value in other["counts"].items():
            self.counts[name] += value
        self.roots.extend(other["roots"])
        self.missing = sorted(set(self.missing) | set(other["missing"]))

    def to_json(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls), "self_s": dict(self.self_s),
            "counts": dict(self.counts), "units": self.units,
            "unit_wall_s": self.unit_wall_s, "roots": self.roots,
            "missing": self.missing,
        }

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable[..., Any],
              on_exit: Optional[Callable[..., None]]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not stack or stack[-1].layer == layer:
                # outside a traced unit, or nested in the same layer
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            parent = stack[-2].layer
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, "error")
                raise
            tracer._exit(frame)
            if on_exit is not None:
                on_exit(tracer, parent, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, name: str, layer: str,
                      on_exit: Optional[Callable[..., None]] = None) -> None:
        """Wrap a module-level function and every module binding of it.

        ``from x import f`` copies the function into the importing
        module, so every ``repro`` module holding the same object is
        re-pointed at the wrapper.
        """
        try:
            original = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{name}")
            return
        wrapper = self._wrap(layer, original, on_exit)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def wrap_method(self, module: str, cls_name: str, names: Tuple[str, ...],
                    layer: str, on_exit: Optional[Callable[..., None]] = None,
                    subclasses: bool = False) -> None:
        """Wrap methods of a class (and of its subclasses that override them)."""
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{cls_name}")
            return
        classes = [cls]
        if subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                classes.append(sub)
                pending.extend(sub.__subclasses__())
        found = False
        for klass in classes:
            for name in names:
                if name in klass.__dict__:
                    found = True
                    self._set(klass, name,
                              self._wrap(layer, klass.__dict__[name], on_exit))
        if not found:
            self.missing.append(f"{module}.{cls_name}.{'/'.join(names)}")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public entry of every program layer."""
        self.missing = []
        self.wrap_method("repro.microarch.simulator", "MicroarchSimulator",
                         ("run",), "microarch.simulate", _count_instructions)
        self.wrap_method("repro.microarch.synthesis", "TraceSynthesizer",
                         ("synthesize",), "power.synthesize")
        self.wrap_method("repro.rcmodel.grid", "ThermalGridModel",
                         ("__init__",), "rcmodel.grid.assemble", _count_nodes)
        self.wrap_method("repro.solver.backends", "LinearBackend",
                         ("factorize",), "solver.backend.factorize",
                         _count_factorization, subclasses=True)
        self.wrap_method("repro.solver.backends", "Factor",
                         ("solve", "solve_columns"), "solver.backend.solve",
                         _count_columns, subclasses=True)
        self.wrap_function("repro.solver.steady", "steady_state",
                           "solver.steady.solve", _count_steady)
        self.wrap_function("repro.solver.events", "simulate_schedule",
                           "solver.transient.schedule")
        self.wrap_function("repro.solver.batched", "batched_simulate_schedules",
                           "solver.batched.schedule")
        self.wrap_function("repro.campaign.executor", "run_campaign",
                           "campaign.run", _count_outcomes)
        for method in ("get", "get_trace"):
            self.wrap_method("repro.campaign.cache", "ResultCache", (method,),
                             "campaign.cache.get", _cache_read(method))
        for method in ("put", "put_trace"):
            self.wrap_method("repro.campaign.cache", "ResultCache", (method,),
                             "campaign.cache.put", _cache_write(method))
        self.wrap_method("repro.campaign.manifest", "ManifestWriter",
                         ("job", "summary"), "campaign.manifest.write")
        self.wrap_method("repro.validation.reference_fd", "ReferenceFDSolver",
                         ("__init__", "steady_rise", "transient_probe"),
                         "validation.fd.solve")
        self.wrap_function("repro.analysis.static.runner", "analyze_one",
                           "analysis.static.file")
        self.wrap_function("repro.analysis.static.runner", "analyze_paths",
                           "analysis.static.project")


# -- counters recorded at layer exits ------------------------------------------


def _count_instructions(tr: LayerTracer, parent: Any, args: Any,
                        kwargs: Any, result: Any) -> None:
    workload = args[1] if len(args) > 1 else kwargs.get("workload")
    tr.counts["microarch.simulate.instructions"] += float(
        getattr(workload, "total_instructions", 0))


def _count_nodes(tr: LayerTracer, parent: Any, args: Any, kwargs: Any,
                 result: Any) -> None:
    network = getattr(args[0], "network", None)
    tr.counts["rcmodel.grid.assemble.nodes"] += float(
        getattr(network, "n_nodes", 0))


def _count_factorization(tr: LayerTracer, parent: Any, args: Any,
                         kwargs: Any, result: Any) -> None:
    matrix = args[1] if len(args) > 1 else kwargs.get("matrix")
    tr.counts["solver.backend.factorize.nnz"] += float(
        getattr(matrix, "nnz", 0))
    if parent == "solver.steady.solve":
        tr.counts["solver.steady.factorizations"] += 1


def _count_columns(tr: LayerTracer, parent: Any, args: Any, kwargs: Any,
                   result: Any) -> None:
    rhs = args[1] if len(args) > 1 else kwargs.get("rhs")
    shape = getattr(rhs, "shape", (1,))
    tr.counts["solver.backend.solve.columns"] += float(
        shape[1] if len(shape) == 2 else 1)


def _count_steady(tr: LayerTracer, parent: Any, args: Any, kwargs: Any,
                  result: Any) -> None:
    tr.counts["solver.steady.solves"] += 1


def _count_outcomes(tr: LayerTracer, parent: Any, args: Any, kwargs: Any,
                    result: Any) -> None:
    for outcome in getattr(result, "outcomes", ()):
        if not outcome.ok:
            tr.counts["campaign.jobs.failed"] += 1
        tr.counts["campaign.jobs.retried"] += outcome.retries


def _entry_paths(cache: Any, method: str, key: str) -> List[Any]:
    if method in ("get_trace", "put_trace"):
        return [cache._trace_path(key)]
    return [cache._json_path(key), cache._npz_path(key)]


def _entry_bytes(paths: List[Any]) -> int:
    total = 0
    for path in paths:
        try:
            total += os.stat(path).st_size
        except OSError:
            pass
    return total


def _cache_read(method: str) -> Callable[..., None]:
    def count(tr: LayerTracer, parent: Any, args: Any, kwargs: Any,
              result: Any) -> None:
        tr.counts["campaign.cache.gets"] += 1
        if result is not None:
            tr.counts["campaign.cache.hits"] += 1
            tr.counts["campaign.cache.read_bytes"] += _entry_bytes(
                _entry_paths(args[0], method, args[1]))
    return count


def _cache_write(method: str) -> Callable[..., None]:
    def count(tr: LayerTracer, parent: Any, args: Any, kwargs: Any,
              result: Any) -> None:
        tr.counts["campaign.cache.write_bytes"] += _entry_bytes(
            _entry_paths(args[0], method, args[1]))
    return count


def import_seconds(stderr_lines: List[str]) -> float:
    """Total import time from a ``python -X importtime`` log.

    Top-level imports (no indentation in the module column) carry the
    cumulative time of everything they pulled in; summing them counts
    each import once.
    """
    total_us = 0
    for line in stderr_lines:
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            continue
        name = parts[2].rstrip("\n")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        if name.startswith("  ") or not name.strip():
            continue
        total_us += cumulative
    return total_us / 1e6


def layer_metrics(tr: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from a tracer record."""
    units = max(1, int(tr["units"]))
    wall = tr["unit_wall_s"] / units
    out: Dict[str, Tuple[float, str]] = {}
    covered = 0.0
    for layer in LAYERS:
        self_s = tr["self_s"].get(layer, 0.0) / units
        covered += self_s
        out[f"{layer}.calls"] = (tr["calls"].get(layer, 0) / units, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / wall if wall > 0 else 0.0, "share")
    counts = tr["counts"]
    solves = counts.get("solver.steady.solves", 0.0)
    out["solver.steady.factor_reuse"] = (
        1.0 - counts.get("solver.steady.factorizations", 0.0) / solves
        if solves else 0.0, "ratio")
    gets = counts.get("campaign.cache.gets", 0.0)
    out["campaign.cache.hit_ratio"] = (
        counts.get("campaign.cache.hits", 0.0) / gets if gets else 0.0,
        "ratio")
    for name, unit in (("campaign.cache.read_bytes", "bytes"),
                       ("campaign.cache.write_bytes", "bytes"),
                       ("solver.backend.solve.columns", "count"),
                       ("solver.backend.factorize.nnz", "count"),
                       ("rcmodel.grid.assemble.nodes", "count"),
                       ("microarch.simulate.instructions", "count"),
                       ("campaign.jobs.failed", "count"),
                       ("campaign.jobs.retried", "count")):
        out[name] = (counts.get(name, 0.0) / units, unit)
    out["unaccounted.share"] = (
        max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0, "share")
    return out
