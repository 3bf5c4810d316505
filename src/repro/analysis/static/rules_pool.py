"""Rule: pool worker state safety (R7).

The campaign engine runs jobs in a ``ProcessPoolExecutor``: worker
processes get a *copy* of every module, so a worker-reachable function
that mutates module-level or closed-over state is a latent bug — the
mutation happens in the child and silently never reaches the parent
(or, with a fork start method, reaches *some* platforms and not
others).

Roots are found structurally: every ``@runner(...)``-registered
function (the campaign dispatches ``get_runner(kind)(specs)``, so
registration *is* reachability) and every callable handed to a
pool ``submit``/``map`` call.  The call graph closure from those roots
is then scanned for ``global``/``nonlocal`` rebinding and in-place
mutation (subscript stores, ``append``/``update``/… method calls) of
names bound to module-level containers.
"""

from __future__ import annotations

from typing import Iterator, List

from .core import Finding, ProjectRule, register

_KIND_SEVERITY = {
    "global": "error",
    "nonlocal": "warning",
    "subscript": "warning",
    "method": "warning",
}


@register
class PoolSafetyRule(ProjectRule):
    """Flag worker-reachable mutation of shared module state."""

    name = "pool-safety"
    severity = "warning"
    description = (
        "A function reachable from a process-pool worker entry point "
        "mutates module-level or closed-over state; the change stays "
        "in the worker process and never reaches the parent."
    )

    def check_project(self, project) -> Iterator[Finding]:
        roots: List[str] = []
        for summary in project.summaries:
            if summary.module is None:
                continue
            for qualname, function in summary.functions.items():
                if function.runner_registered:
                    roots.append(f"{summary.module}.{qualname}")
            for target in summary.submit_targets:
                resolved = project.table.resolve(summary, target)
                if resolved is not None:
                    roots.append(resolved)
        if not roots:
            return
        reachable = project.graph.reachable_from(sorted(set(roots)))
        for fqn in sorted(reachable):
            root = reachable[fqn]
            summary = project.table.module_of(fqn)
            function = project.table.lookup(fqn)
            if summary is None or function is None:
                continue
            mutables = set(summary.module_mutables)
            for mutation in function.mutations:
                if mutation.kind in ("subscript", "method") and (
                    mutation.name not in mutables
                ):
                    continue
                severity = _KIND_SEVERITY.get(mutation.kind)
                if severity is None:
                    continue
                via = "" if fqn == root else f" (reachable from {root})"
                what = {
                    "global": f"rebinds global {mutation.name!r}",
                    "nonlocal": f"rebinds nonlocal {mutation.name!r}",
                    "subscript": (
                        f"writes into module-level {mutation.name!r}"
                    ),
                    "method": (
                        f"mutates module-level {mutation.name!r} via "
                        f".{mutation.detail}()"
                    ),
                }[mutation.kind]
                yield self.project_finding(
                    path=summary.path,
                    line=mutation.line,
                    col=mutation.col,
                    message=(
                        f"{function.qualname}() runs in pool worker "
                        f"processes{via} and {what}; the mutation never "
                        "propagates back to the parent process"
                    ),
                    hint=(
                        "return the value from the worker instead, or "
                        "move the state into the job payload/result"
                    ),
                    severity=severity,
                )
