"""R4 — pickle safety at the process-pool boundary.

The campaign executor fans jobs out to a ``ProcessPoolExecutor``:
everything submitted crosses the process boundary by pickling.  Two
classes of mistake survive every unit test that happens to run the
serial fallback, then blow up (or silently misbehave) in parallel mode:

* **Unpicklable callables** — lambdas and functions defined inside
  another function cannot be pickled at all; ``pool.submit(lambda: …)``
  raises only when a pool actually spins up (error).
* **Mutable module-level state as an argument** — a module-level dict/
  list/set passed to a worker is *copied* into the child process, so
  worker-side mutation is invisible to the parent and vice versa; code
  that "shares" a registry this way is silently split-brained
  (warning).

The rule looks for ``submit``/``map``/``apply_async``/``imap*`` calls
whose receiver looks like a pool or executor (name contains ``pool`` or
``executor``, or is a direct ``ProcessPoolExecutor(...)`` /
``Pool(...)`` construction) and inspects the submitted callable and its
arguments.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .core import Finding, Rule, SourceFile, dotted_name, expr_source, iter_functions, register

SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply", "apply_async", "imap", "imap_unordered", "starmap"}
)

_POOL_HINTS = ("pool", "executor")


def _looks_like_pool(receiver: ast.AST) -> bool:
    text = expr_source(receiver).lower()
    if any(hint in text for hint in _POOL_HINTS):
        return True
    if isinstance(receiver, ast.Call):
        name = dotted_name(receiver.func) or ""
        return name.split(".")[-1] in ("ProcessPoolExecutor", "Pool")
    return False


def _module_level_mutables(tree: ast.Module) -> Dict[str, ast.AST]:
    """Module-level names bound to mutable display literals."""
    mutables: Dict[str, ast.AST] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            for target in targets:
                if isinstance(target, ast.Name):
                    mutables[target.id] = value
    return mutables


@register
class PickleSafetyRule(Rule):
    name = "pickle-safety"
    severity = "error"
    description = (
        "lambdas/closures or shared module-level mutable state handed "
        "to a process-pool executor"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        mutables = _module_level_mutables(source.tree)

        # Names of functions defined *locally* inside each enclosing
        # function (closures w.r.t. the submit site).
        local_defs: Dict[ast.AST, Set[str]] = {}
        for info in iter_functions(source.tree):
            if info.parent_function is not None:
                local_defs.setdefault(info.parent_function, set()).add(
                    info.node.name
                )

        for info in iter_functions(source.tree):
            nested = local_defs.get(info.node, set())
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in SUBMIT_METHODS
                    and _looks_like_pool(func.value)
                ):
                    continue
                yield from self._check_submission(
                    source, node, func.attr, nested, mutables
                )

    def _check_submission(
        self,
        source: SourceFile,
        call: ast.Call,
        method: str,
        nested_names: Set[str],
        mutables: Dict[str, ast.AST],
    ) -> Iterator[Finding]:
        if not call.args:
            return
        target = call.args[0]
        if isinstance(target, ast.Lambda):
            yield self.finding(
                source, target,
                f"lambda passed to pool.{method}(); lambdas cannot be "
                f"pickled to worker processes",
                hint="move the body to a module-level function and submit "
                     "that (see campaign.executor.execute_group)",
            )
        elif isinstance(target, ast.Name) and target.id in nested_names:
            yield self.finding(
                source, target,
                f"locally-defined function {target.id!r} passed to "
                f"pool.{method}(); closures cannot be pickled to worker "
                f"processes",
                hint="define the worker at module level so it pickles by "
                     "qualified name",
            )
        for arg in call.args[1:]:
            if isinstance(arg, ast.Name) and arg.id in mutables:
                yield self.finding(
                    source, arg,
                    f"module-level mutable {arg.id!r} passed across the "
                    f"process boundary; workers receive a pickled copy, "
                    f"so mutations are silently lost",
                    hint="pass immutable data (tuples, frozen dataclasses) "
                         "or reload the registry inside the worker",
                    severity="warning",
                )
