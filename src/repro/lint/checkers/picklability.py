"""Parallel-engine safety: work crossing the process boundary must pickle.

:func:`repro.experiments.parallel.run_cells` ships its cells (scenario
specs) through
:class:`~concurrent.futures.ProcessPoolExecutor`, and any
``executor.submit``/``map`` call ships its callable and arguments.
Lambdas and closures do not pickle — the failure surfaces only on the
``--workers > 1`` path, which the serial test suite never exercises — so
they are rejected statically at every fan-out call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.asthelpers import dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = ["PickleFanoutChecker"]

#: Call names whose arguments cross a process boundary.
_FANOUT_NAMES = frozenset({"run_cells"})
_FANOUT_METHODS = frozenset({"submit", "map"})


def _nested_function_names(nodes: Iterable[ast.AST]) -> set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: set[str] = set()
    for outer in nodes:
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(outer):
            if node is outer:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(node.name)
    return nested


def _is_fanout_call(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1]
    if tail in _FANOUT_NAMES:
        return True
    # Pool methods only count on executor-ish receivers so list.map-style
    # helpers elsewhere do not trip the rule.
    if isinstance(call.func, ast.Attribute) and call.func.attr in _FANOUT_METHODS:
        receiver = dotted_name(call.func.value) or ""
        return "executor" in receiver.lower() or "pool" in receiver.lower()
    return False


@register
class PickleFanoutChecker(Checker):
    """Reject lambdas/closures at parallel fan-out call sites."""

    rule_id = "pickle-fanout"
    description = (
        "callables handed to run_cells/executor.submit must be "
        "module-level (no lambdas, no closures) so they pickle"
    )
    hint = (
        "hoist the callable to module level; parameterise it through "
        "argument tuples or scenario-spec fields instead of captured state"
    )
    scope = ("experiments/",)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        nested = _nested_function_names(module.nodes)
        for node in module.nodes:
            if not isinstance(node, ast.Call) or not _is_fanout_call(node):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield self.finding(
                        module,
                        argument,
                        "lambda passed across a process boundary cannot "
                        "pickle",
                    )
                elif isinstance(argument, ast.Name) and argument.id in nested:
                    yield self.finding(
                        module,
                        argument,
                        f"closure {argument.id!r} passed across a process "
                        f"boundary cannot pickle",
                    )
