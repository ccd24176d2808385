"""Scenario-assembly rule: stacks are built in one place.

Since the scenario refactor, :mod:`repro.scenario.builder` is the only
module allowed to assemble an experiment stack — construct a
:class:`~repro.cluster.machine.Machine`, wrap it in a
:class:`~repro.cluster.budget.PowerBudget` and attach a
:class:`~repro.service.command_center.CommandCenter`.  Any other call
site doing that bypasses the staged lifecycle (arm/start/drain ordering,
observability attachment, chaos installation) and the canonical digest
the result cache keys on.  Tests are exempt: they construct partial
stacks on purpose.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import resolve_call_target
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = ["ScenarioBypassChecker"]

#: Class names whose direct construction means "assembling a stack".
_STACK_CLASSES = frozenset({"Machine", "PowerBudget", "CommandCenter"})

#: package_path prefixes where direct construction is the point.
_EXEMPT_PREFIXES = ("scenario/", "tests/")


def _is_exempt(module: SourceModule) -> bool:
    if module.package_path.startswith(_EXEMPT_PREFIXES):
        return True
    # Test trees scanned from outside the package root (``repro lint
    # tests``) carry paths like ``tests/core/test_x.py`` or are rooted
    # at a ``tests`` directory elsewhere in the repo.
    return "tests" in module.path.parts


@register
class ScenarioBypassChecker(Checker):
    """Forbid direct stack assembly outside the scenario layer."""

    rule_id = "scenario-bypass"
    description = (
        "no direct Machine/PowerBudget/CommandCenter construction outside "
        "src/repro/scenario/ and tests/ — stacks come from StackBuilder"
    )
    hint = (
        "describe the run as a ScenarioSpec and let "
        "repro.scenario.StackBuilder assemble the stack"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if _is_exempt(module):
            return
        origins = module.origins
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, origins)
            if target is None:
                continue
            head, _, last = target.rpartition(".")
            if last not in _STACK_CLASSES:
                continue
            # Only flag our classes: a bare local name (imported or
            # defined here) or anything rooted in the repro package.
            # ``somelib.Machine(...)`` is someone else's Machine.
            if head and not target.startswith("repro"):
                continue
            yield self.finding(
                module,
                node,
                f"direct {last}() construction bypasses the scenario "
                f"layer's staged assembly",
            )
