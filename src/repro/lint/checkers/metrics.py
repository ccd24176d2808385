"""Observability hygiene: metric names are literal, well-formed constants.

The Prometheus exporter and the audit tooling key everything on the
metric name, so a name built from an f-string fragments the time series
and a name registered as both a counter and a gauge corrupts the
exposition.  ``metric-name`` checks each registration site;
``metric-duplicate`` is a cross-module pass that catches the same name
registered with a different instrument kind or help text anywhere in the
scanned tree.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = ["MetricNameChecker", "MetricDuplicateChecker"]

#: Registry methods that register/fetch an instrument by name.
_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})

#: Naming convention: prometheus-style snake case under the repro_ prefix.
_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")


def _registration(node: ast.AST) -> Optional[tuple[str, ast.Call]]:
    """``(kind, call)`` when the node is an instrument registration."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _INSTRUMENT_METHODS
        and node.args
    ):
        return node.func.attr, node
    return None


def _help_text(call: ast.Call) -> Optional[str]:
    """The literal help string of a registration, when present."""
    if len(call.args) > 1:
        argument = call.args[1]
    else:
        keyword = next(
            (kw for kw in call.keywords if kw.arg == "help_text"), None
        )
        if keyword is None:
            return None
        argument = keyword.value
    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
        return argument.value
    return None


@register
class MetricNameChecker(Checker):
    """Each registration site: literal name matching the convention."""

    rule_id = "metric-name"
    description = (
        "metric names must be literal string constants matching "
        "^repro_[a-z][a-z0-9_]*$"
    )
    hint = (
        "use a literal snake_case name under the repro_ prefix; encode "
        "variability as label values, not name fragments"
    )
    scope = ()  # every registration site in the tree

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.nodes:
            registration = _registration(node)
            if registration is None:
                continue
            kind, call = registration
            name_node = call.args[0]
            if not (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
            ):
                yield self.finding(
                    module,
                    name_node,
                    f"{kind} name must be a literal string constant, not a "
                    f"computed expression",
                )
            elif not _NAME_RE.match(name_node.value):
                yield self.finding(
                    module,
                    name_node,
                    f"{kind} name {name_node.value!r} does not match "
                    f"{_NAME_RE.pattern}",
                )


@register
class MetricDuplicateChecker(Checker):
    """Cross-module: one name, one instrument kind, one help text."""

    rule_id = "metric-duplicate"
    description = (
        "a metric name must be registered with a consistent instrument "
        "kind and help text everywhere it appears"
    )
    hint = (
        "hoist the name and help text to one shared constant, or rename "
        "one of the conflicting instruments"
    )
    scope = ()

    def __init__(self) -> None:
        #: name -> (kind, help, first finding location)
        self._seen: dict[str, tuple[str, Optional[str], str, int]] = {}
        self._conflicts: list[Finding] = []

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.nodes:
            registration = _registration(node)
            if registration is None:
                continue
            kind, call = registration
            name_node = call.args[0]
            if not (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
            ):
                continue  # metric-name already flags computed names
            name = name_node.value
            help_text = _help_text(call)
            previous = self._seen.get(name)
            if previous is None:
                self._seen[name] = (
                    kind,
                    help_text,
                    str(module.path),
                    call.lineno,
                )
                continue
            prev_kind, prev_help, prev_path, prev_line = previous
            mismatched_help = (
                help_text is not None
                and prev_help is not None
                and help_text != prev_help
            )
            if kind != prev_kind or mismatched_help:
                what = "instrument kind" if kind != prev_kind else "help text"
                self._conflicts.append(
                    self.finding(
                        module,
                        call,
                        f"metric {name!r} re-registered with a different "
                        f"{what} (first registered as {prev_kind} at "
                        f"{prev_path}:{prev_line})",
                    )
                )
        return iter(())

    def finish(self) -> Iterator[Finding]:
        return iter(self._conflicts)
