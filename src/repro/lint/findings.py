"""Structured lint findings and the report that aggregates them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "LintReport"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file as given to the runner; ``package_path`` is its
    location relative to the ``repro`` package root (``sim/engine.py``),
    which is what checker scopes match against.  ``hint`` says how to fix
    the violation, not just what it is.
    """

    path: str
    package_path: str
    line: int
    column: int
    rule: str
    message: str
    hint: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def format(self) -> str:
        """The one-line human rendering: ``path:line:col: rule message``."""
        text = f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "package_path": self.package_path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``findings`` are the live violations; ``suppressed`` counts the
    findings a ``# repro-lint: disable`` comment switched off.
    """

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def rules_fired(self) -> dict[str, int]:
        """Finding counts by rule id, for the summary line."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def format_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines = [finding.format() for finding in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_scanned} file(s)"
        )
        if self.suppressed:
            summary += f", {self.suppressed} suppressed"
        if self.findings:
            by_rule = ", ".join(
                f"{rule}: {count}" for rule, count in self.rules_fired().items()
            )
            summary += f" [{by_rule}]"
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload for ``repro lint --format json``."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "findings": [finding.to_dict() for finding in self.findings],
        }
