"""Parsed source modules and suppression-comment handling."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.lint.asthelpers import import_origins

__all__ = [
    "SourceModule",
    "Suppressions",
    "parse_suppressions",
    "resolve_suppressions",
]

#: ``# repro-lint: disable=rule-a,rule-b`` — suppresses those rules on the
#: physical line the comment sits on.  ``disable-file=`` suppresses for
#: the whole module.  ``disable=all`` matches every rule.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\- ]+)"
)

_COMPOUND_STMTS = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.Match,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


@dataclass
class Suppressions:
    """Which rules are switched off, per line and per file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)

    def covers(self, line: int, rule: str) -> bool:
        """Whether a finding of ``rule`` on ``line`` is suppressed."""
        if rule in self.file_wide or "all" in self.file_wide:
            return True
        rules = self.by_line.get(line, ())
        return rule in rules or "all" in rules

    def add(self, line: int, rules: set[str]) -> None:
        self.by_line.setdefault(line, set()).update(rules)


def parse_suppressions(text: str) -> Suppressions:
    """Extract suppression comments from source text, line-scoped.

    The base scan is line-based: a same-line comment applies to findings
    reported on that physical line.  A *standalone* suppression comment
    (nothing but the comment on its line) applies to the next code line
    instead, and consecutive standalone comments stack onto the same
    target — see :func:`resolve_suppressions` for the AST-aware pass
    that additionally maps decorator lines and multiline statements to
    their finding anchors.
    """
    suppressions = Suppressions()
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {rule.strip() for rule in match.group(2).split(",") if rule.strip()}
        if match.group(1) == "disable-file":
            suppressions.file_wide |= rules
            continue
        if line.strip().startswith("#"):
            target = _next_code_line(lines, lineno)
            if target is not None:
                suppressions.add(target, rules)
        else:
            suppressions.add(lineno, rules)
    return suppressions


def _next_code_line(lines: list[str], after: int) -> Optional[int]:
    """First 1-based line after ``after`` that holds code (not blank,
    not a pure comment) — where a standalone suppression lands."""
    for lineno in range(after + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if stripped and not stripped.startswith("#"):
            return lineno
    return None


def _anchor_map(nodes: Iterable[ast.AST]) -> dict[int, int]:
    """Physical line -> the line findings for that statement anchor at.

    Two cases beyond the identity: every physical line of a *simple*
    multiline statement maps to its first line (where AST nodes anchor),
    and decorator lines map to their ``def``/``class`` line.  Compound
    statements are excluded — their extent covers whole bodies whose
    statements anchor themselves.
    """
    anchors: dict[int, int] = {}
    for node in nodes:
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, _COMPOUND_STMTS):
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                for line in range(decorators[0].lineno, node.lineno):
                    anchors[line] = node.lineno
            continue
        end = getattr(node, "end_lineno", None)
        if end is not None and end > node.lineno:
            for line in range(node.lineno, end + 1):
                anchors.setdefault(line, node.lineno)
    return anchors


def resolve_suppressions(text: str, nodes: Iterable[ast.AST]) -> Suppressions:
    """Line suppressions with AST-aware anchoring.

    ``nodes`` are the module's nodes in ``ast.walk`` order.

    On top of :func:`parse_suppressions`: a suppression landing anywhere
    inside a multiline simple statement also covers the statement's
    anchor line, and one landing on a decorator covers the decorated
    ``def``/``class`` line.  The original line keeps its suppression
    too, so rules that anchor findings mid-statement stay coverable.
    """
    suppressions = parse_suppressions(text)
    anchors = _anchor_map(nodes)
    for line, rules in list(suppressions.by_line.items()):
        anchor = anchors.get(line)
        if anchor is not None and anchor != line:
            suppressions.add(anchor, set(rules))
    return suppressions


@dataclass
class SourceModule:
    """One parsed Python file, ready for checkers.

    ``package_path`` is the path relative to the ``repro`` package root
    when the file lives under one (``sim/engine.py``), otherwise relative
    to the scanned root — checker scopes match against it with simple
    prefix tests, so golden-test trees can mimic the package layout.
    """

    path: Path
    package_path: str
    text: str
    tree: ast.Module
    suppressions: Suppressions
    #: Every node of ``tree`` in ``ast.walk`` order, walked once for all
    #: the checkers.
    nodes: tuple[ast.AST, ...]
    #: Local name -> the dotted origin it was imported as
    #: (:func:`~repro.lint.asthelpers.import_origins`).
    origins: dict[str, str]

    @classmethod
    def parse(cls, path: Path, package_path: str) -> "SourceModule":
        """Parse a file; raises :class:`SyntaxError` on unparsable source."""
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        nodes = tuple(ast.walk(tree))
        return cls(
            path=path,
            package_path=package_path,
            text=text,
            tree=tree,
            suppressions=resolve_suppressions(text, nodes),
            nodes=nodes,
            origins=import_origins(nodes),
        )

    def in_scope(self, prefixes: tuple[str, ...]) -> bool:
        """Whether this module matches any scope prefix (empty = all)."""
        if not prefixes:
            return True
        return any(self.package_path.startswith(prefix) for prefix in prefixes)
