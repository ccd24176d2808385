"""Discover files, run every checker, aggregate the report.

Since the flow-aware engine the run is two-phase: every file is parsed
up front, the run-wide :class:`~repro.lint.context.LintContext` (module
list + cross-module call graph) is built from the parsed set, and only
then do checkers see modules.  That ordering is what lets
interprocedural rules resolve a helper defined in a file that happens
to sort later.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.lint.callgraph import build_call_graph
from repro.lint.context import LintContext
from repro.lint.findings import Finding, LintReport
from repro.lint.registry import CheckerRegistry, default_registry
from repro.lint.source import SourceModule, Suppressions

__all__ = ["lint_paths", "discover_files", "package_relative"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache"})

#: Scan roots whose *name* is kept as a package-path prefix: linting the
#: real ``tests/`` or ``examples/`` tree must not make ``tests/sim/...``
#: look like simulator source to scoped rules.
_PREFIXED_ROOTS = frozenset({"tests", "examples"})


def discover_files(paths: Sequence[Union[str, Path]]) -> list[tuple[Path, Path]]:
    """Expand files/directories into ``(file, scan root)`` pairs, sorted."""
    pairs: list[tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(file.parts):
                    pairs.append((file, path))
        elif path.is_file():
            pairs.append((path, path.parent))
        else:
            raise ConfigurationError(f"lint target {path} does not exist")
    return pairs


def _enclosing_package(directory: Path) -> Optional[Path]:
    """The innermost ``repro`` package directory at or above ``directory``."""
    for candidate in (directory, *directory.parents):
        if candidate.name == "repro" and (candidate / "__init__.py").is_file():
            return candidate
    return None


def package_relative(file: Path, root: Path) -> str:
    """The path checker scopes match against.

    Strips everything up to and including the ``repro`` package directory
    when the file lives under one (``src/repro/sim/engine.py`` ->
    ``sim/engine.py``), whether that directory lies below the scan root
    or is the root or one of its ancestors (``repro lint src/repro/sim``
    still sees ``sim/engine.py``); otherwise the path relative to the
    scanned root, so golden-test trees mimic the layout with plain
    subdirectories.  Scanning a root literally named ``tests`` or
    ``examples`` keeps that name as a prefix (``tests/sim/test_engine.py``),
    so simulator-scoped rules never mistake a test tree for the simulator.
    """
    resolved_root = root.resolve()
    relative = file.resolve().relative_to(resolved_root)
    parts = list(relative.parts)
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    elif (package := _enclosing_package(resolved_root)) is not None:
        parts = [*resolved_root.relative_to(package).parts, *parts]
    elif root.name in _PREFIXED_ROOTS:
        parts = [root.name, *parts]
    if not parts:  # the root itself was a file directly inside repro/
        parts = [file.name]
    return "/".join(parts)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    registry: Optional[CheckerRegistry] = None,
    select: Optional[Union[str, Iterable[str]]] = None,
) -> LintReport:
    """Run the lint pass over files and directories.

    Unparsable files become ``parse-error`` findings rather than
    crashing the run; checker exceptions propagate (a crash in the tool
    itself must exit 2, not masquerade as a clean pass).
    """
    registry = registry if registry is not None else default_registry()
    checkers = registry.instantiate(select)
    report = LintReport()
    raw_findings: list[Finding] = []
    suppressions_by_path: dict[str, Suppressions] = {}

    modules: list[SourceModule] = []
    for file, root in discover_files(paths):
        package_path = package_relative(file, root)
        report.files_scanned += 1
        try:
            module = SourceModule.parse(file, package_path)
        except SyntaxError as error:
            raw_findings.append(
                Finding(
                    path=str(file),
                    package_path=package_path,
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                    rule="parse-error",
                    message=f"file does not parse: {error.msg}",
                    hint="fix the syntax error; nothing else was checked",
                )
            )
            continue
        suppressions_by_path[str(file)] = module.suppressions
        modules.append(module)

    context = LintContext(modules=modules, call_graph=build_call_graph(modules))
    for checker in checkers:
        checker.configure(context)

    for module in modules:
        for checker in checkers:
            if module.in_scope(checker.scope):
                raw_findings.extend(checker.check(module))

    for checker in checkers:
        raw_findings.extend(checker.finish())

    for finding in raw_findings:
        suppressions = suppressions_by_path.get(finding.path)
        if suppressions is not None and suppressions.covers(
            finding.line, finding.rule
        ):
            report.suppressed += 1
        else:
            report.findings.append(finding)

    report.findings.sort(key=Finding.sort_key)
    return report
