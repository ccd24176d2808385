"""Discover files, run every checker, aggregate the report.

One pass: each file is parsed once and handed to every in-scope checker
before the next file is read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.lint.findings import Finding, LintReport
from repro.lint.registry import CheckerRegistry, default_registry
from repro.lint.source import SourceModule

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

    for file, root in discover_files(paths):
        package_path = package_relative(file, root)
        report.files_scanned += 1
        try:
            module = SourceModule.parse(file, package_path)
        except SyntaxError as error:
            report.findings.append(
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
        for checker in checkers:
            if not module.in_scope(checker.scope):
                continue
            for finding in checker.check(module):
                if module.suppressions.covers(finding.line, finding.rule):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)

    report.findings.sort(key=Finding.sort_key)
    return report
