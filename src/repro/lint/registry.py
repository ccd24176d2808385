"""The pluggable checker registry.

One checker class per rule id.  Every rule is a single AST pass: it
sees each in-scope module once through :meth:`Checker.check` and
decides from that module alone.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import ClassVar, Iterable, Iterator, Optional, Type, Union

from repro.errors import ConfigurationError
from repro.lint.findings import Finding
from repro.lint.source import SourceModule

__all__ = [
    "Checker",
    "CheckerRegistry",
    "default_registry",
    "normalize_select",
    "register",
]


class Checker(ABC):
    """One lint rule: a rule id, a scope and an AST pass."""

    #: Stable kebab-case rule id — what findings carry, what suppression
    #: comments and ``--select`` name.
    rule_id: ClassVar[str]
    #: One-line description for ``repro lint --list-rules`` and the docs.
    description: ClassVar[str] = ""
    #: How to fix a violation; attached to every finding as its hint.
    hint: ClassVar[str] = ""
    #: Package-path prefixes this rule applies to; empty means all files.
    scope: ClassVar[tuple[str, ...]] = ()

    @abstractmethod
    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for one module (already scope-filtered)."""

    def finding(
        self,
        module: SourceModule,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at an AST node of ``module``."""
        return Finding(
            path=str(module.path),
            package_path=module.package_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def normalize_select(
    select: Optional[Union[str, Iterable[str]]],
) -> Optional[list[str]]:
    """Canonicalise a ``--select`` value into rule ids.

    Accepts a comma-separated string or an iterable of ids; strips
    whitespace, drops empties, dedupes preserving order.  An explicitly
    provided selection that nets *zero* rules is a configuration error —
    historically it silently ran no checkers and exited 0, which read as
    a clean pass in CI.
    """
    if select is None:
        return None
    if isinstance(select, str):
        raw = select.split(",")
    else:
        raw = list(select)
    seen: dict[str, None] = {}
    for item in raw:
        rule = item.strip()
        if rule:
            seen.setdefault(rule, None)
    if not seen:
        raise ConfigurationError(
            "--select selected no rules: give comma-separated rule ids "
            "(see 'repro lint --list-rules')"
        )
    return list(seen)


class CheckerRegistry:
    """Maps rule ids to checker classes and instantiates them per run."""

    def __init__(self) -> None:
        self._checkers: dict[str, Type[Checker]] = {}

    def add(self, checker_class: Type[Checker]) -> Type[Checker]:
        rule_id = getattr(checker_class, "rule_id", None)
        if not rule_id:
            raise ConfigurationError(
                f"checker {checker_class.__name__} declares no rule_id"
            )
        if rule_id in self._checkers:
            raise ConfigurationError(f"duplicate lint rule id {rule_id!r}")
        self._checkers[rule_id] = checker_class
        return checker_class

    def rule_ids(self) -> list[str]:
        return sorted(self._checkers)

    def get(self, rule_id: str) -> Type[Checker]:
        try:
            return self._checkers[rule_id]
        except KeyError:
            known = ", ".join(self.rule_ids())
            raise ConfigurationError(
                f"unknown lint rule {rule_id!r} (known: {known})"
            ) from None

    def instantiate(
        self, select: Optional[Union[str, Iterable[str]]] = None
    ) -> list[Checker]:
        """Fresh checker instances, optionally restricted to ``select``.

        ``select`` may be a comma-separated string or an iterable of rule
        ids; unknown ids raise :class:`ConfigurationError`, as does a
        selection that nets no rules at all.
        """
        chosen = normalize_select(select)
        if chosen is None:
            chosen = self.rule_ids()
        return [self.get(rule)() for rule in chosen]

    def describe(self) -> list[tuple[str, str, tuple[str, ...]]]:
        """(rule id, description, scope) rows for ``--list-rules``."""
        return [
            (rule, checker.description, checker.scope)
            for rule, checker in sorted(self._checkers.items())
        ]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._checkers

    def __len__(self) -> int:
        return len(self._checkers)


#: The process-wide registry the ``@register`` decorator populates.
_DEFAULT = CheckerRegistry()


def register(checker_class: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the default registry."""
    return _DEFAULT.add(checker_class)


def default_registry() -> CheckerRegistry:
    """The registry holding every built-in rule.

    Importing :mod:`repro.lint.checkers` (done lazily here) registers
    the built-ins; plugins can call :func:`register` themselves.
    """
    import repro.lint.checkers  # noqa: F401  (import populates _DEFAULT)

    return _DEFAULT
