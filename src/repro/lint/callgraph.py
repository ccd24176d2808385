"""Cross-module call graph with per-function call-site summaries.

The interprocedural rules (``rng-escape``, the reach check behind
``unordered-iteration``) need one question answered fast: *does calling
this function eventually execute a call matching some predicate?*  This
module summarises every function down to its outgoing call sites
(import-resolved, with location and an args/no-args bit for the seeded
generator exception), links summaries across modules by a best-effort
name resolution, and memoises transitive reachability.

Resolution is deliberately syntactic and conservative:

* ``helper(...)`` resolves to a same-module function of that name;
* ``repro.util.jitter.helper(...)`` (after import-alias resolution)
  maps the dotted module onto its ``package_path``;
* ``self.foo(...)`` / ``cls.foo(...)`` resolve within the caller's
  class, then fall back to any single same-module method of that name;
* anything else (foreign libraries, dynamic dispatch) resolves to
  nothing and the trace simply stops there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.lint.asthelpers import import_origins, resolve_call_target
from repro.lint.cfg import function_defs
from repro.lint.source import SourceModule

__all__ = [
    "CallSite",
    "FunctionSummary",
    "CallGraph",
    "summarize_module",
    "build_call_graph",
]


@dataclass(frozen=True)
class CallSite:
    """One outgoing call from a function body."""

    target: str  #: import-resolved dotted target (``repro.sim.rng.draw``)
    lineno: int
    col: int
    has_args: bool  #: whether any positional or keyword args were passed

    def last(self) -> str:
        """The final dotted component (method/function name)."""
        return self.target.rpartition(".")[2]


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the graph keeps about one function."""

    key: str  #: ``package_path::qualname``
    package_path: str
    qualname: str  #: ``Class.method`` / ``outer.inner`` style
    lineno: int
    calls: Tuple[CallSite, ...]

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def class_prefix(self) -> str:
        """``Class.`` for methods, empty for free functions."""
        return self.qualname.rpartition(".")[0]


def _own_calls(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    origins: Dict[str, str],
) -> Tuple[CallSite, ...]:
    """Call sites in ``func``'s own body, excluding nested functions
    (those carry their own summaries)."""
    sites: List[CallSite] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(child, ast.Call):
                target = resolve_call_target(child, origins)
                if target is not None:
                    sites.append(
                        CallSite(
                            target=target,
                            lineno=child.lineno,
                            col=child.col_offset,
                            has_args=bool(child.args or child.keywords),
                        )
                    )
            visit(child)

    visit(func)
    return tuple(sites)


def summarize_module(module: SourceModule) -> List[FunctionSummary]:
    """Summaries for every function defined in ``module``."""
    origins = import_origins(module.tree)
    summaries: List[FunctionSummary] = []
    for qualname, func in function_defs(module.tree):
        summaries.append(
            FunctionSummary(
                key=f"{module.package_path}::{qualname}",
                package_path=module.package_path,
                qualname=qualname,
                lineno=func.lineno,
                calls=_own_calls(func, origins),
            )
        )
    return summaries


def _module_dotted(package_path: str) -> str:
    """``util/jitter.py`` -> ``repro.util.jitter``."""
    trimmed = package_path[:-3] if package_path.endswith(".py") else package_path
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return "repro." + trimmed.replace("/", ".")


class CallGraph:
    """Summaries indexed for name resolution and reachability."""

    def __init__(self, summaries: Iterable[FunctionSummary]) -> None:
        self.functions: Dict[str, FunctionSummary] = {}
        self._by_module: Dict[str, Dict[str, str]] = {}
        self._by_dotted_module: Dict[str, str] = {}
        for summary in summaries:
            self.functions[summary.key] = summary
            per_module = self._by_module.setdefault(summary.package_path, {})
            per_module[summary.qualname] = summary.key
            self._by_dotted_module[_module_dotted(summary.package_path)] = (
                summary.package_path
            )

    def in_module(self, package_path: str) -> List[FunctionSummary]:
        keys = self._by_module.get(package_path, {})
        return [self.functions[key] for key in keys.values()]

    # ------------------------------------------------------------------
    def resolve(
        self, caller: FunctionSummary, target: str
    ) -> Optional[FunctionSummary]:
        """Best-effort mapping from a call target to a known function."""
        per_module = self._by_module.get(caller.package_path, {})
        head, _, rest = target.partition(".")
        if head in ("self", "cls") and rest:
            method = rest.partition(".")[0]
            if caller.class_prefix:
                key = per_module.get(f"{caller.class_prefix}.{method}")
                if key is not None:
                    return self.functions[key]
            candidates = [
                key
                for qualname, key in per_module.items()
                if qualname.rpartition(".")[2] == method and "." in qualname
            ]
            if len(candidates) == 1:
                return self.functions[candidates[0]]
            return None
        if "." not in target:
            key = per_module.get(target)
            return self.functions[key] if key is not None else None
        # Fully-dotted repro target: longest module prefix wins.
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_dotted = ".".join(parts[:cut])
            package_path = self._by_dotted_module.get(module_dotted)
            if package_path is None:
                continue
            qualname = ".".join(parts[cut:])
            key = self._by_module.get(package_path, {}).get(qualname)
            if key is not None:
                return self.functions[key]
        return None

    # ------------------------------------------------------------------
    def trace(
        self,
        key: str,
        predicate: Callable[[CallSite], bool],
        memo: Optional[
            Dict[str, Optional[Tuple[Tuple[str, CallSite], ...]]]
        ] = None,
    ) -> Optional[Tuple[Tuple[str, CallSite], ...]]:
        """The call chain from function ``key`` to a matching call site.

        Returns ``((owner_key, site), ...)`` ending at the first call
        site for which ``predicate`` holds, or ``None`` when no chain
        exists.  ``memo`` carries results across queries with the *same*
        predicate; reuse it for a whole rule pass, never across rules.
        """
        if memo is None:
            memo = {}
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard: a loop contributes no new chain
        summary = self.functions.get(key)
        if summary is None:
            return None
        for site in summary.calls:
            if predicate(site):
                memo[key] = ((key, site),)
                return memo[key]
        for site in summary.calls:
            callee = self.resolve(summary, site.target)
            if callee is None or callee.key == key:
                continue
            chain = self.trace(callee.key, predicate, memo)
            if chain is not None:
                memo[key] = ((key, site),) + chain
                return memo[key]
        return None


def build_call_graph(modules: Iterable[SourceModule]) -> CallGraph:
    """Summarise every module and index the result."""
    return CallGraph(
        summary for module in modules for summary in summarize_module(module)
    )
