"""Flow-aware determinism rules: set iteration and escaping RNG.

The repo's byte-identical determinism guarantee — golden tests, the
content-addressed result cache, the PR 1 parallel fan-out — survives
only if every ordered side effect is fed in a deterministic order.  Two
leak paths the per-node rules (PR 3) cannot see:

* ``unordered-iteration`` — a ``for`` loop over a ``set``/``frozenset``
  whose body schedules simulator events, pushes onto a heap, or draws
  from an RNG stream.  Set iteration order varies with insertion
  history and (for str/bytes keys under hash randomisation) between
  processes; once it feeds ``Simulator.schedule`` the event sequence —
  and therefore every downstream tiebreak — diverges.  The check is
  interprocedural: a loop body calling a helper that *transitively*
  schedules is flagged too, via the cross-module call graph.  Iterating
  ``sorted(...)`` fixes it.

* ``rng-escape`` — a call from the simulated world (``sim/``, ``core/``,
  ``service/``, ``faults/``) into a helper *outside* it that draws from
  the process-global ``random``/``numpy.random`` stream.  The direct
  in-scope case is ``unseeded-random``'s; this rule closes the wrapper
  loophole by tracing call chains through the call graph and flagging
  the in-scope call site, naming the terminal draw.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import CallSite, FunctionSummary
from repro.lint.cfg import function_defs
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = ["UnorderedIterationChecker", "RngEscapeChecker"]

#: Where the simulated world lives — both rules report only here.
_SIM_SCOPE = ("sim/", "core/", "service/", "faults/", "scenario/")

#: Call names whose argument/order sensitivity makes iteration order
#: observable: event scheduling, heap pushes, RNG draws (victim picks).
_ORDER_SENSITIVE = frozenset(
    {
        "schedule",
        "schedule_at",
        "heappush",
        "heappushpop",
        "choice",
        "sample",
        "shuffle",
        "randint",
        "random",
    }
)

#: Targets under these prefixes draw from the process-global stream.
_GLOBAL_RANDOM_PREFIXES = ("random.", "numpy.random.")
_GENERATOR_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.Generator"}
)

_SKIP_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

_SET_TYPE_NAMES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in _SET_TYPE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_TYPE_NAMES
    return False


def _set_locals(func: ast.AST) -> Set[str]:
    """Names confidently bound to sets anywhere in the function.

    Flow-insensitive on purpose: rebinding a name from a set to a list
    mid-function is rare, and a may-alias answer only ever widens the
    reach of a rule whose findings are verified against the loop body
    anyway.
    """
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    target = node.targets[0].id
                    value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                target = node.target.id
                if _annotation_is_set(node.annotation):
                    if target not in names:
                        names.add(target)
                        changed = True
                    continue
                value = node.value
            if target is None or value is None:
                continue
            if _is_set_expr(value, names) and target not in names:
                names.add(target)
                changed = True
    return names


def _is_set_expr(expr: ast.expr, set_names: Set[str]) -> bool:
    """Whether an expression is confidently set-valued."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in (
            "set",
            "frozenset",
        ):
            return True
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _SET_METHODS
        ):
            return _is_set_expr(expr.func.value, set_names)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(expr.left, set_names) or (
            isinstance(expr.op, (ast.BitAnd, ast.Sub))
            and _is_set_expr(expr.right, set_names)
        )
    return False


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested functions/classes."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SKIP_NESTED):
                continue
            stack.append(child)


def _order_sensitive_site(site: CallSite) -> bool:
    return site.last() in _ORDER_SENSITIVE


def _global_random_site(site: CallSite) -> bool:
    if site.target in _GENERATOR_CONSTRUCTORS:
        return not site.has_args  # unseeded construction
    return any(
        site.target.startswith(prefix) for prefix in _GLOBAL_RANDOM_PREFIXES
    )


@register
class UnorderedIterationChecker(Checker):
    """Flag set iteration whose body reaches ordered side effects."""

    rule_id = "unordered-iteration"
    description = (
        "no iteration over set/frozenset values that (transitively) "
        "schedules events, pushes heap entries or draws randomness — "
        "set order is not deterministic"
    )
    hint = "iterate sorted(the_set) (or an explicitly ordered container)"
    scope = _SIM_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        graph = self.context.call_graph if self.context is not None else None
        memo: Dict[str, object] = {}
        for qualname, func in function_defs(module.tree):
            summary = (
                graph.functions.get(f"{module.package_path}::{qualname}")
                if graph is not None
                else None
            )
            set_names = _set_locals(func)
            for node in _own_nodes(func):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                if not _is_set_expr(node.iter, set_names):
                    continue
                reason = self._body_reaches(node, summary, memo)
                if reason is None:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"iterating an unordered set feeds {reason} — event "
                    f"order becomes insertion-history dependent",
                )

    def _body_reaches(
        self,
        loop: ast.For,
        summary: Optional[FunctionSummary],
        memo: Dict[str, object],
    ) -> Optional[str]:
        """Why the loop body is order-sensitive, or ``None``."""
        graph = self.context.call_graph if self.context is not None else None
        body_lines = set()
        calls: List[Tuple[str, int]] = []
        for stmt in loop.body:
            for node in _own_nodes(stmt):
                if isinstance(node, ast.Call):
                    name: Optional[str] = None
                    if isinstance(node.func, ast.Attribute):
                        name = node.func.attr
                    elif isinstance(node.func, ast.Name):
                        name = node.func.id
                    if name is None:
                        continue
                    if name in _ORDER_SENSITIVE:
                        return f"{name}() directly"
                    calls.append((name, node.lineno))
                    body_lines.add(node.lineno)
        if graph is None or summary is None:
            return None
        for site in summary.calls:
            if site.lineno not in body_lines:
                continue
            callee = graph.resolve(summary, site.target)
            if callee is None:
                continue
            chain = graph.trace(callee.key, _order_sensitive_site, memo)  # type: ignore[arg-type]
            if chain is not None:
                terminal_key, terminal = chain[-1]
                return (
                    f"{site.last()}() which reaches "
                    f"{terminal.last()}() "
                    f"({terminal_key.split('::')[0]}:{terminal.lineno})"
                )
        return None


@register
class RngEscapeChecker(Checker):
    """Flag in-scope calls into helpers that draw global randomness."""

    rule_id = "rng-escape"
    description = (
        "no call from sim/, core/, service/ or faults/ into an outside "
        "helper that (transitively) draws from the process-global "
        "random/numpy.random stream"
    )
    hint = (
        "thread a seeded stream (RandomStreams.stream(...)) into the "
        "helper instead of letting it reach for the global RNG"
    )
    scope = _SIM_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if self.context is None:
            return
        graph = self.context.call_graph
        memo: Dict[str, object] = {}
        for summary in sorted(
            graph.in_module(module.package_path), key=lambda s: s.lineno
        ):
            for site in summary.calls:
                callee = graph.resolve(summary, site.target)
                if callee is None:
                    continue
                if callee.package_path.startswith(_SIM_SCOPE):
                    continue  # in-scope callees are checked directly
                chain = graph.trace(callee.key, _global_random_site, memo)  # type: ignore[arg-type]
                if chain is None:
                    continue
                terminal_key, terminal = chain[-1]
                yield Finding(
                    path=str(module.path),
                    package_path=module.package_path,
                    line=site.lineno,
                    column=site.col + 1,
                    rule=self.rule_id,
                    message=(
                        f"call to {site.last()}() escapes the seeded "
                        f"streams: it reaches {terminal.target}() at "
                        f"{terminal_key.split('::')[0]}:{terminal.lineno}"
                    ),
                    hint=self.hint,
                )
