"""Determinism rules: the simulated world must not read the host's clock,
the process-global random state, or a set's iteration order.

``wall-clock`` covers ``sim/``, ``core/`` and ``service/`` — everything
that executes inside the simulation: wall-clock time must route through
the sim clock (:attr:`repro.sim.engine.Simulator.now`).
``unseeded-random`` covers every file: randomness routes through the
named streams of :mod:`repro.sim.rng`, and a helper anywhere in the tree
can be called from the simulation.  ``unordered-iteration`` covers the
packages whose loops feed the event queue.  Otherwise two runs of the
same seed diverge and the content-addressed result cache silently lies.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.asthelpers import dotted_name, resolve_call_target
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = [
    "WallClockChecker",
    "UnseededRandomChecker",
    "UnorderedIterationChecker",
]

_SIM_SCOPE = ("sim/", "core/", "service/")

#: Call targets that read the host clock.
_WALL_CLOCK_TARGETS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level ``random`` functions that draw from the global, unseeded
#: stream (seeding it globally is just as bad: it is shared state).
_GLOBAL_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Explicitly allowed targets under those prefixes: constructing an
#: *owned* generator is fine when it is seeded (checked separately).
_GENERATOR_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.Generator"}
)


@register
class WallClockChecker(Checker):
    """Forbid host-clock reads inside the simulated world."""

    rule_id = "wall-clock"
    description = (
        "no time.time()/datetime.now() style host-clock reads inside "
        "sim/, core/ or service/"
    )
    hint = "use the simulated clock (Simulator.now or an injected clock callable)"
    scope = _SIM_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        origins = module.origins
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, origins)
            if target in _WALL_CLOCK_TARGETS:
                yield self.finding(
                    module,
                    node,
                    f"call to {target}() reads the host clock inside the "
                    f"simulated world",
                )


@register
class UnseededRandomChecker(Checker):
    """Forbid the global random stream and unseeded generators."""

    rule_id = "unseeded-random"
    description = (
        "no global random/numpy.random draws anywhere — randomness routes "
        "through sim/rng.py named streams"
    )
    hint = (
        "draw from a named stream (RandomStreams.stream(...)) or accept a "
        "seeded random.Random"
    )
    scope = ()  # a helper anywhere can be called from the simulation

    def check(self, module: SourceModule) -> Iterator[Finding]:
        origins = module.origins
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, origins)
            if target is None:
                continue
            if target in _GENERATOR_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        f"{target}() constructed without a seed",
                        hint="pass an explicit seed derived from the "
                        "experiment's master seed",
                    )
                continue
            if any(target.startswith(prefix) for prefix in _GLOBAL_RANDOM_PREFIXES):
                yield self.finding(
                    module,
                    node,
                    f"call to {target}() uses the process-global random "
                    f"stream",
                )


#: Annotation heads that declare a set.
_SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})
_SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference"})
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node) if node is not None else None
    return name is not None and name.rsplit(".", 1)[-1] in _SET_TYPES


def _is_set(node: ast.expr, names: set[str]) -> bool:
    """Whether ``node`` is confidently set-valued."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return _is_set(node.left, names) or _is_set(node.right, names)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_set(func.value, names)
    return False


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of ``scope``, not descending into nested scopes."""
    nodes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        nodes.append(node := stack.pop())
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _set_names(scope: ast.AST, nodes: list[ast.AST]) -> set[str]:
    """Locals and parameters bound to, or annotated as, a set."""
    args = getattr(scope, "args", None)
    params = (
        [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if isinstance(args, ast.arguments)
        else []
    )
    names = {arg.arg for arg in params if _is_set_annotation(arg.annotation)}
    bindings: list[tuple[str, ast.expr]] = []
    for node in nodes:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                names.add(node.target.id)
            elif node.value is not None:
                bindings.append((node.target.id, node.value))
        elif isinstance(node, ast.Assign):
            bindings += [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
    while True:  # a name bound from another set-bound name is a set too
        fresh = {name for name, value in bindings if _is_set(value, names)} - names
        if not fresh:
            return names
        names |= fresh


@register
class UnorderedIterationChecker(Checker):
    """Forbid iterating a set where its order can reach the event queue."""

    rule_id = "unordered-iteration"
    description = (
        "no for loop or comprehension over a set/frozenset — set order "
        "depends on insertion history and hash seeds"
    )
    hint = "iterate sorted(the_set) (or an explicitly ordered container)"
    scope = ("sim/", "core/", "service/", "faults/", "scenario/")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        tree = module.tree
        for scope in [tree, *(n for n in module.nodes if isinstance(n, _SCOPE_NODES))]:
            nodes = _own_nodes(scope)
            names = _set_names(scope, nodes)
            for node in nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables = [node.iter]
                elif isinstance(node, _COMPREHENSIONS):
                    iterables = [generator.iter for generator in node.generators]
                else:
                    continue
                if any(_is_set(iterable, names) for iterable in iterables):
                    yield self.finding(
                        module,
                        node,
                        "iterating an unordered set: its order depends on "
                        "insertion history and hash seeds",
                    )
