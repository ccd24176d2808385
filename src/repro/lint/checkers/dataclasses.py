"""Dataclass invariants: no mutable defaults, frozen where shared.

``dataclass-mutable-default`` rejects field defaults that alias one
mutable object across every instance (including ``field(default=...)``
smuggling).  ``dataclass-frozen-shared`` finds dataclasses that are
value-like — every field annotation immutable, no method ever assigns to
``self`` — but not declared ``frozen=True``; those are the ones that get
hashed, cached and shipped across process boundaries, where aliasing
bugs are quietest.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = [
    "DataclassMutableDefaultChecker",
    "DataclassFrozenSharedChecker",
]

#: Constructors whose results are mutable containers.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}
)

#: Annotation heads considered immutable (value types).
_IMMUTABLE_NAMES = frozenset(
    {
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "complex",
        "None",
        "frozenset",
        # repro.units NewType wrappers are floats/ints underneath.
        "Watts",
        "Joules",
        "Hz",
        "Ghz",
        "DvfsLevel",
        "SimTime",
    }
)

#: Generic heads that are immutable when their arguments are.
_IMMUTABLE_GENERICS = frozenset(
    {"tuple", "Tuple", "frozenset", "FrozenSet", "Optional", "Union", "Literal", "Final"}
)


def _is_mutable_default(node: ast.expr) -> bool:
    """Whether a default expression aliases a mutable object."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    """The ``@dataclass`` decorator node of a class, if any."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _annotation_immutable(node: Optional[ast.expr]) -> bool:
    """Conservative: unknown annotations count as mutable."""
    if node is None:
        return False
    if isinstance(node, ast.Constant):
        return node.value is None or node.value is Ellipsis
    if isinstance(node, ast.Name):
        return node.id in _IMMUTABLE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _IMMUTABLE_NAMES or node.attr in _IMMUTABLE_GENERICS
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else None
        )
        if head_name not in _IMMUTABLE_GENERICS:
            return False
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_immutable(element) for element in elements)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_immutable(node.left) and _annotation_immutable(
            node.right
        )
    return False


def _attribute_stores(tree: ast.Module) -> set[str]:
    """Attribute names assigned anywhere in a module (``x.attr = ...``)."""
    stored: set[str] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                stored.add(target.attr)
    return stored


def _mutates_self(node: ast.ClassDef) -> bool:
    """Whether any method assigns to ``self.<attr>`` (or setattr on self)."""
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                targets = [statement.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
            if (
                isinstance(statement, ast.Call)
                and isinstance(statement.func, ast.Attribute)
                and statement.func.attr == "__setattr__"
            ):
                return True
    return False


@register
class DataclassMutableDefaultChecker(Checker):
    """Reject dataclass field defaults that alias a mutable object."""

    rule_id = "dataclass-mutable-default"
    description = (
        "dataclass fields must not default to a shared mutable object; "
        "use field(default_factory=...)"
    )
    hint = "use field(default_factory=list) (or dict/set) instead"
    scope = ()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _dataclass_decorator(node) is None:
                continue
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                default = statement.value
                if default is None:
                    continue
                if _is_mutable_default(default):
                    yield self.finding(
                        module,
                        statement,
                        "dataclass field defaults to a mutable object "
                        "shared across instances",
                    )
                elif (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id == "field"
                ):
                    for keyword in default.keywords:
                        if keyword.arg == "default" and _is_mutable_default(
                            keyword.value
                        ):
                            yield self.finding(
                                module,
                                statement,
                                "field(default=...) smuggles a shared "
                                "mutable default",
                            )


@register
class DataclassFrozenSharedChecker(Checker):
    """Value-like dataclasses must declare ``frozen=True``.

    Cross-module: a candidate (all fields immutable, its own methods
    never assign to ``self``) is only reported if no scanned module
    assigns to an attribute with one of its field names — anyone doing
    ``record.start_time = now`` elsewhere proves the class is a mutable
    record, not a shared value.
    """

    rule_id = "dataclass-frozen-shared"
    description = (
        "a dataclass with only immutable fields that nothing mutates is "
        "a shared value type and must be frozen"
    )
    hint = "declare @dataclass(frozen=True)"
    scope = ()

    def __init__(self) -> None:
        #: (finding, field names) per candidate class.
        self._candidates: list[tuple[Finding, frozenset[str]]] = []
        #: Attribute names assigned anywhere in the scanned tree.
        self._stored_attrs: set[str] = set()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        self._stored_attrs.update(_attribute_stores(module.tree))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None or _is_frozen(decorator):
                continue
            fields = [
                statement
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
            ]
            if not fields:
                continue
            if not all(
                _annotation_immutable(statement.annotation)
                for statement in fields
            ):
                continue
            if _mutates_self(node):
                continue
            names = frozenset(
                statement.target.id
                for statement in fields
                if isinstance(statement.target, ast.Name)
            )
            self._candidates.append(
                (
                    self.finding(
                        module,
                        node,
                        f"dataclass {node.name} is value-like (immutable "
                        f"fields, never mutated) but not frozen",
                    ),
                    names,
                )
            )
        return iter(())

    def finish(self) -> Iterator[Finding]:
        for finding, names in self._candidates:
            if not names & self._stored_attrs:
                yield finding

