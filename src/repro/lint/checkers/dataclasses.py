"""Dataclass invariant: frozen where shared.

``dataclass-frozen-shared`` finds dataclasses that are value-like — every
field annotation immutable, no method ever assigns to ``self`` — but not
declared ``frozen=True``; those are the ones that get hashed, cached and
shipped across process boundaries, where aliasing bugs are quietest.
Mutable field defaults need no rule: since Python 3.11 ``@dataclass``
itself raises ``ValueError`` for any unhashable default.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = ["DataclassFrozenSharedChecker"]

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


def _attribute_stores(nodes: Iterable[ast.AST]) -> set[str]:
    """Attribute names assigned anywhere in a module (``x.attr = ...``)."""
    stored: set[str] = set()
    for node in nodes:
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
        self._stored_attrs.update(_attribute_stores(module.nodes))
        for node in module.nodes:
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

