"""Unit-discipline rule: no arithmetic mixing watts, hertz and seconds.

Works off the identifier-suffix convention the codebase (and now
:mod:`repro.units`) encodes: ``*_watts`` is a power, ``*_ghz`` a
frequency, ``*_s``/``*_seconds`` a duration, and so on.  Adding,
subtracting or order-comparing two quantities whose inferred units
disagree is dimensionally meaningless — exactly the class of silent
Algorithm-1 drift the paper's budget-conservation invariant forbids.
Multiplication and division are allowed because they legitimately change
units (power x time = energy).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.asthelpers import unit_of_identifier
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register
from repro.lint.source import SourceModule

__all__ = ["UnitMismatchChecker"]

#: NewType constructors from repro.units, mapped to the unit they tag.
_UNIT_CONSTRUCTORS = {
    "Watts": "W",
    "Joules": "J",
    "Hz": "Hz",
    "Ghz": "GHz",
    "SimTime": "s",
}

_MISMATCH_OPS = (ast.Add, ast.Sub)
_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _unit_of_expression(node: ast.expr) -> Optional[str]:
    """Best-effort unit of an expression, or ``None`` when unknown.

    Names and attributes infer from their suffix; calls to the
    :mod:`repro.units` constructors carry their tag; unary +/- is
    transparent.  Everything else is unknown — the rule only fires when
    *both* operands have a confidently inferred unit.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _unit_of_expression(node.operand)
    if isinstance(node, ast.Name):
        return unit_of_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_identifier(node.attr)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return _UNIT_CONSTRUCTORS.get(node.func.id)
    return None


@register
class UnitMismatchChecker(Checker):
    """Flag +/-/comparison between identifiers of different units."""

    rule_id = "unit-mismatch"
    description = (
        "no addition, subtraction or comparison between quantities whose "
        "unit suffixes disagree (watts vs ghz vs seconds)"
    )
    hint = (
        "convert one operand explicitly (see repro.units) or rename the "
        "identifier to its real unit"
    )
    scope = ()  # unit discipline holds everywhere

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, _MISMATCH_OPS
            ):
                yield from self._judge(module, node, node.left, node.right)
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(node.ops[0], _COMPARE_OPS):
                    yield from self._judge(
                        module, node, node.left, node.comparators[0]
                    )

    def _judge(
        self,
        module: SourceModule,
        node: ast.AST,
        left: ast.expr,
        right: ast.expr,
    ) -> Iterator[Finding]:
        left_unit = _unit_of_expression(left)
        right_unit = _unit_of_expression(right)
        if left_unit is None or right_unit is None:
            return
        if left_unit != right_unit:
            yield self.finding(
                module,
                node,
                f"arithmetic mixes units: left operand is {left_unit}, "
                f"right operand is {right_unit}",
            )
