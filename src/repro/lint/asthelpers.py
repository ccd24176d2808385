"""Small AST utilities shared by the checkers."""

from __future__ import annotations

import ast
from typing import Iterable, Optional

__all__ = [
    "dotted_name",
    "import_origins",
    "resolve_call_target",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def import_origins(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``nodes`` are a module's nodes in ``ast.walk`` order.  ``import
    numpy as np`` maps ``np -> numpy``; ``from time import time as now``
    maps ``now -> time.time``.  Top-level and function-local imports
    both count — good enough for origin checks.
    """
    origins: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                origins[local] = f"{node.module}.{alias.name}"
    return origins


def resolve_call_target(
    call: ast.Call, origins: dict[str, str]
) -> Optional[str]:
    """The fully-qualified dotted target of a call, import-aware.

    ``np.random.rand()`` resolves to ``numpy.random.rand`` when ``np``
    was imported as ``numpy``; a bare ``now()`` resolves through a
    ``from time import time as now`` origin to ``time.time``.
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = origins.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin

