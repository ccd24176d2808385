"""Built-in checkers.  Importing this package registers every rule."""

from repro.lint.checkers import (  # noqa: F401  (imports register rules)
    dataclasses,
    determinism,
    metrics,
    picklability,
    scenario,
    units,
)

__all__ = [
    "dataclasses",
    "determinism",
    "metrics",
    "picklability",
    "scenario",
    "units",
]
