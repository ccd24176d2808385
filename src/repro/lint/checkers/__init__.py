"""Built-in checkers.  Importing this package registers every rule."""

from repro.lint.checkers import (  # noqa: F401  (imports register rules)
    dataclasses,
    determinism,
    flowdeterminism,
    metrics,
    pairing,
    picklability,
    purity,
    scenario,
    unitflow,
    units,
)

__all__ = [
    "dataclasses",
    "determinism",
    "flowdeterminism",
    "metrics",
    "pairing",
    "picklability",
    "purity",
    "scenario",
    "unitflow",
    "units",
]
