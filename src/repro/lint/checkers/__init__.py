"""Built-in checkers.  Importing this package registers every rule."""

from repro.lint.checkers import (  # noqa: F401  (imports register rules)
    determinism,
    scenario,
)

__all__ = ["determinism", "scenario"]
