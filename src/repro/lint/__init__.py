"""repro-lint: domain-aware static analysis for the reproduction.

The test suite can only *sample* the simulation, so this package checks
the properties that must hold *everywhere* at the source level and that
no test or generic linter sees:

* determinism — no wall clock inside the simulator, controller or
  service layers, no unseeded randomness anywhere, and no iteration over
  sets where loops feed the event queue (``wall-clock``,
  ``unseeded-random``, ``unordered-iteration``);
* stack assembly — experiment stacks come from the scenario layer
  (``scenario-bypass``).

Every rule is one pass over each module's AST and decides from that
module alone.  Hygiene that a runtime check already enforces is left
there: :class:`~repro.obs.metrics.MetricsRegistry` refuses a metric name
off the convention and a conflicting kind or help text, and the
:mod:`repro.units` wrappers are checked by ``mypy --strict``.

Entry points: :func:`repro.lint.runner.lint_paths` (API), ``repro lint``
(CLI) and ``tests/lint/`` (the self-clean gate).  Findings are
suppressed per line with ``# repro-lint: disable=RULE`` or per file with
``# repro-lint: disable-file=RULE``; output is human text, JSON or
SARIF 2.1.0 (:mod:`repro.lint.sarif`).  General Python style (mutable
default arguments, shadowed builtins) is ruff's job, not this package's,
and mutable dataclass defaults are rejected by ``@dataclass`` itself.
"""

from repro.lint.findings import Finding, LintReport
from repro.lint.registry import Checker, CheckerRegistry, default_registry
from repro.lint.runner import lint_paths
from repro.lint.sarif import report_to_sarif, validate_sarif
from repro.lint.source import SourceModule

__all__ = [
    "Checker",
    "CheckerRegistry",
    "Finding",
    "LintReport",
    "SourceModule",
    "default_registry",
    "lint_paths",
    "report_to_sarif",
    "validate_sarif",
]
