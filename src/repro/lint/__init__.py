"""repro-lint: domain-aware static analysis for the reproduction.

The test suite can only *sample* the controller's arithmetic invariants —
Equation 1 bottleneck metrics, Equation 2/3 boost estimates, budget
conservation across recycle/withdraw — so this package checks the
properties that must hold *everywhere* at the source level instead:

* determinism — no wall clock or unseeded randomness inside the
  simulator, controller or service layers (``wall-clock``,
  ``unseeded-random``);
* unit discipline — no arithmetic mixing watts, gigahertz and seconds
  (``unit-mismatch``);
* parallel-engine safety — everything crossing the
  :mod:`repro.experiments.parallel` process boundary must be module-level
  and picklable (``pickle-fanout``);
* observability hygiene — metric names are literal constants matching
  the naming convention and registered consistently (``metric-name``,
  ``metric-duplicate``);
* dataclass invariants — no mutable defaults, frozen where shared
  (``dataclass-mutable-default``, ``dataclass-frozen-shared``);
* stack assembly — experiment stacks come from the scenario layer
  (``scenario-bypass``);
* flow-aware families — per-function CFGs, a forward-dataflow
  framework and a cross-module call graph power ``unit-flow``,
  ``resource-pairing``, ``unordered-iteration``, ``rng-escape`` and
  ``observer-purity``.

Entry points: :func:`repro.lint.runner.lint_paths` (API), ``repro lint``
(CLI) and ``tests/lint/`` (the self-clean gate).  Findings are
suppressed per line with ``# repro-lint: disable=RULE`` or per file with
``# repro-lint: disable-file=RULE``; output is human text, JSON or
SARIF 2.1.0 (:mod:`repro.lint.sarif`).  General Python style (mutable
default arguments, shadowed builtins) is ruff's job, not this package's.
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
