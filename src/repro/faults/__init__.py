"""Deterministic fault injection and the resilience harness.

The package splits cleanly into *breaking things* and *surviving them*:

* :mod:`repro.faults.plan` — declarative, JSON round-trippable fault
  schedules (crash, hang, degrade, telemetry dropout/noise, RPC
  delay/loss) with built-in named scenarios;
* :mod:`repro.faults.injector` — fires a plan off the sim clock with a
  dedicated seeded stream, logging every event;
* :mod:`repro.faults.monitor` — behavioural hang detection and
  power-aware respawn of crashed instances;
* :mod:`repro.faults.report` — the goodput ledger that proves the
  zero-orphan invariant;
* :mod:`repro.faults.chaos` — :class:`ChaosHarness`, which the stack
  builder uses to wire it all into a run, and
  :func:`~repro.faults.chaos.chaos_spec`, the scenario recipe behind
  ``repro chaos`` and ``repro guard``.

Everything is opt-in: a scenario without a ``chaos`` plan builds no
:class:`ChaosHarness` and stays bit-identical to the pre-fault codebase.
"""

from repro.faults.chaos import ChaosHarness, chaos_spec
from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.monitor import HealthMonitor, ResilienceConfig
from repro.faults.plan import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    PlanValidationError,
    load_plan,
    named_plans,
)
from repro.faults.report import GoodputReport

__all__ = [
    "ChaosHarness",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "GoodputReport",
    "HealthMonitor",
    "PlanValidationError",
    "ResilienceConfig",
    "chaos_spec",
    "load_plan",
    "named_plans",
]
