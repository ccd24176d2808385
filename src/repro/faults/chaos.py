"""The chaos harness: one object that arms the whole fault subsystem.

A :class:`~repro.scenario.spec.ScenarioSpec` with a ``chaos`` plan makes
the :class:`~repro.scenario.builder.StackBuilder` build one
:class:`ChaosHarness` per stack.  The harness owns the plan, builds the
optional RPC fabric, and at install time wires together everything the
fault subsystem needs: the per-stage retry layers, the
:class:`~repro.faults.injector.FaultInjector`, the
:class:`~repro.faults.monitor.HealthMonitor`, and the controller's
graceful-degradation hooks (metrics, telemetry staleness guard).  After
the run, :meth:`ChaosHarness.report` folds it all into a
:class:`~repro.faults.report.GoodputReport`.

:func:`chaos_spec` is the recipe behind ``repro chaos`` and ``repro
guard``: the faulty run of one latency cell, with a drain window so
every retry settles.  The same cell without the plan is its fault-free
baseline.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Union

from repro.obs import Observability
from repro.scenario.config import TABLE2_CONTROLLER_CONFIG, app_stages
from repro.faults.injector import FaultInjector
from repro.faults.monitor import HealthMonitor, ResilienceConfig
from repro.faults.plan import FaultPlan
from repro.faults.report import GoodputReport
from repro.service.rpc import RpcFabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.budget import PowerBudget
    from repro.cluster.machine import Machine
    from repro.cluster.telemetry import PowerTelemetry
    from repro.core.controller import BaseController
    from repro.guard.config import GuardConfig
    from repro.scenario.results import RunResult
    from repro.scenario.spec import ScenarioSpec
    from repro.service.application import Application
    from repro.workloads.loadgen import LoadTrace

__all__ = ["ChaosHarness", "chaos_spec"]

#: Telemetry samples older than this mark the controller's power view dark.
_TELEMETRY_STALENESS_S = 15.0

#: Retry, health-check and respawn settings every chaos run uses.
_RESILIENCE = ResilienceConfig()


class ChaosHarness:
    """A fault plan plus the resilience stack that survives it."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injector: Optional[FaultInjector] = None
        self.monitor: Optional[HealthMonitor] = None
        self.application: Optional["Application"] = None
        self.controller: Optional["BaseController"] = None
        self._fabric: Optional[RpcFabric] = None

    def build_fabric(
        self, sim: Simulator, streams: RandomStreams
    ) -> Optional[RpcFabric]:
        """A fabric to route hops through, only when the plan needs one.

        The fabric is created with zero base latency, so outside fault
        windows it delivers at the same simulated instant as the direct
        path — plans without RPC faults skip it entirely and the
        application wiring stays untouched.
        """
        if not self.plan.touches_rpc:
            return None
        self._fabric = RpcFabric(sim, latency_s=0.0)
        return self._fabric

    def install(
        self,
        sim: Simulator,
        machine: "Machine",
        application: "Application",
        controller: "BaseController",
        budget: "PowerBudget",
        telemetry: Optional["PowerTelemetry"],
        streams: RandomStreams,
        observability: Optional[Observability],
    ) -> None:
        """Wire the fault subsystem into a freshly built run."""
        metrics = None if observability is None else observability.metrics
        application.attach_resilience(_RESILIENCE.retry, streams, metrics)
        self.injector = FaultInjector(
            sim,
            self.plan,
            streams.stream("faults"),
            application,
            telemetry=telemetry,
            fabric=self._fabric,
            observability=observability,
        )
        self.monitor = HealthMonitor(
            sim,
            application,
            budget,
            config=_RESILIENCE,
            observability=observability,
        )
        if metrics is not None:
            controller.attach_metrics(metrics)
        if telemetry is not None:
            controller.attach_telemetry(telemetry, staleness_s=_TELEMETRY_STALENESS_S)
        self.application = application
        self.controller = controller

    def start(self) -> None:
        assert self.injector is not None and self.monitor is not None
        self.injector.start()
        self.monitor.start()

    def stop(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()

    def report(self, result: "RunResult") -> GoodputReport:
        """The goodput ledger of the finished run this harness armed."""
        assert (
            self.application is not None
            and self.injector is not None
            and self.monitor is not None
            and self.controller is not None
        ), "the harness was never installed"
        return GoodputReport.from_run(
            self.plan.name,
            result,
            self.application,
            self.injector,
            self.monitor,
            self.controller,
        )


def drain_window_s(resilience: ResilienceConfig, n_stages: int) -> float:
    """How long after the last arrival the slowest query can still settle.

    Worst case, a query re-attempts ``max_attempts`` times at *every*
    stage, each attempt burning a full timeout plus the maximum backoff;
    one extra health interval covers a respawn the last retry waits on.
    """
    retry = resilience.retry
    per_stage = retry.max_attempts * (retry.timeout_s + retry.backoff_max_s)
    return n_stages * per_stage + resilience.health_interval_s


def chaos_spec(
    app: str,
    policy: str,
    trace: Union["LoadTrace", tuple],
    duration_s: float,
    plan: Union[str, FaultPlan],
    seed: int = 1,
    guard: Optional["GuardConfig"] = None,
    slo_target_s: Optional[float] = None,
) -> "ScenarioSpec":
    """One latency cell under a fault plan, with the resilience recipe.

    On top of ``ScenarioSpec.latency(app, policy, trace, duration_s,
    seed=seed)`` — the fault-free baseline of the same cell — the faulty
    run arms ``plan``, the controller's stale-metric guard, a
    :func:`drain_window_s` drain so every retry settles, and the trace,
    metrics and audit pillars (power telemetry, which the telemetry
    faults act on, only runs alongside a metrics registry).

    ``guard`` supervises the controller (monitors + the degradation
    ladder; the report grows a guard section).  ``slo_target_s`` arms
    an SLO tracker so the guard's SLO-storm monitor has a burn-rate
    gauge to watch.
    """
    # Deferred: repro.scenario imports this package while it loads.
    from repro.scenario.spec import ScenarioSpec

    observe: tuple[str, ...] = ("trace", "metrics", "audit")
    options: dict[str, float] = {}
    if slo_target_s is not None:
        observe += ("slo",)
        options["slo_target_s"] = float(slo_target_s)
    return ScenarioSpec.latency(
        app,
        policy,
        trace,
        duration_s,
        seed=seed,
        controller=dataclasses.replace(
            TABLE2_CONTROLLER_CONFIG, stale_metric_guard=True
        ),
        guard=guard,
        chaos=plan,
        drain_s=drain_window_s(_RESILIENCE, len(app_stages(app))),
        observe=observe,
        **options,
    )
