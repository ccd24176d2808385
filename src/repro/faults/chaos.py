"""The chaos harness: one object that arms the whole fault subsystem.

:class:`ChaosHarness` is what :func:`~repro.experiments.runner.run_latency_experiment`
accepts via its ``chaos`` parameter.  It owns the plan and the resilience
config, builds the optional RPC fabric, and at install time wires
together everything the fault subsystem needs: the per-stage retry
layers, the :class:`~repro.faults.injector.FaultInjector`, the
:class:`~repro.faults.monitor.HealthMonitor`, and the controller's
graceful-degradation hooks (metrics, telemetry staleness guard).

:func:`run_chaos_experiment` is the turnkey entry point behind
``repro chaos``: it runs the faulty cell (with a drain window so every
retry settles), optionally the fault-free baseline of the same cell, and
folds both into a :class:`~repro.faults.report.GoodputReport`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro.errors import ExperimentError
from repro.obs import Observability
from repro.core.controller import ControllerConfig
from repro.scenario.config import (
    TABLE2_CONTROLLER_CONFIG,
    TABLE2_INITIAL_FREQ_GHZ,
    TABLE2_POWER_BUDGET_WATTS,
)
from repro.faults.injector import FaultEvent, FaultInjector
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
    from repro.scenario.results import RunResult
    from repro.scenario.spec import StageAllocation
    from repro.guard.config import GuardConfig
    from repro.service.application import Application
    from repro.workloads.loadgen import LoadTrace

__all__ = ["ChaosHarness", "ChaosRunResult", "run_chaos_experiment"]

#: Telemetry samples older than this mark the controller's power view dark.
_TELEMETRY_STALENESS_S = 15.0


class ChaosHarness:
    """Plan + resilience config, ready to be threaded into a runner."""

    def __init__(
        self,
        plan: FaultPlan,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.plan = plan
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.injector: Optional[FaultInjector] = None
        self.monitor: Optional[HealthMonitor] = None
        self.application: Optional["Application"] = None
        self.controller: Optional["BaseController"] = None
        self._fabric: Optional[RpcFabric] = None

    @property
    def fabric(self) -> Optional[RpcFabric]:
        """The zero-latency fabric built for RPC faults, if the plan has any."""
        return self._fabric

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
        application.attach_resilience(self.resilience.retry, streams, metrics)
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
            config=self.resilience,
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


@dataclass
class ChaosRunResult:
    """A faulty run, its goodput ledger, and the optional clean twin."""

    plan: FaultPlan
    result: "RunResult"
    report: GoodputReport
    events: tuple[FaultEvent, ...]
    baseline: Optional["RunResult"]
    observability: Observability


def drain_window_s(resilience: ResilienceConfig, n_stages: int) -> float:
    """How long after the last arrival the slowest query can still settle.

    Worst case, a query re-attempts ``max_attempts`` times at *every*
    stage, each attempt burning a full timeout plus the maximum backoff;
    one extra health interval covers a respawn the last retry waits on.
    """
    retry = resilience.retry
    per_stage = retry.max_attempts * (retry.timeout_s + retry.backoff_max_s)
    return n_stages * per_stage + resilience.health_interval_s


def run_chaos_experiment(
    app: str,
    policy: str,
    trace: "LoadTrace",
    duration_s: float,
    plan: FaultPlan,
    seed: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    with_baseline: bool = True,
    budget_watts: float = TABLE2_POWER_BUDGET_WATTS,
    initial_freq_ghz: float = TABLE2_INITIAL_FREQ_GHZ,
    controller_config: ControllerConfig = TABLE2_CONTROLLER_CONFIG,
    allocation: Optional[Mapping[str, "StageAllocation"]] = None,
    n_cores: int = 16,
    guard: Optional["GuardConfig"] = None,
    slo_target_s: Optional[float] = None,
) -> ChaosRunResult:
    """Run one latency cell under a fault plan (plus a clean twin).

    The faulty run gets the full resilience stack and the controller's
    stale-metric guard; the baseline (same app/policy/trace/seed, no
    chaos) goes through the untouched fault-free path, so its numbers are
    bit-identical to a normal :func:`run_latency_experiment` call.

    ``guard`` supervises the faulty run's controller (monitors + the
    degradation ladder; the report grows a guard section).
    ``slo_target_s`` arms an SLO tracker on the faulty run so the
    guard's SLO-storm monitor has a burn-rate gauge to watch.
    """
    from repro.experiments.runner import run_latency_experiment
    from repro.obs.slo import SloTracker
    from repro.scenario.builder import _profiles_for

    config = resilience if resilience is not None else ResilienceConfig()
    harness = ChaosHarness(plan, config)
    observability = Observability.enabled()
    if slo_target_s is not None:
        observability.slo = SloTracker(
            target_s=float(slo_target_s), registry=observability.metrics
        )
    guarded_config = dataclasses.replace(controller_config, stale_metric_guard=True)
    drain_s = drain_window_s(config, len(_profiles_for(app)))
    result = run_latency_experiment(
        app,
        policy,
        trace,
        duration_s,
        seed=seed,
        budget_watts=budget_watts,
        initial_freq_ghz=initial_freq_ghz,
        controller_config=guarded_config,
        allocation=allocation,
        n_cores=n_cores,
        observability=observability,
        chaos=harness,
        drain_s=drain_s,
        guard=guard,
    )
    if (
        harness.application is None
        or harness.injector is None
        or harness.monitor is None
        or harness.controller is None
    ):
        raise ExperimentError("chaos harness was never installed by the runner")
    report = GoodputReport.from_run(
        plan.name,
        result,
        harness.application,
        harness.injector,
        harness.monitor,
        harness.controller,
    )
    baseline: Optional["RunResult"] = None
    if with_baseline:
        baseline = run_latency_experiment(
            app,
            policy,
            trace,
            duration_s,
            seed=seed,
            budget_watts=budget_watts,
            initial_freq_ghz=initial_freq_ghz,
            controller_config=controller_config,
            allocation=allocation,
            n_cores=n_cores,
        )
    return ChaosRunResult(
        plan=plan,
        result=result,
        report=report,
        events=tuple(harness.injector.events),
        baseline=baseline,
        observability=observability,
    )
