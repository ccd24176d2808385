"""Runtime controllers: the command-center control loop.

:class:`BaseController` owns the periodic adjust loop, the action log and
the primitive operations every policy composes — applying a recycle plan,
retuning a core, launching a clone with work stealing, withdrawing an
instance.  After every tick the power-budget invariant is asserted: a
controller that overspends is a bug, not a runtime condition.

:class:`PowerChiefController` is the paper's full runtime (Sections 4-6):
balance-threshold gate, Equation-1 bottleneck identification, Algorithm-1
adaptive boosting with Algorithm-2 recycling, and the 150 s instance
withdraw loop.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.telemetry import PowerTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.audit import (
    AuditLog,
    BoostEntry,
    BottleneckEntry,
    InstanceMetricReading,
    PlannedDropReading,
    RecycleEntry,
    SkipEntry,
    WithdrawEntry,
)
from repro.core.actions import (
    ActionRecord,
    FrequencyChangeAction,
    InstanceLaunchAction,
    InstanceWithdrawAction,
    SkipAction,
)
from repro.core.boosting import BoostingDecision, BoostingDecisionEngine, BoostKind
from repro.core.bottleneck import BottleneckIdentifier
from repro.core.metrics import MetricKind
from repro.core.recycling import PowerRecycler, RecyclePlan
from repro.core.withdraw import InstanceWithdrawer
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.instance import ServiceInstance
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

__all__ = [
    "ControllerConfig",
    "ControllerTally",
    "BaseController",
    "PowerChiefController",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs shared by the latency-mitigation controllers (Table 2).

    Defaults are the paper's experiment configuration: 25 s adjust
    interval, 1 s balance threshold, 150 s withdraw interval.
    """

    adjust_interval_s: float = 25.0
    balance_threshold_s: float = 1.0
    withdraw_interval_s: float = 150.0
    metric_kind: MetricKind = MetricKind.POWERCHIEF
    min_queue_for_instance: int = 2
    withdraw_utilization: float = 0.2
    enable_withdraw: bool = True
    #: Exclude instances with stale metric inputs (served before, work
    #: queued, yet silent within the window — a hang signature) from the
    #: Equation-1 ranking.  Off by default: fault-free behaviour is
    #: bit-identical, the chaos harness turns it on.
    stale_metric_guard: bool = False

    def __post_init__(self) -> None:
        # Before the ranges: NaN slips past every ordered comparison and
        # infinity past the bounds, and a count must be a whole number.
        for name in (
            "adjust_interval_s",
            "balance_threshold_s",
            "withdraw_interval_s",
            "withdraw_utilization",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        count = self.min_queue_for_instance
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigurationError(
                f"min_queue_for_instance must be an integer, got {count!r}"
            )
        if self.adjust_interval_s <= 0.0:
            raise ConfigurationError(
                f"adjust interval must be > 0, got {self.adjust_interval_s}"
            )
        if self.balance_threshold_s < 0.0:
            raise ConfigurationError(
                f"balance threshold must be >= 0, got {self.balance_threshold_s}"
            )
        if self.withdraw_interval_s <= 0.0:
            raise ConfigurationError(
                f"withdraw interval must be > 0, got {self.withdraw_interval_s}"
            )


@dataclass
class ControllerTally:
    """What a controller's safety paths did over one run."""

    #: Ticks spent in conservative mode because telemetry was dark.
    degraded_ticks: int = 0
    #: Actions refused because their target was not a running instance.
    safety_clamps: int = 0


class BaseController(ABC):
    """Shared machinery for every runtime policy."""

    name = "base"

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        budget: PowerBudget,
        dvfs: DvfsActuator,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        self.sim = sim
        self.application = application
        self.command_center = command_center
        self.budget = budget
        self.dvfs = dvfs
        self.config = config if config is not None else ControllerConfig()
        self.identifier = BottleneckIdentifier(
            command_center, self.config.metric_kind
        )
        self.recycler = PowerRecycler(
            budget.machine.power_model, budget.machine.ladder
        )
        self.actions: list[ActionRecord] = []
        # The pillars come with the application: a ``None`` pillar (or
        # no bundle at all) records, counts or watches nothing.
        obs = application.observability
        #: Decision audit log.
        self.audit: Optional[AuditLog] = None if obs is None else obs.audit
        #: Registry the controller's counters land in.
        self.metrics: Optional[MetricsRegistry] = (
            None if obs is None else obs.metrics
        )
        #: Plain policies ignore it; the supervisor's storm monitor
        #: watches its burn rate.
        self.slo: Optional[SloTracker] = None if obs is None else obs.slo
        #: Power telemetry watched by the graceful-degradation guard.
        self.telemetry: Optional[PowerTelemetry] = None
        self.telemetry_staleness_s = 0.0
        self.tally = ControllerTally()
        self._process = PeriodicProcess(
            sim,
            self.config.adjust_interval_s,
            self._tick,
            name=f"{self.name}-controller",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach_telemetry(
        self, telemetry: PowerTelemetry, staleness_s: float = 15.0
    ) -> None:
        """Arm the telemetry-dark guard: when the freshest power sample is
        older than ``staleness_s`` at a tick, the controller degrades
        gracefully — it suspends the boost phase (which spends power on
        the strength of readings it no longer has) while still allowing
        withdraws (which only ever reduce draw).
        """
        if staleness_s <= 0.0:
            raise ConfigurationError(
                f"telemetry staleness must be > 0, got {staleness_s}"
            )
        self.telemetry = telemetry
        self.telemetry_staleness_s = float(staleness_s)

    def start(self) -> None:
        """Arm the periodic adjust loop."""
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    @property
    def ticks(self) -> int:
        return self._process.ticks

    def _tick(self, now: float) -> None:
        self.adjust(now)
        self.budget.assert_within()

    @abstractmethod
    def adjust(self, now: float) -> None:
        """One control interval; implemented by each policy."""

    # ------------------------------------------------------------------
    # Primitive operations (all logged)
    # ------------------------------------------------------------------
    def _log(self, record: ActionRecord) -> None:
        self.actions.append(record)

    def _skip(self, reason: str) -> None:
        self._log(SkipAction(time=self.sim.now, controller=self.name, reason=reason))
        if self.audit is not None:
            self.audit.record(
                SkipEntry(time=self.sim.now, controller=self.name, reason=reason)
            )

    def _clamp(self, instance: ServiceInstance, action: str) -> None:
        """Refuse an action whose target is no longer a running instance.

        Between ranking and acting, fault injection may crash the target
        (or a withdraw may start draining it); retuning or cloning a dead
        core would corrupt the power accounting.  The refusal is counted
        and audited, never silent.
        """
        self.tally.safety_clamps += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_controller_safety_clamps_total",
                "Controller actions refused because the target was not running",
            ).inc(controller=self.name)
        self._skip(
            f"safety clamp: {action} target {instance.name} is "
            f"{instance.state.value}"
        )

    def apply_recycle_plan(self, plan: RecyclePlan) -> None:
        """Execute every planned frequency drop (skipping dead victims)."""
        live_drops = [drop for drop in plan.drops if drop.instance.running]
        if len(live_drops) != len(plan.drops):
            for drop in plan.drops:
                if not drop.instance.running:
                    self._clamp(drop.instance, "recycle drop")
            plan = RecyclePlan(needed_watts=plan.needed_watts, drops=live_drops)
        if self.audit is not None and plan.drops:
            self.audit.record(
                RecycleEntry(
                    time=self.sim.now,
                    controller=self.name,
                    needed_watts=plan.needed_watts,
                    recycled_watts=plan.recycled_watts,
                    drops=tuple(
                        PlannedDropReading(
                            instance=drop.instance.name,
                            from_level=drop.from_level,
                            to_level=drop.to_level,
                            watts_freed=drop.watts_freed,
                        )
                        for drop in plan.drops
                    ),
                )
            )
        for drop in plan.drops:
            self.dvfs.set_level(drop.instance.core, drop.to_level)
            self._log(
                FrequencyChangeAction(
                    time=self.sim.now,
                    controller=self.name,
                    instance_name=drop.instance.name,
                    stage_name=drop.instance.stage_name,
                    from_level=drop.from_level,
                    to_level=drop.to_level,
                    reason="recycle",
                )
            )

    def set_instance_level(
        self, instance: ServiceInstance, level: int, reason: str
    ) -> None:
        """Retune one instance's core, logging the change."""
        if not instance.running:
            self._clamp(instance, f"retune ({reason})")
            return
        old = instance.level
        if level == old:
            return
        self.dvfs.set_level(instance.core, level)
        self._log(
            FrequencyChangeAction(
                time=self.sim.now,
                controller=self.name,
                instance_name=instance.name,
                stage_name=instance.stage_name,
                from_level=old,
                to_level=level,
                reason=reason,
            )
        )

    def launch_clone(self, bottleneck: ServiceInstance) -> ServiceInstance:
        """Instance boosting: clone the bottleneck and steal half its queue.

        "The new instance clones the frequency setting of the bottleneck
        instance as well as shares half of its load." (Section 5.1)
        """
        stage = self.application.stage(bottleneck.stage_name)
        clone = stage.launch_instance(bottleneck.level)
        stolen = bottleneck.steal_half()
        for job in stolen:
            clone.enqueue(job)
        self._log(
            InstanceLaunchAction(
                time=self.sim.now,
                controller=self.name,
                instance_name=clone.name,
                stage_name=stage.name,
                level=clone.level,
                stolen_jobs=len(stolen),
            )
        )
        return clone

    def apply_boosting_decision(self, decision: BoostingDecision) -> None:
        """Recycle then boost, per the engine's verdict.

        An INSTANCE decision with a ``target_level`` is a de-boost clone:
        the bottleneck is first lowered to that level (freeing its power
        surplus) and the clone launched at it.
        """
        if decision.kind is BoostKind.NONE:
            self._skip(decision.reason or "no actionable boost")
            return
        if not decision.bottleneck.running:
            # The bottleneck crashed (or started draining) between ranking
            # and acting: boosting a dead instance would clone from or
            # retune a released core.
            self._clamp(decision.bottleneck, "boost")
            return
        if (
            decision.kind is BoostKind.INSTANCE
            and decision.target_level is not None
        ):
            self.set_instance_level(
                decision.bottleneck, decision.target_level, reason="deboost"
            )
        self.apply_recycle_plan(decision.recycle_plan)
        if decision.kind is BoostKind.FREQUENCY:
            assert decision.target_level is not None
            self.set_instance_level(
                decision.bottleneck, decision.target_level, reason="boost"
            )
        else:
            self.launch_clone(decision.bottleneck)


class PowerChiefController(BaseController):
    """The full PowerChief runtime (bottleneck id + adaptive boost + withdraw)."""

    name = "powerchief"

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        budget: PowerBudget,
        dvfs: DvfsActuator,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        super().__init__(sim, application, command_center, budget, dvfs, config)
        self.engine = BoostingDecisionEngine(
            command_center,
            budget,
            budget.machine,
            self.recycler,
            min_queue_for_instance=self.config.min_queue_for_instance,
        )
        self.withdrawer = InstanceWithdrawer(
            self.identifier,
            utilization_threshold=self.config.withdraw_utilization,
        )
        self._last_withdraw_check = 0.0
        self.withdraw_passes = 0
        self.decisions: list[BoostingDecision] = []

    def adjust(self, now: float) -> None:
        self.withdrawer.observe(self.application, now)
        if (
            self.config.enable_withdraw
            and now - self._last_withdraw_check >= self.config.withdraw_interval_s
        ):
            # Advance the checkpoint by whole withdraw intervals instead of
            # snapping it to the tick time: when the adjust interval does
            # not divide the withdraw interval, snapping pushes every later
            # check out by the remainder and the cadence drifts without
            # bound.  Anchoring to t=0 keeps the long-run average cadence
            # at exactly ``withdraw_interval_s`` (individual passes still
            # land on adjust ticks, so they jitter within one interval).
            elapsed = now - self._last_withdraw_check
            self._last_withdraw_check += (
                elapsed // self.config.withdraw_interval_s
            ) * self.config.withdraw_interval_s
            self.withdraw_passes += 1
            for candidate in self.withdrawer.run(self.application, now):
                self._log(
                    InstanceWithdrawAction(
                        time=now,
                        controller=self.name,
                        instance_name=candidate.instance.name,
                        stage_name=candidate.instance.stage_name,
                        redirected_jobs=candidate.redirected_jobs,
                    )
                )
                if self.audit is not None:
                    self.audit.record(
                        WithdrawEntry(
                            time=now,
                            controller=self.name,
                            instance=candidate.instance.name,
                            stage=candidate.instance.stage_name,
                            utilization=candidate.utilization,
                            redirected_jobs=candidate.redirected_jobs,
                        )
                    )

        if not self.application.running_instances():
            # Under crash-heavy fault plans a stage (or the whole pool)
            # can be momentarily dark while the health monitor respawns.
            self._skip("no running instances")
            return
        if self.telemetry is not None:
            age = self.telemetry.seconds_since_last_sample(now)
            if age is None or age > self.telemetry_staleness_s:
                # Telemetry dark: the last-known-good reading is all we
                # have, and it says nothing about draw changes since.
                # Spending power on its strength could breach the budget
                # invariant, so the boost phase is suspended.  Withdraw
                # (above) stays active — it only ever reduces draw.
                self.tally.degraded_ticks += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "repro_controller_degraded_ticks_total",
                        "Ticks spent in conservative mode (telemetry dark)",
                    ).inc(controller=self.name)
                known = self.telemetry.last_known_good()
                described = (
                    "no sample ever arrived"
                    if known is None or age is None
                    else f"last sample {age:.1f}s old ({known.watts:.2f} W)"
                )
                self._skip(f"telemetry dark: {described}; boost suspended")
                return
        ranked = self.identifier.ranked(
            self.application, skip_stale=self.config.stale_metric_guard
        )
        if not ranked:
            self._skip("no running instances")
            return
        if self.audit is not None:
            # The Equation-1 terms are refetched per instance; within one
            # event the command center's windows are static, so these are
            # exactly the values the identifier just ranked on.
            self.audit.record(
                BottleneckEntry(
                    time=now,
                    controller=self.name,
                    readings=tuple(
                        InstanceMetricReading(
                            instance=entry.instance.name,
                            stage=entry.instance.stage_name,
                            metric=entry.metric,
                            queue_length=entry.instance.queue_length,
                            avg_queuing=self.command_center.avg_queuing(
                                entry.instance
                            ),
                            avg_serving=self.command_center.avg_serving(
                                entry.instance
                            ),
                        )
                        for entry in ranked
                    ),
                    bottleneck=ranked[-1].instance.name,
                    spread=ranked[-1].metric - ranked[0].metric,
                )
            )
        if len(ranked) >= 2:
            spread = ranked[-1].metric - ranked[0].metric
        else:
            # A lone instance has no peer to spread against: gate on its
            # own metric, so an idle single-instance application skips the
            # interval like any balanced system instead of firing a boost
            # attempt every tick.
            spread = ranked[-1].metric
        if spread < self.config.balance_threshold_s:
            self._skip(
                f"metric spread {spread:.4f}s below balance threshold "
                f"{self.config.balance_threshold_s}s"
            )
            return
        bottleneck = ranked[-1].instance
        victims = [entry.instance for entry in ranked[:-1]]
        decision = self.engine.select(bottleneck, victims)
        self.decisions.append(decision)
        if self.audit is not None:
            self.audit.record(
                BoostEntry(
                    time=now,
                    controller=self.name,
                    decision=decision.kind.value,
                    bottleneck=decision.bottleneck.name,
                    queue_length=decision.bottleneck.queue_length,
                    t_inst=decision.expected_delay_instance,
                    t_freq=decision.expected_delay_frequency,
                    target_level=decision.target_level,
                    planned_drops=tuple(
                        PlannedDropReading(
                            instance=drop.instance.name,
                            from_level=drop.from_level,
                            to_level=drop.to_level,
                            watts_freed=drop.watts_freed,
                        )
                        for drop in decision.recycle_plan.drops
                    ),
                    recycled_watts=decision.recycle_plan.recycled_watts,
                    reason=decision.reason,
                )
            )
        self.apply_boosting_decision(decision)
