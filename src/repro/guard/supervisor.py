"""The supervised controller: policy + monitors + degradation ladder.

:class:`SupervisedController` implements the normal controller
interface, so the stack builder, chaos harness and CLI treat it exactly
like the policy it wraps.  Internally it owns a ladder of rungs — the
wrapped policy first, then the configured fallbacks
(:class:`~repro.guard.ladder.ConserveController`,
:class:`~repro.guard.ladder.SafeModeController`) — and every control
tick it (1) delegates to the active rung, (2) runs the invariant
monitors, (3) corrects any budget-cap breach directly, and (4) walks
the ladder: repeated violations inside the hysteresis window demote one
rung; a violation-free probation period re-promotes one rung.

Only the supervisor's own periodic process is ever started — rung
controllers are driven by delegation, never by their own timers — so a
violation-free supervised run replays the exact event sequence of its
unsupervised twin (the byte-identical golden pins this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.units import EPSILON_WATTS
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.telemetry import PowerTelemetry
from repro.core.controller import BaseController, ControllerConfig
from repro.guard.actuator import ClampingActuator
from repro.guard.config import GuardConfig
from repro.guard.ladder import ConserveController, SafeModeController
from repro.guard.monitors import (
    BudgetCapMonitor,
    EstimateSanityMonitor,
    GuardMonitor,
    LadderBoundsMonitor,
    OscillationMonitor,
    SloStormMonitor,
)
from repro.guard.violations import GuardTransition, GuardViolation
from repro.obs.audit import AuditLog, GuardTransitionEntry, GuardViolationEntry
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.instance import ServiceInstance
from repro.sim.engine import Simulator

__all__ = ["GuardSummary", "SupervisedController"]


@dataclass(frozen=True)
class GuardSummary:
    """What the guard saw and did over one run, for reports and JSON."""

    modes: Tuple[str, ...]
    final_mode: str
    violations_total: int
    violations_by_monitor: Tuple[Tuple[str, int], ...]
    transitions: Tuple[GuardTransition, ...]
    mode_seconds: Tuple[Tuple[str, float], ...]
    clamped_actions: int
    enforced_step_downs: int

    @property
    def safe_mode_engaged(self) -> bool:
        return any(t.to_mode == "safe" for t in self.transitions)

    @property
    def recovered(self) -> bool:
        return self.final_mode == self.modes[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "modes": list(self.modes),
            "final_mode": self.final_mode,
            "violations_total": self.violations_total,
            "violations_by_monitor": {
                monitor: count
                for monitor, count in self.violations_by_monitor
            },
            "transitions": [t.to_dict() for t in self.transitions],
            "mode_seconds": {mode: secs for mode, secs in self.mode_seconds},
            "clamped_actions": self.clamped_actions,
            "enforced_step_downs": self.enforced_step_downs,
            "safe_mode_engaged": self.safe_mode_engaged,
            "recovered": self.recovered,
        }


class SupervisedController(BaseController):
    """Wraps a policy in invariant monitors and a degradation ladder."""

    name = "supervised"

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        budget: PowerBudget,
        dvfs: DvfsActuator,
        config: Optional[ControllerConfig] = None,
        *,
        policy: Callable[..., BaseController],
        guard: Optional[GuardConfig] = None,
    ) -> None:
        super().__init__(sim, application, command_center, budget, dvfs, config)
        self.guard = guard if guard is not None else GuardConfig()
        #: The clamp shield between the untrusted policy and the cores.
        self.actuator = ClampingActuator(sim, budget)
        primary = policy(
            sim, application, command_center, budget, self.actuator, self.config
        )
        self._rungs: List[BaseController] = [primary]
        for rung_name in self.guard.rungs():
            if rung_name == "conserve":
                self._rungs.append(
                    ConserveController(
                        sim,
                        application,
                        command_center,
                        budget,
                        dvfs,
                        self.config,
                        headroom=self.guard.conserve_headroom,
                    )
                )
            else:
                self._rungs.append(
                    SafeModeController(
                        sim, application, command_center, budget, dvfs, self.config
                    )
                )
        self.modes: Tuple[str, ...] = tuple(r.name for r in self._rungs)
        # One shared action log: rung actions land in the supervisor's
        # list, so RunResult.actions matches the unsupervised twin.
        for rung in self._rungs:
            rung.actions = self.actions
        self._mode_index = 0
        self._storm = SloStormMonitor(
            self.guard.burn_threshold, self.guard.storm_ticks
        )
        self._monitors: List[GuardMonitor] = [
            BudgetCapMonitor(budget),
            LadderBoundsMonitor(application),
            EstimateSanityMonitor(application, command_center),
            OscillationMonitor(
                self.actions, self.guard.osc_window_s, self.guard.osc_max_flips
            ),
            self._storm,
        ]
        self.violations: List[GuardViolation] = []
        self.transitions: List[GuardTransition] = []
        self.enforced_step_downs = 0
        self._violation_times: Deque[float] = deque()
        self._last_violation_s = float("-inf")
        self._last_transition_s = 0.0
        self.mode_seconds: dict[str, float] = {mode: 0.0 for mode in self.modes}
        self._mode_since = sim.now

    # ------------------------------------------------------------------
    # Controller interface: attach points forward to every rung
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The currently active rung's name."""
        return self.modes[self._mode_index]

    @property
    def active(self) -> BaseController:
        return self._rungs[self._mode_index]

    def attach_audit(self, audit: AuditLog) -> None:
        super().attach_audit(audit)
        for rung in self._rungs:
            rung.attach_audit(audit)

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        super().attach_metrics(registry)
        for rung in self._rungs:
            rung.attach_metrics(registry)

    def attach_telemetry(
        self, telemetry: PowerTelemetry, staleness_s: float = 15.0
    ) -> None:
        super().attach_telemetry(telemetry, staleness_s)
        for rung in self._rungs:
            rung.attach_telemetry(telemetry, staleness_s)

    def attach_slo(self, slo: SloTracker) -> None:
        super().attach_slo(slo)
        self._storm.attach(slo)

    # The base class tallies these as plain attributes; the supervisor
    # aggregates across rungs, so reads go through properties and the
    # base-class writes (init to zero, the occasional own clamp) are
    # folded into a private component.
    @property
    def degraded_ticks(self) -> int:
        return self._own_degraded_ticks + sum(
            r.degraded_ticks for r in self._rungs
        )

    @degraded_ticks.setter
    def degraded_ticks(self, value: int) -> None:
        rung_total = (
            sum(r.degraded_ticks for r in self._rungs)
            if hasattr(self, "_rungs")
            else 0
        )
        self._own_degraded_ticks = value - rung_total

    @property
    def safety_clamps(self) -> int:
        return (
            self._own_safety_clamps
            + sum(r.safety_clamps for r in self._rungs)
            + self.actuator.clamped_actions
        )

    @safety_clamps.setter
    def safety_clamps(self, value: int) -> None:
        other = (
            sum(r.safety_clamps for r in self._rungs)
            + self.actuator.clamped_actions
            if hasattr(self, "_rungs")
            else 0
        )
        self._own_safety_clamps = value - other

    def stop(self) -> None:
        self.mode_seconds[self.mode] += self.sim.now - self._mode_since
        self._mode_since = self.sim.now
        super().stop()

    # ------------------------------------------------------------------
    # The supervised tick
    # ------------------------------------------------------------------
    def adjust(self, now: float) -> None:
        self.active.adjust(now)
        fresh: List[GuardViolation] = []
        for monitor in self._monitors:
            fresh.extend(monitor.check(now))
        for violation in fresh:
            self._record_violation(violation)
        self._enforce_cap(now)
        self._walk_ladder(now, fresh)

    def _record_violation(self, violation: GuardViolation) -> None:
        self.violations.append(violation)
        if self.audit is not None:
            self.audit.record(
                GuardViolationEntry(
                    time=violation.time,
                    controller=self.name,
                    monitor=violation.monitor,
                    severity=violation.severity,
                    message=violation.message,
                    value=violation.value,
                    limit=violation.limit,
                )
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_guard_violations_total",
                "Runtime invariant violations seen by the controller guard",
            ).inc(monitor=violation.monitor)

    def _enforce_cap(self, now: float) -> None:
        """Directly correct a budget-cap breach before the invariant assert.

        The ladder reacts on the next tick; the cap cannot wait for it.
        Steps the hottest instance down until draw fits, each step
        logged as a ``guard-enforce`` frequency change.
        """
        while self.budget.draw() > self.budget.budget_watts + EPSILON_WATTS:
            victim = self._hottest_running()
            if victim is None:
                break
            self.set_instance_level(victim, victim.level - 1, "guard-enforce")
            self.enforced_step_downs += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_guard_enforced_stepdowns_total",
                    "Frequency step-downs forced by the budget-cap guard",
                ).inc(controller=self.name)

    def _hottest_running(self) -> Optional[ServiceInstance]:
        candidates = [
            instance
            for instance in self.application.running_instances()
            if instance.level > instance.core.ladder.min_level
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda i: (i.level, i.name))

    def _walk_ladder(self, now: float, fresh: List[GuardViolation]) -> None:
        if fresh:
            self._last_violation_s = now
            self._violation_times.extend(v.time for v in fresh)
        horizon = now - self.guard.violation_window_s
        while self._violation_times and self._violation_times[0] < horizon:
            self._violation_times.popleft()
        at_bottom = self._mode_index == len(self._rungs) - 1
        if len(self._violation_times) >= self.guard.demote_after and not at_bottom:
            count = len(self._violation_times)
            self._transition(
                now,
                self._mode_index + 1,
                f"{count} violations within "
                f"{self.guard.violation_window_s:.0f}s",
            )
            self._violation_times.clear()
            return
        quiet_since = max(self._last_transition_s, self._last_violation_s)
        if (
            self._mode_index > 0
            and not fresh
            and now - quiet_since >= self.guard.probation_s
        ):
            self._transition(
                now,
                self._mode_index - 1,
                f"violation-free for the {self.guard.probation_s:.0f}s "
                f"probation window",
            )

    def _transition(self, now: float, new_index: int, reason: str) -> None:
        from_mode = self.mode
        to_mode = self.modes[new_index]
        self.mode_seconds[from_mode] += now - self._mode_since
        self._mode_since = now
        self._mode_index = new_index
        self._last_transition_s = now
        transition = GuardTransition(
            time=now, from_mode=from_mode, to_mode=to_mode, reason=reason
        )
        self.transitions.append(transition)
        if self.audit is not None:
            self.audit.record(
                GuardTransitionEntry(
                    time=now,
                    controller=self.name,
                    from_mode=from_mode,
                    to_mode=to_mode,
                    reason=reason,
                )
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_guard_transitions_total",
                "Degradation-ladder transitions taken by the controller guard",
            ).inc(from_mode=from_mode, to_mode=to_mode)
        activate = getattr(self.active, "activate", None)
        if activate is not None:
            activate(now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def guard_summary(self) -> GuardSummary:
        # Fold the still-open mode segment in without mutating state, so
        # the summary is correct mid-run and after stop() alike.
        mode_seconds = dict(self.mode_seconds)
        mode_seconds[self.mode] += self.sim.now - self._mode_since
        by_monitor: dict[str, int] = {}
        for violation in self.violations:
            by_monitor[violation.monitor] = (
                by_monitor.get(violation.monitor, 0) + 1
            )
        return GuardSummary(
            modes=self.modes,
            final_mode=self.mode,
            violations_total=len(self.violations),
            violations_by_monitor=tuple(sorted(by_monitor.items())),
            transitions=tuple(self.transitions),
            mode_seconds=tuple(
                (mode, mode_seconds[mode]) for mode in self.modes
            ),
            clamped_actions=self.actuator.clamped_actions,
            enforced_step_downs=self.enforced_step_downs,
        )
