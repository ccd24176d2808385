"""Goodput accounting for chaos runs.

The zero-orphan invariant — every admitted query is *completed*,
*retried-then-completed* or *explicitly timed-out*, never silently lost —
is checked here, where all the counters meet: the application's
submitted/completed/timed-out tallies, the per-stage resilience stats,
the stage crash/orphan counts, the health monitor's detections and
respawns, and the injector's event log.  :meth:`GoodputReport.render`
prints the report the ``repro chaos`` subcommand shows, with deltas
against a fault-free baseline when one was run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.controller import BaseController
    from repro.scenario.results import RunResult
    from repro.faults.injector import FaultInjector
    from repro.faults.monitor import HealthMonitor
    from repro.service.application import Application

__all__ = ["GoodputReport"]


@dataclass(frozen=True)
class GoodputReport:
    """Where every admitted query ended up, plus the recovery ledger."""

    plan: str
    submitted: int
    completed: int
    retried_completed: int
    timed_out: int
    in_flight: int
    orphaned: int
    retries: int
    attempt_timeouts: int
    crash_requeues: int
    crashes: int
    hangs_detected: int
    respawns: int
    faults_injected: int
    degraded_ticks: int
    safety_clamps: int
    p99_s: float
    qps: float
    average_power_watts: float
    #: Guard section (violations, ladder transitions, time in safe mode);
    #: ``None`` when the run was not supervised.
    guard: Optional[dict] = None

    @property
    def goodput_fraction(self) -> float:
        """Fraction of admitted queries that completed."""
        if self.submitted == 0:
            return 0.0
        return self.completed / self.submitted

    @property
    def accounted(self) -> bool:
        """The zero-orphan invariant: every query settled, none lost.

        ``in_flight`` must be zero (the drain window let every retry
        resolve) and no stage recorded a truly lost job.
        """
        return self.in_flight == 0 and self.orphaned == 0

    @classmethod
    def from_run(
        cls,
        plan: str,
        result: "RunResult",
        application: "Application",
        injector: "FaultInjector",
        monitor: "HealthMonitor",
        controller: "BaseController",
    ) -> "GoodputReport":
        # Duck-typed so the report needs no guard import: only the
        # SupervisedController carries a guard_summary() method.
        summarize_guard = getattr(controller, "guard_summary", None)
        guard = None if summarize_guard is None else summarize_guard().to_dict()
        retries = 0
        attempt_timeouts = 0
        crash_requeues = 0
        orphaned = 0
        crashes = 0
        for stage in application.stages:
            orphaned += stage.orphaned_jobs
            crashes += stage.crashes
            resilience = stage.resilience
            if resilience is not None:
                retries += resilience.retries
                attempt_timeouts += resilience.timeouts
                crash_requeues += resilience.crash_requeues
        return cls(
            plan=plan,
            submitted=application.submitted,
            completed=application.completed,
            retried_completed=application.retried_completed,
            timed_out=application.timed_out,
            in_flight=application.in_flight,
            orphaned=orphaned,
            retries=retries,
            attempt_timeouts=attempt_timeouts,
            crash_requeues=crash_requeues,
            crashes=crashes,
            hangs_detected=monitor.hangs_detected,
            respawns=monitor.respawns,
            faults_injected=len(injector.events),
            degraded_ticks=controller.tally.degraded_ticks,
            safety_clamps=controller.tally.safety_clamps,
            p99_s=result.latency.p99,
            qps=result.queries_completed / result.duration_s,
            average_power_watts=result.average_power_watts,
            guard=guard,
        )

    # ------------------------------------------------------------------
    def render(self, baseline: Optional["RunResult"] = None) -> str:
        """Human-readable report, with deltas vs a fault-free baseline."""
        lines = [
            f"chaos plan: {self.plan}",
            "",
            "query accounting",
            f"  submitted          {self.submitted}",
            f"  completed          {self.completed}"
            f" ({self.goodput_fraction:.1%} goodput)",
            f"  retried+completed  {self.retried_completed}",
            f"  timed out          {self.timed_out}",
            f"  in flight at end   {self.in_flight}",
            f"  orphaned (lost)    {self.orphaned}",
            f"  accounted          {'yes' if self.accounted else 'NO'}",
            "",
            "resilience",
            f"  retries            {self.retries}",
            f"  attempt timeouts   {self.attempt_timeouts}",
            f"  crash requeues     {self.crash_requeues}",
            f"  crashes            {self.crashes}",
            f"  hangs detected     {self.hangs_detected}",
            f"  respawns           {self.respawns}",
            f"  faults injected    {self.faults_injected}",
            f"  degraded ticks     {self.degraded_ticks}",
            f"  safety clamps      {self.safety_clamps}",
            "",
            "service under faults",
        ]
        lines.append(self._metric_line("P99 latency", self.p99_s, "s", None))
        lines.append(self._metric_line("throughput", self.qps, "qps", None))
        lines.append(
            self._metric_line("avg power", self.average_power_watts, "W", None)
        )
        if self.guard is not None:
            lines.extend(["", *self._guard_lines(self.guard)])
        if baseline is not None:
            base_qps = baseline.queries_completed / baseline.duration_s
            lines.extend(
                [
                    "",
                    "vs fault-free baseline",
                    self._metric_line(
                        "P99 latency", self.p99_s, "s", baseline.latency.p99
                    ),
                    self._metric_line("throughput", self.qps, "qps", base_qps),
                    self._metric_line(
                        "avg power",
                        self.average_power_watts,
                        "W",
                        baseline.average_power_watts,
                    ),
                ]
            )
        return "\n".join(lines)

    @staticmethod
    def _guard_lines(guard: dict) -> list[str]:
        by_monitor = guard.get("violations_by_monitor", {})
        described = ", ".join(
            f"{monitor} {count}" for monitor, count in sorted(by_monitor.items())
        )
        lines = [
            "controller guard",
            f"  ladder             {' -> '.join(guard.get('modes', ()))}",
            f"  final mode         {guard.get('final_mode', '?')}",
            f"  violations         {guard.get('violations_total', 0)}"
            + (f" ({described})" if described else ""),
            f"  clamped actions    {guard.get('clamped_actions', 0)}",
            f"  enforced stepdowns {guard.get('enforced_step_downs', 0)}",
        ]
        mode_seconds = guard.get("mode_seconds", {})
        for mode, seconds in mode_seconds.items():
            lines.append(f"  time in {mode:<10} {seconds:.1f} s")
        transitions = guard.get("transitions", ())
        lines.append(f"  ladder transitions {len(transitions)}")
        for transition in transitions:
            lines.append(
                f"    t={transition['time']:.1f}s "
                f"{transition['from_mode']} -> {transition['to_mode']} "
                f"({transition['reason']})"
            )
        return lines

    @staticmethod
    def _metric_line(
        label: str, value: float, unit: str, baseline: Optional[float]
    ) -> str:
        line = f"  {label:<18} {value:.3f} {unit}"
        if baseline is None:
            return line
        delta = value - baseline
        if baseline > 0.0:
            return (
                f"{line}  (baseline {baseline:.3f} {unit}, "
                f"{delta:+.3f} / {delta / baseline:+.1%})"
            )
        return f"{line}  (baseline {baseline:.3f} {unit}, {delta:+.3f})"
