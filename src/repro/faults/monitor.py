"""Health checking, crash detection and respawn.

The :class:`HealthMonitor` is the recovery half of the fault subsystem:
a periodic process that (a) detects hung instances — alive by state,
serving nothing — and recycles them through the crash path so their work
is requeued, and (b) respawns replacements for crashed instances,
re-acquiring a core at the victim's frequency level when the power
budget allows it (stepping down the ladder, then retrying next tick,
when it does not).  Detection is behavioural: the monitor never reads
the injector's ground truth, only what a real watchdog could observe —
service elapsed time and queue movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError, NoCoreAvailable
from repro.obs.audit import ResilienceEntry
from repro.service.application import Application
from repro.service.instance import ServiceInstance
from repro.service.resilience import RetryPolicy
from repro.service.stage import Stage
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.budget import PowerBudget

__all__ = ["ResilienceConfig", "HealthMonitor"]


def _default_retry() -> RetryPolicy:
    """Chaos-grade retry defaults.

    The Table-2 cells run the machine near saturation on purpose, so
    *healthy* end-to-end latencies reach tens of seconds.  A per-attempt
    timeout below that converts slow-but-fine queries into retry storms
    that amplify the very overload they are reacting to; 60 s sits above
    the fault-free P99 of every headline cell.
    """
    return RetryPolicy(timeout_s=60.0, backoff_base_s=1.0, backoff_max_s=10.0)


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the recovery side of the fault subsystem.

    ``hang_service_timeout_s`` is the watchdog threshold: a job in
    service longer than this means the instance stopped making progress.
    It must comfortably exceed the slowest plausible serving time (work
    at the bottom ladder level under full contention), or the monitor
    will shoot healthy-but-slow workers.
    """

    retry: RetryPolicy = field(default_factory=_default_retry)
    health_interval_s: float = 5.0
    hang_service_timeout_s: float = 30.0
    respawn: bool = True

    def __post_init__(self) -> None:
        if self.health_interval_s <= 0.0:
            raise ConfigurationError(
                f"health interval must be > 0, got {self.health_interval_s}"
            )
        if self.hang_service_timeout_s <= 0.0:
            raise ConfigurationError(
                f"hang service timeout must be > 0, "
                f"got {self.hang_service_timeout_s}"
            )


class HealthMonitor:
    """Periodic hang detection and crash-replacement respawn."""

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        budget: "PowerBudget",
        config: Optional[ResilienceConfig] = None,
    ) -> None:
        self.sim = sim
        self.application = application
        self.budget = budget
        self.config = config if config is not None else ResilienceConfig()
        #: (stage, wanted level, reserved watts) per crash awaiting respawn.
        self._pending_respawns: list[tuple[Stage, int, float]] = []
        self._hangs_detected = 0
        self._crashes_seen = 0
        self._respawns = 0
        self._process = PeriodicProcess(
            sim,
            self.config.health_interval_s,
            self._tick,
            name="health-monitor",
        )
        application.add_crash_listener(self._on_crash)

    # ------------------------------------------------------------------
    @property
    def hangs_detected(self) -> int:
        """Hung instances the watchdog caught and recycled."""
        return self._hangs_detected

    @property
    def crashes_seen(self) -> int:
        """Crash notifications received (injected + watchdog-recycled)."""
        return self._crashes_seen

    @property
    def respawns(self) -> int:
        """Replacement instances launched for crashed ones."""
        return self._respawns

    @property
    def pending_respawns(self) -> int:
        """Replacements still waiting for power headroom."""
        return len(self._pending_respawns)

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    def _on_crash(self, stage: Stage, instance: ServiceInstance) -> None:
        self._crashes_seen += 1
        if not self.config.respawn:
            return
        # Reserve the victim's wattage right now — this listener runs
        # synchronously inside the crash, before the controller can tick
        # and spend the freed power on boosts, which would starve the
        # respawn forever (a crashed single-instance stage would stay
        # dark for the rest of the run).
        machine = stage.machine
        level = (
            instance.crash_level
            if instance.crash_level is not None
            else instance.level
        )
        cost = machine.power_model.power_of_level(machine.ladder, level)
        reserved = min(cost, self.budget.available())
        self.budget.reserve(reserved)
        self._pending_respawns.append((stage, level, reserved))

    def _tick(self, now: float) -> None:
        self._detect_hangs(now)
        self._process_respawns()

    def _detect_hangs(self, now: float) -> None:
        for stage in self.application.stages:
            # Snapshot: crash_instance mutates the pool mid-iteration.
            for instance in list(stage.running_instances()):
                if not self._looks_hung(instance, now):
                    continue
                self._hangs_detected += 1
                self._record(
                    "hang-detected",
                    instance.name,
                    f"no progress for >= {self.config.hang_service_timeout_s:.0f}s; "
                    f"recycling via crash path",
                )
                stage.crash_instance(instance)  # listener queues the respawn

    def _looks_hung(self, instance: ServiceInstance, now: float) -> bool:
        """Behavioural hang check — what an external watchdog can see.

        Either the job in service has been on the core implausibly long,
        or the instance is idle-by-accounting while work waits in its
        queue (impossible for a healthy instance, which starts the next
        job the moment the core frees up).
        """
        elapsed = instance.current_service_elapsed(now)
        if elapsed is not None and elapsed > self.config.hang_service_timeout_s:
            return True
        return not instance.busy and instance.waiting_count > 0

    def _process_respawns(self) -> None:
        still_pending: list[tuple[Stage, int, float]] = []
        for stage, level, reserved in self._pending_respawns:
            # Hand the reservation back for the duration of the attempt so
            # fits() can see it; re-reserve if the spawn still fails (no
            # event runs in between — this whole tick is synchronous).
            self.budget.release(reserved)
            spawned = self._try_respawn(stage, level)
            if not spawned:
                # The reservation intentionally outlives this method: it
                # is carried in _pending_respawns and handed back at the
                # top of the next tick's attempt.
                self.budget.reserve(reserved)
                still_pending.append((stage, level, reserved))
        self._pending_respawns = still_pending

    def _try_respawn(self, stage: Stage, level: int) -> bool:
        """Launch a replacement at ``level``, stepping down if power is tight."""
        machine = stage.machine
        ladder = machine.ladder
        for candidate in range(level, ladder.min_level - 1, -1):
            cost = machine.power_model.power_of_level(ladder, candidate)
            if not self.budget.fits(cost):
                continue
            try:
                instance = stage.launch_instance(candidate)
            except NoCoreAvailable:
                return False  # no free core either; retry next tick
            self._respawns += 1
            detail = f"replacement at level {candidate}"
            if candidate != level:
                detail += f" (wanted {level}; stepped down for power)"
            self._record("respawn", instance.name, detail)
            return True
        return False  # no level fits the budget right now

    # ------------------------------------------------------------------
    def _record(self, action: str, target: str, detail: str) -> None:
        """Mirror one recovery action into the audit log and the
        ``repro_health_actions_total`` counter, whichever are armed."""
        obs = self.application.observability
        if obs is None:
            return
        if obs.audit is not None:
            obs.audit.record(
                ResilienceEntry(
                    time=self.sim.now,
                    controller="health-monitor",
                    action=action,
                    target=target,
                    detail=detail,
                )
            )
        if obs.metrics is not None:
            obs.metrics.counter(
                "repro_health_actions_total",
                "Recovery actions taken by the health monitor, by action",
            ).inc(action=action)
