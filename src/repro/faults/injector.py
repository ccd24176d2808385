"""The fault injector: turns a :class:`FaultPlan` into simulated damage.

Everything the injector does is deterministic given (plan, seed): specs
fire at their absolute times off the sim clock, victims are drawn from a
dedicated seeded stream over the iid-sorted running pool, and every
action (or deliberate no-op, when a spec finds no victim) is appended to
an immutable event log.  The log — not wall-clock prints — is the
interface the determinism tests and the goodput report consume; each
event is also mirrored into the audit log, the
``repro_faults_injected_total`` counter and the stream, whichever of
them the application's observability bundle carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs.audit import FaultEntry
from repro.service.application import Application
from repro.service.instance import ServiceInstance
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import SeededStream

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.telemetry import PowerTelemetry
    from repro.service.rpc import RpcFabric

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or a spec that found nothing to break)."""

    time: float
    kind: str
    target: str
    detail: str


class FaultInjector:
    """Schedules and fires every spec of one plan."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        stream: SeededStream,
        application: Application,
        telemetry: Optional["PowerTelemetry"] = None,
        fabric: Optional["RpcFabric"] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.stream = stream
        self.application = application
        self.telemetry = telemetry
        self.fabric = fabric
        self.events: list[FaultEvent] = []
        self._started = False

    def start(self) -> None:
        """Schedule every spec at its absolute time (CONTROL priority,
        so a fault landing on a completion instant never races ahead of
        the work completing at that same instant)."""
        if self._started:
            return
        self._started = True
        for spec in self.plan.specs:
            delay = spec.at_s - self.sim.now
            if delay < 0.0:
                continue
            self.sim.schedule(
                delay, self._fire, spec, priority=EventPriority.CONTROL
            )

    # ------------------------------------------------------------------
    def _fire(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.INSTANCE_CRASH:
            self._fire_crash(spec)
        elif spec.kind is FaultKind.INSTANCE_HANG:
            self._fire_hang(spec)
        elif spec.kind is FaultKind.INSTANCE_DEGRADE:
            self._fire_degrade(spec)
        elif spec.kind is FaultKind.TELEMETRY_DROPOUT:
            self._fire_telemetry_dropout(spec)
        elif spec.kind is FaultKind.TELEMETRY_NOISE:
            self._fire_telemetry_noise(spec)
        else:
            self._fire_rpc(spec)

    def _pick_victim(self, spec: FaultSpec) -> Optional[ServiceInstance]:
        """Draw a victim from the (optionally stage-filtered) running pool.

        The pool is iid-sorted before the draw so the choice depends only
        on which instances exist, never on incidental list order.  A
        stream draw happens even when the filtered pool is empty, keeping
        later draws aligned across runs that differ only in pool state —
        a *running* difference already implies diverged histories, but an
        *empty vs non-empty* race must not cascade.
        """
        pool = [
            inst
            for inst in self.application.running_instances()
            if spec.stage is None or inst.stage_name == spec.stage
        ]
        pool.sort(key=lambda inst: inst.iid)
        index = self.stream.randrange(len(pool)) if pool else self.stream.randrange(1)
        if not pool:
            return None
        return pool[index]

    def _fire_crash(self, spec: FaultSpec) -> None:
        victim = self._pick_victim(spec)
        if victim is None:
            self._record(spec.kind, "none", "no running instance to crash")
            return
        stage = self.application.stage(victim.stage_name)
        orphans = stage.crash_instance(victim)
        self._record(
            spec.kind, victim.name, f"orphaned {orphans} job(s)"
        )

    def _fire_hang(self, spec: FaultSpec) -> None:
        victim = self._pick_victim(spec)
        if victim is None:
            self._record(spec.kind, "none", "no running instance to hang")
            return
        victim.hang()
        self._record(
            spec.kind, victim.name, f"hung for up to {spec.duration_s:.1f}s"
        )
        self.sim.schedule(
            spec.duration_s, self._repair, victim, priority=EventPriority.CONTROL
        )

    def _repair(self, victim: ServiceInstance) -> None:
        # The health monitor may have crash-recycled the hung instance
        # already; ``repair`` is a no-op then (the crash cleared the flag).
        if not victim.hung:
            return
        victim.repair()
        self._record(FaultKind.INSTANCE_HANG, victim.name, "repaired")

    def _fire_degrade(self, spec: FaultSpec) -> None:
        victim = self._pick_victim(spec)
        if victim is None:
            self._record(spec.kind, "none", "no running instance to degrade")
            return
        victim.degrade(spec.magnitude)
        self._record(
            spec.kind,
            victim.name,
            f"work rate x{spec.magnitude:.2f} for {spec.duration_s:.1f}s",
        )
        self.sim.schedule(
            spec.duration_s, self._restore, victim, priority=EventPriority.CONTROL
        )

    def _restore(self, victim: ServiceInstance) -> None:
        if not victim.running:
            return
        victim.degrade(1.0)
        self._record(FaultKind.INSTANCE_DEGRADE, victim.name, "restored")

    def _fire_telemetry_dropout(self, spec: FaultSpec) -> None:
        if self.telemetry is None:
            self._record(spec.kind, "telemetry", "no telemetry attached; no-op")
            return
        until = spec.at_s + spec.duration_s
        self.telemetry.inject_dropout(until)
        self._record(
            spec.kind, "telemetry", f"samples dropped until t={until:.1f}s"
        )

    def _fire_telemetry_noise(self, spec: FaultSpec) -> None:
        if self.telemetry is None:
            self._record(spec.kind, "telemetry", "no telemetry attached; no-op")
            return
        until = spec.at_s + spec.duration_s
        self.telemetry.inject_noise(until, spec.magnitude, self.stream)
        self._record(
            spec.kind,
            "telemetry",
            f"±{spec.magnitude:.2f} noise until t={until:.1f}s",
        )

    def _fire_rpc(self, spec: FaultSpec) -> None:
        if self.fabric is None:
            self._record(spec.kind, "fabric", "no rpc fabric attached; no-op")
            return
        until = spec.at_s + spec.duration_s
        if spec.kind is FaultKind.RPC_DELAY:
            self.fabric.inject_fault(until, extra_delay_s=spec.magnitude)
            detail = f"+{spec.magnitude * 1000:.0f}ms until t={until:.1f}s"
        else:
            self.fabric.inject_fault(
                until, loss_probability=spec.magnitude, stream=self.stream
            )
            detail = f"loss p={spec.magnitude:.2f} until t={until:.1f}s"
        self._record(spec.kind, "fabric", detail)

    # ------------------------------------------------------------------
    def _record(self, kind: FaultKind, target: str, detail: str) -> None:
        self.events.append(
            FaultEvent(time=self.sim.now, kind=kind.value, target=target, detail=detail)
        )
        obs = self.application.observability
        if obs is None:
            return
        if obs.audit is not None:
            obs.audit.record(
                FaultEntry(
                    time=self.sim.now,
                    controller="fault-injector",
                    fault=kind.value,
                    target=target,
                    detail=detail,
                )
            )
        if obs.metrics is not None:
            obs.metrics.counter(
                "repro_faults_injected_total",
                "Fault events fired by the injector",
            ).inc(kind=kind.value)
        if obs.stream is not None:
            obs.stream.mark(
                "fault", kind=kind.value, target=target, detail=detail
            )
