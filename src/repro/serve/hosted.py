"""One stack hosted inside the ``reprod`` daemon.

:class:`HostedRun` wraps a :class:`~repro.scenario.builder.StackBuilder`
and drives it purely by *simulated-time* deadlines: :meth:`advance_to`
is just :meth:`StackBuilder.tick` plus automatic collection at the end
of the drain window.  There is deliberately no wall clock in this
module — mapping real seconds to simulated deadlines (``--rate``,
``--turbo``) is the daemon's job — so hosted runs stay deterministic
and the equivalence goldens can drive one directly.

Live mutations go through the guard layer: :meth:`apply_budget` calls
:func:`repro.guard.apply_budget_change` (clamped to the feasible floor,
overdraw corrected by stepping the hottest instances down), which
audits and counts into the application's observability bundle, and
:meth:`retarget_slo` hands the run's bundle to
:func:`repro.guard.retarget_slo`; each then marks the stream.
Submitted specs are normalised by :func:`ensure_serve_pillars` so every
hosted run has the metrics/audit/stream pillars those paths record into.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.errors import ServeError
from repro.experiments.export import scenario_payload
from repro.guard.budget import apply_budget_change, retarget_slo
from repro.scenario.builder import StackBuilder
from repro.scenario.spec import ScenarioSpec

__all__ = ["HostedRun", "SERVE_PILLARS", "ensure_serve_pillars"]

#: Pillars every hosted run arms: budget changes audit into ``audit``,
#: guard counters land in ``metrics``, watchers tail ``stream``.
SERVE_PILLARS = ("metrics", "audit", "stream")


def ensure_serve_pillars(spec: ScenarioSpec) -> ScenarioSpec:
    """The spec with the serve-mode observability pillars guaranteed on.

    A spec that already arms them is returned unchanged (same digest);
    otherwise the missing pillars are appended and the replacement is
    re-validated by the spec's own ``__post_init__``.
    """
    missing = tuple(p for p in SERVE_PILLARS if p not in spec.observe)
    if not missing:
        return spec
    return dataclasses.replace(spec, observe=spec.observe + missing)


class HostedRun:
    """An armed stack the daemon advances to external deadlines."""

    def __init__(self, name: str, spec: ScenarioSpec) -> None:
        self.name = name
        self.spec = ensure_serve_pillars(spec)
        self.builder = StackBuilder(self.spec)
        self.paused = False
        #: Serialised result payload once the run collected cleanly.
        self.result_payload: Optional[dict[str, Any]] = None
        #: What went wrong, when collection (or a tick) failed.
        self.error: Optional[str] = None
        self._stream_base = 0
        self.builder.build().arm().start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sim_now(self) -> float:
        assert self.builder.sim is not None
        return self.builder.sim.now

    @property
    def end_s(self) -> float:
        return self.builder.end_s

    @property
    def done(self) -> bool:
        """No further advancement possible: collected, aborted or failed."""
        return (
            self.result_payload is not None
            or self.error is not None
            or self.builder.phase in ("collected", "aborted")
        )

    def status(self) -> dict[str, Any]:
        payload = self.builder.status()
        payload["name"] = self.name
        payload["paused"] = self.paused
        payload["error"] = self.error
        payload["result_ready"] = self.result_payload is not None
        budget = self.builder.budget
        if budget is not None:
            payload["budget_watts"] = float(budget.budget_watts)
            payload["draw_watts"] = float(budget.draw())
        obs = self.builder.observability
        if obs is not None and obs.slo is not None:
            payload["slo_target_s"] = float(obs.slo.target_s)
            payload["slo_attainment"] = float(obs.slo.attainment())
        return payload

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------
    def advance_to(self, deadline_s: float) -> None:
        """Tick to ``deadline_s`` (clamped to :attr:`end_s`); collect when
        the drain window closes.  A failed tick or collect aborts the
        stack and parks the error — the daemon keeps serving."""
        if self.done or self.paused:
            return
        target = min(float(deadline_s), self.end_s)
        if target <= self.sim_now and not self._at_end(target):
            return
        try:
            self.builder.tick(target)
            if self.builder.finished:
                result = self.builder.collect()
                self.result_payload = scenario_payload(result)
        except Exception as exc:  # noqa: BLE001 - the daemon must survive
            self.error = f"{type(exc).__name__}: {exc}"
            self.builder.abort()

    def advance_by(self, delta_s: float) -> None:
        """Advance ``delta_s`` simulated seconds past the current clock."""
        self.advance_to(self.sim_now + float(delta_s))

    def _at_end(self, target: float) -> bool:
        """Whether a no-advance tick still matters: reaching the end of a
        zero-length drain window walks the drained transition."""
        return target >= self.end_s and not self.builder.finished

    def drain_now(self) -> None:
        """Fast-forward to the end of the drain window and collect."""
        self.paused = False
        self.advance_to(self.end_s)

    def abort(self) -> None:
        """Tear the stack down early; the run keeps its status entry."""
        if self.builder.phase != "collected":
            self.builder.abort()
            if self.error is None:
                self.error = "aborted by operator"

    # ------------------------------------------------------------------
    # Live control (guard-layer paths)
    # ------------------------------------------------------------------
    def apply_budget(
        self, watts: float, *, source: str = "ctl"
    ) -> dict[str, Any]:
        builder = self.builder
        if (
            builder.budget is None
            or builder.application is None
            or builder.controller is None
        ):
            raise ServeError(
                f"run {self.name!r} has no adjustable budget (sharded and "
                f"controllerless stacks cannot take live budget changes)"
            )
        if self.done:
            raise ServeError(f"run {self.name!r} has already finished")
        obs = builder.observability
        change = apply_budget_change(
            budget=builder.budget,
            application=builder.application,
            controller=builder.controller,
            requested_watts=float(watts),
            now=self.sim_now,
            source=source,
        )
        if obs is not None and obs.stream is not None:
            obs.stream.mark(
                "budget-change",
                requested_watts=change.requested_watts,
                applied_watts=change.applied_watts,
                step_downs=change.step_downs,
            )
        return change.to_dict()

    def retarget_slo(
        self, target_s: float, *, source: str = "ctl"
    ) -> dict[str, Any]:
        obs = self.builder.observability
        if obs is None or obs.slo is None:
            raise ServeError(
                f"run {self.name!r} has no SLO tracker; arm the 'slo' "
                f"pillar (with an slo_target_s option) to retarget live"
            )
        if self.done:
            raise ServeError(f"run {self.name!r} has already finished")
        retarget = retarget_slo(
            obs=obs, target_s=float(target_s), now=self.sim_now, source=source
        )
        if obs.stream is not None:
            obs.stream.mark(
                "slo-retarget",
                previous_target_s=retarget.previous_target_s,
                target_s=retarget.target_s,
            )
        return retarget.to_dict()

    def audit_entries(
        self, kind: Optional[str] = None, tail: Optional[int] = None
    ) -> list[dict[str, Any]]:
        """The run's audit log as dicts, optionally filtered by ``kind``
        (the entry discriminator) and truncated to the last ``tail``."""
        obs = self.builder.observability
        if obs is None or obs.audit is None:
            raise ServeError(
                f"run {self.name!r} has no audit log; arm the 'audit' pillar"
            )
        entries = obs.audit.to_dicts()
        if kind is not None:
            entries = [e for e in entries if e.get("kind") == kind]
        if tail is not None and tail >= 0:
            entries = entries[len(entries) - min(tail, len(entries)):]
        return entries

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def stream_lines(self, cursor: int) -> tuple[int, list[str]]:
        """Snapshot/mark lines appended since ``cursor``; returns the new
        cursor and the lines (empty when the stream pillar is dark)."""
        obs = self.builder.observability
        if obs is None or obs.stream is None:
            return cursor, []
        lines = obs.stream.lines
        if cursor >= len(lines):
            return cursor, []
        return len(lines), lines[cursor:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HostedRun({self.name!r}, phase={self.builder.phase}, "
            f"t={self.sim_now:.1f}/{self.end_s:.1f}s)"
        )
