"""Live power-budget governance: the guard path for runtime cap changes.

The ``reprod`` control plane lets an operator move the power budget
while a stack is running.  A raw ``budget.budget_watts = x`` assignment
would be invisible (no audit trail) and unsafe (a cap below the current
draw trips the hard invariant at the next assert without anything
acting to fix it).  :func:`apply_budget_change` is the one sanctioned
path: the request is clamped to the feasible floor — the draw reachable
with every running instance at the ladder minimum — the cap is moved,
and any resulting overdraw is corrected immediately by stepping the
hottest instances down (:func:`~repro.guard.ladder.step_down_hottest`,
the step-down the supervisor's cap enforcement uses too), with the
whole adjustment recorded as a typed
:class:`~repro.obs.audit.BudgetChangeEntry`.

:func:`retarget_slo` is the analogous sanctioned path for moving a live
SLO target; the attainment window keeps its history, so the burn-rate
gauges react from the next completion on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.errors import ClusterError
from repro.cluster.budget import PowerBudget
from repro.core.controller import BaseController
from repro.guard.ladder import step_down_hottest
from repro.obs import Observability
from repro.obs.audit import BudgetChangeEntry, SloRetargetEntry
from repro.service.application import Application

__all__ = [
    "BudgetChange",
    "SloRetarget",
    "feasible_floor_watts",
    "apply_budget_change",
    "retarget_slo",
]


@dataclass(frozen=True)
class BudgetChange:
    """What one live budget adjustment actually did."""

    time: float
    requested_watts: float
    applied_watts: float
    previous_watts: float
    floor_watts: float
    clamped: bool
    step_downs: int
    source: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "requested_watts": self.requested_watts,
            "applied_watts": self.applied_watts,
            "previous_watts": self.previous_watts,
            "floor_watts": self.floor_watts,
            "clamped": self.clamped,
            "step_downs": self.step_downs,
            "source": self.source,
        }


@dataclass(frozen=True)
class SloRetarget:
    """What one live SLO retarget did."""

    time: float
    previous_target_s: float
    target_s: float
    source: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "previous_target_s": self.previous_target_s,
            "target_s": self.target_s,
            "source": self.source,
        }


def feasible_floor_watts(
    budget: PowerBudget, application: Application
) -> float:
    """The lowest draw DVFS alone can reach: every running instance at
    the ladder minimum, plus whatever else the budget's scope draws."""
    model = budget.machine.power_model
    reducible = 0.0
    for instance in application.running_instances():
        ladder = instance.core.ladder
        reducible += model.power_of_level(
            ladder, instance.level
        ) - model.power_of_level(ladder, ladder.min_level)
    return max(0.0, float(budget.draw()) - reducible)


def apply_budget_change(
    *,
    budget: PowerBudget,
    application: Application,
    controller: BaseController,
    requested_watts: float,
    now: float,
    source: str = "ctl",
) -> BudgetChange:
    """Move the power cap live, enforcing and auditing the change.

    The request is clamped to :func:`feasible_floor_watts` — a cap no
    amount of stepping down could satisfy is refused rather than left
    to trip the hard invariant — then the hottest running instances are
    stepped down (one rung at a time, each logged as a
    ``budget-change`` frequency action on ``controller``) until the
    draw fits under the new cap.  Raising the cap never touches
    frequencies; the controller spends the new headroom on its own
    schedule.  The change is audited and counted into the
    application's observability bundle.
    """
    if not math.isfinite(requested_watts) or requested_watts <= 0.0:
        raise ClusterError(
            f"budget must be a finite number > 0 W, got {requested_watts}"
        )
    previous = float(budget.budget_watts)
    floor = feasible_floor_watts(budget, application)
    applied = max(float(requested_watts), floor)
    clamped = applied > float(requested_watts)
    budget.budget_watts = applied
    step_downs = step_down_hottest(
        controller, budget, application, budget.budget_watts, "budget-change"
    )
    budget.assert_within()
    change = BudgetChange(
        time=now,
        requested_watts=float(requested_watts),
        applied_watts=applied,
        previous_watts=previous,
        floor_watts=floor,
        clamped=clamped,
        step_downs=step_downs,
        source=source,
    )
    obs = application.observability
    if obs is not None and obs.audit is not None:
        obs.audit.record(
            BudgetChangeEntry(
                time=now,
                controller=controller.name,
                requested_watts=change.requested_watts,
                applied_watts=change.applied_watts,
                previous_watts=change.previous_watts,
                floor_watts=change.floor_watts,
                clamped=change.clamped,
                step_downs=change.step_downs,
                source=source,
            )
        )
    if obs is not None and obs.metrics is not None:
        obs.metrics.counter(
            "repro_budget_changes_total",
            "Live power-budget adjustments applied through the guard",
        ).inc(source=source)
    return change


def retarget_slo(
    *,
    obs: Observability,
    target_s: float,
    now: float,
    source: str = "ctl",
) -> SloRetarget:
    """Move the live target of the bundle's SLO tracker, auditing and
    counting the change into the same bundle.

    Completions already in the attainment window keep the verdicts they
    were scored with; the new target applies from the next completion.
    """
    slo = obs.slo
    if slo is None:
        raise ClusterError("no SLO tracker to retarget; arm the 'slo' pillar")
    if not math.isfinite(target_s) or target_s <= 0.0:
        raise ClusterError(
            f"SLO target must be a finite number > 0 s, got {target_s}"
        )
    previous = float(slo.target_s)
    slo.target_s = float(target_s)
    retarget = SloRetarget(
        time=now,
        previous_target_s=previous,
        target_s=float(target_s),
        source=source,
    )
    if obs.audit is not None:
        obs.audit.record(
            SloRetargetEntry(
                time=now,
                controller="serve",
                previous_target_s=previous,
                target_s=float(target_s),
                source=source,
            )
        )
    if obs.metrics is not None:
        obs.metrics.counter(
            "repro_slo_retargets_total",
            "Live SLO retargets applied through the guard",
        ).inc(source=source)
    return retarget
