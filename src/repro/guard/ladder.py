"""The graceful-degradation rungs below the wrapped policy.

Two fallback controllers, each implementing the normal
:class:`~repro.core.controller.BaseController` interface so the
supervisor can swap them in without touching the stack:

* :class:`ConserveController` — never boosts and never clones; it only
  sheds power, stepping the hottest instance down until draw sits under
  a configurable headroom fraction of the cap.  The rung for "the
  policy misbehaves but the system is basically healthy".
* :class:`SafeModeController` — static uniform power: every running
  instance is pinned to the highest common DVFS level the budget funds
  (net of health-monitor reservations).  No feedback, no estimates, no
  way to oscillate — the rung of last resort.

:func:`step_down_hottest` is the one cap step-down in the guard: the
conserve rung, the supervisor's cap enforcement and a live budget
change all shed power through it, each with its own limit and reason.
"""

from __future__ import annotations

from typing import Optional

from repro.units import EPSILON_WATTS
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.core.controller import BaseController, ControllerConfig
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.sim.engine import Simulator

__all__ = ["ConserveController", "SafeModeController", "step_down_hottest"]


def step_down_hottest(
    controller: BaseController,
    budget: PowerBudget,
    application: Application,
    limit_watts: float,
    reason: str,
) -> int:
    """Step instances down one rung at a time until ``budget`` draws no
    more than ``limit_watts``; returns the number of steps taken.

    Each step goes to the hottest running instance above its ladder
    floor, ties broken by name, and is logged on ``controller`` as a
    frequency change with ``reason``.  It stops early when every running
    instance sits at its floor.
    """
    steps = 0
    while budget.draw() > limit_watts + EPSILON_WATTS:
        candidates = [
            instance
            for instance in application.running_instances()
            if instance.level > instance.core.ladder.min_level
        ]
        if not candidates:
            break
        victim = max(candidates, key=lambda i: (i.level, i.name))
        controller.set_instance_level(victim, victim.level - 1, reason)
        steps += 1
    return steps


class ConserveController(BaseController):
    """Shed-only rung: steps the hottest instance down, never boosts."""

    name = "conserve"

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        budget: PowerBudget,
        dvfs: DvfsActuator,
        config: Optional[ControllerConfig] = None,
        headroom: float = 0.9,
    ) -> None:
        super().__init__(sim, application, command_center, budget, dvfs, config)
        self.headroom = float(headroom)

    def adjust(self, now: float) -> None:
        target = self.budget.budget_watts * self.headroom
        stepped = step_down_hottest(
            self, self.budget, self.application, target, "conserve"
        )
        if stepped == 0:
            self._skip(
                f"draw {self.budget.draw():.2f} W within conserve target "
                f"{target:.2f} W"
            )


class SafeModeController(BaseController):
    """Static uniform-power rung: one common level, recomputed each tick.

    The level is the highest ``L`` with ``n_running * power(L)`` within
    the budget net of reservations, so crash respawns (which draw on a
    reserved slice) are never starved.  Re-applied every tick because
    respawns and withdraws change the pool under it.
    """

    name = "safe"

    def uniform_level(self) -> Optional[int]:
        running = self.application.running_instances()
        if not running:
            return None
        ladder = self.budget.machine.ladder
        model = self.budget.machine.power_model
        usable = max(
            0.0, float(self.budget.budget_watts - self.budget.reserved_watts)
        )
        per_instance = usable / len(running)
        level = model.max_level_within(ladder, per_instance)
        return int(ladder.min_level) if level is None else int(level)

    def activate(self, now: float) -> None:
        """Apply the uniform level immediately on ladder entry."""
        self._retune(now)

    def adjust(self, now: float) -> None:
        self._retune(now)

    def _retune(self, now: float) -> None:
        level = self.uniform_level()
        if level is None:
            self._skip("no running instances")
            return
        changed = 0
        for instance in sorted(
            self.application.running_instances(), key=lambda i: i.name
        ):
            if instance.level != level:
                self.set_instance_level(instance, level, reason="safe-mode")
                changed += 1
        if changed == 0:
            self._skip(f"uniform safe level {level} already applied")
