"""Action clamping: the guard's last line of defense.

The wrapped policy drives DVFS through a :class:`ClampingActuator`
instead of the raw :class:`~repro.cluster.dvfs.DvfsActuator`.  Feasible
requests pass through byte-identically; an out-of-bounds level is
clipped to the ladder, and a raise that would overdraw the power budget
is capped at the highest level the remaining headroom funds.  Every
clip is counted and recorded — clamping is visible, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.units import EPSILON_WATTS
from repro.cluster.budget import PowerBudget
from repro.cluster.core import Core
from repro.cluster.dvfs import DvfsActuator
from repro.core.controller import ControllerTally
from repro.sim.engine import Simulator

__all__ = ["ClampEvent", "ClampingActuator"]


@dataclass(frozen=True)
class ClampEvent:
    """One request clipped to the feasible set."""

    time: float
    core: int
    requested_level: int
    applied_level: int
    reason: str


class ClampingActuator(DvfsActuator):
    """A DVFS actuator that clips infeasible requests instead of erroring."""

    def __init__(self, sim: Simulator, budget: PowerBudget) -> None:
        super().__init__(sim)
        self.budget = budget
        self.clamps: List[ClampEvent] = []
        #: Counts every clamp as a safety clamp; a supervisor points it
        #: at the tally its rungs share.
        self.tally = ControllerTally()

    @property
    def clamped_actions(self) -> int:
        return len(self.clamps)

    def set_level(self, core: Core, level: int) -> None:
        ladder = core.ladder
        applied = int(ladder.clamp_level(level))
        reason = "ladder-bounds" if applied != level else ""
        current = int(core.level)
        if applied > current:
            model = self.budget.machine.power_model
            extra = model.power_of_level(ladder, applied) - model.power_of_level(
                ladder, current
            )
            headroom = self.budget.budget_watts - self.budget.draw()
            if extra > headroom + EPSILON_WATTS:
                fundable = model.max_level_within(
                    ladder,
                    model.power_of_level(ladder, current)
                    + max(0.0, float(headroom)),
                )
                applied = current if fundable is None else max(current, fundable)
                reason = "budget-headroom"
        if reason:
            self.tally.safety_clamps += 1
            self.clamps.append(
                ClampEvent(
                    time=self.sim.now,
                    core=core.cid,
                    requested_level=level,
                    applied_level=applied,
                    reason=reason,
                )
            )
        if applied == current and reason:
            # Fully clamped to a no-op: nothing to actuate (and no
            # request counted — the raw actuator never saw one).
            return
        super().set_level(core, applied)
