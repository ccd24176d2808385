"""Power recycling (Section 6.1, Algorithm 2).

"If there is not enough power budget to perform the boosting technique,
PowerChief recycles power allocation from [the fastest instance] first...
This procedure repeats until the available power budget is enough."

The recycler is *plan-based*: :meth:`PowerRecycler.plan` computes the
frequency drops without touching any core, so the boosting decision engine
can weigh alternatives; the controller applies the winning plan.  Per
Algorithm 2's ``RECYCLEFROMINST``, each victim is lowered only as far as
needed — the highest level that still frees enough power — and at most to
the ladder floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cluster.frequency import FrequencyLadder
from repro.cluster.power import CubicPowerModel
from repro.service.instance import ServiceInstance
from repro.units import EPSILON_WATTS, DvfsLevel, Watts

__all__ = ["PlannedDrop", "RecyclePlan", "PowerRecycler"]

_EPSILON_WATTS = EPSILON_WATTS


@dataclass(frozen=True)
class PlannedDrop:
    """One victim's planned frequency reduction."""

    instance: ServiceInstance
    from_level: DvfsLevel
    to_level: DvfsLevel
    watts_freed: Watts


@dataclass
class RecyclePlan:
    """The ordered set of frequency drops a recycle pass would apply."""

    needed_watts: float
    drops: list[PlannedDrop] = field(default_factory=list)

    @property
    def recycled_watts(self) -> Watts:
        """Total power the plan frees."""
        return Watts(sum(drop.watts_freed for drop in self.drops))

    @property
    def satisfied(self) -> bool:
        """Whether the plan frees at least what was asked for."""
        return self.recycled_watts + _EPSILON_WATTS >= self.needed_watts

    @property
    def victim_names(self) -> list[str]:
        return [drop.instance.name for drop in self.drops]

    def __len__(self) -> int:
        return len(self.drops)


class PowerRecycler:
    """Greedy fastest-first power recycling (Algorithm 2).

    "Other power recycling policies ... can be easily plugged into
    PowerChief" (Section 6.1): subclass and override
    :meth:`victim_order` to change the policy; the greedy default takes
    the fastest-first order the bottleneck identifier produced.
    """

    def __init__(self, power_model: CubicPowerModel, ladder: FrequencyLadder) -> None:
        self.power_model = power_model
        self.ladder = ladder

    # ------------------------------------------------------------------
    def victim_order(
        self, victims_fast_to_slow: Sequence[ServiceInstance]
    ) -> list[ServiceInstance]:
        """Order in which instances donate power; greedy = as given."""
        return list(victims_fast_to_slow)

    def plan(
        self,
        needed_watts: float,
        victims_fast_to_slow: Sequence[ServiceInstance],
    ) -> RecyclePlan:
        """Plan drops freeing at least ``needed_watts``, if possible.

        ``victims_fast_to_slow`` is the metric-sorted instance list with
        the boost target excluded.  The plan may come back unsatisfied
        (every victim already at the floor) — the caller decides whether a
        partial boost is still worth applying.
        """
        if needed_watts < 0.0:
            raise ValueError(f"needed_watts must be >= 0, got {needed_watts}")
        plan = RecyclePlan(needed_watts=needed_watts)
        if needed_watts <= _EPSILON_WATTS:
            return plan
        remaining = needed_watts
        for victim in self.victim_order(victims_fast_to_slow):
            drop = self._plan_drop(victim, remaining)
            if drop is None:
                continue
            plan.drops.append(drop)
            remaining -= drop.watts_freed
            if remaining <= _EPSILON_WATTS:
                break
        return plan

    # ------------------------------------------------------------------
    def _plan_drop(
        self, victim: ServiceInstance, needed_watts: float
    ) -> "PlannedDrop | None":
        """Algorithm 2's RECYCLEFROMINST: lower one victim just enough.

        Scans target levels downward from the current one and stops at the
        first (i.e. highest) level that frees ``needed_watts``; if none
        does, the victim goes to the ladder floor and contributes what it
        can.
        """
        current = victim.level
        if current <= self.ladder.min_level:
            return None
        current_power = self.power_model.power_of_level(self.ladder, current)
        chosen = self.ladder.min_level
        for level in range(current - 1, self.ladder.min_level - 1, -1):
            freed = current_power - self.power_model.power_of_level(
                self.ladder, level
            )
            if freed + _EPSILON_WATTS >= needed_watts:
                chosen = DvfsLevel(level)
                break
        freed = current_power - self.power_model.power_of_level(self.ladder, chosen)
        if freed <= _EPSILON_WATTS:
            return None
        return PlannedDrop(
            instance=victim,
            from_level=DvfsLevel(current),
            to_level=chosen,
            watts_freed=Watts(freed),
        )
