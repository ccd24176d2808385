"""The adaptive boosting decision engine (Section 5.3, Algorithm 1).

Given the identified bottleneck instance, the engine decides — without
applying anything — between:

* **instance boosting**: clone the bottleneck at its current frequency and
  offload half its queue (Section 5.1);
* **frequency boosting**: raise the bottleneck's DVFS level using power
  equivalent to what the clone would have cost (Section 5.2);
* **no action**: nothing affordable would help (bottleneck at the top
  level with no instance power available).

Following Algorithm 1: power is first recycled toward the cost ``p`` of a
clone; if even then a clone is unaffordable (or no free core exists) the
engine falls back to frequency boosting with the power that *is*
available; if the realtime queue length is 2 or less a clone "hardly
alleviates the load" and frequency boosting is preferred outright;
otherwise the Equation-2 and Equation-3 expected delays are compared and
the smaller wins.

Two deliberate refinements over the pseudocode:

* once the technique is chosen, the recycle plan is re-planned for the
  power that technique actually needs, so victims are never slowed down
  for watts nobody uses;
* **de-boost cloning**: Algorithm 1 prices a clone at the bottleneck's
  *current* power, so a previously frequency-boosted bottleneck (e.g.
  2.4 GHz at 10 W) can never be cloned under a tight budget and the
  engine would skip forever while the queue grows.  When that happens and
  the queue is deep, the engine instead lowers the bottleneck to the
  highest level at which a *pair* (bottleneck + clone at the same level)
  fits the budget and clones there — which is exactly the
  many-instances-near-the-floor configuration Figure 11(c) shows the
  authors' system converging to.  Disable with
  ``enable_deboost_clone=False`` to ablate (the engine then reproduces
  the skip-forever lock-in).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.budget import PowerBudget
from repro.cluster.frequency import FrequencyLadder
from repro.cluster.machine import Machine
from repro.cluster.power import PowerModel
from repro.core.estimators import (
    frequency_boost_expected_delay,
    instance_boost_expected_delay,
    unboosted_expected_delay,
)
from repro.core.recycling import PowerRecycler, RecyclePlan
from repro.service.command_center import CommandCenter
from repro.service.instance import ServiceInstance

__all__ = ["BoostKind", "BoostingDecision", "BoostingDecisionEngine"]

_EPSILON_WATTS = 1e-9


class BoostKind(enum.Enum):
    """Which boosting technique the engine selected."""

    INSTANCE = "instance"
    FREQUENCY = "frequency"
    NONE = "none"


@dataclass
class BoostingDecision:
    """The engine's verdict plus everything needed to apply or audit it.

    ``target_level`` means: for FREQUENCY, the bottleneck's new level; for
    INSTANCE with a value set, a de-boost clone — the bottleneck is
    lowered to that level and the clone launched at it (``None`` keeps
    the plain same-frequency clone of Section 5.1).
    """

    kind: BoostKind
    bottleneck: ServiceInstance
    recycle_plan: RecyclePlan
    target_level: Optional[int] = None
    expected_delay_instance: Optional[float] = None
    expected_delay_frequency: Optional[float] = None
    reason: str = ""


class BoostingDecisionEngine:
    """Implements Algorithm 1 over live command-center statistics."""

    def __init__(
        self,
        command_center: CommandCenter,
        budget: PowerBudget,
        machine: Machine,
        recycler: PowerRecycler,
        min_queue_for_instance: int = 2,
        enable_deboost_clone: bool = True,
    ) -> None:
        if min_queue_for_instance < 0:
            raise ValueError(
                f"min_queue_for_instance must be >= 0, got {min_queue_for_instance}"
            )
        self.command_center = command_center
        self.budget = budget
        self.machine = machine
        self.recycler = recycler
        self.min_queue_for_instance = min_queue_for_instance
        self.enable_deboost_clone = enable_deboost_clone

    # ------------------------------------------------------------------
    @property
    def ladder(self) -> FrequencyLadder:
        return self.machine.ladder

    @property
    def power_model(self) -> PowerModel:
        return self.machine.power_model

    # ------------------------------------------------------------------
    def select(
        self,
        bottleneck: ServiceInstance,
        victims_fast_to_slow: Sequence[ServiceInstance],
    ) -> BoostingDecision:
        """Algorithm 1's SELECTBOOSTING for the given bottleneck.

        ``victims_fast_to_slow`` is the metric-ranked instance list with
        the bottleneck itself excluded (it never donates power to its own
        boost).
        """
        victims = [inst for inst in victims_fast_to_slow if inst is not bottleneck]
        clone_cost = self.power_model.power_of_level(self.ladder, bottleneck.level)
        avail = self.budget.available()

        # Lines 7-10: recycle toward the cost of a clone if short.
        clone_plan = self.recycler.plan(max(0.0, clone_cost - avail), victims)
        total_for_clone = avail + clone_plan.recycled_watts
        can_launch = (
            total_for_clone + _EPSILON_WATTS >= clone_cost
            and self.machine.free_core_count() > 0
        )

        queue_length = bottleneck.queue_length
        avg_queuing = self.command_center.avg_queuing(bottleneck)
        avg_serving = self.command_center.avg_serving(bottleneck)

        # Lines 11-12: cannot launch — frequency boosting with avail power.
        if not can_launch:
            freq_decision = self._frequency_decision(
                bottleneck,
                victims,
                extra_watts=min(total_for_clone, clone_cost),
                reason="instance launch unaffordable; frequency boosting "
                "with available power",
            )
            if (
                self.enable_deboost_clone
                and queue_length > self.min_queue_for_instance
            ):
                pair = self._deboost_clone_decision(
                    bottleneck, victims, queue_length, avg_queuing, avg_serving
                )
                if pair is not None and self._pair_beats(pair, freq_decision):
                    return pair
            return freq_decision

        # Lines 25-26: short queue — a clone hardly alleviates the load.
        if queue_length <= self.min_queue_for_instance:
            return self._frequency_decision(
                bottleneck,
                victims,
                extra_watts=clone_cost,
                reason=f"queue length {queue_length} <= "
                f"{self.min_queue_for_instance}; frequency boosting preferred",
            )

        # Lines 15-24: compare expected delays at equal power cost.
        delay_instance = instance_boost_expected_delay(
            queue_length, avg_queuing, avg_serving
        )
        target_level = self._equivalent_level(bottleneck, clone_cost)
        alpha = bottleneck.profile.speedup.alpha(
            bottleneck.frequency_ghz, self.ladder.frequency_of(target_level)
        )
        delay_frequency = frequency_boost_expected_delay(
            alpha, queue_length, avg_queuing, avg_serving
        )

        if delay_instance < delay_frequency:
            return BoostingDecision(
                kind=BoostKind.INSTANCE,
                bottleneck=bottleneck,
                recycle_plan=clone_plan,
                expected_delay_instance=delay_instance,
                expected_delay_frequency=delay_frequency,
                reason=f"T_inst={delay_instance:.4f}s < T_freq={delay_frequency:.4f}s",
            )
        decision = self._frequency_decision(
            bottleneck,
            victims,
            extra_watts=clone_cost,
            reason=f"T_freq={delay_frequency:.4f}s <= T_inst={delay_instance:.4f}s",
        )
        decision.expected_delay_instance = delay_instance
        decision.expected_delay_frequency = delay_frequency
        return decision

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deboost_clone_decision(
        self,
        bottleneck: ServiceInstance,
        victims: list[ServiceInstance],
        queue_length: int,
        avg_queuing: float,
        avg_serving: float,
    ) -> Optional[BoostingDecision]:
        """A clone at a lower shared level, if the pair fits the budget.

        Finds the highest level ``L'`` with ``2 * P(L') <=`` (available
        power + everything the victims could recycle + the bottleneck's
        own reallocated draw), and estimates the pair's expected delay as
        Equation 2 scaled by the de-boost slowdown.  Returns ``None``
        when no pair fits, no core is free, or the pair would not even
        beat doing nothing.
        """
        if self.machine.free_core_count() == 0:
            return None
        available = self.budget.available()
        max_recyclable = sum(
            self.power_model.recyclable(self.ladder, victim.level)
            for victim in victims
        )
        bottleneck_power = self.power_model.power_of_level(
            self.ladder, bottleneck.level
        )
        pair_budget = available + max_recyclable + bottleneck_power
        level = self.power_model.max_level_within(self.ladder, pair_budget / 2.0)
        if level is None or level >= bottleneck.level:
            return None
        slowdown = bottleneck.profile.speedup.alpha(
            self.ladder.frequency_of(level), bottleneck.frequency_ghz
        )
        # alpha(low, high) < 1; de-boosting stretches delays by 1/alpha.
        expected = instance_boost_expected_delay(
            queue_length, avg_queuing, avg_serving
        ) / slowdown
        if expected >= unboosted_expected_delay(
            queue_length, avg_queuing, avg_serving
        ):
            return None
        need = (
            2.0 * self.power_model.power_of_level(self.ladder, level)
            - bottleneck_power
            - available
        )
        plan = self.recycler.plan(max(0.0, need), victims)
        return BoostingDecision(
            kind=BoostKind.INSTANCE,
            bottleneck=bottleneck,
            recycle_plan=plan,
            target_level=level,
            expected_delay_instance=expected,
            reason=(
                f"same-level clone unaffordable; de-boost pair to level "
                f"{level} ({self.ladder.frequency_of(level):.1f} GHz)"
            ),
        )

    def _pair_beats(
        self, pair: BoostingDecision, freq_decision: BoostingDecision
    ) -> bool:
        """Whether the de-boost clone out-predicts the frequency fallback."""
        if freq_decision.kind is BoostKind.NONE:
            return True
        if freq_decision.target_level is None:
            return True
        bottleneck = pair.bottleneck
        queue_length = bottleneck.queue_length
        avg_queuing = self.command_center.avg_queuing(bottleneck)
        avg_serving = self.command_center.avg_serving(bottleneck)
        alpha = bottleneck.profile.speedup.alpha(
            bottleneck.frequency_ghz,
            self.ladder.frequency_of(freq_decision.target_level),
        )
        freq_expected = frequency_boost_expected_delay(
            alpha, queue_length, avg_queuing, avg_serving
        )
        assert pair.expected_delay_instance is not None
        return pair.expected_delay_instance < freq_expected

    def _equivalent_level(
        self, bottleneck: ServiceInstance, extra_watts: float
    ) -> int:
        """Algorithm 1's ``calNewFreq``: the level ``extra_watts`` buys."""
        current_power = self.power_model.power_of_level(
            self.ladder, bottleneck.level
        )
        level = self.power_model.max_level_within(
            self.ladder, current_power + extra_watts
        )
        if level is None:
            return bottleneck.level
        return max(level, bottleneck.level)

    def _frequency_decision(
        self,
        bottleneck: ServiceInstance,
        victims: list[ServiceInstance],
        extra_watts: float,
        reason: str,
    ) -> BoostingDecision:
        """Build a FREQUENCY decision, re-planning recycling to exact need."""
        target_level = self._equivalent_level(bottleneck, extra_watts)
        if target_level <= bottleneck.level:
            return BoostingDecision(
                kind=BoostKind.NONE,
                bottleneck=bottleneck,
                recycle_plan=RecyclePlan(needed_watts=0.0),
                reason=f"{reason}; no higher level affordable",
            )
        needed = self.power_model.power_of_level(
            self.ladder, target_level
        ) - self.power_model.power_of_level(self.ladder, bottleneck.level)
        plan = self.recycler.plan(
            max(0.0, needed - self.budget.available()), victims
        )
        if not plan.satisfied and plan.needed_watts > 0.0:
            # Recycling fell short of the ideal level; settle for the level
            # the recovered power actually affords.
            affordable = self._equivalent_level(
                bottleneck, self.budget.available() + plan.recycled_watts
            )
            if affordable <= bottleneck.level:
                return BoostingDecision(
                    kind=BoostKind.NONE,
                    bottleneck=bottleneck,
                    recycle_plan=RecyclePlan(needed_watts=0.0),
                    reason=f"{reason}; recycling could not fund any level",
                )
            target_level = affordable
            needed = self.power_model.power_of_level(
                self.ladder, target_level
            ) - self.power_model.power_of_level(self.ladder, bottleneck.level)
            plan = self.recycler.plan(
                max(0.0, needed - self.budget.available()), victims
            )
        return BoostingDecision(
            kind=BoostKind.FREQUENCY,
            bottleneck=bottleneck,
            recycle_plan=plan,
            target_level=target_level,
            reason=reason,
        )
