"""Invariant monitors: cheap read-only checks run every control tick.

Each monitor observes the live stack — budget, instances, estimator
windows, the shared action log, the SLO tracker — and returns zero or
more :class:`~repro.guard.violations.GuardViolation`\\ s.  Monitors never
schedule events or mutate state; acting on what they find is the
supervisor's job.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.units import EPSILON_WATTS
from repro.cluster.budget import PowerBudget
from repro.core.actions import (
    ActionRecord,
    FrequencyChangeAction,
    InstanceLaunchAction,
    InstanceWithdrawAction,
)
from repro.guard.violations import GuardViolation
from repro.obs.slo import SloTracker
from repro.service.application import Application
from repro.service.command_center import CommandCenter

__all__ = [
    "GuardMonitor",
    "BudgetCapMonitor",
    "LadderBoundsMonitor",
    "EstimateSanityMonitor",
    "OscillationMonitor",
    "SloStormMonitor",
]


class GuardMonitor:
    """Base class: a named, stateless-or-incremental invariant check."""

    name = "monitor"

    def check(self, now: float) -> List[GuardViolation]:
        raise NotImplementedError


class BudgetCapMonitor(GuardMonitor):
    """Aggregate allocated power must never exceed the budget cap.

    :meth:`PowerBudget.assert_within` already hard-fails on breach after
    every tick; this monitor is the soft counterpart the supervisor uses
    *before* that assert runs, so a misbehaving policy demotes instead
    of crashing the run.
    """

    name = "budget-cap"

    def __init__(self, budget: PowerBudget) -> None:
        self.budget = budget

    def check(self, now: float) -> List[GuardViolation]:
        draw = self.budget.draw()
        cap = self.budget.budget_watts
        if draw <= cap + EPSILON_WATTS:
            return []
        return [
            GuardViolation(
                time=now,
                monitor=self.name,
                severity="critical",
                message=(
                    f"allocated power {draw:.3f} W exceeds the "
                    f"{cap:.3f} W budget cap"
                ),
                value=float(draw),
                limit=float(cap),
            )
        ]


class LadderBoundsMonitor(GuardMonitor):
    """Every running instance's DVFS level must sit inside its ladder."""

    name = "ladder-bounds"

    def __init__(self, application: Application) -> None:
        self.application = application

    def check(self, now: float) -> List[GuardViolation]:
        violations: List[GuardViolation] = []
        for instance in self.application.running_instances():
            ladder = instance.core.ladder
            level = instance.level
            if ladder.min_level <= level <= ladder.max_level:
                continue
            violations.append(
                GuardViolation(
                    time=now,
                    monitor=self.name,
                    severity="critical",
                    message=(
                        f"{instance.name} sits at DVFS level {level}, "
                        f"outside the ladder bounds "
                        f"[{ladder.min_level}, {ladder.max_level}]"
                    ),
                    value=float(level),
                    limit=float(ladder.max_level),
                )
            )
        return violations


class EstimateSanityMonitor(GuardMonitor):
    """Queue and service-time estimates must be finite and non-negative.

    A NaN or negative estimator output poisons every Equation-1/2/3
    computation downstream of it; the policy would silently rank and
    boost on garbage.
    """

    name = "estimate-sanity"

    def __init__(
        self, application: Application, command_center: CommandCenter
    ) -> None:
        self.application = application
        self.command_center = command_center

    def check(self, now: float) -> List[GuardViolation]:
        violations: List[GuardViolation] = []
        for instance in self.application.running_instances():
            readings: Tuple[Tuple[str, float], ...] = (
                ("queue length", float(instance.queue_length)),
                ("avg queuing", float(self.command_center.avg_queuing(instance))),
                ("avg serving", float(self.command_center.avg_serving(instance))),
            )
            for label, value in readings:
                if not math.isnan(value) and value >= 0.0:
                    continue
                described = "NaN" if math.isnan(value) else f"{value:.4f}"
                violations.append(
                    GuardViolation(
                        time=now,
                        monitor=self.name,
                        severity="critical",
                        message=(
                            f"{instance.name} {label} estimate is "
                            f"{described} — must be finite and >= 0"
                        ),
                        value=value,
                        limit=0.0,
                    )
                )
        return violations


class OscillationMonitor(GuardMonitor):
    """Boost/withdraw thrash detector with a windowed flip counter.

    Reads the shared action log incrementally (a cursor, never a copy)
    and classifies each action as a signed move: frequency raises and
    instance launches are ``+1``, frequency drops and withdraws ``-1``,
    keyed by instance (frequency moves) or stage (pool-size moves).  A
    *flip* is two consecutive moves on the same key with opposite sign;
    when one key accumulates ``max_flips`` flips inside ``window_s`` the
    monitor fires and re-arms that key.
    """

    name = "oscillation"

    def __init__(
        self,
        actions: Sequence[ActionRecord],
        window_s: float,
        max_flips: int,
    ) -> None:
        self.actions = actions
        self.window_s = float(window_s)
        self.max_flips = int(max_flips)
        self._cursor = 0
        self._moves: Deque[Tuple[float, str, int]] = deque()

    @staticmethod
    def _classify(action: ActionRecord) -> Optional[Tuple[str, int]]:
        if isinstance(action, FrequencyChangeAction):
            direction = 1 if action.to_level > action.from_level else -1
            return (f"instance:{action.instance_name}", direction)
        if isinstance(action, InstanceLaunchAction):
            return (f"stage:{action.stage_name}", 1)
        if isinstance(action, InstanceWithdrawAction):
            return (f"stage:{action.stage_name}", -1)
        return None

    def check(self, now: float) -> List[GuardViolation]:
        while self._cursor < len(self.actions):
            action = self.actions[self._cursor]
            self._cursor += 1
            move = self._classify(action)
            if move is not None:
                self._moves.append((action.time, move[0], move[1]))
        horizon = now - self.window_s
        while self._moves and self._moves[0][0] < horizon:
            self._moves.popleft()
        flips: Dict[str, int] = {}
        last: Dict[str, int] = {}
        for _, key, direction in self._moves:
            previous = last.get(key)
            if previous is not None and previous != direction:
                flips[key] = flips.get(key, 0) + 1
            last[key] = direction
        violations: List[GuardViolation] = []
        for key in sorted(flips):
            count = flips[key]
            if count < self.max_flips:
                continue
            violations.append(
                GuardViolation(
                    time=now,
                    monitor=self.name,
                    severity="warning",
                    message=(
                        f"{key} flipped boost/withdraw direction {count} "
                        f"times within {self.window_s:.0f}s "
                        f"(threshold {self.max_flips})"
                    ),
                    value=float(count),
                    limit=float(self.max_flips),
                )
            )
            # Re-arm: forget this key's history so one sustained thrash
            # episode reads as one violation per threshold crossing, not
            # one per tick.
            self._moves = deque(m for m in self._moves if m[1] != key)
        return violations


class SloStormMonitor(GuardMonitor):
    """SLO-violation-storm detector on the burn-rate gauge.

    Watches the run's :class:`~repro.obs.slo.SloTracker`, which the
    supervisor reads from its application's observability bundle; with
    no tracker it never fires.  Fires once the windowed error-budget
    burn rate exceeds ``burn_threshold`` for ``storm_ticks`` consecutive
    ticks, and keeps firing every tick the storm persists (sustained
    storms must keep demotion pressure on and hold off re-promotion).
    """

    name = "slo-storm"

    def __init__(
        self,
        burn_threshold: float,
        storm_ticks: int,
        tracker: Optional[SloTracker] = None,
    ) -> None:
        self.burn_threshold = float(burn_threshold)
        self.storm_ticks = int(storm_ticks)
        self.tracker = tracker
        self._streak = 0

    def check(self, now: float) -> List[GuardViolation]:
        if self.tracker is None:
            return []
        burn = self.tracker.burn_rate(now)
        if burn <= self.burn_threshold:
            self._streak = 0
            return []
        self._streak += 1
        if self._streak < self.storm_ticks:
            return []
        return [
            GuardViolation(
                time=now,
                monitor=self.name,
                severity="warning",
                message=(
                    f"error-budget burn rate {burn:.2f}x above "
                    f"{self.burn_threshold:.2f}x for {self._streak} "
                    f"consecutive ticks"
                ),
                value=float(burn),
                limit=self.burn_threshold,
            )
        ]
