"""A single physical core with per-core DVFS.

Each service instance runs exclusively on one core (Section 8.5: "each
service instance is running on individual core where power management is
applied"), so the core is the unit of both frequency control and power
accounting.  Idle (unallocated) cores are treated as power-gated and draw
nothing — consistent with the paper counting only the cores that host
service instances against the budget.

Cores integrate their own energy: every state transition (activate,
deactivate, level change) closes the previous piecewise-constant power
segment.  Observers can subscribe to frequency changes; the service
instance uses this to rescale the remaining work of an in-flight query.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.errors import ClusterError, InstanceStateError
from repro.cluster.frequency import FrequencyLadder
from repro.cluster.power import CubicPowerModel
from repro.units import DvfsLevel, Ghz, Joules, Watts

__all__ = ["Core", "CoreState", "FrequencyObserver"]

FrequencyObserver = Callable[["Core", int, int], None]


class CoreState(enum.Enum):
    """Allocation state of a physical core."""

    FREE = "free"
    ACTIVE = "active"


class Core:
    """One physical core: a ladder position plus energy bookkeeping."""

    def __init__(
        self,
        cid: int,
        ladder: FrequencyLadder,
        power_model: CubicPowerModel,
        clock: Callable[[], float],
    ) -> None:
        self.cid = cid
        self.ladder = ladder
        self.power_model = power_model
        self._clock = clock
        self._state = CoreState.FREE
        self._level = ladder.min_level
        self._energy_joules = 0.0
        self._segment_start = clock()
        self._observers: list[FrequencyObserver] = []
        self._transitions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> CoreState:
        return self._state

    @property
    def active(self) -> bool:
        return self._state is CoreState.ACTIVE

    @property
    def level(self) -> DvfsLevel:
        """Current ladder level."""
        return DvfsLevel(self._level)

    @property
    def frequency_ghz(self) -> Ghz:
        """Current frequency in GHz."""
        return self.ladder.frequency_of(self._level)

    @property
    def power_watts(self) -> Watts:
        """Instantaneous draw: the modelled power when active, else 0."""
        if not self.active:
            return Watts(0.0)
        return self.power_model.power_of_level(self.ladder, self._level)

    @property
    def transitions(self) -> int:
        """Number of DVFS level changes applied to this core."""
        return self._transitions

    def energy_joules(self) -> Joules:
        """Energy consumed so far, including the open segment."""
        return Joules(
            self._energy_joules
            + self.power_watts * (self._clock() - self._segment_start)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def activate(self, level: int) -> None:
        """Allocate the core and start it at ``level``."""
        if self.active:
            raise InstanceStateError(f"core {self.cid} is already active")
        self.ladder.validate_level(level)
        self._close_segment()
        self._state = CoreState.ACTIVE
        self._level = level

    def deactivate(self) -> None:
        """Release the core (power-gate it)."""
        if not self.active:
            raise InstanceStateError(f"core {self.cid} is not active")
        self._close_segment()
        self._state = CoreState.FREE
        self._level = self.ladder.min_level

    def set_level(self, level: int) -> None:
        """Change the DVFS level of an active core, notifying observers."""
        if not self.active:
            raise InstanceStateError(
                f"cannot set frequency of inactive core {self.cid}"
            )
        self.ladder.validate_level(level)
        old = self._level
        if level == old:
            return
        self._close_segment()
        self._level = level
        self._transitions += 1
        for observer in tuple(self._observers):
            observer(self, old, level)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: FrequencyObserver) -> None:
        """Subscribe to (core, old_level, new_level) frequency changes."""
        self._observers.append(observer)

    def remove_observer(self, observer: FrequencyObserver) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            raise ClusterError("observer was not registered") from None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _close_segment(self) -> None:
        now = self._clock()
        self._energy_joules += self.power_watts * (now - self._segment_start)
        self._segment_start = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Core(cid={self.cid}, {self._state.value}, "
            f"{self.frequency_ghz:.1f} GHz, {self.power_watts:.2f} W)"
        )
