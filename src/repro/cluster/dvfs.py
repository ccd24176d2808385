"""DVFS actuation.

A thin actuator between the controllers and the cores, standing in for the
``cpufreq`` sysfs interface the real prototype would drive.  Haswell's
fully-integrated voltage regulators make transitions sub-microsecond
(Section 5.2), so a level change is applied at once.
"""

from __future__ import annotations

from repro.cluster.core import Core
from repro.sim.engine import Simulator

__all__ = ["DvfsActuator"]


class DvfsActuator:
    """Applies ladder-level changes to cores."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._requests = 0

    @property
    def requests(self) -> int:
        """Number of level-change requests issued through this actuator."""
        return self._requests

    def set_level(self, core: Core, level: int) -> None:
        """Move ``core`` to ``level`` now."""
        core.ladder.validate_level(level)
        self._requests += 1
        core.set_level(level)
