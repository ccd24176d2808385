"""The CMP machine: a pool of DVFS-capable cores.

Models the evaluation platform of Section 8.1 — a dual-socket Xeon
E5-2630v3 with 16 physical cores (SMT disabled), per-core DVFS from
1.2 GHz to 2.4 GHz.  The machine hands out whole cores to service
instances and aggregates their power draw.

Occupancy bookkeeping is incremental: the machine counts active cores
and per-level populations as cores are acquired, released and retuned
(via a frequency observer it installs on every core), so the hottest
read paths — :meth:`contention_slowdown`, called once per serving
segment, and the telemetry sampler's level distribution — never scan
the core pool.  Core allocation must therefore go through
:meth:`acquire_core` / :meth:`release_core`; that is the only mutation
path the rest of the stack uses.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ClusterError, NoCoreAvailable
from repro.cluster.contention import ContentionModel, NoContention
from repro.cluster.core import Core, CoreState
from repro.cluster.frequency import HASWELL_LADDER, FrequencyLadder
from repro.cluster.power import DEFAULT_POWER_MODEL, PowerModel
from repro.sim.engine import Simulator
from repro.units import Joules, Watts

__all__ = ["Machine"]

OccupancyListener = Callable[[int], None]


class Machine:
    """A fixed pool of physical cores sharing one frequency ladder.

    An optional :class:`ContentionModel` makes the machine's occupancy
    slow every instance down (Section 8.5's collocation-interference
    investigation); occupancy listeners fire on core acquire/release so
    in-flight work can be rescaled.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cores: int = 16,
        ladder: FrequencyLadder = HASWELL_LADDER,
        power_model: PowerModel = DEFAULT_POWER_MODEL,
        contention: Optional[ContentionModel] = None,
    ) -> None:
        if n_cores <= 0:
            raise ClusterError(f"n_cores must be > 0, got {n_cores}")
        self.sim = sim
        self.ladder = ladder
        self.power_model = power_model
        self.contention = contention if contention is not None else NoContention()
        # NoContention always answers 1.0; skipping the call entirely on
        # this (default) configuration keeps the per-segment work-rate
        # computation free of any contention-model dispatch.  Exact type
        # check: a subclass may override slowdown().
        self._no_contention = type(self.contention) is NoContention
        self._occupancy_listeners: list[OccupancyListener] = []
        self._cores = [
            Core(cid, ladder, power_model, lambda: sim.now) for cid in range(n_cores)
        ]
        self._active_count = 0
        self._level_counts: dict[int, int] = {}
        for core in self._cores:
            core.add_observer(self._on_core_level_change)

    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return len(self._cores)

    @property
    def cores(self) -> tuple[Core, ...]:
        return tuple(self._cores)

    def active_cores(self) -> list[Core]:
        """Cores currently allocated to service instances."""
        return [core for core in self._cores if core.active]

    def free_core_count(self) -> int:
        return len(self._cores) - self._active_count

    def level_counts(self) -> tuple[tuple[int, int], ...]:
        """``(level, active-core count)`` pairs, sorted by level."""
        return tuple(sorted(self._level_counts.items()))

    # ------------------------------------------------------------------
    def acquire_core(self, level: int) -> Core:
        """Allocate a free core at ``level``; raises :class:`NoCoreAvailable`."""
        for core in self._cores:
            if core.state is CoreState.FREE:
                core.activate(level)
                self._active_count += 1
                counts = self._level_counts
                counts[level] = counts.get(level, 0) + 1
                self._notify_occupancy()
                return core
        raise NoCoreAvailable(
            f"all {len(self._cores)} cores are allocated"
        )

    def release_core(self, core: Core) -> None:
        """Return a core to the free pool."""
        if core not in self._cores:
            raise ClusterError(f"core {core.cid} does not belong to this machine")
        level = core.level
        core.deactivate()
        self._active_count -= 1
        counts = self._level_counts
        remaining = counts[level] - 1
        if remaining:
            counts[level] = remaining
        else:
            del counts[level]
        self._notify_occupancy()

    def _on_core_level_change(self, core: Core, old_level: int, new_level: int) -> None:
        counts = self._level_counts
        remaining = counts[old_level] - 1
        if remaining:
            counts[old_level] = remaining
        else:
            del counts[old_level]
        counts[new_level] = counts.get(new_level, 0) + 1

    # ------------------------------------------------------------------
    # Contention
    # ------------------------------------------------------------------
    def contention_slowdown(self) -> float:
        """Serving-time multiplier at the current occupancy (>= 1)."""
        if self._no_contention:
            return 1.0
        return self.contention.slowdown(self._active_count, len(self._cores))

    def add_occupancy_listener(self, listener: OccupancyListener) -> None:
        """Subscribe to occupancy changes (receives the active-core count)."""
        self._occupancy_listeners.append(listener)

    def remove_occupancy_listener(self, listener: OccupancyListener) -> None:
        try:
            self._occupancy_listeners.remove(listener)
        except ValueError:
            raise ClusterError("occupancy listener was not registered") from None

    def _notify_occupancy(self) -> None:
        active = self._active_count
        for listener in tuple(self._occupancy_listeners):
            listener(active)

    # ------------------------------------------------------------------
    def total_power(self) -> Watts:
        """Instantaneous draw of all active cores, in watts."""
        return Watts(sum(core.power_watts for core in self._cores))

    def total_energy(self) -> Joules:
        """Total energy consumed by all cores so far, in joules."""
        return Joules(sum(core.energy_joules() for core in self._cores))

    def peak_power(self) -> Watts:
        """Draw if every core ran active at the top ladder level."""
        per_core = self.power_model.power_of_level(self.ladder, self.ladder.max_level)
        return Watts(per_core * len(self._cores))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self._active_count}/{len(self._cores)} cores active, "
            f"{self.total_power():.2f} W)"
        )
