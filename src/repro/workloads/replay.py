"""Trace replay: drive an application with recorded arrival times.

Poisson arrivals (Section 8.1) are the paper's model, but a production
study replays *recorded* traffic.  :class:`ReplayLoadGenerator` submits
queries at an explicit list of arrival times — captured from a previous
run's query log, a production trace, or a hand-built worst case — with
demands still drawn from the profiles (or replayed too, by passing
explicit per-arrival demands).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.service.application import Application
from repro.service.query import Query
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.workloads.loadgen import QueryFactory

__all__ = ["ReplayLoadGenerator"]


class ReplayLoadGenerator:
    """Submit queries at exactly the given arrival times."""

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        factory: QueryFactory,
        arrival_times: Sequence[float],
        demands: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> None:
        if not arrival_times:
            raise ConfigurationError("replay needs at least one arrival")
        previous = -1.0
        for time in arrival_times:
            if not math.isfinite(time) or time < 0.0:
                raise ConfigurationError(
                    f"arrival time must be a finite number >= 0, got {time}"
                )
            if time < previous:
                raise ConfigurationError("arrival times must be non-decreasing")
            previous = time
        if demands is not None and len(demands) != len(arrival_times):
            raise ConfigurationError(
                f"got {len(demands)} demand records for "
                f"{len(arrival_times)} arrivals"
            )
        self.sim = sim
        self.application = application
        self.factory = factory
        self.arrival_times = tuple(float(t) for t in arrival_times)
        self.demands = tuple(demands) if demands is not None else None
        self._started = False
        self.queries_submitted = 0

    def start(self) -> None:
        """Schedule every arrival; times are relative to the current clock."""
        if self._started:
            raise ConfigurationError("replay generator already started")
        self._started = True
        base = self.sim.now
        for index, offset in enumerate(self.arrival_times):
            self.sim.schedule_at(
                base + offset,
                self._arrive,
                index,
                priority=EventPriority.ARRIVAL,
            )

    def _arrive(self, index: int) -> None:
        if self.demands is not None:
            query = Query(qid=index, demands=dict(self.demands[index]))
        else:
            query = self.factory.create()
        self.application.submit(query)
        self.queries_submitted += 1
