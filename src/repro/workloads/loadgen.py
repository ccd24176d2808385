"""Load generation.

"We design a load generator that submits user queries following Poisson
distribution that is widely used to mimic cloud workload." (Section 8.1)

The generator is a non-homogeneous Poisson process driven by a
:class:`LoadTrace` (constant for the Figure-10/12 load levels, piecewise
for the Figure-11 runtime-behaviour fluctuation).  Query demands are
sampled by a :class:`QueryFactory` from dedicated random streams, so two
runs with different controllers but the same seed replay byte-identical
workloads.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.units import exactly
from repro.service.application import Application
from repro.service.profile import ServiceProfile
from repro.service.query import Query
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RandomStreams

__all__ = [
    "LoadTrace",
    "ConstantLoad",
    "PiecewiseLoad",
    "DiurnalLoad",
    "QueryFactory",
    "PoissonLoadGenerator",
]

_ARRIVAL = EventPriority.ARRIVAL


class LoadTrace(ABC):
    """Arrival rate (queries/second) as a function of simulated time."""

    @abstractmethod
    def rate_at(self, time: float) -> float:
        """Instantaneous arrival rate at ``time`` (must be > 0)."""


class ConstantLoad(LoadTrace):
    """A fixed arrival rate for the whole run."""

    def __init__(self, rate_qps: float) -> None:
        if not math.isfinite(rate_qps) or rate_qps <= 0.0:
            raise ConfigurationError(
                f"rate must be a finite number > 0 qps, got {rate_qps}"
            )
        self.rate_qps = float(rate_qps)

    def rate_at(self, time: float) -> float:
        return self.rate_qps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantLoad({self.rate_qps:g} qps)"


class PiecewiseLoad(LoadTrace):
    """Step-wise rates: ``segments`` is [(start_time, rate), ...].

    The first segment must start at 0; each segment's rate holds until the
    next segment begins (the last holds forever).
    """

    def __init__(self, segments: Sequence[tuple[float, float]]) -> None:
        if not segments:
            raise ConfigurationError("piecewise load needs at least one segment")
        if not exactly(segments[0][0], 0.0):
            raise ConfigurationError(
                f"first segment must start at t=0, got {segments[0][0]}"
            )
        previous_start = -1.0
        for start, rate in segments:
            if not math.isfinite(start):
                raise ConfigurationError(
                    f"segment start must be a finite number, got {start}"
                )
            if start <= previous_start:
                raise ConfigurationError(
                    "segment start times must be strictly increasing"
                )
            if not math.isfinite(rate) or rate <= 0.0:
                raise ConfigurationError(
                    f"segment rate must be a finite number > 0, got {rate}"
                )
            previous_start = start
        self.segments = tuple((float(s), float(r)) for s, r in segments)

    def rate_at(self, time: float) -> float:
        if time < 0.0:
            raise ConfigurationError(f"time must be >= 0, got {time}")
        current = self.segments[0][1]
        for start, rate in self.segments:
            if time >= start:
                current = rate
            else:
                break
        return current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PiecewiseLoad({len(self.segments)} segments)"


class DiurnalLoad(LoadTrace):
    """A sinusoidal day/night pattern around a base rate.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*t/period + phase))`` —
    the smooth load swing of user-facing services ("the unpredictable
    user access pattern", Section 1) for experiments longer than the
    Figure-11 trace.  ``amplitude`` must stay below 1 so the rate is
    always positive.
    """

    def __init__(
        self,
        base_qps: float,
        amplitude: float = 0.5,
        period_s: float = 86_400.0,
        phase_rad: float = 0.0,
    ) -> None:
        if not math.isfinite(base_qps) or base_qps <= 0.0:
            raise ConfigurationError(
                f"base rate must be a finite number > 0, got {base_qps}"
            )
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError(
                f"amplitude must be in [0, 1), got {amplitude}"
            )
        if not math.isfinite(period_s) or period_s <= 0.0:
            raise ConfigurationError(
                f"period must be a finite number > 0, got {period_s}"
            )
        if not math.isfinite(phase_rad):
            raise ConfigurationError(
                f"phase must be a finite number, got {phase_rad}"
            )
        self.base_qps = float(base_qps)
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self.phase_rad = float(phase_rad)

    def rate_at(self, time: float) -> float:
        swing = math.sin(2.0 * math.pi * time / self.period_s + self.phase_rad)
        return self.base_qps * (1.0 + self.amplitude * swing)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiurnalLoad(base={self.base_qps:g} qps, "
            f"amplitude={self.amplitude:g}, period={self.period_s:g}s)"
        )


class QueryFactory:
    """Samples per-stage demands for new queries from named streams."""

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        streams: RandomStreams,
    ) -> None:
        if not profiles:
            raise ConfigurationError("query factory needs at least one profile")
        self.profiles = tuple(profiles)
        self.streams = streams
        self._qid = itertools.count(0)
        # Each stage's sampler and stream, bound once: the stream is the
        # same object ``streams.stream`` would return on every draw.
        self._draws = tuple(
            (
                profile.name,
                profile.demand.sample,
                streams.stream(f"demand/{profile.name}"),
            )
            for profile in self.profiles
        )

    def create(self) -> Query:
        """A fresh query with demands drawn for every stage."""
        demands = {}
        for name, sample, stream in self._draws:
            demands[name] = sample(stream)
        return Query(next(self._qid), demands)


class PoissonLoadGenerator:
    """Submits queries to an application as a Poisson process."""

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        factory: QueryFactory,
        trace: LoadTrace,
        streams: RandomStreams,
        duration_s: float,
    ) -> None:
        if duration_s <= 0.0:
            raise ConfigurationError(f"duration must be > 0, got {duration_s}")
        self.sim = sim
        self.application = application
        self.factory = factory
        self.trace = trace
        self.duration_s = float(duration_s)
        self._arrival_stream = streams.stream("arrivals")
        # Bound once: reading ``self._arrive`` makes a new bound method
        # each time, and every arrival schedules the next.
        self._arrive_cb = self._arrive
        self._started = False
        self._end_time: Optional[float] = None
        self.queries_submitted = 0

    def start(self) -> None:
        """Arm the arrival process; queries stop after ``duration_s``."""
        if self._started:
            raise ConfigurationError("load generator already started")
        self._started = True
        self._end_time = self.sim.now + self.duration_s
        self._schedule_next()

    def _schedule_next(self) -> None:
        now = self.sim._now
        rate = self.trace.rate_at(now)
        gap = self._arrival_stream.exponential(1.0 / rate)
        arrival_time = now + gap
        assert self._end_time is not None
        if arrival_time > self._end_time:
            return
        self.sim.schedule_at(arrival_time, self._arrive_cb, priority=_ARRIVAL)

    def _arrive(self) -> None:
        query = self.factory.create()
        self.application.submit(query)
        self.queries_submitted += 1
        self._schedule_next()
