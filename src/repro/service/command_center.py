"""The command center: latency-statistics aggregation across stages.

"After the query completes the last stage of the processing pipeline,
these latency statistics are sent to the command center.  The bottleneck
identifier then calculates the latency metrics such as average and 99%
percentile queuing and serving delay of each service instance using the
latency statistics." (Section 4.1)

The command center hears from each query once, on completion, and
:meth:`CommandCenter.ingest` files the query's records into a moving
:class:`LatencyWindow` per instance at once.  Its statistics are read
only when a controller or monitor ticks, so the windows put off their
sorting and trimming until a read.  Once the first query filed since the
last trim is a window old, ingest trims every window, so a center that
nobody reads stays bounded.

A freshly launched instance has no history, so lookups fall back from
the instance window to its stage's pooled samples and finally to the
offline profile's expectation — without the fallback a new instance
would report a zero latency metric and immediately be chosen as a power
recycling victim.  The stage pool is merged from the stage's instance
windows at read time and cached while simulated time stands still.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.errors import ConfigurationError
from repro.service.application import Application
from repro.service.instance import ServiceInstance
from repro.service.query import Query
from repro.service.window import LatencyWindow
from repro.sim.engine import Simulator
from repro.util.percentile import LatencySummary, summarize

__all__ = ["CommandCenter", "check_e2e_window"]


def _check_span(name: str, span_s: float) -> None:
    if not (math.isfinite(span_s) and span_s > 0.0):
        raise ConfigurationError(f"{name} must be a finite number > 0 s, got {span_s}")


def check_e2e_window(e2e_window_s: float) -> None:
    _check_span("e2e window", e2e_window_s)


class CommandCenter:
    """Ingests completed-query records and serves latency statistics."""

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        window_s: float = 60.0,
        e2e_window_s: float = 30.0,
    ) -> None:
        _check_span("window", window_s)
        check_e2e_window(e2e_window_s)
        self.sim = sim
        self.application = application
        self.window_s = float(window_s)
        self.e2e_window_s = float(e2e_window_s)
        #: When the first query filed since the windows were last
        #: trimmed together completed (``None``: none since).
        self._untrimmed_since: Optional[float] = None
        self._instance_windows: dict[str, LatencyWindow] = {}
        self._windows_by_stage: dict[str, list[LatencyWindow]] = {}
        #: Stage name -> (time, pooled avg queuing, pooled avg serving).
        self._pooled: dict[str, tuple[float, Optional[float], Optional[float]]] = {}
        self._all_latencies: list[float] = []
        self._recent_e2e: deque[tuple[float, float]] = deque()
        self._stats_messages = 0
        application.add_completion_listener(self.ingest)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, query: Query) -> None:
        """Record a completed query's latency statistics.

        One ingest call is one statistics message: the query carried every
        instance's record along, so the command center hears from the
        pipeline exactly once per query.  Each complete record is filed
        into its instance's window now.
        """
        self._stats_messages += 1
        now = self.sim._now
        windows = self._instance_windows
        for record in query.records:
            start = record.start_time
            finish = record.finish_time
            if start is None or finish is None:
                continue
            window = windows.get(record.instance_name)
            if window is None:
                window = LatencyWindow(self.window_s)
                windows[record.instance_name] = window
                self._windows_by_stage.setdefault(record.stage_name, []).append(
                    window
                )
            window.add(finish, start - record.enqueue_time, finish - start)
        if self._pooled:
            self._pooled.clear()
        since = self._untrimmed_since
        if since is None:
            self._untrimmed_since = now
        elif now - since > self.window_s:
            # No later read can see a sample older than ``now - window_s``.
            for window in windows.values():
                window.trim(now)
            self._untrimmed_since = None
        latency = query.end_to_end_latency
        self._all_latencies.append(latency)
        recent = self._recent_e2e
        recent.append((now, latency))
        cutoff = now - self.e2e_window_s
        while recent and recent[0][0] < cutoff:
            recent.popleft()

    def _window(self, instance: ServiceInstance) -> Optional[LatencyWindow]:
        return self._instance_windows.get(instance.name)

    def _stage_pool(
        self, instance: ServiceInstance, now: float
    ) -> tuple[Optional[float], Optional[float]]:
        """The (avg queuing, avg serving) of the instance's whole stage.

        The stage's instance windows are merged in (finish time, ingest
        sequence) order, the order one window fed every record of the
        stage would hold, so the averages sum in the same order.  The
        result is kept until the clock moves or a query is ingested.
        """
        stage = instance.stage_name
        pooled = self._pooled.get(stage)
        if pooled is None or pooled[0] != now:
            pool = LatencyWindow.merged(
                self.window_s, self._windows_by_stage.get(stage, ()), now
            )
            pooled = (now, pool.avg_queuing(now), pool.avg_serving(now))
            self._pooled[stage] = pooled
        return pooled[1], pooled[2]

    # ------------------------------------------------------------------
    # Per-instance statistics (with fallbacks for fresh instances)
    # ------------------------------------------------------------------
    def avg_queuing(self, instance: ServiceInstance) -> float:
        """Windowed average queuing time ``q_i`` of an instance."""
        now = self.sim.now
        window = self._window(instance)
        if window is not None:
            value = window.avg_queuing(now)
            if value is not None:
                return value
        value = self._stage_pool(instance, now)[0]
        return 0.0 if value is None else value

    def avg_serving(self, instance: ServiceInstance) -> float:
        """Windowed average serving time ``s_i`` of an instance.

        Falls back to the stage's pooled samples and finally to the
        offline profile's expected serving time at the instance's current
        frequency.
        """
        now = self.sim.now
        window = self._window(instance)
        if window is not None:
            value = window.avg_serving(now)
            if value is not None:
                return value
        value = self._stage_pool(instance, now)[1]
        if value is not None:
            return value
        return instance.profile.mean_serving_time(instance.frequency_ghz)

    def p99_queuing(self, instance: ServiceInstance) -> float:
        window = self._window(instance)
        if window is not None:
            value = window.p99_queuing(self.sim.now)
            if value is not None:
                return value
        return self.avg_queuing(instance)

    def p99_serving(self, instance: ServiceInstance) -> float:
        window = self._window(instance)
        if window is not None:
            value = window.p99_serving(self.sim.now)
            if value is not None:
                return value
        return self.avg_serving(instance)

    def p99_processing(self, instance: ServiceInstance) -> float:
        """99th percentile of per-query processing time ``q + s``.

        Computed over the joint distribution: each sample is one record's
        queuing *plus* serving time.  This is *not* ``p99(q) + p99(s)`` —
        queuing and serving delays are typically anti-correlated (a query
        that waited long often hits a recently-drained, fast instance), so
        summing the marginal percentiles overstates the tail.
        """
        window = self._window(instance)
        if window is not None:
            value = window.p99_processing(self.sim.now)
            if value is not None:
                return value
        return self.avg_queuing(instance) + self.avg_serving(instance)

    def sample_count(self, instance: ServiceInstance) -> int:
        """Windowed sample count for the instance (0 if fresh)."""
        window = self._window(instance)
        if window is None:
            return 0
        return window.count(self.sim.now)

    def has_fresh_records(self, instance: ServiceInstance) -> bool:
        """Whether the instance produced any record inside the window.

        The controller's stale-metric guard distinguishes *fresh* clones
        (no history yet — served by the fallback chain) from *sick*
        veterans (served queries before, now silent with work queued);
        both report ``sample_count == 0`` but only the latter should be
        excluded from Eq-1 ranking.
        """
        return self.sample_count(instance) > 0

    # ------------------------------------------------------------------
    # End-to-end statistics
    # ------------------------------------------------------------------
    @property
    def all_latencies(self) -> list[float]:
        """End-to-end latency of every completed query (run-lifetime)."""
        return list(self._all_latencies)

    @property
    def stats_messages(self) -> int:
        """Statistics messages received: one per completed query.

        The service/query joint design "eliminates the large amount of
        communications between service instances and the command center"
        (Section 4.1): compare with :attr:`naive_stats_messages`, what a
        per-instance reporting scheme would have sent.
        """
        return self._stats_messages

    @property
    def naive_stats_messages(self) -> int:
        """Messages a report-per-instance-visit design would have sent."""
        return sum(
            window.total_ingested for window in self._instance_windows.values()
        )

    def summary(self) -> LatencySummary:
        """Run-lifetime end-to-end latency summary."""
        return summarize(self._all_latencies)

    def recent_latency_avg(self) -> Optional[float]:
        """Windowed average end-to-end latency (None if no recent queries)."""
        self._trim_recent()
        if not self._recent_e2e:
            return None
        return sum(latency for _, latency in self._recent_e2e) / len(
            self._recent_e2e
        )

    def recent_latency_max(self) -> Optional[float]:
        """Windowed max end-to-end latency (what a QoS guard watches)."""
        self._trim_recent()
        if not self._recent_e2e:
            return None
        return max(latency for _, latency in self._recent_e2e)

    def recent_count(self) -> int:
        self._trim_recent()
        return len(self._recent_e2e)

    def _trim_recent(self) -> None:
        cutoff = self.sim.now - self.e2e_window_s
        while self._recent_e2e and self._recent_e2e[0][0] < cutoff:
            self._recent_e2e.popleft()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommandCenter(app={self.application.name!r}, "
            f"{len(self._all_latencies)} queries ingested)"
        )
