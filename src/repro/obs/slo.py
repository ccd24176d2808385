"""SLO attainment and error-budget burn-rate tracking.

SLOs-Serve-style accounting for the repro: an objective is "fraction
``attainment_goal`` of queries finish under ``target_s``", and the
tracker watches it two ways:

* **attainment** — the fraction of settled queries (completed in time /
  all settled, with terminal failures counted as violations), overall
  and over a sliding simulated-time window;
* **burn rate** — the windowed violation rate divided by the rate the
  error budget allows (``1 - attainment_goal``).  Burn 1.0 means the
  budget is being spent exactly as fast as the objective tolerates;
  sustained burn above 1.0 means the SLO will be missed.

The tracker is a plain completion/failure listener — it needs no
simulator handle because every query already carries its settle time —
and exposes ``repro_slo_*`` instruments when given a registry, all read
from the tracker when the registry is read: a counter of judged queries
by outcome, whose ``ok`` and ``violation`` series are registered at the
first settle of each, and two gauges registered at the first settle
that read the attainment and the burn rate (over the window ending at
the settle ingested last).  Like
every pillar it is opt-in and bounded: the per-event history that feeds
the window and the explain timeline is capped, while the overall
counters stay exact.

The window is counted by bisection: beside the arrival-ordered history
the tracker keeps the retained settle times in two sorted lists (every
settle, and the settles that met the target), so a settle and a window
query each cost O(log n) comparisons however full the window is, and a
completion report that arrives after a later settle is still counted.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.metrics import MetricsRegistry
    from repro.service.query import Query

__all__ = ["SloTracker", "check_attainment_goal", "check_slo_target", "check_slo_window"]


def check_slo_target(slo_target_s: float) -> None:
    if not math.isfinite(slo_target_s) or slo_target_s <= 0.0:
        raise ConfigurationError(
            f"SLO target must be a finite number > 0, got {slo_target_s}"
        )


def check_attainment_goal(slo_attainment: float) -> None:
    if not 0.0 < slo_attainment < 1.0:
        raise ConfigurationError(
            f"attainment goal must be in (0, 1), got {slo_attainment}"
        )


def check_slo_window(slo_window_s: float) -> None:
    if not (math.isfinite(slo_window_s) and slo_window_s > 0.0):
        raise ConfigurationError(
            f"window must be a finite number > 0, got {slo_window_s}"
        )


class SloTracker:
    """Windowed SLO attainment and error-budget burn for one objective."""

    def __init__(
        self,
        target_s: float,
        attainment_goal: float = 0.99,
        window_s: float = 60.0,
        max_events: int = 500_000,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        check_slo_target(target_s)
        check_attainment_goal(attainment_goal)
        check_slo_window(window_s)
        if max_events <= 0:
            raise ConfigurationError(
                f"max_events must be > 0, got {max_events}"
            )
        self.target_s = float(target_s)
        self.attainment_goal = float(attainment_goal)
        self.window_s = float(window_s)
        self.max_events = int(max_events)
        self.registry = registry
        #: (settle time, met-the-target) pairs in arrival order: the
        #: ``max_events`` cap evicts the earliest arrival, and the
        #: timeline reads it.
        self._events: deque[tuple[float, bool]] = deque(maxlen=max_events)
        #: The retained settle times, sorted: all of them, and those that
        #: met the target.  The window counts bisect into these.
        self._times: list[float] = []
        self._ok_times: list[float] = []
        self._total = 0
        self._violations = 0
        self._last_time = 0.0
        #: The settle time ingested last, which under rpc faults may be
        #: earlier than ``_last_time``: the burn-rate gauge reads the
        #: window ending there.
        self._ingested_at = 0.0

    # ------------------------------------------------------------------
    def attach(self, application: Any) -> None:
        """Subscribe to an application's completions and failures."""
        application.add_completion_listener(self.observe)
        application.add_failure_listener(self.observe_failure)

    def observe(self, query: "Query") -> None:
        """Ingest one completed query at its completion time."""
        assert query.completion_time is not None
        self._ingest(
            query.completion_time, query.end_to_end_latency <= self.target_s
        )

    def observe_failure(self, query: "Query") -> None:
        """A terminal failure burns budget like any missed query."""
        assert query.failed_time is not None
        self._ingest(query.failed_time, False)

    def _ingest(self, time: float, ok: bool) -> None:
        self._total += 1
        if not ok:
            self._violations += 1
        if len(self._events) == self.max_events:
            old_time, old_ok = self._events[0]
            _remove(self._times, old_time)
            if old_ok:
                _remove(self._ok_times, old_time)
        self._events.append((time, ok))
        insort(self._times, time)
        if ok:
            insort(self._ok_times, time)
        self._last_time = max(self._last_time, time)
        self._ingested_at = time
        registry = self.registry
        if registry is not None:
            # Each outcome's series is registered at its first settle.
            if (self._total - self._violations if ok else self._violations) == 1:
                counter = registry.counter(
                    "repro_slo_queries_total",
                    "Queries judged against the SLO target",
                )
                if ok:
                    counter.set_function(
                        lambda: self._total - self._violations, outcome="ok"
                    )
                else:
                    counter.set_function(
                        lambda: self._violations, outcome="violation"
                    )
            if self._total == 1:
                registry.gauge(
                    "repro_slo_attainment",
                    "Fraction of settled queries under the SLO target",
                ).set_function(self.attainment)
                registry.gauge(
                    "repro_slo_burn_rate",
                    "Windowed error-budget burn rate (1.0 = budget pace)",
                ).set_function(lambda: self.burn_rate(self._ingested_at))

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return self._total

    @property
    def violations(self) -> int:
        return self._violations

    def attainment(self) -> float:
        """Overall attained fraction (1.0 before any query settles)."""
        if self._total == 0:
            return 1.0
        return 1.0 - self._violations / self._total

    def windowed_attainment(self, now: Optional[float] = None) -> float:
        """Attained fraction over the trailing window ending at ``now``."""
        ok, seen = self._window_counts(now)
        if seen == 0:
            return 1.0
        return ok / seen

    def burn_rate(self, now: Optional[float] = None) -> float:
        """Windowed violation rate over the budgeted violation rate."""
        ok, seen = self._window_counts(now)
        if seen == 0:
            return 0.0
        violation_rate = 1.0 - ok / seen
        return violation_rate / (1.0 - self.attainment_goal)

    def _window_counts(self, now: Optional[float]) -> tuple[int, int]:
        """(met, settled) among the retained settles timed in
        ``(now - window_s, now]``; ``now`` defaults to the latest settle."""
        at = self._last_time if now is None else now
        horizon = at - self.window_s
        times, ok_times = self._times, self._ok_times
        seen = bisect_right(times, at) - bisect_right(times, horizon)
        ok = bisect_right(ok_times, at) - bisect_right(ok_times, horizon)
        return ok, seen

    # ------------------------------------------------------------------
    def timeline(self, bucket_s: float) -> list[dict[str, float]]:
        """Burn-rate buckets over the retained events, for ``explain``.

        Each bucket reports its start time, settled count, violation
        count and the burn rate inside the bucket.
        """
        if bucket_s <= 0.0:
            raise ConfigurationError(f"bucket must be > 0, got {bucket_s}")
        buckets: dict[int, list[int]] = {}
        for time, ok in self._events:
            index = int(time // bucket_s)
            cell = buckets.setdefault(index, [0, 0])
            cell[0] += 1
            if not ok:
                cell[1] += 1
        out = []
        for index in sorted(buckets):
            settled, violations = buckets[index]
            rate = (
                (violations / settled) / (1.0 - self.attainment_goal)
                if settled
                else 0.0
            )
            out.append(
                {
                    "t": index * bucket_s,
                    "settled": float(settled),
                    "violations": float(violations),
                    "burn_rate": rate,
                }
            )
        return out

    def to_dict(self, bucket_s: Optional[float] = None) -> dict[str, Any]:
        """The archival payload ``repro trace`` writes to ``slo.json``."""
        bucket = bucket_s if bucket_s is not None else self.window_s
        return {
            "target_s": self.target_s,
            "attainment_goal": self.attainment_goal,
            "window_s": self.window_s,
            "total": self._total,
            "violations": self._violations,
            "attainment": self.attainment(),
            "windowed_attainment": self.windowed_attainment(),
            "burn_rate": self.burn_rate(),
            "timeline": self.timeline(bucket),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SloTracker(target={self.target_s}s, "
            f"{self._violations}/{self._total} violations)"
        )


def _remove(times: list[float], time: float) -> None:
    """Delete one occurrence of ``time`` from the sorted list ``times``."""
    del times[bisect_left(times, time)]
