"""Moving-window latency statistics.

"PowerChief leverages a moving time window to calculate this latency
metric for each service instance" (Section 4.2).  A :class:`LatencyWindow`
holds (finish_time, queuing, serving) samples and evicts everything older
than the window span; averages and percentiles are computed over whatever
remains.

The store is a pair of parallel lists kept sorted by time — ``_times``
for bisection, ``_samples`` for the payloads — plus a head offset that
eviction advances instead of deleting from the front.  Out-of-order
arrivals (a slow later stage delivering an earlier stage's sample late)
land via ``bisect_right``, which preserves the historical contract of
inserting *after* any equal timestamps so scheduling order breaks ties.

Aggregates are deliberately recomputed from the live slice on each read
rather than maintained as running sums: incremental sums accumulate in a
different floating-point order than a fresh left-to-right pass, and the
golden seed-equivalence suite requires byte-identical results.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.errors import ConfigurationError
from repro.util.percentile import percentile

__all__ = ["LatencyWindow"]

#: Compact the dead prefix once it is this long *and* at least half the
#: store; the amortised cost stays O(1) per eviction.
_COMPACT_MIN = 64


class LatencyWindow:
    """Time-bounded window of per-query (queuing, serving) samples."""

    __slots__ = ("window_s", "_times", "_samples", "_head", "_total_ingested")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0.0:
            raise ConfigurationError(f"window must be > 0 s, got {window_s}")
        self.window_s = float(window_s)
        self._times: list[float] = []
        self._samples: list[tuple[float, float, float]] = []
        self._head = 0
        self._total_ingested = 0

    # ------------------------------------------------------------------
    def add(self, time: float, queuing: float, serving: float) -> None:
        """Record one completed query's stats, stamped at ``time``."""
        times = self._times
        if times and time < times[-1]:
            # Records arrive when the *pipeline* completes, so a slow later
            # stage can deliver an earlier stage's sample out of order.
            # Insert in place to keep eviction correct.
            index = bisect_right(times, time, self._head)
            times.insert(index, time)
            self._samples.insert(index, (time, queuing, serving))
        else:
            times.append(time)
            self._samples.append((time, queuing, serving))
        self._total_ingested += 1
        # Evict only when the oldest live sample is due; otherwise
        # ``_evict`` would advance nothing.
        if times[self._head] < time - self.window_s:
            self._evict(time)

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        times = self._times
        head = self._head
        end = len(times)
        while head < end and times[head] < cutoff:
            head += 1
        if head != self._head:
            self._head = head
            if head >= _COMPACT_MIN and head * 2 >= end:
                del times[:head]
                del self._samples[:head]
                self._head = 0

    # ------------------------------------------------------------------
    def count(self, now: float) -> int:
        self._evict(now)
        return len(self._times) - self._head

    @property
    def total_ingested(self) -> int:
        """All samples ever added, including evicted ones."""
        return self._total_ingested

    def _values(self, now: float, index: int) -> list[float]:
        self._evict(now)
        head = self._head
        return [sample[index] for sample in self._samples[head:]]

    def avg_queuing(self, now: float) -> Optional[float]:
        values = self._values(now, 1)
        if not values:
            return None
        return sum(values) / len(values)

    def avg_serving(self, now: float) -> Optional[float]:
        values = self._values(now, 2)
        if not values:
            return None
        return sum(values) / len(values)

    def avg_processing(self, now: float) -> Optional[float]:
        self._evict(now)
        live = self._samples[self._head :]
        if not live:
            return None
        total = sum(q + s for _, q, s in live)
        return total / len(live)

    def p99_queuing(self, now: float) -> Optional[float]:
        values = self._values(now, 1)
        if not values:
            return None
        return percentile(values, 99.0)

    def p99_serving(self, now: float) -> Optional[float]:
        values = self._values(now, 2)
        if not values:
            return None
        return percentile(values, 99.0)

    def p99_processing(self, now: float) -> Optional[float]:
        self._evict(now)
        live = self._samples[self._head :]
        if not live:
            return None
        return percentile([q + s for _, q, s in live], 99.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = len(self._times) - self._head
        return f"LatencyWindow({self.window_s}s, {live} samples)"
