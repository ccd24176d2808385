"""Moving-window latency statistics.

"PowerChief leverages a moving time window to calculate this latency
metric for each service instance" (Section 4.2).  A :class:`LatencyWindow`
holds one (finish_time, queuing, serving) sample per stage visit, taken
from the :class:`~repro.service.records.StageRecord` that the instance
created when service started and the command center filed when the query
completed.  It evicts everything older than the window span; averages
and percentiles are computed over whatever remains.

Samples are stored column by column: finish times, arrival sequence
numbers, queuing times and serving times, each in its own list, so
adding a sample allocates no container for the garbage collector to
track.

Statistics are read far less often than samples arrive (the controller
ticks every 25 s), so ``add`` only appends and every ordering cost is
paid at read time.  A read puts the samples in (time, sequence) order,
where the sequence number counts arrivals across every window in the
process, and trims the samples older than ``now - window_s``.  A
window's own samples arrive in sequence order, so a stable sort on the
finish time alone gives that order.  The samples a read left are in
order, so the next read re-sorts only those from the earliest
newcomer's place on, and none when the newcomers follow them in order.
Ordering on the sequence too keeps
equal times in arrival order: the order a store that inserted each late
sample after any equal timestamps would hold.  A trimmed sample is gone
for good, which is safe when reads, like the simulator's clock, never
run backwards and never precede a sample already added.  A window that
is fed but never read stays bounded only if its owner calls
:meth:`LatencyWindow.trim`: the command center, which adds each sample
as its query is ingested, trims all of its windows together once a
window span has passed since its last such trim.

Because the sequence is shared, :meth:`LatencyWindow.merged` can pool
several windows into the order a single window fed all of their samples
would hold: the command center builds a stage's fallback this way.

Aggregates are deliberately recomputed from the live samples on each
read rather than maintained as running sums: incremental sums accumulate
in a different floating-point order than a fresh left-to-right pass, and
the golden seed-equivalence suite requires byte-identical results.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import add, itemgetter
from typing import Iterable, Optional

from repro.errors import ConfigurationError
from repro.util.percentile import percentile

__all__ = ["LatencyWindow"]

#: Numbers every sample added to any window, in arrival order.  Only the
#: order of the numbers is ever used, so runs sharing a process cannot
#: change each other's results through it.
_SEQUENCE = itertools.count()


class LatencyWindow:
    """Time-bounded window of per-query (queuing, serving) samples."""

    __slots__ = (
        "window_s",
        "_times",
        "_seqs",
        "_queuing",
        "_serving",
        "_ordered",
        "_total_ingested",
    )

    def __init__(self, window_s: float) -> None:
        if not (math.isfinite(window_s) and window_s > 0.0):
            raise ConfigurationError(
                f"window must be a finite number > 0 s, got {window_s}"
            )
        self.window_s = float(window_s)
        #: One column per field; index ``i`` of each is sample ``i``.
        self._times: list[float] = []
        self._seqs: list[int] = []
        self._queuing: list[float] = []
        self._serving: list[float] = []
        #: How many leading samples are known to be sorted and trimmed;
        #: ``add`` appends past it, so a read sorts only when it is short.
        self._ordered = 0
        self._total_ingested = 0

    # ------------------------------------------------------------------
    def add(self, time: float, queuing: float, serving: float) -> None:
        """Record one completed query's stats, stamped at ``time``."""
        self._times.append(time)
        self._seqs.append(next(_SEQUENCE))
        self._queuing.append(queuing)
        self._serving.append(serving)
        self._total_ingested += 1

    def trim(self, now: float) -> None:
        """Sort the samples and drop those older than ``now - window_s``.

        Every read trims first; a window that is fed but not read stays
        bounded only if something trims it.
        """
        times = self._times
        ordered = self._ordered
        if len(times) != ordered:
            # The first ``ordered`` samples are in order, and those up to
            # the earliest newcomer stay put; the rest are sorted stably
            # on time, which keeps equal times in arrival order.
            first = bisect_right(times, min(times[ordered:]), 0, ordered)
            tail = times[first:]
            if sorted(tail) != tail:
                # At least two samples, so ``take`` returns a tuple.
                take = itemgetter(
                    *sorted(range(first, len(times)), key=times.__getitem__)
                )
                for column in self._columns():
                    column[first:] = take(column)
        cutoff = now - self.window_s
        if times and times[0] < cutoff:
            # The first sample stamped at or after ``cutoff``.
            drop = bisect_left(times, cutoff)
            for column in self._columns():
                del column[:drop]
        self._ordered = len(times)

    def _columns(self) -> tuple[list[float], list[int], list[float], list[float]]:
        return self._times, self._seqs, self._queuing, self._serving

    @classmethod
    def merged(
        cls, window_s: float, windows: Iterable[LatencyWindow], now: float
    ) -> LatencyWindow:
        """One window over the live samples of ``windows`` at ``now``.

        It reads as one window that had been fed all of their samples
        would at ``now``: the pool is sorted by (time, sequence).
        """
        rows: list[tuple[float, int, float, float]] = []
        for window in windows:
            window.trim(now)
            rows.extend(zip(*window._columns()))
        rows.sort()
        pooled = cls(window_s)
        for column, values in zip(pooled._columns(), zip(*rows)):
            column.extend(values)
        pooled._ordered = pooled._total_ingested = len(rows)
        return pooled

    # ------------------------------------------------------------------
    def count(self, now: float) -> int:
        self.trim(now)
        return len(self._times)

    @property
    def total_ingested(self) -> int:
        """All samples ever added, including evicted ones."""
        return self._total_ingested

    def avg_queuing(self, now: float) -> Optional[float]:
        self.trim(now)
        return _mean(self._queuing)

    def avg_serving(self, now: float) -> Optional[float]:
        self.trim(now)
        return _mean(self._serving)

    def avg_processing(self, now: float) -> Optional[float]:
        self.trim(now)
        return _mean(list(map(add, self._queuing, self._serving)))

    def p99_queuing(self, now: float) -> Optional[float]:
        self.trim(now)
        return _p99(self._queuing)

    def p99_serving(self, now: float) -> Optional[float]:
        self.trim(now)
        return _p99(self._serving)

    def p99_processing(self, now: float) -> Optional[float]:
        self.trim(now)
        return _p99(list(map(add, self._queuing, self._serving)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyWindow({self.window_s}s, {len(self._times)} samples)"


def _mean(values: list[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _p99(values: list[float]) -> Optional[float]:
    return percentile(values, 99.0) if values else None
