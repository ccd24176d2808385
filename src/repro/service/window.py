"""Moving-window latency statistics.

"PowerChief leverages a moving time window to calculate this latency
metric for each service instance" (Section 4.2).  A :class:`LatencyWindow`
holds (finish_time, queuing, serving) samples and evicts everything older
than the window span; averages and percentiles are computed over whatever
remains.

Statistics are read far less often than samples arrive (the controller
ticks every 25 s), so ``add`` only appends and every ordering cost is
paid at read time.  A read sorts the store by (time, sequence), where
the sequence number counts arrivals across every window in the process,
and trims the samples older than ``now - window_s``.  Sorting on the
sequence too keeps equal times in arrival order: the order a store that
inserted each late sample after any equal timestamps would hold.  A
trimmed sample is gone for good, which is safe when reads, like the
simulator's clock, never run backwards and never precede a sample
already added.  A window that is fed but never read stays bounded only
if its owner calls :meth:`LatencyWindow.trim`: the command center, which
adds each sample as its query is ingested, trims all of its windows
together once a window span has passed since its last such trim.

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
from bisect import bisect_left
from typing import Iterable, Optional

from repro.errors import ConfigurationError
from repro.util.percentile import percentile

__all__ = ["LatencyWindow"]

#: (finish time, arrival sequence, queuing, serving).
Sample = tuple[float, int, float, float]

#: Numbers every sample added to any window, in arrival order.  Only the
#: order of the numbers is ever used, so runs sharing a process cannot
#: change each other's results through it.
_SEQUENCE = itertools.count()


class LatencyWindow:
    """Time-bounded window of per-query (queuing, serving) samples."""

    __slots__ = ("window_s", "_samples", "_ordered", "_total_ingested")

    def __init__(self, window_s: float) -> None:
        if not (math.isfinite(window_s) and window_s > 0.0):
            raise ConfigurationError(
                f"window must be a finite number > 0 s, got {window_s}"
            )
        self.window_s = float(window_s)
        self._samples: list[Sample] = []
        #: How many leading samples are known to be sorted and trimmed;
        #: ``add`` appends past it, so a read sorts only when it is short.
        self._ordered = 0
        self._total_ingested = 0

    # ------------------------------------------------------------------
    def add(self, time: float, queuing: float, serving: float) -> None:
        """Record one completed query's stats, stamped at ``time``."""
        self._samples.append((time, next(_SEQUENCE), queuing, serving))
        self._total_ingested += 1

    def trim(self, now: float) -> None:
        """Sort the samples and drop those older than ``now - window_s``.

        Every read trims first; a window that is fed but not read stays
        bounded only if something trims it.
        """
        samples = self._samples
        if len(samples) != self._ordered:
            samples.sort()
        cutoff = now - self.window_s
        if samples and samples[0][0] < cutoff:
            # ``(cutoff,)`` sorts before every sample stamped at ``cutoff``.
            del samples[: bisect_left(samples, (cutoff,))]
        self._ordered = len(samples)

    def _live(self, now: float) -> list[Sample]:
        """The samples no older than ``now - window_s``, in order."""
        self.trim(now)
        return self._samples

    @classmethod
    def merged(
        cls, window_s: float, windows: Iterable[LatencyWindow], now: float
    ) -> LatencyWindow:
        """One window over the live samples of ``windows`` at ``now``.

        It reads as one window that had been fed all of their samples
        would at ``now``.
        """
        pooled = cls(window_s)
        samples = pooled._samples
        for window in windows:
            samples.extend(window._live(now))
        samples.sort()
        pooled._ordered = pooled._total_ingested = len(samples)
        return pooled

    # ------------------------------------------------------------------
    def count(self, now: float) -> int:
        return len(self._live(now))

    @property
    def total_ingested(self) -> int:
        """All samples ever added, including evicted ones."""
        return self._total_ingested

    def _values(self, now: float, index: int) -> list[float]:
        return [sample[index] for sample in self._live(now)]

    def avg_queuing(self, now: float) -> Optional[float]:
        values = self._values(now, 2)
        if not values:
            return None
        return sum(values) / len(values)

    def avg_serving(self, now: float) -> Optional[float]:
        values = self._values(now, 3)
        if not values:
            return None
        return sum(values) / len(values)

    def avg_processing(self, now: float) -> Optional[float]:
        live = self._live(now)
        if not live:
            return None
        total = sum(q + s for _, _, q, s in live)
        return total / len(live)

    def p99_queuing(self, now: float) -> Optional[float]:
        values = self._values(now, 2)
        if not values:
            return None
        return percentile(values, 99.0)

    def p99_serving(self, now: float) -> Optional[float]:
        values = self._values(now, 3)
        if not values:
            return None
        return percentile(values, 99.0)

    def p99_processing(self, now: float) -> Optional[float]:
        live = self._live(now)
        if not live:
            return None
        return percentile([q + s for _, _, q, s in live], 99.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyWindow({self.window_s}s, {len(self._samples)} samples)"
