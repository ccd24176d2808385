"""What the trace buffer and the attribution collector hold per kept fact.

An observed run keeps every span and every completed query until it is
read, so their size sets an observed run's peak memory.  Each store
packs a kept fact into one fixed-width record plus references to names
the run already holds: these guards measure, with ``tracemalloc``, the
bytes a store grows by per kept span and per kept three-visit query, and
count the objects the garbage collector tracks that it adds.  The
inputs are built first and kept alive, so only the store's own growth is
measured; the counts are deterministic.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Callable

from repro.obs import AttributionCollector, TraceBuffer
from repro.service.query import Query
from repro.service.records import StageRecord

#: Kept facts per measurement: enough that a container's last
#: over-allocation is a small share of the total.
KEPT = 4096


def _growth(keep: Callable[[int], None]) -> tuple[float, int]:
    """Traced bytes per call of ``keep(index)`` over :data:`KEPT` calls,
    and the number of objects the garbage collector tracks that the
    calls left behind (collection disabled meanwhile)."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        tracked = len(gc.get_objects())
        before = tracemalloc.get_traced_memory()[0]
        for index in range(KEPT):
            keep(index)
        grown = tracemalloc.get_traced_memory()[0] - before
        tracked = len(gc.get_objects()) - tracked
    finally:
        tracemalloc.stop()
        gc.enable()
    return grown / KEPT, tracked


def _record(stage: str, index: int) -> StageRecord:
    enqueue = 10.0 * index + 0.125
    return StageRecord(
        index, f"{stage}_{index}", stage, enqueue, enqueue + 0.5, enqueue + 1.75, 3, 8
    )


def test_a_kept_span_costs_at_most_100_bytes_and_no_tracked_object():
    records = [_record(stage, index) for index, stage in enumerate(("ASR", "IMM", "QA"))]
    buffer = TraceBuffer(max_spans=10 * KEPT)
    # The first emit sizes the stores; the guard measures the steady state.
    buffer.emit_record(0, 0.5, records[0])
    per_span, tracked = _growth(
        lambda index: buffer.emit_record(index, 0.5, records[index % 3])
    )
    assert len(buffer) == KEPT + 1
    assert per_span <= 100.0, f"{per_span:.1f} B per kept span"
    assert tracked == 0


def test_a_kept_three_visit_query_costs_at_most_140_bytes_and_no_tracked_object():
    queries = []
    for qid in range(3):
        query = Query(qid, {"ASR": 1.0, "IMM": 1.0, "QA": 1.0}, arrival_time=0.0)
        for stage in ("ASR", "IMM", "QA"):
            query.append_record(_record(stage, qid))
        query.completion_time = 40.0
        queries.append(query)
    collector = AttributionCollector(max_queries=10 * KEPT)
    collector.observe(queries[0])
    per_query, tracked = _growth(lambda index: collector.observe(queries[index % 3]))
    assert len(collector) == KEPT + 1
    assert per_query <= 140.0, f"{per_query:.1f} B per kept query"
    assert tracked == 0
