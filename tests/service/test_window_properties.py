"""Property tests: the windows and the command center track naive references.

The production window appends samples and sorts and trims them at read
time; the reference below re-derives everything the slow,
obviously-correct way (scan-insert into a plain list, destructive
front-eviction).  Over random ingest sequences — in-order, out-of-order,
duplicate timestamps, long eviction runs — every aggregate must match
the reference *exactly*: both implementations iterate the identical
time-sorted sample order, so their floating-point sums are bit-equal,
which is precisely the byte-identity contract the golden
seed-equivalence suite relies on.

A second reference is the tuple store the window kept before it stored
columns: one (time, sequence, queuing, serving) tuple per sample, sorted
at read.  Driven through the same adds, trims, reads and pools, the
column window must hold the same samples in the same order.

The command center files records into its windows at ingest and pools a
stage's samples at read time; its reference feeds one reference window
per instance and one per stage on every ingest.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Iterator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.instance import ServiceInstance
from repro.service.query import Query
from repro.service.records import StageRecord
from repro.service.window import LatencyWindow
from repro.sim.engine import Simulator
from repro.util.percentile import percentile

from tests.conftest import make_profile


class ReferenceWindow:
    """Deliberately naive mirror of the LatencyWindow contract."""

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self.samples: list[tuple[float, float, float]] = []

    def add(self, time: float, queuing: float, serving: float) -> None:
        # Scan from the right for the first slot whose left neighbour is
        # <= time: the historical insert-after-equal-timestamps order.
        index = len(self.samples)
        while index > 0 and self.samples[index - 1][0] > time:
            index -= 1
        self.samples.insert(index, (time, queuing, serving))
        self.evict(time)

    def evict(self, now: float) -> None:
        cutoff = now - self.window_s
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.pop(0)

    def count(self, now: float) -> int:
        self.evict(now)
        return len(self.samples)

    def avg(self, now: float, index: int) -> float | None:
        self.evict(now)
        if not self.samples:
            return None
        values = [sample[index] for sample in self.samples]
        return sum(values) / len(values)

    def p99(self, now: float, index: int) -> float | None:
        self.evict(now)
        if not self.samples:
            return None
        return percentile([sample[index] for sample in self.samples], 99.0)

    def avg_processing(self, now: float) -> float | None:
        self.evict(now)
        if not self.samples:
            return None
        total = sum(q + s for _, q, s in self.samples)
        return total / len(self.samples)

    def p99_processing(self, now: float) -> float | None:
        self.evict(now)
        if not self.samples:
            return None
        return percentile([q + s for _, q, s in self.samples], 99.0)


def _assert_windows_agree(
    optimized: LatencyWindow, reference: ReferenceWindow, now: float
) -> None:
    assert optimized.count(now) == reference.count(now)
    assert optimized.avg_queuing(now) == reference.avg(now, 1)
    assert optimized.avg_serving(now) == reference.avg(now, 2)
    assert optimized.avg_processing(now) == reference.avg_processing(now)
    assert optimized.p99_queuing(now) == reference.p99(now, 1)
    assert optimized.p99_serving(now) == reference.p99(now, 2)
    assert optimized.p99_processing(now) == reference.p99_processing(now)


@settings(max_examples=100, deadline=None)
@given(
    window_s=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    ingest=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    ),
)
def test_optimized_window_matches_reference(window_s, ingest):
    optimized = LatencyWindow(window_s)
    reference = ReferenceWindow(window_s)
    for time, queuing, serving in ingest:
        optimized.add(time, queuing, serving)
        reference.add(time, queuing, serving)
        _assert_windows_agree(optimized, reference, time)
    # Probe reads past the end, including one that empties both windows.
    last = max(time for time, _, _ in ingest)
    for probe in (last, last + window_s / 2.0, last + 2.0 * window_s):
        _assert_windows_agree(optimized, reference, probe)


@settings(max_examples=25, deadline=None)
@given(step=st.floats(min_value=0.01, max_value=0.2, allow_nan=False))
def test_long_monotone_stream_matches_reference(step):
    """400 in-order samples, sorted and trimmed in one read, match the reference."""
    optimized = LatencyWindow(1.0)
    reference = ReferenceWindow(1.0)
    time = 0.0
    for index in range(400):
        time = index * step
        optimized.add(time, float(index % 7), float(index % 11))
        reference.add(time, float(index % 7), float(index % 11))
    _assert_windows_agree(optimized, reference, time)
    assert optimized.total_ingested == 400


class TupleWindow:
    """The store :class:`LatencyWindow` kept before its columns: one
    (time, sequence, queuing, serving) tuple a sample, sorted at read."""

    def __init__(self, window_s: float, sequence: Iterator[int]) -> None:
        self.window_s = window_s
        self.sequence = sequence
        self.samples: list[tuple[float, int, float, float]] = []
        self.ordered = 0

    def add(self, time: float, queuing: float, serving: float) -> None:
        self.samples.append((time, next(self.sequence), queuing, serving))

    def trim(self, now: float) -> None:
        if len(self.samples) != self.ordered:
            self.samples.sort()
        cutoff = now - self.window_s
        del self.samples[: bisect_left(self.samples, (cutoff,))]
        self.ordered = len(self.samples)

    def live(self, now: float) -> list[tuple[float, float, float]]:
        self.trim(now)
        return [(t, q, s) for t, _, q, s in self.samples]

    @classmethod
    def merged(
        cls, window_s: float, windows: list["TupleWindow"], now: float
    ) -> "TupleWindow":
        pooled = cls(window_s, iter(()))
        for window in windows:
            window.trim(now)
            pooled.samples.extend(window.samples)
        pooled.samples.sort()
        pooled.ordered = len(pooled.samples)
        return pooled

    def reads(self, now: float) -> tuple:
        live = self.live(now)
        if not live:
            return (0, None, None, None, None, None, None)
        queuing = [q for _, q, _ in live]
        serving = [s for _, _, s in live]
        processing = [q + s for _, q, s in live]
        return (
            len(live),
            sum(queuing) / len(live),
            sum(serving) / len(live),
            sum(processing) / len(live),
            percentile(queuing, 99.0),
            percentile(serving, 99.0),
            percentile(processing, 99.0),
        )


def _column_reads(window: LatencyWindow, now: float) -> tuple:
    return (
        window.count(now),
        window.avg_queuing(now),
        window.avg_serving(now),
        window.avg_processing(now),
        window.p99_queuing(now),
        window.p99_serving(now),
        window.p99_processing(now),
    )


def _column_live(window: LatencyWindow, now: float) -> list:
    window.trim(now)
    return list(zip(window._times, window._queuing, window._serving))


#: One step over three windows: add a sample stamped ``back`` quarter
#: seconds before now (equal and out-of-order times are common), advance
#: the clock, trim one window, read one, or pool a subset.
_window_step = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    st.tuples(st.just("advance"), st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("trim"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("read"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("merge"), st.sets(st.integers(min_value=0, max_value=2))),
)


@settings(max_examples=150, deadline=None)
@given(
    # On the quarter-second grid, so samples stamped exactly at a cutoff
    # occur.
    window_s=st.integers(min_value=1, max_value=20).map(lambda k: 0.25 * k),
    steps=st.lists(_window_step, min_size=1, max_size=80),
)
def test_column_window_matches_the_tuple_store(window_s, steps):
    """Columns sorted stably on time read exactly as tuples sorted on
    (time, sequence): the same samples, in the same order, so every sum
    and percentile is bit-equal, and so are pools of several windows."""
    columns = [LatencyWindow(window_s) for _ in range(3)]
    sequence = itertools.count()
    tuples = [TupleWindow(window_s, sequence) for _ in range(3)]
    now = 0.0
    for step in steps:
        kind = step[0]
        if kind == "add":
            _, index, back, queuing, serving = step
            time = max(0.0, now - 0.25 * back)
            columns[index].add(time, queuing, serving)
            tuples[index].add(time, queuing, serving)
        elif kind == "advance":
            now += 0.25 * step[1]
        elif kind == "trim":
            columns[step[1]].trim(now)
            tuples[step[1]].trim(now)
        elif kind == "read":
            index = step[1]
            assert _column_reads(columns[index], now) == tuples[index].reads(now)
            assert _column_live(columns[index], now) == tuples[index].live(now)
        else:
            chosen = sorted(step[1])
            pooled = LatencyWindow.merged(
                window_s, [columns[i] for i in chosen], now
            )
            reference = TupleWindow.merged(
                window_s, [tuples[i] for i in chosen], now
            )
            assert _column_live(pooled, now) == reference.live(now)
            assert _column_reads(pooled, now) == reference.reads(now)
    for index in range(3):
        assert _column_reads(columns[index], now) == tuples[index].reads(now)


class ReferenceCenter:
    """The eager command center: every record feeds two reference windows."""

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self.instances: dict[str, ReferenceWindow] = {}
        self.stages: dict[str, ReferenceWindow] = {}

    def ingest(self, query: Query) -> None:
        for record in query.records:
            queuing = record.start_time - record.enqueue_time
            serving = record.finish_time - record.start_time
            for windows, key in (
                (self.instances, record.instance_name),
                (self.stages, record.stage_name),
            ):
                window = windows.setdefault(key, ReferenceWindow(self.window_s))
                window.add(record.finish_time, queuing, serving)

    def _chain(self, instance: ServiceInstance, now: float, index: int):
        for window in (
            self.instances.get(instance.name),
            self.stages.get(instance.stage_name),
        ):
            if window is not None:
                value = window.avg(now, index)
                if value is not None:
                    return value
        return None

    def avg_queuing(self, instance: ServiceInstance, now: float) -> float:
        value = self._chain(instance, now, 1)
        return 0.0 if value is None else value

    def avg_serving(self, instance: ServiceInstance, now: float) -> float:
        value = self._chain(instance, now, 2)
        if value is None:
            return instance.profile.mean_serving_time(instance.frequency_ghz)
        return value

    def statistics(self, instance: ServiceInstance, now: float) -> dict:
        window = self.instances.get(instance.name)
        count = 0 if window is None else window.count(now)
        avg_q = self.avg_queuing(instance, now)
        avg_s = self.avg_serving(instance, now)
        if count:
            p99s = (window.p99(now, 1), window.p99(now, 2), window.p99_processing(now))
        else:
            p99s = (avg_q, avg_s, avg_q + avg_s)
        return {
            "avg_queuing": avg_q,
            "avg_serving": avg_s,
            "p99_queuing": p99s[0],
            "p99_serving": p99s[1],
            "p99_processing": p99s[2],
            "sample_count": count,
        }


def _assert_centers_agree(
    center: CommandCenter,
    reference: ReferenceCenter,
    instances: list[ServiceInstance],
    now: float,
) -> None:
    for instance in instances:
        assert {
            "avg_queuing": center.avg_queuing(instance),
            "avg_serving": center.avg_serving(instance),
            "p99_queuing": center.p99_queuing(instance),
            "p99_serving": center.p99_serving(instance),
            "p99_processing": center.p99_processing(instance),
            "sample_count": center.sample_count(instance),
        } == reference.statistics(instance, now)


#: One stage record: (instance index, finish time in half-seconds before
#: the batch completes, queuing, serving).  The coarse grid makes equal
#: finish times on two instances of one stage common.
_record = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
#: One batch: advance the clock (half-seconds), complete the queries in
#: arrival order (their records out of finish-time order), then read or not.
_batch = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.lists(st.tuples(_record, _record), max_size=4),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(
    window_s=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    batches=st.lists(_batch, min_size=1, max_size=12),
)
# Three stage-A samples at t=0 on instances 0, 1, 0, in ingest order: the
# pool sums (0.1 + 0.2) + 0.4, while pooling by instance would sum
# (0.1 + 0.4) + 0.2, which rounds differently.
@example(
    window_s=10.0,
    batches=[
        (
            0,
            [
                ((0, 0, 0.1, 0.0), (0, 0, 0.0, 0.0)),
                ((1, 0, 0.2, 0.0), (0, 0, 0.0, 0.0)),
                ((0, 0, 0.4, 0.0), (0, 0, 0.0, 0.0)),
            ],
            True,
        )
    ],
)
def test_deferred_center_matches_eager_reference(window_s, batches):
    """Filing at read time and pooling stages at read time change no value.

    Stage A and B each run three instances; records go to the first two,
    so the third always reads its stage's pool, and so does any instance
    whose own samples have all aged out.
    """
    sim = Simulator()
    app = Application("props", sim, Machine(sim, n_cores=8))
    level = HASWELL_LADDER.level_of(1.8)
    stages = []
    for name in ("A", "B"):
        stage = app.add_stage(make_profile(name, mean=0.5))
        stages.append([stage.launch_instance(level) for _ in range(3)])
    center = CommandCenter(sim, app, window_s=window_s)
    reference = ReferenceCenter(window_s)
    qid = 0
    for advance, queries, read in batches:
        sim.run_until(sim.now + 0.5 * advance)
        now = sim.now
        for records in queries:
            query = Query(qid=qid, demands={"A": 0.0, "B": 0.0})
            qid += 1
            for instances, (index, back, queuing, serving) in zip(stages, records):
                instance = instances[index]
                finish = now - 0.5 * back
                start = finish - serving
                query.records.append(
                    StageRecord(
                        instance.iid,
                        instance.name,
                        instance.stage_name,
                        start - queuing,
                        start,
                        finish,
                    )
                )
            query.arrival_time = min(r.enqueue_time for r in query.records)
            query.completion_time = now
            center.ingest(query)
            reference.ingest(query)
        if read:
            _assert_centers_agree(center, reference, stages[0] + stages[1], now)
    sim.run_until(sim.now + window_s / 2.0)
    _assert_centers_agree(center, reference, stages[0] + stages[1], sim.now)
    assert center.naive_stats_messages == 2 * qid
    assert center.stats_messages == qid
