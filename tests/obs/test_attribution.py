"""The attribution invariant: components sum to measured latency.

The module docstring promises that a query's five components, added
left to right, equal its end-to-end latency exactly whenever some float
``hop`` makes that possible, and are otherwise within one ulp of it.
:class:`TestHopCloseOut` pins both halves on ``(covered, e2e)`` pairs,
including one for which no float ``hop`` exists.  The scenario tests run
real runs through the builder with the accounting pillars armed and
check that every completed query sums *bit-exactly* there, on plain
latency runs, QoS runs and chaos runs alike; plus the roll-up,
serialisation and tail layers on top.
"""

from __future__ import annotations

import json
import math
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.frequency import HASWELL_LADDER
from repro.errors import ConfigurationError
from repro.obs import AttributionCollector, MetricsRegistry, Observability
from repro.obs.attribution import (
    COMPONENTS,
    TRANSIT_STAGE,
    AttributionReport,
    QueryAttribution,
    _attribute,
    _sweep,
    attribute_query,
    attributions_from_spans,
    report_from_attributions,
    tail_report,
)
from repro.scenario.builder import StackBuilder
from repro.scenario.spec import ScenarioSpec
from repro.service.application import Application
from repro.service.query import Query
from repro.service.records import AttemptRecord, StageRecord
from repro.service.resilience import RetryPolicy
from repro.sim.rng import RandomStreams

from tests.conftest import make_profile

ACCOUNTING = ("trace", "metrics", "audit", "attribution", "slo", "energy")


def _run(spec):
    builder = StackBuilder(spec)
    result = builder.execute()
    observability = builder.observability
    assert observability is not None
    return builder, result, observability


def _component_total(attribution: QueryAttribution) -> float:
    """The components added left to right in COMPONENTS order, the sum
    the invariant is stated for (from Python 3.12 the builtin ``sum`` is
    compensated and may differ from it by an ulp)."""
    total = 0.0
    for name in COMPONENTS:
        total += attribution.components[name]
    return total


def _assert_exact_sums(collector: AttributionCollector) -> None:
    assert collector.attributions, "run attributed no queries"
    for attribution in collector.attributions:
        total = _component_total(attribution)
        assert total == attribution.e2e_latency, (
            f"query {attribution.qid}: components sum to {total!r}, "
            f"measured e2e is {attribution.e2e_latency!r}"
        )
        per_stage = sum(
            seconds
            for parts in attribution.per_stage.values()
            for seconds in parts.values()
        )
        assert math.isclose(
            per_stage, attribution.e2e_latency, rel_tol=1e-9, abs_tol=1e-9
        )
        for seconds in attribution.components.values():
            assert seconds >= -1e-9


class TestLatencyScenario:
    @pytest.fixture(scope="class")
    def run(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.8),
            90.0,
            seed=3,
            observe=ACCOUNTING,
            slo_target_s=2.0,
        )
        return _run(spec)

    def test_every_completed_query_attributed_exactly(self, run):
        _, result, observability = run
        collector = observability.attribution
        assert collector.report().count == result.queries_completed
        _assert_exact_sums(collector)

    def test_report_totals_match_per_query_records(self, run):
        # The live roll-up and a roll-up of the stored attributions are
        # one fold, so they agree to the bit.
        _, _, observability = run
        collector = observability.attribution
        report = collector.report()
        assert collector.dropped == 0
        rebuilt = report_from_attributions(
            collector.attributions, failed=report.failed
        )
        assert rebuilt == report

    def test_report_roundtrips_through_dict(self, run):
        _, _, observability = run
        report = observability.attribution.report()
        again = AttributionReport.from_dict(report.to_dict())
        assert again == report

    def test_energy_reconciles_with_telemetry_integral(self, run):
        builder, _, observability = run
        energy = observability.energy
        telemetry = builder.telemetry
        assert telemetry is not None and energy is not None
        assert energy.total_joules() > 0.0
        assert math.isclose(
            energy.total_joules(),
            telemetry.energy_joules(),
            rel_tol=1e-9,
            abs_tol=1e-6,
        )
        per_stage = energy.joules_per_stage()
        assert set(per_stage) == set(energy.stage_names) | {"(idle)"}

    def test_tail_rolls_up_the_slowest_percent(self, run):
        _, _, observability = run
        attributions = observability.attribution.attributions
        tail = tail_report(attributions)
        assert tail is not None
        assert tail.count == max(1, round(0.01 * len(attributions)))
        slowest = sorted(qa.e2e_latency for qa in attributions)[-tail.count:]
        assert tail.total_e2e == pytest.approx(sum(slowest))

    def test_attributed_seconds_counter_tracks_totals(self, run):
        _, _, observability = run
        report = observability.attribution.report()
        counter = observability.metrics.counter("repro_attributed_seconds_total")
        for name in COMPONENTS:
            booked = report.component_totals[name]
            if booked > 0.0:
                assert math.isclose(
                    counter.value(component=name), booked, rel_tol=1e-9
                )


class TestQosScenario:
    @pytest.fixture(scope="class")
    def run(self):
        spec = ScenarioSpec.qos(
            "sirius", "powerchief", 6.0, 90.0, seed=3, observe=ACCOUNTING
        )
        return _run(spec)

    def test_exact_sums_hold(self, run):
        _, _, observability = run
        _assert_exact_sums(observability.attribution)

    def test_slo_target_defaults_to_table3(self, run):
        _, _, observability = run
        # The sirius Table-3 deployment answers within 2 s.
        assert observability.slo.target_s == 2.0
        assert observability.slo.total > 0

    def test_energy_reconciles(self, run):
        builder, _, observability = run
        assert builder.telemetry is not None
        assert math.isclose(
            observability.energy.total_joules(),
            builder.telemetry.energy_joules(),
            rel_tol=1e-9,
            abs_tol=1e-6,
        )


class TestChaosScenario:
    @pytest.fixture(scope="class")
    def run(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            drain_s=30.0,
            observe=ACCOUNTING,
            slo_target_s=2.0,
        )
        return _run(spec)

    def test_exact_sums_hold_under_faults(self, run):
        _, _, observability = run
        _assert_exact_sums(observability.attribution)

    def test_fault_and_backoff_components_appear(self, run):
        _, _, observability = run
        report = observability.attribution.report()
        # Crash-heavy chaos loses attempts and inserts re-dispatch gaps;
        # both must surface as non-zero components.
        assert report.component_totals["fault"] > 0.0
        assert report.component_totals["retry_backoff"] > 0.0

    def test_energy_reconciles_under_faults(self, run):
        builder, _, observability = run
        assert builder.telemetry is not None
        assert math.isclose(
            observability.energy.total_joules(),
            builder.telemetry.energy_joules(),
            rel_tol=1e-9,
            abs_tol=1e-6,
        )


class TestSpanFallback:
    def test_span_derived_attribution_sums_to_envelope(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "static",
            ("constant", 1.5),
            60.0,
            seed=5,
            observe=("trace", "attribution"),
        )
        builder, _, observability = _run(spec)
        derived = attributions_from_spans(observability.tracer.spans)
        assert derived
        for span_derived in derived:
            assert _component_total(span_derived) == span_derived.e2e_latency
            assert span_derived.components["fault"] == 0.0
            assert span_derived.components["retry_backoff"] == 0.0
        # Fault-free with no hop delay, the span envelope is the query's
        # own window, so the fallback reproduces the live attribution.
        by_qid = {item.qid: item for item in derived}
        live = observability.attribution.attributions
        assert live
        for item in live:
            assert by_qid[item.qid].to_dict() == item.to_dict()


class TestTerminalFailure:
    def test_a_query_that_exhausts_its_retries_is_counted_twice(
        self, sim, machine
    ):
        # One attempt of at most 0.5 s against 5 s of work: the query
        # fails terminally, counted by the application and the collector.
        registry = MetricsRegistry()
        application = Application(
            "solo", sim, machine, observability=Observability(metrics=registry)
        )
        stage = application.add_stage(make_profile("S", mean=1.0))
        stage.launch_instance(HASWELL_LADDER.min_level)
        application.attach_resilience(
            RetryPolicy(timeout_s=0.5, max_attempts=1, jitter_fraction=0.0),
            RandomStreams(1),
        )
        collector = AttributionCollector(registry=registry)
        collector.attach(application)
        application.submit(Query(0, {"S": 5.0}))
        sim.run()
        assert application.timed_out == 1
        assert collector.report().failed == 1
        assert collector.attributions == []
        timed_out = registry.counter("repro_queries_timed_out_total")
        assert timed_out.value(app="solo") == 1
        failures = registry.counter("repro_attribution_failures_total")
        assert failures.value() == 1


class TestCollectorBounds:
    def test_rollup_stays_exact_past_the_buffer(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "static",
            ("constant", 1.5),
            60.0,
            seed=5,
            observe=("attribution",),
        )
        builder = StackBuilder(spec)
        observability = builder.observability
        assert observability is not None
        observability.attribution = AttributionCollector(max_queries=5)
        result = builder.execute()
        collector = observability.attribution
        assert len(collector.attributions) == 5
        assert collector.dropped == result.queries_completed - 5
        assert collector.report().count == result.queries_completed

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            AttributionCollector(max_queries=0)


class TestReportHelpers:
    def _attribution(self, qid, e2e, stage="ASR"):
        return QueryAttribution(
            qid=qid,
            arrival_time=0.0,
            completion_time=e2e,
            e2e_latency=e2e,
            retried=False,
            components={
                "queue": 0.0,
                "service": e2e,
                "fault": 0.0,
                "retry_backoff": 0.0,
                "hop": 0.0,
            },
            per_stage={stage: {"service": e2e}},
        )

    def test_blame_ranking_orders_heaviest_first_ties_alphabetical(self):
        report = report_from_attributions(
            [
                self._attribution(1, 2.0, "QA"),
                self._attribution(2, 1.0, "ASR"),
                self._attribution(3, 1.0, "IMM"),
            ]
        )
        assert report.blame_ranking() == [
            ("QA", 2.0),
            ("ASR", 1.0),
            ("IMM", 1.0),
        ]
        assert report.blame_counts == {"QA": 1, "ASR": 1, "IMM": 1}

    def test_component_fractions_empty_report(self):
        report = report_from_attributions([])
        assert report.component_fractions() == {
            name: 0.0 for name in COMPONENTS
        }


def _two_stage_query(qid, a_queue, a_serve, b_queue, b_serve):
    """A query through stages A then B, queueing then serving at each."""
    query = Query(qid=qid, demands={"A": a_serve, "B": b_serve})
    query.arrival_time = 0.0
    t = 0.0
    for stage, queuing, serving in (("A", a_queue, a_serve), ("B", b_queue, b_serve)):
        query.append_record(
            StageRecord(0, f"{stage}_1", stage, t, t + queuing, t + queuing + serving)
        )
        t += queuing + serving
    query.completion_time = t
    return query


class TestTailReport:
    """The tail is the roll-up of the slowest 1% of attributions."""

    def test_tail_names_the_stage_and_the_queueing_of_a_burst(self):
        queries = [_two_stage_query(qid, 0.1, 0.2, 0.5, 1.0) for qid in range(99)]
        # One query waits 10 s at B.
        queries.append(_two_stage_query(99, 0.1, 0.2, 10.0, 1.0))
        tail = tail_report([attribute_query(query) for query in queries])
        assert tail is not None
        assert tail.count == 1
        assert tail.blame_ranking()[0][0] == "B"
        queued = tail.component_totals["queue"]
        assert queued / (queued + tail.component_totals["service"]) > 0.8

    def test_ties_keep_input_order(self):
        # Every query takes exactly 2 s; only the first spends it at A.
        queries = [_two_stage_query(0, 1.0, 0.5, 0.25, 0.25)]
        queries += [
            _two_stage_query(qid, 0.25, 0.25, 0.5, 1.0) for qid in range(1, 100)
        ]
        attributions = [attribute_query(query) for query in queries]
        assert {qa.e2e_latency for qa in attributions} == {2.0}
        tail = tail_report(attributions)
        assert tail is not None
        assert tail.blame_counts == {"A": 1}
        tail = tail_report(attributions[::-1])
        assert tail is not None
        assert tail.blame_counts == {"B": 1}

    def test_empty_input_has_no_tail(self):
        assert tail_report([]) is None

    def test_in_flight_query_is_not_attributed(self):
        in_flight = Query(qid=1, demands={"A": 1.0, "B": 1.0})
        in_flight.arrival_time = 0.0
        with pytest.raises(ConfigurationError):
            attribute_query(in_flight)


def _query(visits, arrival, completion, attempts=()):
    """A completed query carrying one complete record per visit."""
    query = Query(qid=7, demands={})
    query.arrival_time = arrival
    query.completion_time = completion
    for index, (stage, enqueue, start, finish) in enumerate(visits):
        query.append_record(
            StageRecord(index, f"{stage}_{index}", stage, enqueue, start, finish)
        )
    for attempt in attempts:
        query.append_attempt(attempt)
    return query


def _swept(query):
    """The segment sweep alone: the reference direct booking must match."""
    with mock.patch("repro.obs.attribution._in_order", return_value=False):
        return attribute_query(query)


def _assert_identical(got, want):
    assert got == want
    assert list(got.components) == list(want.components)
    assert list(got.per_stage) == list(want.per_stage)
    for stage, parts in want.per_stage.items():
        assert list(got.per_stage[stage]) == list(parts)


def _attribute_counting_sweeps(query):
    with mock.patch("repro.obs.attribution._sweep", wraps=_sweep) as sweep:
        result = attribute_query(query)
    return result, sweep.call_count


#: Gaps and interval lengths, zero often, so shared endpoints and empty
#: queue or service intervals come up.
_DURATIONS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


#: Arrival stamps at the edges of the float range: zero, subnormals and
#: 1e300, where every later stamp rounds back to the arrival.
_EDGE_ARRIVALS = st.sampled_from([0.0, 5e-324, 2.2e-308, 1e4, 1e300])


@st.composite
def _in_order_queries(
    draw, arrivals=st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
):
    arrival = draw(arrivals)
    clock = arrival
    visits = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        stage = draw(st.sampled_from(["ASR", "IMM", "QA"]))
        enqueue = clock + draw(_DURATIONS)
        start = enqueue + draw(_DURATIONS)
        finish = start + draw(_DURATIONS)
        visits.append((stage, enqueue, start, finish))
        clock = finish
    attempts = []
    if draw(st.booleans()):
        attempts = [
            AttemptRecord(stage, 1, enqueue, f"{stage}_{index}", "completed", finish)
            for index, (stage, enqueue, _, finish) in enumerate(visits)
        ]
    return _query(visits, arrival, clock + draw(_DURATIONS), attempts)


@st.composite
def _scatter_gather_queries(draw):
    """Ten visits: ASR, eight IMM shards dispatched together that
    overlap one another (so the query takes the sweep), then QA."""
    arrival = draw(st.one_of(_EDGE_ARRIVALS, st.floats(0.0, 1e4)))
    enqueue = arrival + draw(_DURATIONS)
    start = enqueue + draw(_DURATIONS)
    visits = [("ASR", enqueue, start, start + draw(_DURATIONS))]
    fan_out = visits[0][3] + draw(_DURATIONS)
    for _ in range(8):
        start = fan_out + draw(_DURATIONS)
        visits.append(("IMM", fan_out, start, start + draw(_DURATIONS)))
    gather = max(visit[3] for visit in visits) + draw(_DURATIONS)
    start = gather + draw(_DURATIONS)
    visits.append(("QA", gather, start, start + draw(_DURATIONS)))
    return _query(visits, arrival, visits[-1][3] + draw(_DURATIONS))


class TestDirectBooking:
    """In-order, fault-free queries skip the sweep and book its bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_in_order_queries())
    def test_direct_booking_equals_the_sweep(self, query):
        got, sweeps = _attribute_counting_sweeps(query)
        assert sweeps == 0
        _assert_identical(got, _swept(query))

    def test_shared_endpoints_and_empty_intervals(self):
        query = _query(
            [
                ("ASR", 1.0, 1.0, 1.5),  # no queueing
                ("IMM", 1.5, 2.25, 2.25),  # no service time
                ("ASR", 2.25, 2.5, 3.0),  # the stage again
            ],
            1.0,
            3.5,
        )
        got, sweeps = _attribute_counting_sweeps(query)
        assert sweeps == 0
        _assert_identical(got, _swept(query))
        assert got.per_stage == {
            "ASR": {"service": 1.0, "queue": 0.25},
            "IMM": {"queue": 0.75},
            TRANSIT_STAGE: {"hop": 0.5},
        }

    @pytest.mark.parametrize(
        "visits, attempts",
        [
            # Scatter-gather shards overlap.
            ([("ASR", 0.0, 0.0, 2.0), ("ASR", 0.0, 1.0, 3.0)], ()),
            # A record starts before the query arrived.
            ([("ASR", -1.0, 0.5, 2.0)], ()),
            # A record ends after the query completed.
            ([("ASR", 0.0, 0.5, 5.0)], ()),
            # A timed-out attempt leaves a fault and a backoff interval.
            (
                [("ASR", 1.5, 1.5, 3.0)],
                (
                    AttemptRecord("ASR", 1, 0.0, "ASR_0", "timed-out", 1.0),
                    AttemptRecord("ASR", 2, 1.5, "ASR_1", "completed", 3.0),
                ),
            ),
        ],
        ids=["overlap", "before-arrival", "after-completion", "timed-out"],
    )
    def test_other_queries_take_the_sweep(self, visits, attempts):
        query = _query(visits, 0.0, 4.0, attempts)
        got, sweeps = _attribute_counting_sweeps(query)
        assert sweeps == 1
        _assert_identical(got, _swept(query))
        assert _component_total(got) == 4.0

    def test_incomplete_query_is_refused(self):
        query = _query([("ASR", 0.0, 0.5, 1.0)], 0.0, 1.0)
        query.completion_time = None
        with pytest.raises(ConfigurationError):
            attribute_query(query)


class TestBlameStage:
    def _attribution(self, per_stage):
        return QueryAttribution(
            qid=1,
            arrival_time=0.0,
            completion_time=1.0,
            e2e_latency=1.0,
            retried=False,
            components={name: 0.0 for name in COMPONENTS},
            per_stage=per_stage,
        )

    def test_tie_breaks_alphabetically(self):
        blamed = self._attribution(
            {
                "QA": {"service": 1.0},
                "IMM": {"queue": 0.25, "service": 0.75},
                "ASR": {"service": 0.5},
                TRANSIT_STAGE: {"hop": 0.25},
            }
        )
        assert blamed.blame_stage == "IMM"

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["ASR", "IMM", "QA", TRANSIT_STAGE]),
            st.dictionaries(
                st.sampled_from(["queue", "service", "hop"]),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                min_size=1,
            ),
            min_size=1,
        )
    )
    def test_matches_the_sorted_max(self, per_stage):
        reference = max(
            sorted(per_stage), key=lambda stage: sum(per_stage[stage].values())
        )
        assert self._attribution(per_stage).blame_stage == reference


@st.composite
def _query_streams(draw):
    """Completed queries in completion order, numbered from 0 or from
    past 2**31: in-order ones with distinct or repeated stages and empty
    intervals, some with stamps at the edges of the float range, and
    ten-visit scatter-gather ones; some retried, some carrying completed
    attempts and some a timed-out first attempt."""
    queries = draw(
        st.lists(
            st.one_of(
                _in_order_queries(),
                _in_order_queries(_EDGE_ARRIVALS),
                _scatter_gather_queries(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    first_qid = draw(st.sampled_from([0, 2**31, 2**62]))
    for qid, query in enumerate(queries, first_qid):
        query.qid = qid
        # The flag rides through as is, with lost time or without.
        query.retried = draw(st.booleans())
        if not query.attempts and draw(st.booleans()):
            # Lost time before the first visit: a fault, then backoff
            # until the visit's dispatch.
            first = query.records[0]
            settled = draw(
                st.floats(
                    min_value=query.arrival_time,
                    max_value=first.enqueue_time,
                    allow_nan=False,
                )
            )
            query.append_attempt(
                AttemptRecord(
                    first.stage_name,
                    1,
                    query.arrival_time,
                    "lost_0",
                    "timed-out",
                    settled,
                )
            )
            query.append_attempt(
                AttemptRecord(
                    first.stage_name,
                    2,
                    first.enqueue_time,
                    first.instance_name,
                    "completed",
                    first.finish_time,
                )
            )
    return queries


class TestCollectorKeepsFacts:
    """The collector keeps what each query's attribution is built from
    as it completes, and attributes every kept query once, in completion
    order, on the first read of any of its views (the report, the
    attributions, the counter); every view matches the reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        _query_streams(),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=8),
    )
    def test_matches_the_reference_byte_for_byte(self, queries, bound, read_at):
        registry = MetricsRegistry()
        collector = AttributionCollector(max_queries=bound, registry=registry)
        reference = [attribute_query(query) for query in queries]
        for index, query in enumerate(queries):
            if index == read_at:
                # A read part-way through builds what is kept so far.
                assert json.dumps(
                    [qa.to_dict() for qa in collector.attributions]
                ) == json.dumps([qa.to_dict() for qa in reference[:bound][:index]])
            collector.observe(query)
        assert json.dumps(collector.report().to_dict()) == json.dumps(
            report_from_attributions(reference).to_dict()
        )
        assert json.dumps([qa.to_dict() for qa in collector.attributions]) == json.dumps(
            [qa.to_dict() for qa in reference[:bound]]
        )
        assert len(collector) == min(bound, len(queries))
        assert collector.dropped == max(0, len(queries) - bound)
        counter = registry.counter("repro_attributed_seconds_total")
        for name in COMPONENTS:
            want = 0.0
            for attribution in reference:
                if attribution.components[name] > 0.0:
                    want += attribution.components[name]
            assert counter.value(component=name) == want

    def test_attributions_are_built_once_on_first_read_in_completion_order(self):
        in_order = _query([("ASR", 0.0, 0.5, 1.0), ("QA", 1.5, 1.5, 2.0)], 0.0, 2.5)
        repeated = _query([("ASR", 0.0, 0.5, 1.0), ("ASR", 1.0, 1.25, 2.0)], 0.0, 2.0)
        retried = _query(
            [("ASR", 1.5, 1.5, 3.0)],
            0.0,
            4.0,
            (
                AttemptRecord("ASR", 1, 0.0, "ASR_0", "timed-out", 1.0),
                AttemptRecord("ASR", 2, 1.5, "ASR_1", "completed", 3.0),
            ),
        )
        queries = [in_order, repeated, retried, in_order]
        for qid, query in enumerate(queries[:3]):
            query.qid = qid
        for first in ("report", "attributions", "counter"):
            registry = MetricsRegistry()
            collector = AttributionCollector(registry=registry)
            reads = {
                "report": collector.report,
                "attributions": lambda: collector.attributions,
                "counter": lambda: registry.get(
                    "repro_attributed_seconds_total"
                ).render(),
            }
            with mock.patch(
                "repro.obs.attribution._attribute", wraps=_attribute
            ) as attributed:
                for query in queries:
                    assert collector.observe(query) is None
                # Observing keeps facts and attributes nothing.
                assert attributed.call_count == 0
                reads[first]()
                # The first read of any view attributes each query once.
                assert attributed.call_count == 4
                for read in reads.values():
                    read()
                built = collector.attributions
                assert collector.attributions is built
                assert attributed.call_count == 4
        assert [qa.qid for qa in built] == [0, 1, 2, 0]
        assert [qa.to_dict() for qa in built] == [
            attribute_query(query).to_dict() for query in queries
        ]
        assert built[2].components["fault"] == 1.0
        assert built[2].components["retry_backoff"] == 0.5


def _float_bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _exact_hop_exists(covered: float, e2e: float) -> bool:
    """Whether some float ``hop`` gives ``covered + hop == e2e``.

    ``covered + hop`` rounds monotonically in ``hop``, and non-negative
    floats order as their bit patterns do, so a binary search over the
    bits of ``[0, e2e]`` finds the smallest ``hop`` that reaches ``e2e``.
    """
    low, high = _float_bits(0.0), _float_bits(e2e)
    while low < high:
        middle = (low + high) // 2
        if covered + _bits_float(middle) >= e2e:
            high = middle
        else:
            low = middle + 1
    return covered + _bits_float(low) == e2e


def _one_service_interval(covered: float, e2e: float) -> QueryAttribution:
    """A query served over ``[0, covered]`` inside ``[0, e2e]``."""
    return _attribute(0, 0.0, e2e, e2e, False, ((0.0, 0.0, covered, "ASR"),), ())


@st.composite
def _covered_and_e2e(draw):
    e2e = draw(
        st.floats(min_value=1e-9, max_value=1e4, allow_subnormal=False)
    )
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    return min(e2e, e2e * fraction), e2e


#: A service interval and window for which no float ``hop`` sums exactly.
NO_EXACT_HOP = (0.013976156881900157, 0.0510171503227743)


class TestHopCloseOut:
    """``hop`` is the residual, so the sum is exact when a float allows
    it, and within one ulp of ``e2e`` otherwise."""

    def test_no_float_hop_sums_exactly_so_the_sum_is_one_ulp_low(self):
        covered, e2e = NO_EXACT_HOP
        assert not _exact_hop_exists(covered, e2e)
        attribution = _one_service_interval(covered, e2e)
        assert attribution.components["service"] == covered
        total = _component_total(attribution)
        assert total == 0.05101715032277429
        assert e2e - total == math.ulp(e2e)

    @settings(max_examples=500, deadline=None)
    @given(_covered_and_e2e())
    @example(NO_EXACT_HOP)
    def test_exact_when_a_hop_allows_it_else_within_one_ulp(self, pair):
        covered, e2e = pair
        attribution = _one_service_interval(covered, e2e)
        assert attribution.components["service"] == covered
        total = _component_total(attribution)
        if _exact_hop_exists(covered, e2e):
            assert total == e2e
        else:
            assert abs(total - e2e) <= math.ulp(e2e)
