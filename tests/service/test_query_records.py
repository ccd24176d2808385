"""Unit tests for the extended query structure and stage records."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service.query import Query
from repro.service.records import AttemptRecord, StageRecord


class TestStageRecord:
    def make_record(self, **overrides) -> StageRecord:
        fields = dict(
            instance_id=1,
            instance_name="QA_1",
            stage_name="QA",
            enqueue_time=10.0,
            start_time=12.0,
            finish_time=15.0,
        )
        fields.update(overrides)
        return StageRecord(**fields)

    def test_queuing_time(self):
        assert self.make_record().queuing_time == pytest.approx(2.0)

    def test_serving_time(self):
        assert self.make_record().serving_time == pytest.approx(3.0)

    def test_processing_delay_is_sum(self):
        record = self.make_record()
        assert record.processing_delay == pytest.approx(
            record.queuing_time + record.serving_time
        )

    def test_incomplete_record_raises_on_serving(self):
        record = self.make_record(finish_time=None)
        with pytest.raises(ServiceError):
            record.serving_time

    def test_unstarted_record_raises_on_queuing(self):
        record = self.make_record(start_time=None, finish_time=None)
        with pytest.raises(ServiceError):
            record.queuing_time

    def test_complete_flag(self):
        assert self.make_record().complete
        assert not self.make_record(finish_time=None).complete

    def test_zero_queuing_is_valid(self):
        record = self.make_record(start_time=10.0)
        assert record.queuing_time == 0.0


class TestQuery:
    def test_demand_lookup(self):
        query = Query(qid=1, demands={"A": 0.5, "B": 1.5})
        assert query.demand_for("A") == 0.5
        assert query.demand_for("B") == 1.5

    def test_unknown_stage_demand_raises(self):
        query = Query(qid=1, demands={"A": 0.5})
        with pytest.raises(ServiceError):
            query.demand_for("Z")

    def test_negative_demand_rejected(self):
        # NaN and infinite demands are refused with the negative ones.
        for demand in (-0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ServiceError, match="finite and >= 0"):
                Query(qid=1, demands={"A": 1.0, "B": demand})

    def test_attempts_stay_a_tuple(self):
        query = Query(qid=1, demands={"A": 1.0})
        assert query.attempts == ()
        first = AttemptRecord("A", 1, 0.0, "A_1", "timed-out", 1.0)
        second = AttemptRecord("A", 2, 1.5, "A_2", "completed", 2.0)
        query.append_attempt(first)
        query.append_attempt(second)
        assert query.attempts == (first, second)

    def test_end_to_end_latency(self):
        query = Query(qid=1, demands={"A": 1.0})
        query.arrival_time = 2.0
        query.completion_time = 7.5
        assert query.end_to_end_latency == pytest.approx(5.5)

    def test_latency_before_completion_raises(self):
        query = Query(qid=1, demands={"A": 1.0})
        query.arrival_time = 2.0
        with pytest.raises(ServiceError):
            query.end_to_end_latency

    def test_completed_flag(self):
        query = Query(qid=1, demands={"A": 1.0})
        assert not query.completed
        query.completion_time = 1.0
        assert query.completed

    def test_record_accumulation_and_lookup(self):
        query = Query(qid=1, demands={"A": 1.0, "B": 1.0})
        record = StageRecord(1, "A_1", "A", 0.0, 0.0, 1.0)
        query.append_record(record)
        assert query.record_for("A") is record
        with pytest.raises(ServiceError):
            query.record_for("B")

    def test_records_preserve_order(self):
        query = Query(qid=1, demands={"A": 1.0, "B": 1.0})
        first = StageRecord(1, "A_1", "A", 0.0, 0.0, 1.0)
        second = StageRecord(2, "B_1", "B", 1.0, 1.0, 2.0)
        query.append_record(first)
        query.append_record(second)
        assert query.records == [first, second]
