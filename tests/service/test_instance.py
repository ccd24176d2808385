"""Unit tests for the service instance: queueing, serving, DVFS rescaling."""

from __future__ import annotations

import pytest

from repro.errors import InstanceStateError
from repro.cluster.frequency import HASWELL_LADDER
from repro.service.instance import InstanceState, Job, ServiceInstance
from repro.service.query import Query

from tests.conftest import make_profile


LEVEL_1_2 = HASWELL_LADDER.min_level
LEVEL_2_4 = HASWELL_LADDER.max_level


@pytest.fixture
def instance(sim, machine) -> ServiceInstance:
    core = machine.acquire_core(LEVEL_1_2)
    return ServiceInstance(
        iid=0,
        name="SVC_1",
        stage_name="SVC",
        profile=make_profile("SVC", mean=1.0),
        core=core,
        sim=sim,
    )


def submit(instance: ServiceInstance, qid: int, work: float, done: list) -> Query:
    query = Query(qid=qid, demands={"SVC": work})
    instance.enqueue(Job(query=query, work=work, on_done=done.append))
    return query


class TestServing:
    def test_serves_at_floor_speed(self, sim, instance):
        done = []
        submit(instance, 1, 2.0, done)
        sim.run()
        assert len(done) == 1
        assert sim.now == pytest.approx(2.0)

    def test_serves_faster_at_higher_frequency(self, sim, instance):
        instance.core.set_level(LEVEL_2_4)
        done = []
        submit(instance, 1, 2.0, done)
        sim.run()
        assert sim.now == pytest.approx(1.0)  # beta=1: 2x speedup

    def test_fifo_order(self, sim, instance):
        done = []
        q1 = submit(instance, 1, 1.0, done)
        q2 = submit(instance, 2, 1.0, done)
        sim.run()
        assert done == [q1, q2]
        assert sim.now == pytest.approx(2.0)

    def test_record_timestamps(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        query = submit(instance, 2, 1.0, done)
        sim.run()
        record = query.record_for("SVC")
        assert record.enqueue_time == pytest.approx(0.0)
        assert record.start_time == pytest.approx(1.0)
        assert record.finish_time == pytest.approx(2.0)
        assert record.queuing_time == pytest.approx(1.0)
        assert record.serving_time == pytest.approx(1.0)

    def test_idle_instance_starts_a_job_on_arrival(self, sim, instance):
        instance.core.set_level(LEVEL_2_4)
        sim.run(until=0.5)
        done = []
        first = submit(instance, 1, 1.0, done)
        second = submit(instance, 2, 1.0, done)
        assert instance.busy
        assert instance.waiting_count == 1
        sim.run()
        record = first.record_for("SVC")
        assert record.start_time == record.enqueue_time == 0.5
        assert record.queue_at_arrival == 0
        assert record.service_level == LEVEL_2_4
        queued = second.record_for("SVC")
        assert queued.queue_at_arrival == 1
        assert queued.start_time == record.finish_time

    def test_waiting_job_carries_no_record(self, sim, instance):
        query = Query(qid=1, demands={"SVC": 1.0})
        jobs = [Job(query=query, work=1.0, on_done=lambda q: None) for _ in range(3)]
        for job in jobs:
            instance.enqueue(job)
        assert jobs[0].record is not None  # in service
        assert [job.record for job in jobs[1:]] == [None, None]
        assert [job.queue_at_arrival for job in jobs] == [0, 1, 2]

    def test_record_made_at_start_holds_arrival_queue_and_level(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        query = submit(instance, 2, 1.0, done)
        sim.run(until=0.5)
        # Retuned while the second job waits: its record takes the level
        # the core runs at when its service starts.
        instance.core.set_level(LEVEL_2_4)
        sim.run()
        record = query.record_for("SVC")
        assert record.enqueue_time == 0.0
        assert record.queue_at_arrival == 1
        assert record.service_level == LEVEL_2_4
        assert record.start_time == pytest.approx(0.75)

    def test_record_appended_to_query_on_completion(self, sim, instance):
        done = []
        query = submit(instance, 1, 1.0, done)
        assert query.records == []
        sim.run()
        assert len(query.records) == 1

    def test_queries_served_counter(self, sim, instance):
        done = []
        for qid in range(3):
            submit(instance, qid, 0.5, done)
        sim.run()
        assert instance.queries_served == 3

    def test_zero_work_job_completes_immediately(self, sim, instance):
        done = []
        submit(instance, 1, 0.0, done)
        sim.run()
        assert len(done) == 1
        assert sim.now == 0.0

    def test_negative_work_rejected(self, instance):
        query = Query(qid=1, demands={"SVC": 0.0})
        with pytest.raises(InstanceStateError):
            instance.enqueue(Job(query=query, work=-1.0, on_done=lambda q: None))


class TestQueueLength:
    def test_counts_in_service_job(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        assert instance.queue_length == 1
        assert instance.waiting_count == 0

    def test_counts_waiting_jobs(self, sim, instance):
        done = []
        for qid in range(3):
            submit(instance, qid, 1.0, done)
        assert instance.queue_length == 3
        assert instance.waiting_count == 2

    def test_empties_after_run(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        sim.run()
        assert instance.queue_length == 0
        assert not instance.busy


class TestFrequencyRescaling:
    def test_boost_mid_service_shortens_completion(self, sim, instance):
        done = []
        submit(instance, 1, 2.0, done)
        sim.run(until=1.0)  # half the work done at 1.2 GHz
        instance.core.set_level(LEVEL_2_4)  # remaining 1.0s work at 2x speed
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_throttle_mid_service_extends_completion(self, sim, instance):
        instance.core.set_level(LEVEL_2_4)
        done = []
        submit(instance, 1, 2.0, done)  # 1.0s at 2.4 GHz
        sim.run(until=0.5)  # half served
        instance.core.set_level(LEVEL_1_2)  # remaining 1.0s work at 1x
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_rescale_when_idle_is_noop(self, sim, instance):
        instance.core.set_level(LEVEL_2_4)
        assert not instance.busy

    def test_multiple_retunes_accumulate_correctly(self, sim, instance):
        done = []
        submit(instance, 1, 3.0, done)
        sim.run(until=1.0)  # 1.0 work done
        instance.core.set_level(LEVEL_2_4)
        sim.run(until=1.5)  # +1.0 work done (0.5s at 2x)
        instance.core.set_level(LEVEL_1_2)  # 1.0 work left at 1x
        sim.run()
        assert sim.now == pytest.approx(2.5)


class TestBusyAccounting:
    def test_busy_seconds_accumulate(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        sim.run()
        sim.schedule(5.0, lambda: None)
        sim.run()  # idle gap
        submit(instance, 2, 2.0, done)
        sim.run()
        assert instance.busy_seconds() == pytest.approx(3.0)

    def test_busy_seconds_during_service(self, sim, instance):
        done = []
        submit(instance, 1, 4.0, done)
        sim.run(until=1.5)
        assert instance.busy_seconds() == pytest.approx(1.5)

    def test_idle_instance_accumulates_nothing(self, sim, instance):
        sim.run(until=10.0)
        assert instance.busy_seconds() == 0.0


class TestWorkStealing:
    def test_steal_half_takes_back_of_queue(self, sim, instance):
        done = []
        queries = [submit(instance, qid, 1.0, done) for qid in range(5)]
        # queue: q0 in service, q1..q4 waiting -> steal 2 from the back.
        stolen = instance.steal_half()
        assert [job.query for job in stolen] == [queries[3], queries[4]]
        assert instance.waiting_count == 2

    def test_steal_preserves_enqueue_time(self, sim, instance):
        done = []
        submit(instance, 0, 1.0, done)
        sim.run(until=0.5)
        submit(instance, 1, 1.0, done)
        submit(instance, 2, 1.0, done)
        stolen = instance.steal_half()
        assert stolen[0].enqueue_time == pytest.approx(0.5)

    def test_stolen_job_is_recorded_where_it_is_served(self, sim, machine, instance):
        done = []
        for qid in range(3):
            submit(instance, qid, 1.0, done)
        sim.run(until=0.5)
        clone = ServiceInstance(
            iid=1,
            name="SVC_2",
            stage_name="SVC",
            profile=make_profile("SVC", mean=1.0),
            core=machine.acquire_core(LEVEL_2_4),
            sim=sim,
        )
        submit(clone, 9, 1.0, done)
        (stolen,) = instance.steal_half()
        assert stolen.record is None
        clone.enqueue(stolen)
        assert stolen.record is None  # waits behind the clone's job
        sim.run()
        record = stolen.query.record_for("SVC")
        assert record.instance_name == "SVC_2"
        assert record.enqueue_time == 0.0  # the original stamp
        assert record.queue_at_arrival == 1  # the clone's queue
        assert record.service_level == LEVEL_2_4

    def test_steal_never_takes_in_service_job(self, sim, instance):
        done = []
        submit(instance, 0, 1.0, done)
        assert instance.steal_half() == []
        assert instance.busy

    def test_take_all_waiting(self, sim, instance):
        done = []
        for qid in range(4):
            submit(instance, qid, 1.0, done)
        taken = instance.take_all_waiting()
        assert len(taken) == 3
        assert instance.waiting_count == 0
        assert instance.busy  # current job untouched


class TestDrain:
    def test_drain_idle_instance_completes_immediately(self, sim, instance):
        drained = []
        instance.drain(drained.append)
        assert drained == [instance]
        assert instance.state is InstanceState.WITHDRAWN

    def test_drain_waits_for_queue(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        submit(instance, 2, 1.0, done)
        drained = []
        instance.drain(drained.append)
        assert instance.state is InstanceState.DRAINING
        sim.run()
        assert drained == [instance]
        assert len(done) == 2

    def test_draining_instance_rejects_new_work(self, sim, instance):
        done = []
        submit(instance, 1, 1.0, done)
        instance.drain(lambda inst: None)
        query = Query(qid=2, demands={"SVC": 1.0})
        with pytest.raises(InstanceStateError):
            instance.enqueue(Job(query=query, work=1.0, on_done=done.append))

    def test_double_drain_rejected(self, sim, instance):
        instance.drain(lambda inst: None)
        with pytest.raises(InstanceStateError):
            instance.drain(lambda inst: None)

    def test_withdrawn_instance_ignores_frequency_changes(self, sim, instance):
        instance.drain(lambda inst: None)
        # Observer was removed; retuning the core must not crash.
        instance.core.set_level(LEVEL_2_4)
