"""Unit tests for shortest-queue dispatch and stage behaviour."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StageError
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.service.dispatch import shortest_queue
from repro.service.instance import Job
from repro.service.query import Query
from repro.service.stage import Stage, StageKind
from repro.sim.engine import Simulator

from tests.conftest import make_profile


LEVEL_1_2 = HASWELL_LADDER.min_level
LEVEL_1_8 = HASWELL_LADDER.level_of(1.8)


@pytest.fixture
def stage(sim, machine) -> Stage:
    return Stage(
        name="SVC",
        profile=make_profile("SVC", mean=1.0),
        machine=machine,
        sim=sim,
        iid_counter=itertools.count(0),
    )


def submit(stage: Stage, qid: int, work: float, done: list) -> Query:
    query = Query(qid=qid, demands={stage.name: work})
    stage.submit(query, done.append)
    return query


class TestDispatchers:
    def make_instances(self, stage, count):
        return [stage.launch_instance(LEVEL_1_2) for _ in range(count)]

    def test_shortest_queue_picks_least_loaded(self, sim, stage):
        a, b = self.make_instances(stage, 2)
        a.enqueue(Job(Query(1, {"SVC": 1.0}), 1.0, lambda q: None))
        assert shortest_queue([a, b]) is b

    def test_shortest_queue_ties_break_by_iid(self, stage):
        a, b = self.make_instances(stage, 2)
        assert shortest_queue([b, a]) is a

    def test_empty_pool_rejected(self):
        with pytest.raises(StageError):
            shortest_queue([])

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        order=st.randoms(use_true_random=False),
    )
    def test_shortest_queue_is_min_by_queue_length_then_iid(self, lengths, order):
        # The reference any faster dispatch must reproduce, ties included.
        sim = Simulator()
        stage = Stage(
            name="SVC",
            profile=make_profile("SVC", mean=1.0),
            machine=Machine(sim, n_cores=len(lengths)),
            sim=sim,
            iid_counter=itertools.count(0),
        )
        pool = self.make_instances(stage, len(lengths))
        for qid, (instance, length) in enumerate(zip(pool, lengths)):
            for _ in range(length):
                instance.enqueue(
                    Job(Query(qid, {"SVC": 1.0}), 1.0, lambda q: None)
                )
        order.shuffle(pool)
        expected = min(pool, key=lambda inst: (inst._qlen, inst.iid))
        assert shortest_queue(pool) is expected


class TestStagePool:
    def test_launch_names_instances_sequentially(self, stage):
        first = stage.launch_instance(LEVEL_1_2)
        second = stage.launch_instance(LEVEL_1_2)
        assert first.name == "SVC_1"
        assert second.name == "SVC_2"

    def test_names_never_reused_after_withdraw(self, sim, stage):
        stage.launch_instance(LEVEL_1_2)
        victim = stage.launch_instance(LEVEL_1_2)
        stage.withdraw_instance(victim)
        sim.run()
        replacement = stage.launch_instance(LEVEL_1_2)
        assert replacement.name == "SVC_3"

    def test_launch_acquires_core_at_level(self, stage):
        instance = stage.launch_instance(LEVEL_1_8)
        assert instance.core.active
        assert instance.frequency_ghz == pytest.approx(1.8)

    def test_total_power(self, stage):
        stage.launch_instance(LEVEL_1_8)
        stage.launch_instance(LEVEL_1_8)
        assert stage.total_power() == pytest.approx(2 * 4.52)

    def test_launch_counter(self, stage):
        stage.launch_instance(LEVEL_1_2)
        stage.launch_instance(LEVEL_1_2)
        assert stage.launches == 2


class TestPipelineSubmit:
    def test_dispatches_to_shortest_queue(self, sim, stage):
        a = stage.launch_instance(LEVEL_1_2)
        b = stage.launch_instance(LEVEL_1_2)
        done = []
        submit(stage, 1, 1.0, done)
        submit(stage, 2, 1.0, done)
        assert a.queue_length == 1
        assert b.queue_length == 1

    def test_completion_callback_fires(self, sim, stage):
        stage.launch_instance(LEVEL_1_2)
        done = []
        query = submit(stage, 1, 1.0, done)
        sim.run()
        assert done == [query]

    def test_no_instances_rejected(self, stage):
        with pytest.raises(StageError):
            submit(stage, 1, 1.0, [])

    def test_draining_instances_receive_no_queries(self, sim, stage):
        a = stage.launch_instance(LEVEL_1_2)
        b = stage.launch_instance(LEVEL_1_2)
        done = []
        submit(stage, 1, 5.0, done)  # a busy
        a_jobs_before = a.queue_length
        stage.withdraw_instance(b)
        submit(stage, 2, 1.0, done)
        assert a.queue_length == a_jobs_before + 1


class TestScatterGather:
    @pytest.fixture
    def sg_stage(self, sim, machine) -> Stage:
        return Stage(
            name="LEAF",
            profile=make_profile("LEAF", mean=1.0),
            machine=machine,
            sim=sim,
            iid_counter=itertools.count(0),
            kind=StageKind.SCATTER_GATHER,
        )

    def test_work_splits_across_instances(self, sim, sg_stage):
        instances = [sg_stage.launch_instance(LEVEL_1_2) for _ in range(4)]
        done = []
        submit(sg_stage, 1, 2.0, done)
        sim.run()
        # Each instance served 0.5s of work.
        assert sim.now == pytest.approx(0.5)
        assert all(inst.queries_served == 1 for inst in instances)

    def test_completes_only_after_last_shard(self, sim, sg_stage):
        fast = sg_stage.launch_instance(HASWELL_LADDER.max_level)
        slow = sg_stage.launch_instance(LEVEL_1_2)
        done = []
        submit(sg_stage, 1, 2.0, done)
        sim.run(until=0.6)
        assert done == []  # fast shard finished at 0.5, slow still running
        sim.run()
        assert len(done) == 1
        assert sim.now == pytest.approx(1.0)

    def test_single_instance_degenerates_to_pipeline(self, sim, sg_stage):
        sg_stage.launch_instance(LEVEL_1_2)
        done = []
        submit(sg_stage, 1, 2.0, done)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_each_shard_records_latency(self, sim, sg_stage):
        for _ in range(3):
            sg_stage.launch_instance(LEVEL_1_2)
        done = []
        query = submit(sg_stage, 1, 3.0, done)
        sim.run()
        assert len(query.records) == 3
        assert all(r.serving_time == pytest.approx(1.0) for r in query.records)


class TestWithdraw:
    def test_withdraw_redirects_waiting_jobs(self, sim, stage):
        a = stage.launch_instance(LEVEL_1_2)
        b = stage.launch_instance(LEVEL_1_2)
        done = []
        # Load b with one in-service and two waiting jobs.
        for qid in range(3):
            b.enqueue(Job(Query(qid, {"SVC": 1.0}), 1.0, done.append))
        stage.withdraw_instance(b, redirect_to=a)
        assert a.waiting_count + (1 if a.busy else 0) == 2
        sim.run()
        assert len(done) == 3
        assert b not in stage.instances

    def test_withdraw_releases_core(self, sim, stage, machine):
        stage.launch_instance(LEVEL_1_2)
        victim = stage.launch_instance(LEVEL_1_2)
        free_before = machine.free_core_count()
        stage.withdraw_instance(victim)
        sim.run()
        assert machine.free_core_count() == free_before + 1

    def test_withdraw_last_instance_rejected(self, stage):
        only = stage.launch_instance(LEVEL_1_2)
        with pytest.raises(StageError):
            stage.withdraw_instance(only)

    def test_withdraw_foreign_instance_rejected(self, sim, machine, stage):
        other = Stage(
            name="OTHER",
            profile=make_profile("OTHER"),
            machine=machine,
            sim=sim,
            iid_counter=itertools.count(100),
        )
        foreign = other.launch_instance(LEVEL_1_2)
        other.launch_instance(LEVEL_1_2)
        with pytest.raises(StageError):
            stage.withdraw_instance(foreign)

    def test_redirect_target_must_be_in_stage(self, sim, machine, stage):
        stage.launch_instance(LEVEL_1_2)
        victim = stage.launch_instance(LEVEL_1_2)
        other = Stage(
            name="OTHER",
            profile=make_profile("OTHER"),
            machine=machine,
            sim=sim,
            iid_counter=itertools.count(100),
        )
        outsider = other.launch_instance(LEVEL_1_2)
        with pytest.raises(StageError):
            stage.withdraw_instance(victim, redirect_to=outsider)

    def test_withdrawal_counter(self, sim, stage):
        stage.launch_instance(LEVEL_1_2)
        victim = stage.launch_instance(LEVEL_1_2)
        stage.withdraw_instance(victim)
        sim.run()
        assert stage.withdrawals == 1

    def test_double_withdraw_rejected(self, sim, stage):
        stage.launch_instance(LEVEL_1_2)
        stage.launch_instance(LEVEL_1_2)
        victim = stage.launch_instance(LEVEL_1_2)
        victim.enqueue(Job(Query(1, {"SVC": 5.0}), 5.0, lambda q: None))
        stage.withdraw_instance(victim)
        with pytest.raises(StageError):
            stage.withdraw_instance(victim)
