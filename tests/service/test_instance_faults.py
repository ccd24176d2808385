"""The instance fault surface: crash/hang/degrade and the transition table."""

from __future__ import annotations

import itertools
import math

import pytest

from repro.errors import InstanceStateError
from repro.cluster.frequency import HASWELL_LADDER
from repro.service.instance import InstanceState, Job, ServiceInstance
from repro.service.query import Query
from repro.service.stage import Stage

from tests.conftest import make_profile

LEVEL = HASWELL_LADDER.min_level


@pytest.fixture
def stage(sim, machine) -> Stage:
    return Stage(
        name="SVC",
        profile=make_profile("SVC", mean=1.0),
        machine=machine,
        sim=sim,
        iid_counter=itertools.count(0),
    )


def job_for(instance: ServiceInstance, qid: int, work: float, done: list) -> Job:
    job = Job(Query(qid, {"SVC": work}), work, done.append)
    instance.enqueue(job)
    return job


class TestTransitionTable:
    def test_crash_from_running(self, stage):
        instance = stage.launch_instance(LEVEL)
        instance.crash()
        assert instance.state is InstanceState.CRASHED

    def test_crash_from_draining(self, sim, stage):
        instance = stage.launch_instance(LEVEL)
        job_for(instance, 1, 5.0, [])
        instance.drain(lambda inst: None)
        assert instance.state is InstanceState.DRAINING
        instance.crash()
        assert instance.state is InstanceState.CRASHED

    @pytest.mark.parametrize("terminal", ["crash", "withdraw"])
    def test_terminal_states_reject_everything(self, sim, stage, terminal):
        instance = stage.launch_instance(LEVEL)
        if terminal == "crash":
            instance.crash()
        else:
            instance.drain(lambda inst: None)  # idle: withdraws immediately
            assert instance.state is InstanceState.WITHDRAWN
        with pytest.raises(InstanceStateError):
            instance.crash()
        with pytest.raises(InstanceStateError):
            instance.drain(lambda inst: None)
        with pytest.raises(InstanceStateError):
            instance.enqueue(Job(Query(1, {"SVC": 1.0}), 1.0, lambda q: None))

    def test_hang_requires_running(self, stage):
        instance = stage.launch_instance(LEVEL)
        instance.crash()
        with pytest.raises(InstanceStateError):
            instance.hang()


class TestCrashDuringDrain:
    def test_drain_callback_never_fires_after_crash(self, sim, stage):
        """A crash mid-drain must not later double-fire on_drained."""
        drained = []
        instance = stage.launch_instance(LEVEL)
        job_for(instance, 1, 5.0, [])
        instance.drain(drained.append)
        instance.crash()
        sim.run()  # any stray completion/drain event would fire here
        assert drained == []
        assert instance.state is InstanceState.CRASHED

    def test_crash_orphans_current_and_queue(self, sim, stage):
        done: list = []
        instance = stage.launch_instance(LEVEL)
        first = job_for(instance, 1, 5.0, done)
        second = job_for(instance, 2, 5.0, done)
        sim.run(until=1.0)
        orphans = instance.crash()
        assert orphans == [first, second]
        assert all(job.record is None for job in orphans)
        sim.run()
        assert done == []  # nothing completes on a crashed instance
        assert instance.queries_served == 0


class TestHangRepair:
    def test_hang_banks_progress_and_repair_resumes(self, sim, stage):
        done: list = []
        instance = stage.launch_instance(LEVEL)
        job_for(instance, 1, 4.0, done)  # 4 s of work at 1.0x rate
        sim.run(until=1.0)
        instance.hang()
        assert instance.hung
        sim.run(until=10.0)
        assert done == []  # no progress while hung
        instance.repair()
        sim.run()
        # 1 s consumed before the hang; 3 s remained after repair at t=10.
        assert done[0].records[0].finish_time == pytest.approx(13.0)

    def test_hung_instance_queues_new_arrivals(self, sim, stage):
        done: list = []
        instance = stage.launch_instance(LEVEL)
        instance.hang()
        job_for(instance, 1, 1.0, done)
        sim.run(until=5.0)
        assert instance.waiting_count == 1
        assert instance.queue_length == 1
        assert not instance.busy
        instance.repair()
        sim.run()
        assert len(done) == 1
        record = done[0].records[0]
        assert (record.enqueue_time, record.start_time) == (0.0, 5.0)
        assert record.queue_at_arrival == 0

    def test_repair_resumes_a_draining_instance(self, sim, stage):
        # Withdrawn while hung and holding a job: repair must finish the
        # job and then the drain, releasing the core.
        done: list = []
        instance = stage.launch_instance(LEVEL)
        stage.launch_instance(LEVEL)
        job_for(instance, 1, 1.0, done)
        sim.run(until=0.2)
        instance.hang()
        stage.withdraw_instance(instance)
        assert instance.state is InstanceState.DRAINING
        sim.run(until=0.5)
        instance.repair()
        sim.run(until=100.0)
        assert len(done) == 1
        # 0.2 s served before the hang; the other 0.8 s after t=0.5.
        assert done[0].records[0].finish_time == pytest.approx(1.3)
        assert instance.state is InstanceState.WITHDRAWN
        assert instance not in stage.instances
        assert not instance.core.active

    def test_crash_clears_hang_so_repair_is_noop(self, sim, stage):
        instance = stage.launch_instance(LEVEL)
        instance.hang()
        instance.crash()
        assert not instance.hung
        instance.repair()  # must not resurrect a crashed instance
        assert instance.state is InstanceState.CRASHED


class TestDegrade:
    def test_degrade_slows_service(self, sim, stage):
        done: list = []
        instance = stage.launch_instance(LEVEL)
        instance.degrade(0.5)
        job_for(instance, 1, 2.0, done)
        sim.run()
        assert done[0].records[0].finish_time == pytest.approx(4.0)

    def test_degrade_rescales_in_flight_job(self, sim, stage):
        done: list = []
        instance = stage.launch_instance(LEVEL)
        job_for(instance, 1, 2.0, done)
        sim.run(until=1.0)
        instance.degrade(0.5)  # 1 s of work left, now at half speed
        sim.run()
        assert done[0].records[0].finish_time == pytest.approx(3.0)

    def test_degrade_restore(self, sim, stage):
        instance = stage.launch_instance(LEVEL)
        instance.degrade(0.25)
        instance.degrade(1.0)
        assert instance.degrade_factor == pytest.approx(1.0)

    def test_degrade_rejects_nonpositive(self, stage):
        instance = stage.launch_instance(LEVEL)
        with pytest.raises(InstanceStateError):
            instance.degrade(0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_refused_degrade_leaves_the_job_on_time(self, sim, stage, factor):
        # NaN fails every ordered comparison, so ``factor <= 0.0`` alone
        # would let it through, and its rescale would strand the job.
        done: list = []
        instance = stage.launch_instance(LEVEL)
        job_for(instance, 1, 2.0, done)
        sim.run(until=1.0)
        with pytest.raises(InstanceStateError):
            instance.degrade(factor)
        assert instance.degrade_factor == 1.0
        sim.run(until=100.0)
        assert done[0].records[0].finish_time == pytest.approx(2.0)
        assert not instance.busy
        stage.launch_instance(LEVEL)  # occupancy listeners still work


class TestStageCrash:
    def test_crash_redispatches_orphans_to_survivors(self, sim, stage):
        done: list = []
        victim = stage.launch_instance(LEVEL)
        survivor = stage.launch_instance(LEVEL)
        job_for(victim, 1, 1.0, done)
        job_for(victim, 2, 1.0, done)
        orphans = stage.crash_instance(victim)
        assert orphans == 2
        assert victim not in stage.instances
        assert survivor.queue_length == 2
        sim.run()
        assert len(done) == 2
        assert stage.orphaned_jobs == 0

    def test_crash_with_no_survivors_counts_lost_jobs(self, sim, stage):
        victim = stage.launch_instance(LEVEL)
        job_for(victim, 1, 1.0, [])
        stage.crash_instance(victim)
        assert stage.orphaned_jobs == 1
        assert stage.crashes == 1

    def test_crash_releases_core(self, sim, stage):
        victim = stage.launch_instance(LEVEL)
        stage.launch_instance(LEVEL)
        before = len(stage.machine.active_cores())
        stage.crash_instance(victim)
        assert len(stage.machine.active_cores()) == before - 1

    def test_crash_notifies_listeners(self, sim, stage):
        seen = []
        stage.add_crash_listener(lambda st, inst: seen.append((st, inst)))
        victim = stage.launch_instance(LEVEL)
        stage.launch_instance(LEVEL)
        stage.crash_instance(victim)
        assert seen == [(stage, victim)]
