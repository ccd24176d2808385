"""Unit tests for the RPC fabric and its application integration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.cluster.frequency import HASWELL_LADDER
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.rpc import RpcFabric

from tests.conftest import make_profile, make_query


class TestFabric:
    def test_zero_latency_delivers_synchronously(self, sim):
        fabric = RpcFabric(sim)
        delivered = []
        fabric.send("a", "b", lambda: delivered.append(sim.now))
        assert delivered == [0.0]

    def test_latency_delays_delivery(self, sim):
        fabric = RpcFabric(sim, latency_s=0.5)
        delivered = []
        fabric.send("a", "b", lambda: delivered.append(sim.now))
        assert delivered == []
        sim.run()
        assert delivered == [0.5]

    def test_message_and_link_accounting(self, sim):
        fabric = RpcFabric(sim)
        for _ in range(3):
            fabric.send("a", "b", lambda: None)
        fabric.send("b", "c", lambda: None)
        assert fabric.messages_sent == 4
        assert fabric.link_count("a", "b") == 3
        assert fabric.link_count("b", "c") == 1
        assert fabric.link_count("c", "a") == 0
        assert fabric.links() == {("a", "b"): 3, ("b", "c"): 1}

    def test_validation(self, sim):
        with pytest.raises(ConfigurationError):
            RpcFabric(sim, latency_s=-1.0)
        fabric = RpcFabric(sim)
        with pytest.raises(ConfigurationError):
            fabric.send("", "b", lambda: None)


class TestApplicationIntegration:
    def build(self, sim, machine, fabric):
        app = Application("net", sim, machine, fabric=fabric)
        for profile in (make_profile("A", mean=0.3), make_profile("B", mean=0.6)):
            app.add_stage(profile).launch_instance(HASWELL_LADDER.min_level)
        return app

    def test_hops_and_stats_are_counted(self, sim, machine):
        fabric = RpcFabric(sim)
        app = self.build(sim, machine, fabric)
        CommandCenter(sim, app)
        for qid in range(5):
            app.submit(make_query(qid, A=0.3, B=0.6))
        sim.run()
        # Per query: A->B hop, B->user response, B->command-center stats.
        assert fabric.link_count("stage:A", "stage:B") == 5
        assert fabric.link_count("stage:B", "user") == 5
        assert fabric.link_count("stage:B", "command-center") == 5
        assert fabric.messages_sent == 15

    def test_fabric_latency_extends_response_time(self, sim, machine):
        fabric = RpcFabric(sim, latency_s=0.05)
        app = self.build(sim, machine, fabric)
        query = make_query(1, A=0.3, B=0.6)
        app.submit(query)
        sim.run()
        # A (0.3) + hop + B (0.6) + response hop = 1.0.
        assert query.end_to_end_latency == pytest.approx(1.0)

    def test_stats_arrive_after_completion_under_latency(self, sim, machine):
        fabric = RpcFabric(sim, latency_s=0.05)
        app = self.build(sim, machine, fabric)
        command_center = CommandCenter(sim, app)
        app.submit(make_query(1, A=0.3, B=0.6))
        sim.run(until=1.0)  # response delivered at exactly t=1.0
        assert app.completed == 1
        assert command_center.stats_messages == 0  # report still in flight
        sim.run()
        assert command_center.stats_messages == 1

    def test_one_stats_report_per_query_regardless_of_stage_count(
        self, sim, machine
    ):
        # The Section-4.1 communication saving, measured on the wire.
        fabric = RpcFabric(sim)
        app = Application("wide", sim, machine, fabric=fabric)
        names = ("S1", "S2", "S3", "S4")
        for name in names:
            app.add_stage(make_profile(name, mean=0.1)).launch_instance(0)
        CommandCenter(sim, app)
        app.submit(make_query(1, **{name: 0.1 for name in names}))
        sim.run()
        to_command_center = sum(
            count for (src, dst), count in fabric.links().items()
            if dst == "command-center"
        )
        assert to_command_center == 1  # not one per stage visit
