"""Unit tests for inter-stage network delays (Section 8.5 extension).

Every hop pays the one-way latency of the application's RPC fabric.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.cluster.frequency import HASWELL_LADDER
from repro.service.application import Application
from repro.service.rpc import RpcFabric

from tests.conftest import make_profile, make_query


LEVEL_1_8 = HASWELL_LADDER.level_of(1.8)


def build_app(sim, machine, latency_s):
    app = Application(
        "net", sim, machine, fabric=RpcFabric(sim, latency_s=latency_s)
    )
    for profile in (make_profile("A", mean=0.3), make_profile("B", mean=0.6)):
        app.add_stage(profile).launch_instance(HASWELL_LADDER.min_level)
    return app


class TestHopDelay:
    def test_zero_delay_is_the_default(self, sim, machine):
        assert Application("plain", sim, machine).fabric is None
        assert RpcFabric(sim).latency_s == 0.0

    def test_latency_includes_hops(self, sim, machine):
        app = build_app(sim, machine, latency_s=0.05)
        query = make_query(1, A=0.3, B=0.6)
        app.submit(query)
        sim.run()
        # A (0.3) + hop + B (0.6) + final hop = 1.0.
        assert query.end_to_end_latency == pytest.approx(0.3 + 0.05 + 0.6 + 0.05)

    def test_zero_delay_latency_is_pure_processing(self, sim, machine):
        app = build_app(sim, machine, latency_s=0.0)
        query = make_query(1, A=0.3, B=0.6)
        app.submit(query)
        sim.run()
        assert query.end_to_end_latency == pytest.approx(0.9)

    def test_records_unaffected_by_hops(self, sim, machine):
        # The joint design measures queueing/serving locally; network time
        # lives between records, not inside them.
        app = build_app(sim, machine, latency_s=0.2)
        query = make_query(1, A=0.3, B=0.6)
        app.submit(query)
        sim.run()
        assert query.record_for("A").serving_time == pytest.approx(0.3)
        assert query.record_for("B").serving_time == pytest.approx(0.6)
        assert query.record_for("B").queuing_time == pytest.approx(0.0)

    def test_hop_delay_overlaps_pipeline(self, sim, machine):
        app = build_app(sim, machine, latency_s=0.1)
        first = make_query(1, A=0.3, B=0.6)
        second = make_query(2, A=0.3, B=0.6)
        app.submit(first)
        app.submit(second)
        sim.run()
        # Stage A serves the second query while the first is in the hop.
        assert first.end_to_end_latency == pytest.approx(1.1)
        assert app.completed == 2

    def test_negative_delay_rejected(self, sim, machine):
        with pytest.raises(ConfigurationError):
            RpcFabric(sim, latency_s=-0.1)

    def test_in_flight_counts_queries_inside_hops(self, sim, machine):
        app = build_app(sim, machine, latency_s=10.0)
        app.submit(make_query(1, A=0.3, B=0.6))
        sim.run(until=0.35)  # finished stage A, inside the hop
        assert app.in_flight == 1
        sim.run()
        assert app.in_flight == 0
