"""Integration tests for the extension features working *together* with
the PowerChief runtime: network delays, RPC fabric, scatter-gather
conservation, and the headline aggregation."""

from __future__ import annotations

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.core.actions import InstanceWithdrawAction
from repro.core.conserve import PowerChiefConserveController
from repro.core.controller import ControllerConfig, PowerChiefController
from repro.experiments.figures.fig10 import ImprovementFigureResult
from repro.experiments.figures.common import ImprovementCell
from repro.experiments.headline import Headline, compute_headline, format_headline
from repro.scenario import ScenarioSpec, StackBuilder
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.rpc import RpcFabric
from repro.service.stage import StageKind
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.loadgen import ConstantLoad, PoissonLoadGenerator, QueryFactory
from repro.workloads.sirius import sirius_load_levels, sirius_profiles

from tests.conftest import make_profile


class TestPowerChiefWithNetworkDelays:
    """Section 8.5: the runtime keeps working when hops cost time."""

    def run_sirius(self, latency_s, seed=3, duration=400.0):
        sim = Simulator()
        machine = Machine(sim, n_cores=16)
        app = Application(
            "sirius", sim, machine, fabric=RpcFabric(sim, latency_s=latency_s)
        )
        profiles = sirius_profiles()
        for profile in profiles:
            app.add_stage(profile).launch_instance(HASWELL_LADDER.level_of(1.8))
        command_center = CommandCenter(sim, app)
        budget = PowerBudget(machine, 13.56)
        controller = PowerChiefController(
            sim,
            app,
            command_center,
            budget,
            DvfsActuator(sim),
            ControllerConfig(adjust_interval_s=25.0, balance_threshold_s=0.25),
        )
        streams = RandomStreams(seed)
        generator = PoissonLoadGenerator(
            sim,
            app,
            QueryFactory(profiles, streams),
            ConstantLoad(sirius_load_levels().high_qps),
            streams,
            duration,
        )
        controller.start()
        generator.start()
        sim.run(until=duration)
        budget.assert_within()
        return command_center.summary(), controller

    def test_controller_still_mitigates_latency_with_hops(self):
        with_hops, controller = self.run_sirius(latency_s=0.02)
        assert controller.decisions  # the runtime actually adjusted
        # Order-of-magnitude better than the known static-baseline range.
        assert with_hops.mean < 10.0

    def test_hop_cost_is_additive_not_disruptive(self):
        no_hops, _ = self.run_sirius(latency_s=0.0)
        with_hops, _ = self.run_sirius(latency_s=0.02)
        # Three hops of 20 ms add ~60 ms per query; allow queueing slack.
        assert with_hops.mean >= no_hops.mean
        assert with_hops.mean < no_hops.mean + 1.0


class TestConserveOnScatterGather:
    """Figure 14's mechanism: leaf withdraw re-shards the index."""

    def table3_websearch(self):
        """The Table-3 Web Search stack under 2 qps for 200 s, not started."""
        spec = ScenarioSpec.qos("websearch", "baseline", 2.0, 200.0, seed=3)
        return StackBuilder(spec).build()

    def test_withdrawing_leaves_increases_shard_work(self):
        builder = self.table3_websearch()
        sim, app = builder.sim, builder.application
        leaf_stage = app.stage("LEAF")
        from tests.conftest import make_query

        query = make_query(1, LEAF=1.0, AGG=0.06)
        app.submit(query)
        sim.run()
        ten_leaf_records = [r for r in query.records if r.stage_name == "LEAF"]
        shard_ten = ten_leaf_records[0].serving_time

        # Withdraw five leaves and re-run an identical query.
        for _ in range(5):
            victim = leaf_stage.running_instances()[-1]
            leaf_stage.withdraw_instance(victim)
        sim.run()
        query2 = make_query(2, LEAF=1.0, AGG=0.06)
        app.submit(query2)
        sim.run()
        five_leaf_records = [r for r in query2.records if r.stage_name == "LEAF"]
        assert len(five_leaf_records) == 5
        assert five_leaf_records[0].serving_time == pytest.approx(2 * shard_ten)

    def test_conserve_controller_withdraws_idle_leaves_under_light_load(self):
        builder = self.table3_websearch()
        sim, machine, app = builder.sim, builder.machine, builder.application
        command_center = CommandCenter(sim, app, window_s=20.0, e2e_window_s=20.0)
        budget = PowerBudget(machine, machine.peak_power())
        controller = PowerChiefConserveController(
            sim,
            app,
            command_center,
            budget,
            DvfsActuator(sim),
            qos_target_s=0.5,  # generous target -> deep conservation
            config=ControllerConfig(adjust_interval_s=2.0),
        )
        controller.start()
        builder.generator.start()
        sim.run(until=200.0)
        # Scatter-gather spreads load evenly, so leaves conserve via
        # frequency; the aggregation tier cannot drop below one instance.
        assert app.total_power() < 0.7 * machine.peak_power() * (11 / 16)
        assert len(app.stage("AGG").running_instances()) == 1
        assert command_center.recent_latency_avg() < 0.5


class TestHeadlineAggregation:
    def make_result(self, app, improvements):
        cells = []
        for load, (avg, p99) in improvements.items():
            cells.append(
                ImprovementCell(
                    app=app,
                    policy="powerchief",
                    load=load,
                    mean_latency_s=1.0,
                    p99_latency_s=2.0,
                    avg_improvement=avg,
                    p99_improvement=p99,
                )
            )
        return ImprovementFigureResult(app=app, figure="test", cells=tuple(cells))

    def test_averages_across_loads(self):
        fig10 = self.make_result(
            "sirius", {"low": (1.0, 1.0), "medium": (4.0, 3.0), "high": (31.0, 17.0)}
        )
        fig12 = self.make_result(
            "nlp", {"low": (1.0, 1.0), "medium": (5.0, 4.0), "high": (36.0, 19.0)}
        )
        headline = compute_headline(fig10, fig12)
        assert headline.sirius_avg_improvement == pytest.approx(12.0)
        assert headline.nlp_avg_improvement == pytest.approx(14.0)
        assert headline.sirius_power_saving is None

    def test_format_mentions_both_apps_and_the_paper(self):
        headline = Headline(12.0, 6.6, 14.0, 7.5, 0.42, 0.32, 0.0, 0.03)
        text = format_headline(headline)
        assert "12.0x and 14.0x" in text
        assert "42% and 32%" in text
        assert "Paper" in text
