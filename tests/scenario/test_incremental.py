"""Incremental lifecycle: tick/abort/status and tick-vs-batch goldens.

The tentpole contract: a stack advanced through any sequence of
``tick(until)`` deadlines replays the one-shot ``run_scenario()`` event
sequence byte for byte — latency, qos, chaos and guarded variants alike.
Plus the off-lifecycle ``abort()`` teardown, legal from any phase.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.export import scenario_payload
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.guard import GuardConfig
from repro.scenario.builder import StackBuilder, run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.units import exactly

GOLDEN_SPEC = ScenarioSpec.latency(
    "sirius", "powerchief", ("constant", 1.5), 180.0, seed=7
)

SHORT_SPEC = ScenarioSpec.latency(
    "sirius", "powerchief", ("constant", 1.5), 60.0, seed=3
)


def payload(result) -> str:
    return json.dumps(scenario_payload(result), sort_keys=True)


def tick_scenario(spec: ScenarioSpec, deadlines):
    """Drive a stack with explicit tick deadlines, then collect."""
    builder = StackBuilder(spec).build().arm().start()
    for deadline in deadlines:
        builder.tick(deadline)
        if builder.finished:
            break
    if not builder.finished:
        builder.tick(builder.end_s)
    return builder, builder.collect()


def uneven_deadlines(end_s: float, step_s: float = 7.3):
    t = step_s
    while t < end_s + step_s:
        yield t
        t += step_s


class TestTickVsBatchGoldens:
    def test_latency_golden_byte_identical(self):
        batch = run_scenario(GOLDEN_SPEC)
        _, ticked = tick_scenario(
            GOLDEN_SPEC, uneven_deadlines(GOLDEN_SPEC.duration_s)
        )
        assert payload(ticked) == payload(batch)
        # Cross-check against the pinned golden in test_builder.py.
        assert ticked.queries_submitted == 270
        assert ticked.queries_completed == 267

    def test_single_tick_to_end_matches_batch(self):
        batch = run_scenario(SHORT_SPEC)
        _, ticked = tick_scenario(SHORT_SPEC, [SHORT_SPEC.duration_s])
        assert payload(ticked) == payload(batch)

    def test_qos_golden_byte_identical(self):
        spec = ScenarioSpec.qos("sirius", "powerchief", 4.0, 120.0, seed=5)
        batch = run_scenario(spec)
        _, ticked = tick_scenario(spec, uneven_deadlines(120.0, 11.9))
        assert payload(ticked) == payload(batch)

    def test_chaos_golden_byte_identical(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            drain_s=30.0,
        )
        batch = run_scenario(spec)
        # Deadlines straddle the run/drain boundary unevenly.
        _, ticked = tick_scenario(spec, uneven_deadlines(150.0, 13.7))
        assert payload(ticked) == payload(batch)

    def test_guarded_golden_byte_identical(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 2.0),
            120.0,
            seed=3,
            guard=GuardConfig(),
        )
        batch = run_scenario(spec)
        _, ticked = tick_scenario(spec, uneven_deadlines(120.0, 9.1))
        assert payload(ticked) == payload(batch)

    def test_observed_variant_matches_audit_and_stream(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 2.0),
            90.0,
            seed=5,
            observe=("metrics", "audit", "stream"),
        )
        batch_builder = StackBuilder(spec)
        batch = batch_builder.execute()
        tick_builder, ticked = tick_scenario(spec, uneven_deadlines(90.0, 8.3))
        assert payload(ticked) == payload(batch)
        batch_obs = batch_builder.observability
        tick_obs = tick_builder.observability
        assert batch_obs is not None and tick_obs is not None
        assert tick_obs.audit.to_dicts() == batch_obs.audit.to_dicts()
        assert tick_obs.stream.lines == batch_obs.stream.lines

    def test_tiny_deadline_steps_still_identical(self):
        spec = ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.5), 30.0, seed=9
        )
        batch = run_scenario(spec)
        _, ticked = tick_scenario(spec, uneven_deadlines(30.0, 0.49))
        assert payload(ticked) == payload(batch)


class TestTickLifecycle:
    def test_tick_walks_run_boundary(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(10.0)
        assert builder.phase == "started"
        assert exactly(builder.sim.now, 10.0)
        builder.tick(SHORT_SPEC.duration_s)
        # Zero drain window: one tick at duration_s walks ran -> drained.
        assert builder.phase == "drained"
        assert builder.finished
        builder.collect()
        assert builder.phase == "collected"

    def test_tick_stops_at_ran_when_drain_remains(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            60.0,
            seed=3,
            drain_s=20.0,
        )
        builder = StackBuilder(spec).build().arm().start()
        builder.tick(60.0)
        assert builder.phase == "ran"
        assert not builder.finished
        builder.tick(70.0)
        assert builder.phase == "ran"
        builder.tick(80.0)
        assert builder.phase == "drained"

    def test_tick_overshoot_clamps_to_end(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(1e9)
        assert exactly(builder.sim.now, SHORT_SPEC.duration_s)
        assert builder.phase == "drained"

    def test_tick_at_current_clock_is_a_noop(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(10.0)
        fired_before = builder.sim.events_processed
        builder.tick(10.0)
        assert builder.sim.events_processed == fired_before

    def test_tick_backwards_raises(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(10.0)
        with pytest.raises(ExperimentError, match="already at"):
            builder.tick(5.0)

    def test_tick_from_untickable_phases_raises(self):
        builder = StackBuilder(SHORT_SPEC)
        for advance in (builder.build, builder.arm):
            with pytest.raises(ExperimentError, match="cannot tick"):
                builder.tick(10.0)
            advance()
        with pytest.raises(ExperimentError, match="cannot tick"):
            builder.tick(10.0)  # armed but not started

    def test_batch_wrappers_still_enforce_the_lifecycle(self):
        builder = StackBuilder(SHORT_SPEC)
        with pytest.raises(ExperimentError, match="lifecycle"):
            builder.run()
        builder.build().arm().start().run()
        assert builder.phase == "ran"
        with pytest.raises(ExperimentError, match="lifecycle"):
            builder.run()
        builder.drain()
        with pytest.raises(ExperimentError, match="lifecycle"):
            builder.drain()

    def test_status_snapshot(self):
        builder = StackBuilder(SHORT_SPEC)
        status = builder.status()
        assert status["phase"] == "new"
        assert exactly(status["now_s"], 0.0)
        builder.build().arm().start().tick(30.0)
        status = builder.status()
        assert status["phase"] == "started"
        assert status["app"] == "sirius"
        assert status["policy"] == "powerchief"
        assert status["digest"] == SHORT_SPEC.digest()
        assert exactly(status["now_s"], 30.0)
        assert exactly(status["duration_s"], 60.0)
        assert exactly(status["end_s"], 60.0)
        assert status["finished"] is False
        assert status["queries_submitted"] > 0
        assert status["queries_completed"] > 0
        json.dumps(status)  # JSON-able for the daemon


class TestAbort:
    def test_abort_from_every_phase(self):
        steps = {
            "new": lambda b: None,
            "built": lambda b: b.build(),
            "armed": lambda b: b.build().arm(),
            "started": lambda b: b.build().arm().start().tick(10.0),
            "ran": lambda b: b.build().arm().start().run(),
            "drained": lambda b: b.build().arm().start().run().drain(),
        }
        for phase, reach in steps.items():
            builder = StackBuilder(SHORT_SPEC)
            reach(builder)
            assert builder.phase == phase
            builder.abort()
            assert builder.phase == "aborted"
            assert builder.abort_errors == []

    def test_abort_is_idempotent(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(5.0)
        builder.abort()
        builder.abort()
        assert builder.phase == "aborted"

    def test_abort_after_collect_is_a_noop(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(builder.end_s)
        builder.collect()
        builder.abort()
        assert builder.phase == "collected"

    def test_abort_mid_run_with_observability_unwinds_hooks(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            60.0,
            seed=3,
            observe=("metrics", "audit", "stream"),
        )
        builder = StackBuilder(spec).build().arm().start()
        builder.tick(20.0)
        builder.abort()
        assert builder.phase == "aborted"
        # The stream exporter was closed by the teardown.
        assert builder.observability.stream.attached is False
        # A second abort does not double-close anything.
        builder.abort()
        assert builder.abort_errors == []

    def test_abort_mid_chaos_run(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            60.0,
            seed=11,
            chaos="crash-heavy",
            drain_s=20.0,
        )
        builder = StackBuilder(spec).build().arm().start()
        builder.tick(25.0)
        builder.abort()
        assert builder.phase == "aborted"
        assert builder.abort_errors == []

    def test_abort_records_teardown_failures_without_raising(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.tick(5.0)

        def explode() -> None:
            raise RuntimeError("stop failed")

        builder.controller.stop = explode  # type: ignore[method-assign]
        builder.abort()
        assert builder.phase == "aborted"
        assert [label for label, _ in builder.abort_errors] == ["controller"]
        assert isinstance(builder.abort_errors[0][1], RuntimeError)

    def test_execute_aborts_on_failure(self, monkeypatch):
        builder = StackBuilder(SHORT_SPEC)

        def explode(target: float) -> None:
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(builder, "_tick_run_window", explode)
        with pytest.raises(RuntimeError, match="mid-run failure"):
            builder.execute()
        assert builder.phase == "aborted"

    def test_tick_after_abort_raises(self):
        builder = StackBuilder(SHORT_SPEC).build().arm().start()
        builder.abort()
        with pytest.raises(ExperimentError, match="cannot tick"):
            builder.tick(10.0)
        with pytest.raises(ExperimentError, match="lifecycle"):
            builder.collect()



#: Every observability pillar; the SLO tracker needs a target.
ALL_PILLARS = ("trace", "metrics", "audit", "attribution", "slo", "energy", "stream")


class TestTeardownLeavesNothingAttached:
    """A finished or aborted run unhooks every observer it attached."""

    @pytest.mark.parametrize(
        "pillars, finish",
        [
            (("metrics", "energy"), "execute"),
            (ALL_PILLARS, "execute"),
            (ALL_PILLARS, "abort"),
        ],
        ids=["execute-metrics-energy", "execute-all-pillars", "abort-from-started"],
    )
    def test_nothing_stays_attached(self, pillars, finish):
        from repro.obs import logging as obs_logging

        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            30.0,
            seed=3,
            observe=pillars,
            slo_target_s=20.0,
        )
        builder = StackBuilder(spec)
        if finish == "execute":
            builder.execute()
        else:
            builder.build().arm().start().tick(10.0)
            assert builder.phase == "started"
            builder.abort()
        obs = builder.observability
        assert builder.sim._event_hooks == []
        assert builder.telemetry._sample_listeners == []
        assert obs.energy._telemetry is None
        assert obs.stream is None or obs.stream.attached is False
        assert obs_logging._clock is None


class TestReadTimeInstruments:
    """The event counter and the SLO gauges are read when the registry
    is, and read what the per-event and per-settle writes used to."""

    def _tick_observed(self, chaos=None):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 2.0),
            60.0,
            seed=3,
            observe=("metrics", "slo"),
            # A target that about half the queries meet, and a short
            # window, so a late settle moves the burn rate.
            slo_target_s=6.0,
            slo_window_s=10.0,
            chaos=chaos,
            drain_s=30.0 if chaos is not None else 0.0,
        )
        builder = StackBuilder(spec).build().arm()
        sim, obs = builder.sim, builder.observability
        armed_at = sim.events_processed
        # Without the stream pillar no per-event hook is left.
        assert sim._event_hooks == []
        registry, slo = obs.metrics, obs.slo
        settled: list[float] = []
        #: The gauges' values as the tracker stood right after each settle:
        #: what the per-settle ``set`` calls wrote.
        written: list[tuple[float, float]] = []

        def settle(time: float) -> None:
            settled.append(time)
            written.append((slo.attainment(), slo.burn_rate(time)))
            gauges = (
                registry.gauge("repro_slo_attainment").value(),
                registry.gauge("repro_slo_burn_rate").value(),
            )
            assert gauges == written[-1]

        # Attached after the tracker, so each call sees its ingest.
        builder.application.add_completion_listener(
            lambda query: settle(query.completion_time)
        )
        builder.application.add_failure_listener(
            lambda query: settle(query.failed_time)
        )
        builder.start()
        # The gauges are registered at the first settle.
        assert registry.get("repro_slo_attainment") is None
        assert registry.get("repro_slo_burn_rate") is None
        deadline = 0.0
        while not builder.finished:
            deadline = min(deadline + 2.5, builder.end_s)
            builder.tick(deadline)
            events = registry.counter("repro_sim_events_total")
            assert events.value() == sim.events_processed - armed_at
            attainment = registry.get("repro_slo_attainment")
            burn = registry.get("repro_slo_burn_rate")
            if not settled:
                assert attainment is None and burn is None
                continue
            assert (attainment.value(), burn.value()) == written[-1]
            assert burn.value() == slo.burn_rate(settled[-1])
        builder.collect()
        return builder, settled

    def test_event_count_follows_ticks_then_freezes(self):
        builder, _ = self._tick_observed()
        events = builder.observability.metrics.counter("repro_sim_events_total")
        frozen = events.value()
        assert frozen > 0
        sim = builder.sim
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert events.value() == frozen
        assert events.render()[2:] == [f"repro_sim_events_total {int(frozen)}"]

    def test_slo_gauges_read_the_last_ingested_settle(self):
        plan = FaultPlan(
            name="late-settles",
            specs=(
                FaultSpec(
                    kind=FaultKind.RPC_DELAY, at_s=15.0, duration_s=20.0, magnitude=3.0
                ),
            ),
        )
        _, settled = self._tick_observed(chaos=plan)
        # The delay delivers some settles after later ones.
        assert any(settled[i] < max(settled[:i]) for i in range(1, len(settled)))
