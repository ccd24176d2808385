"""Every producer reads the run's pillars from its Application.

The stack builder hands the spec's observability bundle to each
``Application`` it builds; the controller (and every rung of a
supervised one), the fault injector, the health monitor, the per-stage
retry layers and the RPC fabric all record into that one bundle, so
nothing the guard or the fault subsystem does goes uncounted for lack
of a wiring step.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.faults import chaos_spec
from repro.guard import GuardConfig
from repro.obs.audit import ResilienceEntry
from repro.scenario import ScenarioSpec, StackBuilder


def total(registry, name):
    """The sum of every series of counter ``name`` in the exposition."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in registry.render_prometheus().splitlines()
        if line.startswith((name + "{", name + " "))
    )


class TestGuardCounters:
    def test_a_guarded_run_without_chaos_counts_what_it_audits(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.95),
            150.0,
            seed=3,
            guard=GuardConfig(),
            observe=("metrics", "audit", "slo"),
            slo_target_s=2.0,
        )
        builder = StackBuilder(spec)
        builder.execute()
        supervisor = builder.controller
        registry = builder.observability.metrics
        assert supervisor.violations and supervisor.transitions
        assert total(registry, "repro_guard_violations_total") == len(
            supervisor.violations
        )
        assert total(registry, "repro_guard_transitions_total") == len(
            supervisor.transitions
        )
        violations = registry.get("repro_guard_violations_total")
        for monitor, count in Counter(
            v.monitor for v in supervisor.violations
        ).items():
            assert violations.value(monitor=monitor) == count
        transitions = registry.get("repro_guard_transitions_total")
        for (from_mode, to_mode), count in Counter(
            (t.from_mode, t.to_mode) for t in supervisor.transitions
        ).items():
            assert transitions.value(from_mode=from_mode, to_mode=to_mode) == count


class TestChaosProducers:
    def test_every_producer_counts_into_the_spec_registry(self):
        # all-faults touches RPC (delay and loss), goes telemetry-dark
        # long enough to degrade ticks, and crashes and hangs instances.
        spec = chaos_spec(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            300.0,
            "all-faults",
            seed=3,
            guard=GuardConfig(),
        )
        builder = StackBuilder(spec).build()
        obs = builder.observability
        registry = obs.metrics
        supervisor = builder.controller
        # The controller holds its pillars from construction, before arm.
        assert supervisor.metrics is registry
        assert all(rung.metrics is registry for rung in supervisor._rungs)
        builder.arm().start().run().drain()
        builder.collect()
        harness = builder.chaos
        application = builder.application

        assert supervisor.tally.degraded_ticks > 0
        assert (
            total(registry, "repro_controller_degraded_ticks_total")
            == supervisor.tally.degraded_ticks
        )
        assert total(registry, "repro_faults_injected_total") == len(
            harness.injector.events
        )
        fabric = application.fabric
        assert fabric is not None and fabric.messages_lost > 0
        assert total(registry, "repro_rpc_messages_total") == fabric.messages_sent
        layers = [stage.resilience for stage in application.stages]
        assert sum(layer.crash_requeues for layer in layers) > 0
        assert total(registry, "repro_crash_requeues_total") == sum(
            layer.crash_requeues for layer in layers
        )
        assert total(registry, "repro_attempt_timeouts_total") == sum(
            layer.timeouts for layer in layers
        )
        # The health monitor audits into the same bundle: one entry per
        # hang it caught and per respawn it made.
        monitor = harness.monitor
        assert monitor.hangs_detected > 0 and monitor.respawns > 0
        assert len(obs.audit.of_kind(ResilienceEntry)) == (
            monitor.hangs_detected + monitor.respawns
        )

    @pytest.mark.parametrize("guard", [None, GuardConfig()], ids=["bare", "guarded"])
    def test_health_monitor_counts_what_it_audits(self, guard):
        spec = chaos_spec(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            300.0,
            "all-faults",
            seed=3,
            guard=guard,
        )
        builder = StackBuilder(spec)
        builder.execute()
        monitor = builder.chaos.monitor
        assert (monitor.hangs_detected, monitor.respawns) == (1, 3)
        actions = builder.observability.metrics.get("repro_health_actions_total")
        assert actions is not None
        assert actions.value(action="hang-detected") == monitor.hangs_detected
        assert actions.value(action="respawn") == monitor.respawns
