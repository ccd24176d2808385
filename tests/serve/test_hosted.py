"""HostedRun: deadline-driven stacks with guard-layer live control."""

from __future__ import annotations

import inspect
import json

import pytest

from repro.errors import ServeError
from repro.experiments.export import scenario_payload
from repro.guard import feasible_floor_watts
from repro.scenario.builder import run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.serve import (
    SERVE_PILLARS,
    HostedRun,
    ReproDaemon,
    ensure_serve_pillars,
)
from repro.units import exactly

SPEC = ScenarioSpec.latency(
    "sirius", "powerchief", ("constant", 1.5), 60.0, seed=3
)


def payload(result) -> str:
    return json.dumps(scenario_payload(result), sort_keys=True)


class TestEnsureServePillars:
    def test_appends_all_pillars_to_a_dark_spec(self):
        armed = ensure_serve_pillars(SPEC)
        assert armed.observe == SERVE_PILLARS
        assert SPEC.observe == ()  # the original is untouched

    def test_already_armed_spec_returned_unchanged(self):
        armed = ensure_serve_pillars(SPEC)
        assert ensure_serve_pillars(armed) is armed
        assert armed.digest() == ensure_serve_pillars(armed).digest()

    def test_partial_pillars_completed_without_duplicates(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            60.0,
            seed=3,
            observe=("trace", "audit"),
        )
        armed = ensure_serve_pillars(spec)
        assert armed.observe == ("trace", "audit", "metrics", "stream")


#: The daemon's default ``--turbo`` quantum.
DEFAULT_QUANTUM_S = (
    inspect.signature(ReproDaemon).parameters["quantum_s"].default
)


class TestAdvancement:
    @pytest.mark.parametrize("step_s", [7.3, DEFAULT_QUANTUM_S])
    def test_hosted_run_matches_batch_byte_for_byte(self, step_s):
        batch = run_scenario(ensure_serve_pillars(SPEC))
        run = HostedRun("eq", SPEC)
        while not run.done:
            run.advance_by(step_s)
        assert run.error is None
        assert run.result_payload is not None
        assert (
            json.dumps(run.result_payload, sort_keys=True) == payload(batch)
        )
        assert run.result_payload["kind"] == "latency"

    def test_advance_to_clamps_to_end(self):
        run = HostedRun("clamp", SPEC)
        run.advance_to(1e9)
        assert exactly(run.sim_now, run.end_s)
        assert run.done
        assert run.result_payload is not None

    def test_paused_run_does_not_advance(self):
        run = HostedRun("paused", SPEC)
        run.paused = True
        run.advance_to(30.0)
        assert exactly(run.sim_now, 0.0)
        run.paused = False
        run.advance_to(30.0)
        assert exactly(run.sim_now, 30.0)

    def test_drain_now_unpauses_and_collects(self):
        run = HostedRun("drain", SPEC)
        run.paused = True
        run.drain_now()
        assert run.done
        assert run.result_payload is not None

    def test_stale_deadline_is_a_noop(self):
        run = HostedRun("stale", SPEC)
        run.advance_to(20.0)
        run.advance_to(10.0)  # behind the clock: ignored, not an error
        assert exactly(run.sim_now, 20.0)

    def test_failed_collect_parks_the_error_and_aborts(self):
        run = HostedRun("boom", SPEC)

        def explode():
            raise RuntimeError("collect failed")

        run.builder.collect = explode  # type: ignore[method-assign]
        run.advance_to(run.end_s)
        assert run.result_payload is None
        assert run.error == "RuntimeError: collect failed"
        assert run.builder.phase == "aborted"
        assert run.done
        # Further advancement is refused, not retried.
        run.advance_to(run.end_s)
        assert run.error == "RuntimeError: collect failed"

    def test_abort_marks_the_run(self):
        run = HostedRun("stop", SPEC)
        run.advance_to(10.0)
        run.abort()
        assert run.done
        assert run.error == "aborted by operator"
        assert run.builder.phase == "aborted"

    def test_status_carries_budget_and_name(self):
        run = HostedRun("st", SPEC)
        run.advance_to(15.0)
        status = run.status()
        assert status["name"] == "st"
        assert status["paused"] is False
        assert status["error"] is None
        assert status["result_ready"] is False
        assert exactly(status["now_s"], 15.0)
        assert status["budget_watts"] > 0.0
        assert status["draw_watts"] > 0.0
        json.dumps(status)


class TestLiveBudget:
    def test_budget_raise_applies_cleanly(self):
        run = HostedRun("up", SPEC)
        run.advance_to(10.0)
        change = run.apply_budget(40.0)
        assert exactly(change["requested_watts"], 40.0)
        assert exactly(change["applied_watts"], 40.0)
        assert change["clamped"] is False
        assert change["step_downs"] == 0
        assert exactly(run.builder.budget.budget_watts, 40.0)

    def test_budget_cut_steps_instances_down_and_audits(self):
        run = HostedRun("cut", SPEC)
        run.advance_to(10.0)
        before = run.builder.budget.budget_watts
        change = run.apply_budget(before / 2.0)
        assert exactly(change["applied_watts"], before / 2.0)
        assert change["step_downs"] > 0
        assert run.builder.budget.draw() <= before / 2.0
        entries = run.audit_entries(kind="budget-change")
        assert len(entries) == 1
        assert exactly(entries[0]["applied_watts"], before / 2.0)
        assert entries[0]["source"] == "ctl"

    def test_infeasible_request_clamps_to_the_floor(self):
        run = HostedRun("floor", SPEC)
        run.advance_to(10.0)
        floor = feasible_floor_watts(
            run.builder.budget, run.builder.application
        )
        change = run.apply_budget(1.0)
        assert change["clamped"] is True
        assert change["applied_watts"] == floor
        assert change["applied_watts"] > 1.0
        run.drain_now()
        assert run.error is None  # the clamped run still completes

    def test_budget_change_marks_the_stream(self):
        run = HostedRun("mark", SPEC)
        run.advance_to(10.0)
        run.apply_budget(40.0)
        _, lines = run.stream_lines(0)
        marks = [
            json.loads(line)
            for line in lines
            if '"mark"' in line and "budget-change" in line
        ]
        assert len(marks) == 1

    def test_budget_on_finished_run_raises(self):
        run = HostedRun("late", SPEC)
        run.drain_now()
        with pytest.raises(ServeError, match="already finished"):
            run.apply_budget(10.0)

    def test_budget_on_sharded_run_raises(self):
        spec = ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.5), 30.0, seed=3, shards=2
        )
        run = HostedRun("sharded", spec)
        with pytest.raises(ServeError, match="no adjustable budget"):
            run.apply_budget(10.0)


class TestLiveSlo:
    def test_retarget_without_slo_pillar_raises(self):
        run = HostedRun("noslo", SPEC)
        with pytest.raises(ServeError, match="no SLO tracker"):
            run.retarget_slo(1.0)

    def test_retarget_updates_tracker_and_audits(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            60.0,
            seed=3,
            observe=("slo",),
            slo_target_s=3.0,
        )
        run = HostedRun("slo", spec)
        run.advance_to(10.0)
        retarget = run.retarget_slo(1.5)
        assert exactly(retarget["previous_target_s"], 3.0)
        assert exactly(retarget["target_s"], 1.5)
        assert exactly(run.builder.observability.slo.target_s, 1.5)
        entries = run.audit_entries(kind="slo-retarget")
        assert len(entries) == 1
        _, lines = run.stream_lines(0)
        assert any("slo-retarget" in line for line in lines)


class TestStreaming:
    def test_cursor_semantics(self):
        run = HostedRun("stream", SPEC)
        run.advance_to(20.0)
        cursor, lines = run.stream_lines(0)
        assert cursor == len(lines)
        assert lines  # periodic snapshots were emitted
        again, empty = run.stream_lines(cursor)
        assert again == cursor
        assert empty == []
        run.advance_to(40.0)
        newer, fresh = run.stream_lines(cursor)
        assert newer > cursor
        assert fresh
        for line in fresh:
            json.loads(line)

    def test_audit_tail_and_kind_filters(self):
        run = HostedRun("audit", SPEC)
        run.advance_to(10.0)
        run.apply_budget(40.0)
        run.apply_budget(41.0)
        everything = run.audit_entries()
        changes = run.audit_entries(kind="budget-change")
        assert len(changes) == 2
        assert len(everything) >= len(changes)
        assert run.audit_entries(kind="budget-change", tail=1) == changes[-1:]
        assert run.audit_entries(kind="no-such-kind") == []
