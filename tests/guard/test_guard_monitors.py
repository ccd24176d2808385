"""Unit tests for the invariant monitors, driven by small stubs."""

from __future__ import annotations

import math
from types import SimpleNamespace

from repro.cluster.frequency import HASWELL_LADDER
from repro.core.actions import (
    FrequencyChangeAction,
    InstanceLaunchAction,
    InstanceWithdrawAction,
    SkipAction,
)
from repro.guard import (
    BudgetCapMonitor,
    EstimateSanityMonitor,
    LadderBoundsMonitor,
    OscillationMonitor,
    SloStormMonitor,
)
from repro.units import exactly


def stub_budget(draw: float, cap: float = 13.56):
    return SimpleNamespace(draw=lambda: draw, budget_watts=cap)


def stub_instance(name: str, level: int, queue_length: int = 0):
    return SimpleNamespace(
        name=name,
        level=level,
        queue_length=queue_length,
        core=SimpleNamespace(ladder=HASWELL_LADDER),
    )


def stub_app(*instances):
    pool = list(instances)
    return SimpleNamespace(running_instances=lambda: pool)


def freq_move(time: float, name: str, from_level: int, to_level: int):
    return FrequencyChangeAction(
        time=time,
        controller="test",
        instance_name=name,
        stage_name="S",
        from_level=from_level,
        to_level=to_level,
        reason="boost",
    )


class TestBudgetCapMonitor:
    def test_quiet_at_or_under_the_cap(self):
        assert BudgetCapMonitor(stub_budget(13.0)).check(1.0) == []
        assert BudgetCapMonitor(stub_budget(13.56)).check(1.0) == []

    def test_fires_critical_above_the_cap(self):
        violations = BudgetCapMonitor(stub_budget(14.2)).check(5.0)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.monitor == "budget-cap"
        assert violation.severity == "critical"
        assert exactly(violation.time, 5.0)
        assert violation.value > violation.limit


class TestLadderBoundsMonitor:
    def test_quiet_inside_bounds(self):
        app = stub_app(
            stub_instance("a", int(HASWELL_LADDER.min_level)),
            stub_instance("b", int(HASWELL_LADDER.max_level)),
        )
        assert LadderBoundsMonitor(app).check(1.0) == []

    def test_fires_per_out_of_bounds_instance(self):
        app = stub_app(
            stub_instance("a", int(HASWELL_LADDER.max_level) + 3),
            stub_instance("b", -1),
            stub_instance("c", int(HASWELL_LADDER.min_level)),
        )
        violations = LadderBoundsMonitor(app).check(2.0)
        assert [v.monitor for v in violations] == ["ladder-bounds"] * 2
        assert all(v.severity == "critical" for v in violations)


class TestEstimateSanityMonitor:
    def _command_center(self, queuing: float, serving: float):
        return SimpleNamespace(
            avg_queuing=lambda instance: queuing,
            avg_serving=lambda instance: serving,
        )

    def test_quiet_on_sane_estimates(self):
        app = stub_app(stub_instance("a", 3, queue_length=2))
        monitor = EstimateSanityMonitor(app, self._command_center(0.4, 1.2))
        assert monitor.check(1.0) == []

    def test_nan_and_negative_estimates_fire(self):
        app = stub_app(stub_instance("a", 3, queue_length=2))
        nan_monitor = EstimateSanityMonitor(
            app, self._command_center(math.nan, 1.0)
        )
        negative_monitor = EstimateSanityMonitor(
            app, self._command_center(0.5, -0.25)
        )
        nan_violations = nan_monitor.check(1.0)
        assert len(nan_violations) == 1
        assert "NaN" in nan_violations[0].message
        negative_violations = negative_monitor.check(1.0)
        assert len(negative_violations) == 1
        assert "-0.25" in negative_violations[0].message
        assert all(
            v.monitor == "estimate-sanity" and v.severity == "critical"
            for v in nan_violations + negative_violations
        )


class TestOscillationMonitor:
    def test_steady_moves_never_fire(self):
        actions = [freq_move(t, "a", 2, 3) for t in (1.0, 2.0, 3.0, 4.0)]
        monitor = OscillationMonitor(actions, window_s=100.0, max_flips=2)
        assert monitor.check(5.0) == []

    def test_thrash_on_one_key_fires_and_rearms(self):
        actions = []
        monitor = OscillationMonitor(actions, window_s=100.0, max_flips=2)
        actions.extend([freq_move(1.0, "a", 2, 3), freq_move(2.0, "a", 3, 2)])
        assert monitor.check(3.0) == []  # one flip, below threshold
        actions.append(freq_move(4.0, "a", 2, 3))
        violations = monitor.check(5.0)
        assert len(violations) == 1
        assert violations[0].monitor == "oscillation"
        assert violations[0].severity == "warning"
        assert "instance:a" in violations[0].message
        # Re-armed: the same history does not fire again next tick.
        assert monitor.check(6.0) == []

    def test_window_prunes_old_moves(self):
        actions = [
            freq_move(1.0, "a", 2, 3),
            freq_move(2.0, "a", 3, 2),
            freq_move(50.0, "a", 2, 3),
        ]
        monitor = OscillationMonitor(actions, window_s=10.0, max_flips=2)
        # The early flip pair fell out of the window; one fresh move left.
        assert monitor.check(55.0) == []

    def test_launch_withdraw_flips_count_per_stage(self):
        actions = [
            InstanceLaunchAction(
                time=1.0,
                controller="test",
                instance_name="S-1",
                stage_name="S",
                level=3,
                stolen_jobs=0,
            ),
            InstanceWithdrawAction(
                time=2.0,
                controller="test",
                instance_name="S-1",
                stage_name="S",
                redirected_jobs=0,
            ),
            InstanceLaunchAction(
                time=3.0,
                controller="test",
                instance_name="S-2",
                stage_name="S",
                level=3,
                stolen_jobs=0,
            ),
            SkipAction(time=4.0, controller="test", reason="ignored"),
        ]
        monitor = OscillationMonitor(actions, window_s=100.0, max_flips=2)
        violations = monitor.check(5.0)
        assert len(violations) == 1
        assert "stage:S" in violations[0].message


class TestSloStormMonitor:
    def _tracker(self, burn_box):
        return SimpleNamespace(burn_rate=lambda now: burn_box["burn"])

    def test_unarmed_monitor_is_a_no_op(self):
        assert SloStormMonitor(2.0, 2).check(1.0) == []

    def test_fires_after_streak_and_keeps_firing(self):
        burn_box = {"burn": 5.0}
        monitor = SloStormMonitor(
            2.0, storm_ticks=3, tracker=self._tracker(burn_box)
        )
        assert monitor.check(1.0) == []
        assert monitor.check(2.0) == []
        assert len(monitor.check(3.0)) == 1  # streak reaches storm_ticks
        assert len(monitor.check(4.0)) == 1  # sustained storm keeps firing

    def test_streak_resets_when_burn_subsides(self):
        burn_box = {"burn": 5.0}
        monitor = SloStormMonitor(
            2.0, storm_ticks=2, tracker=self._tracker(burn_box)
        )
        assert monitor.check(1.0) == []
        burn_box["burn"] = 1.0
        assert monitor.check(2.0) == []  # streak broken
        burn_box["burn"] = 5.0
        assert monitor.check(3.0) == []  # must rebuild the streak
        violations = monitor.check(4.0)
        assert len(violations) == 1
        assert violations[0].monitor == "slo-storm"
        assert violations[0].severity == "warning"
