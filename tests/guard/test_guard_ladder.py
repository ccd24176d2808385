"""The fallback rungs: conserve (shed-only) and safe mode (uniform power)."""

from __future__ import annotations

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.core.actions import FrequencyChangeAction, SkipAction
from repro.guard import ConserveController, SafeModeController
from repro.guard.ladder import step_down_hottest
from repro.service.command_center import CommandCenter
from repro.units import EPSILON_WATTS


LEVEL_1_8 = int(HASWELL_LADDER.level_of(1.8))


def build(cls, sim, app, machine, budget_watts, **kwargs):
    budget = PowerBudget(machine, budget_watts)
    controller = cls(
        sim,
        app,
        CommandCenter(sim, app),
        budget,
        DvfsActuator(sim),
        **kwargs,
    )
    return controller, budget


class TestConserveController:
    def test_sheds_hottest_until_under_headroom(self, sim, two_stage_app, machine):
        draw = float(machine.total_power())
        controller, budget = build(
            ConserveController,
            sim,
            two_stage_app,
            machine,
            draw,  # exactly at the cap: 0.9 headroom forces shedding
            headroom=0.9,
        )
        controller.adjust(0.0)
        assert budget.draw() <= budget.budget_watts * 0.9 + EPSILON_WATTS
        moves = [
            a for a in controller.actions if isinstance(a, FrequencyChangeAction)
        ]
        assert moves and all(a.to_level < a.from_level for a in moves)
        assert all(a.reason == "conserve" for a in moves)

    def test_never_boosts_and_skips_when_within(self, sim, two_stage_app, machine):
        controller, _ = build(
            ConserveController, sim, two_stage_app, machine, 100.0, headroom=0.9
        )
        levels_before = [i.level for i in two_stage_app.all_instances()]
        controller.adjust(0.0)
        assert [i.level for i in two_stage_app.all_instances()] == levels_before
        assert isinstance(controller.actions[-1], SkipAction)


class TestStepDownHottest:
    def test_one_step_goes_to_the_hottest_ties_broken_by_name(
        self, sim, two_stage_app, machine
    ):
        controller, budget = build(
            ConserveController, sim, two_stage_app, machine, 100.0
        )
        running = two_stage_app.running_instances()
        assert len({i.level for i in running}) == 1  # a tie on level
        limit = float(budget.draw()) - 2 * EPSILON_WATTS
        assert step_down_hottest(controller, budget, two_stage_app, limit, "t") == 1
        (move,) = controller.actions
        assert isinstance(move, FrequencyChangeAction)
        assert move.instance_name == max(i.name for i in running)
        assert (move.from_level, move.to_level, move.reason) == (
            LEVEL_1_8,
            LEVEL_1_8 - 1,
            "t",
        )

    def test_sheds_hottest_first_and_stops_at_the_floor(
        self, sim, two_stage_app, machine
    ):
        controller, budget = build(
            ConserveController, sim, two_stage_app, machine, 100.0
        )
        running = two_stage_app.running_instances()
        floor = HASWELL_LADDER.min_level
        rungs = sum(i.level - floor for i in running)
        assert step_down_hottest(controller, budget, two_stage_app, 0.0, "t") == rungs
        assert all(i.level == floor for i in running)
        from_levels = [move.from_level for move in controller.actions]
        assert from_levels == sorted(from_levels, reverse=True)


class TestSafeModeController:
    def test_pins_every_instance_to_the_uniform_level(
        self, sim, two_stage_app, machine
    ):
        controller, budget = build(
            SafeModeController, sim, two_stage_app, machine, 13.56
        )
        expected = controller.uniform_level()
        assert expected is not None
        controller.adjust(0.0)
        levels = {i.level for i in two_stage_app.running_instances()}
        assert levels == {expected}
        assert budget.draw() <= budget.budget_watts + EPSILON_WATTS
        # A second tick with nothing to change is an explicit skip.
        controller.adjust(1.0)
        assert isinstance(controller.actions[-1], SkipAction)

    def test_reservations_shrink_the_uniform_level(
        self, sim, two_stage_app, machine
    ):
        controller, budget = build(
            SafeModeController, sim, two_stage_app, machine, 13.56
        )
        unreserved = controller.uniform_level()
        budget.reserve(budget.budget_watts * 0.75)
        reserved = controller.uniform_level()
        assert reserved is not None and unreserved is not None
        assert reserved < unreserved

    def test_exhausted_budget_falls_back_to_the_floor(
        self, sim, two_stage_app, machine
    ):
        controller, budget = build(
            SafeModeController, sim, two_stage_app, machine, 13.56
        )
        budget.reserve(13.5)
        assert controller.uniform_level() == int(HASWELL_LADDER.min_level)

    def test_empty_pool_skips(self, sim, machine):
        from repro.service.application import Application

        app = Application("empty", sim, machine)
        controller, _ = build(SafeModeController, sim, app, machine, 13.56)
        assert controller.uniform_level() is None
        controller.adjust(0.0)
        assert isinstance(controller.actions[-1], SkipAction)
