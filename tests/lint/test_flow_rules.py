"""Golden bad examples for the flow-aware rule families (PR 8).

Same contract as ``test_golden_rules.py``: each corpus seeds at least
three violations per family and the assertions pin rule id AND line, so
an analysis that drifts to a different anchor fails here first.  The
interprocedural cases (helper chains across modules) are the ones the
per-node PR-3 rules could never see.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def fired(report) -> list[tuple[str, int]]:
    return [(finding.rule, finding.line) for finding in report.findings]


class TestUnitFlow:
    def test_units_propagate_through_assignments(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/flow.py": """\
                def headroom_vs_deadline(budget_watts, draw_watts, deadline_s):
                    headroom = budget_watts - draw_watts
                    if headroom < deadline_s:
                        return True
                    return False


                def assign_mix(elapsed_s):
                    total_watts = elapsed_s
                    return total_watts


                def bad_return(budget_watts) -> "Watts":
                    elapsed_s = 3.0
                    return elapsed_s


                def energy(power_watts, window_s):
                    joules = power_watts * window_s
                    total_j = joules + window_s
                    return total_j
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-flow"])
        assert fired(report) == [
            ("unit-flow", 3),
            ("unit-flow", 9),
            ("unit-flow", 15),
            ("unit-flow", 20),
        ]
        assert "left operand is W, right operand is s" in (
            report.findings[0].message
        )
        assert "declared to return W" in report.findings[2].message

    def test_consistent_units_are_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/ok.py": """\
                def energy_joules(power_watts, window_s):
                    joules = power_watts * window_s
                    return joules


                def back_to_watts(total_joules, window_s):
                    mean_watts = total_joules / window_s
                    return mean_watts
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-flow"])
        assert report.clean


class TestResourcePairing:
    def test_leaks_fire_at_the_acquire_site(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/pair.py": """\
                def early_return_leak(self, budget, cost_watts, fail):
                    budget.reserve(cost_watts)
                    if fail:
                        return None
                    do_work()
                    budget.release(cost_watts)
                    return True


                def local_never_released(machine, cost_watts):
                    budget = PowerBudget(machine, 100.0)
                    budget.reserve(cost_watts)
                    value = budget.available()
                    return value


                def arm_no_collect(builder, fail):
                    builder.arm()
                    if fail:
                        return None
                    return builder.collect()
                """
            },
        )
        report = lint_paths([tmp_path], select=["resource-pairing"])
        assert fired(report) == [
            ("resource-pairing", 2),
            ("resource-pairing", 12),
            ("resource-pairing", 18),
        ]
        assert "still held on others" in report.findings[0].message
        assert "never release()d" in report.findings[1].message

    def test_balanced_and_finalized_protocols_are_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/ok.py": """\
                def balanced(budget, cost_watts):
                    budget.reserve(cost_watts)
                    try:
                        do_work()
                    finally:
                        budget.release(cost_watts)


                def finalizer_counts(sim, exporter):
                    exporter.attach(sim)
                    exporter.close()


                def cross_method_half(self, cost_watts):
                    self.budget.reserve(cost_watts)
                    self.pending.append(cost_watts)
                """
            },
        )
        report = lint_paths([tmp_path], select=["resource-pairing"])
        assert report.clean


class TestUnorderedIteration:
    def test_set_loops_reaching_side_effects(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/det.py": """\
                import heapq


                def schedule_victims(sim, victims: set, delay_s):
                    for victim in victims:
                        sim.schedule(delay_s, victim.crash)


                def heap_from_set(pending):
                    ids = {1, 2, 3}
                    heap = []
                    for item in ids:
                        heapq.heappush(heap, item)
                    return heap


                def via_helper(sim, names):
                    targets = set(names)
                    for name in targets:
                        _enqueue(sim, name)


                def _enqueue(sim, name):
                    sim.schedule(1.0, name)
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert fired(report) == [
            ("unordered-iteration", 5),
            ("unordered-iteration", 12),
            ("unordered-iteration", 19),
        ]
        # The interprocedural finding names the helper chain's terminus.
        assert "_enqueue() which reaches schedule()" in (
            report.findings[2].message
        )

    def test_sorted_iteration_and_pure_bodies_are_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/ok.py": """\
                def sorted_is_fine(sim, victims: set, delay_s):
                    for victim in sorted(victims):
                        sim.schedule(delay_s, victim.crash)


                def pure_body(victims: set):
                    total = 0.0
                    for victim in victims:
                        total += victim.cost
                    return total
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert report.clean


class TestRngEscape:
    def test_helper_chains_to_the_global_stream(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "util/jitter.py": """\
                import random


                def jitter(base_s):
                    return base_s * random.random()


                def indirect(base_s):
                    return jitter(base_s)


                def fresh_generator():
                    return random.Random()
                """,
                "faults/use.py": """\
                from repro.util.jitter import jitter, indirect, fresh_generator


                def delay(base_s):
                    return jitter(base_s)


                def delay2(base_s):
                    return indirect(base_s)


                def make_rng():
                    return fresh_generator()
                """,
            },
        )
        report = lint_paths([tmp_path], select=["rng-escape"])
        assert fired(report) == [
            ("rng-escape", 5),
            ("rng-escape", 9),
            ("rng-escape", 13),
        ]
        assert "reaches random.random()" in report.findings[0].message
        # Two hops: use.py -> indirect() -> jitter() -> random.random().
        assert "reaches random.random()" in report.findings[1].message

    def test_seeded_helpers_are_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "util/streams.py": """\
                import random


                def stream_for(seed):
                    return random.Random(seed)
                """,
                "faults/use.py": """\
                from repro.util.streams import stream_for


                def delay(base_s, seed):
                    return stream_for(seed).random() * base_s
                """,
            },
        )
        report = lint_paths([tmp_path], select=["rng-escape"])
        assert report.clean


class TestObserverPurity:
    def test_hooks_must_not_steer(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "obs/hooky.py": """\
                class EnergyProbe:
                    def attach(self, telemetry):
                        telemetry.add_sample_listener(self._on_sample)

                    def _on_sample(self, sample):
                        self.sim.schedule(1.0, self.flush)
                        sample.watts = 0.0
                        self._rebalance()

                    def _rebalance(self):
                        self.stage.set_frequency(2.4)
                """
            },
        )
        report = lint_paths([tmp_path], select=["observer-purity"])
        assert fired(report) == [
            ("observer-purity", 6),
            ("observer-purity", 7),
            ("observer-purity", 8),
        ]
        assert "calls the mutator schedule()" in report.findings[0].message
        assert "writes sample.watts" in report.findings[1].message
        assert "reaches the mutator set_frequency()" in (
            report.findings[2].message
        )

    def test_pure_recording_hooks_are_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "obs/pure.py": """\
                class Recorder:
                    def _on_sample(self, sample):
                        self.samples.append(sample.watts)
                        self._count += 1

                    def set_frequency(self, hz):
                        # not a hook: mutators are fine outside hooks
                        self.freq = hz
                """
            },
        )
        report = lint_paths([tmp_path], select=["observer-purity"])
        assert report.clean

    def test_out_of_scope_modules_are_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/hooky.py": """\
                class Controller:
                    def _on_sample(self, sample):
                        self.sim.schedule(1.0, self.react)
                """
            },
        )
        report = lint_paths([tmp_path], select=["observer-purity"])
        assert report.clean
