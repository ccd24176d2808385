"""Figure 11: runtime behaviour of Sirius under fluctuating high load.

The paper's deep-dive trace: the number of instances per stage and each
instance's frequency over a ~900 s run, for frequency boosting, instance
boosting and PowerChief.  The characteristic behaviours to look for:

* frequency boosting (a): power bounces between the QA and ASR instances
  as the bottleneck moves; during the 175-275 s low-load valley the QA
  instance is boosted toward the ladder top;
* instance boosting (b): clones accumulate until every core sits at the
  ladder floor and no further clone can be funded — the lock-in;
* PowerChief (c): clones absorb the load ramp, then instance withdraw
  recycles an idle clone's power to frequency-boost the remaining
  bottleneck, escaping the lock-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import ExperimentError
from repro.core.actions import InstanceLaunchAction, InstanceWithdrawAction
from repro.experiments.figures.common import Figure
from repro.experiments.report import format_heading, format_table
from repro.scenario.results import RunResult
from repro.scenario.sampling import StateSample
from repro.scenario.spec import ScenarioSpec
from repro.workloads.sirius import SIRIUS_STAGES, sirius_load_levels
from repro.workloads.traces import FIG11_DURATION_S, fig11_trace

__all__ = ["Fig11Result", "figure", "render_fig11"]

POLICIES = ("freq-boost", "inst-boost", "powerchief")


@dataclass(frozen=True)
class Fig11Result:
    runs: tuple[RunResult, ...]

    def run_for(self, policy: str) -> RunResult:
        for run in self.runs:
            if run.policy == policy:
                return run
        raise ExperimentError(f"no run for policy {policy!r}")

    def launches(self, policy: str) -> int:
        return sum(
            1
            for action in self.run_for(policy).actions
            if isinstance(action, InstanceLaunchAction)
        )

    def withdrawals(self, policy: str) -> int:
        return sum(
            1
            for action in self.run_for(policy).actions
            if isinstance(action, InstanceWithdrawAction)
        )


def figure(
    duration_s: float = FIG11_DURATION_S,
    seed: int = 3,
    sample_interval_s: float = 25.0,
) -> Figure:
    """The three boosting policies under the Figure-11 load trace."""
    trace = fig11_trace(sirius_load_levels().high_qps)
    return Figure(
        cells=tuple(
            ScenarioSpec.latency(
                "sirius",
                policy,
                trace,
                duration_s,
                seed=seed,
                sample_interval_s=sample_interval_s,
            )
            for policy in POLICIES
        ),
        reduce=lambda results: Fig11Result(runs=tuple(results)),
        render=render_fig11,
    )


def _format_sample(sample: StateSample) -> tuple[str, ...]:
    cells = [f"{sample.time:.0f}"]
    for stage_name in SIRIUS_STAGES:
        snapshot = sample.stage(stage_name)
        freqs = "/".join(f"{ghz:.1f}" for _, ghz in snapshot.frequencies)
        cells.append(f"{snapshot.instance_count}x [{freqs}]")
    cells.append(f"{sample.total_power_watts:.2f}")
    return tuple(cells)


def render_fig11(result: Fig11Result, every_nth_sample: int = 5) -> str:
    """ASCII rendering: one timeline panel per policy."""
    sections = [
        format_heading(
            "Figure 11: Sirius runtime behaviour under fluctuating load"
        )
    ]
    headers = ["t(s)"] + [f"{name} (count [GHz])" for name in SIRIUS_STAGES] + [
        "power(W)"
    ]
    for policy in POLICIES:
        run = result.run_for(policy)
        rows = [
            _format_sample(sample)
            for index, sample in enumerate(run.state_samples)
            if index % every_nth_sample == 0
        ]
        sections.append(
            f"({policy}: {result.launches(policy)} launches, "
            f"{result.withdrawals(policy)} withdrawals, "
            f"mean latency {run.latency.mean:.2f}s)"
        )
        sections.append(format_table(headers, rows))
    return "\n".join(sections)
