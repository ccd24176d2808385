"""Figure 13: power saving under a latency QoS — Sirius.

Section 8.4's first panel pair: the Table-3 over-provisioned Sirius
deployment (4 ASR + 2 IMM + 5 QA at 2.4 GHz, QoS 2 s), run under no
control (baseline), Pegasus, and PowerChief's conservation policy.  The
figure plots the end-to-end latency as a fraction of the QoS target and
the draw as a fraction of peak power over the timeline; the paper's
summary is "PowerChief saves 25% ... power over the baseline ..., whereas
Pegasus saves 2%" while both meet the QoS.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import ExperimentError
from repro.scenario.config import TABLE3_SIRIUS, Table3Setup
from repro.experiments.figures.common import Figure
from repro.experiments.report import format_heading, format_table
from repro.scenario.results import QosRunResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "QosFigureResult",
    "figure",
    "qos_figure",
    "render_qos_figure",
    "render_fig13",
]

POLICIES = ("baseline", "pegasus", "powerchief")

#: Arrival rate for the Sirius QoS runs: ~63% of the Table-3 deployment's
#: QA-stage saturation, leaving the latency slack Figure 13 trades away.
SIRIUS_QOS_RATE_QPS = 7.0


@dataclass(frozen=True)
class QosFigureResult:
    """Shared result shape for Figures 13 and 14."""

    figure: str
    setup: Table3Setup
    runs: tuple[QosRunResult, ...]

    def run_for(self, policy: str) -> QosRunResult:
        for run in self.runs:
            if run.policy == policy:
                return run
        raise ExperimentError(f"no run for policy {policy!r}")

    def saving_over_baseline(self, policy: str) -> float:
        """Power saving of a policy relative to the uncontrolled baseline."""
        baseline = self.run_for("baseline").average_power_fraction
        return (baseline - self.run_for(policy).average_power_fraction) / baseline


def qos_figure(
    name: str, setup: Table3Setup, rate_qps: float, duration_s: float, seed: int
) -> Figure:
    """The three QoS policies on one Table-3 deployment (Figures 13/14)."""
    return Figure(
        cells=tuple(
            ScenarioSpec.qos(setup.app, policy, rate_qps, duration_s, seed=seed)
            for policy in POLICIES
        ),
        reduce=lambda results: QosFigureResult(
            figure=name, setup=setup, runs=tuple(results)
        ),
        render=render_qos_figure,
    )


def figure(
    duration_s: float = 800.0,
    seed: int = 3,
    rate_qps: float = SIRIUS_QOS_RATE_QPS,
) -> Figure:
    """The three QoS policies on the Table-3 Sirius deployment."""
    return qos_figure("Figure 13", TABLE3_SIRIUS, rate_qps, duration_s, seed)


def render_qos_figure(result: QosFigureResult, every_nth_sample: int = 8) -> str:
    """ASCII rendering shared by Figures 13 and 14."""
    sections = [
        format_heading(
            f"{result.figure}: power saving for {result.setup.app} under a "
            f"{result.setup.qos_target_s:g}s QoS"
        )
    ]
    rows = []
    for policy in POLICIES:
        run = result.run_for(policy)
        rows.append(
            (
                policy,
                f"{run.latency.mean / run.qos_target_s:.2f}",
                f"{run.average_power_fraction:.3f}",
                f"{result.saving_over_baseline(policy) * 100.0:.1f}%",
                f"{run.violation_fraction * 100.0:.1f}%",
            )
        )
    sections.append(
        format_table(
            [
                "policy",
                "latency/QoS",
                "power/peak",
                "saving vs baseline",
                "QoS violations",
            ],
            rows,
        )
    )
    sections.append("(sparklines over the timeline, scale 0..1.2)")
    from repro.util.sparkline import sparkline

    for policy in POLICIES:
        samples = result.run_for(policy).qos_samples
        latency_series = [sample.latency_fraction for sample in samples]
        power_series = [sample.power_fraction for sample in samples]
        sections.append(
            f"{policy:<11} latency {sparkline(latency_series, 0.0, 1.2)}"
        )
        sections.append(
            f"{policy:<11} power   {sparkline(power_series, 0.0, 1.2)}"
        )
    sections.append("(timeline: latency fraction | power fraction per policy)")
    headers = ["t(s)"] + [f"{policy} lat|pwr" for policy in POLICIES]
    timeline_rows = []
    reference = result.run_for("baseline").qos_samples
    for index in range(0, len(reference), every_nth_sample):
        row = [f"{reference[index].time:.0f}"]
        for policy in POLICIES:
            samples = result.run_for(policy).qos_samples
            if index >= len(samples):
                row.append("-")
                continue
            sample = samples[index]
            latency = (
                "-"
                if sample.latency_fraction is None
                else f"{sample.latency_fraction:.2f}"
            )
            row.append(f"{latency}|{sample.power_fraction:.2f}")
        timeline_rows.append(tuple(row))
    sections.append(format_table(headers, timeline_rows))
    return "\n".join(sections)


def render_fig13(result: QosFigureResult) -> str:
    return render_qos_figure(result)
