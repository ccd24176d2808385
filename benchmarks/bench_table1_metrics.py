"""Benchmark: Table 1 — latency metrics, and why Equation 1 is needed.

Renders Table 1 and measures the cost of computing every candidate metric
over a loaded pipeline.  The accompanying assertion demonstrates the
paper's Section-4.2 argument: the plain historical metrics mis-identify
the bottleneck when a load burst piles onto a historically fast
instance, while the Equation-1 metric follows the queue.
"""

# The bursty two-stage pipeline runs on test profiles that no scenario
# spec can name, so this bench assembles its stack by hand.
# repro-lint: disable-file=scenario-bypass

from __future__ import annotations

from repro.core.bottleneck import BottleneckIdentifier
from repro.core.metrics import MetricKind, compute_metric
from repro.experiments.figures import render_table1
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.instance import Job
from repro.service.query import Query
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.sim.engine import Simulator

from benchmarks.conftest import show
from tests.conftest import make_profile, make_query


def build_bursty_scenario():
    """Historically slow B, realtime burst on A (Section 4.2's example)."""
    sim = Simulator()
    machine = Machine(sim, n_cores=8)
    app = Application("bursty", sim, machine)
    level = HASWELL_LADDER.level_of(1.8)
    stage_a = app.add_stage(make_profile("A", mean=0.2))
    stage_b = app.add_stage(make_profile("B", mean=1.0))
    instance_a = stage_a.launch_instance(level)
    instance_b = stage_b.launch_instance(level)
    command_center = CommandCenter(sim, app)
    # History: B is the slow service.
    for qid in range(50):
        app.submit(make_query(qid, A=0.2, B=1.0))
    sim.run()
    # Realtime: a burst piles up at A.
    for qid in range(100, 140):
        instance_a.enqueue(
            Job(Query(qid, {"A": 0.2}), work=0.2, on_done=lambda q: None)
        )
    return app, command_center, instance_a, instance_b


def test_table1_metrics(benchmark):
    show(render_table1())
    app, command_center, instance_a, instance_b = build_bursty_scenario()

    def compute_all():
        return {
            kind: (
                compute_metric(command_center, instance_a, kind),
                compute_metric(command_center, instance_b, kind),
            )
            for kind in MetricKind
        }

    values = benchmark(compute_all)

    # Every historical (Table-1) metric still points at B...
    for kind in (
        MetricKind.AVG_SERVING,
        MetricKind.AVG_PROCESSING,
        MetricKind.P99_SERVING,
        MetricKind.P99_PROCESSING,
    ):
        metric_a, metric_b = values[kind]
        assert metric_b > metric_a, f"{kind} should still favour B"

    # ... but the Equation-1 metric identifies the burst at A.
    metric_a, metric_b = values[MetricKind.POWERCHIEF]
    assert metric_a > metric_b

    identifier = BottleneckIdentifier(command_center, MetricKind.POWERCHIEF)
    assert identifier.bottleneck(app).instance is instance_a
