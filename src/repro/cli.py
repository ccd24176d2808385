"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``figures`` — regenerate a paper figure/table (or ``all``) and print
  its ASCII rendering.
* ``latency`` — one latency-mitigation run (Table-2 scenario) with a
  chosen application, policy and load level.
* ``qos`` — one power-conservation run (Table-3 scenario) with a chosen
  deployment and policy.
* ``campaign`` — the whole evaluation; ``--workers N`` fans the
  artefacts across processes and ``--cache-dir`` memoizes finished cells
  so re-runs only recompute what changed.
* ``headline`` — the abstract's four claims, measured through the
  parallel cell engine (same ``--workers`` / ``--cache-dir`` knobs).
* ``trace`` — one fully observed run: writes the query trace (JSONL +
  Chrome trace-event JSON for Perfetto), a Prometheus-style metrics
  dump, the controller decision audit log and the accounting-plane
  artifacts (latency attribution, SLO burn, energy split; with
  ``--stream`` also live JSONL snapshots) to a directory.
* ``explain`` — read a trace directory's artifacts back and print the
  postmortem: why was the latency high, where did the power go.
* ``chaos`` — one latency run under a fault plan (built-in name or a
  plan JSON file), with the resilience stack armed; prints the goodput
  report and the P99/QPS/power deltas against the fault-free baseline.
  ``--fail-on-goodput-delta PCT`` turns the goodput drop into a gate
  (exit 1 when the faulty run completes more than PCT percent fewer of
  its admitted queries than the baseline).
* ``guard`` — a supervised chaos run: the controller is wrapped in the
  :mod:`repro.guard` supervision stack (invariant monitors, degradation
  ladder, safe mode) with an SLO tracker armed, and the goodput report
  grows the guard section (violations, ladder transitions, time in each
  mode).  ``--json`` archives the report with the guard summary for CI
  assertions.
* ``run`` — execute one scenario spec file (``--scenario spec.json``)
  through the staged stack builder: latency, QoS, sharded and
  chaos-armed runs all drive off the same declarative JSON, with an
  optional content-addressed cache keyed on the scenario digest.
* ``scenario`` — spec tooling: ``validate`` checks spec files and prints
  their digests; ``dump`` prints a spec's canonical JSON form.
* ``lint`` — the domain-aware static-analysis pass (:mod:`repro.lint`)
  over source trees; exits 0 when clean, 1 on findings, 2 on a crash in
  the tool itself.
* ``bench`` — the microbenchmark harness (:mod:`repro.bench`): times the
  pinned cells, emits the canonical ``BENCH_v10.json`` artifact, embeds
  the committed pre-PR baseline's speedup trajectory plus the prior
  artifact's cells as a cross-PR trajectory, and with ``--check`` gates
  against a committed baseline (exit 1 on a >15% wall-clock regression).
* ``serve`` — the ``reprod`` control-plane daemon: hosts armed stacks,
  paces them against the wall clock (``--rate`` sim-seconds per real
  second, or ``--turbo``), takes live commands over a line-delimited
  JSON control socket and streams metrics snapshots to watchers.
* ``ctl`` — the client for a running daemon: submit specs, check
  status, move the power budget or SLO target live (guarded and
  audited), pause/resume/drain/stop runs, fetch results, watch streams.

Both single-run commands can archive their full result with ``--json``.
The global ``--log-level`` flag configures one shared structured-logging
setup (module, simulated time, wall time) for every subcommand.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.experiments.campaign import default_registry
from repro.obs import Observability, setup_logging
from repro.experiments.export import (
    qos_result_to_dict,
    run_result_to_dict,
    write_json,
)
from repro.experiments.runner import run_latency_experiment, run_qos_experiment
from repro.scenario.config import TABLE3_SIRIUS, TABLE3_WEBSEARCH
from repro.scenario.spec import LATENCY_POLICIES, QOS_POLICIES
from repro.workloads.levels import LoadLevel
from repro.workloads.loadgen import ConstantLoad
from repro.workloads.nlp import nlp_load_levels
from repro.workloads.sirius import sirius_load_levels

__all__ = ["main", "build_parser"]


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type: a float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _named_plan_names() -> tuple[str, ...]:
    from repro.faults.plan import named_plans

    return named_plans()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PowerChief (ISCA 2017) reproduction harness",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default="warning",
        help="shared structured-logging level for every subcommand "
        "(default: warning)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figures = commands.add_parser(
        "figures", help="regenerate a paper figure/table and print it"
    )
    figures.add_argument(
        "which",
        choices=sorted(default_registry()) + ["all"],
        help="figure/table id, or 'all'",
    )

    latency = commands.add_parser(
        "latency", help="one Table-2 latency-mitigation run"
    )
    latency.add_argument("app", choices=("sirius", "nlp"))
    latency.add_argument("policy", choices=LATENCY_POLICIES)
    latency.add_argument(
        "--load",
        choices=tuple(level.value for level in LoadLevel),
        default="high",
        help="load level relative to baseline saturation (default: high)",
    )
    latency.add_argument("--rate", type=float, help="explicit arrival rate (qps)")
    latency.add_argument("--duration", type=float, default=600.0)
    latency.add_argument("--seed", type=int, default=3)
    latency.add_argument(
        "--budget-watts",
        type=_positive_float,
        help="power budget ceiling (default: the Table-2 13.56 W)",
    )
    latency.add_argument(
        "--cores",
        type=_positive_int,
        help="CMP core count (default: 16)",
    )
    latency.add_argument(
        "--drain",
        type=_nonnegative_float,
        default=0.0,
        help="extra simulated seconds past the last arrival for in-flight "
        "queries to settle (default: 0)",
    )
    latency.add_argument("--json", help="write the full result to this path")

    run = commands.add_parser(
        "run",
        help="execute one scenario spec file through the stack builder",
    )
    run.add_argument(
        "--scenario",
        required=True,
        help="path to a ScenarioSpec .json (see docs/scenarios.md)",
    )
    run.add_argument(
        "--cache-dir",
        help="content-addressed result cache keyed on the scenario digest; "
        "a warm hit skips the simulation entirely",
    )
    run.add_argument("--json", help="write the full result to this path")

    scenario = commands.add_parser(
        "scenario", help="scenario spec tooling (validate, dump)"
    )
    scenario_actions = scenario.add_subparsers(dest="action", required=True)
    validate = scenario_actions.add_parser(
        "validate", help="check spec files and print their digests"
    )
    validate.add_argument("paths", nargs="+", help="spec .json files")
    dump = scenario_actions.add_parser(
        "dump", help="print a spec's canonical JSON form"
    )
    dump.add_argument("paths", nargs="+", help="spec .json files")

    campaign = commands.add_parser(
        "campaign", help="run the whole evaluation and archive the renders"
    )
    campaign.add_argument(
        "--output", help="directory for per-figure .txt files and report.md"
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the artefact fan-out (default: 1, serial)",
    )
    campaign.add_argument(
        "--cache-dir",
        help="content-addressed result cache; re-runs only recompute "
        "changed artefacts",
    )

    headline = commands.add_parser(
        "headline",
        help="measure the paper's abstract numbers via the parallel cell engine",
    )
    headline.add_argument("--duration", type=float, default=600.0)
    headline.add_argument("--qos-duration", type=float, default=800.0)
    headline.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the cell fan-out (default: 1, serial)",
    )
    headline.add_argument(
        "--cache-dir",
        help="content-addressed result cache; re-runs only recompute "
        "changed cells",
    )

    trace = commands.add_parser(
        "trace",
        help="one fully observed run: query trace (JSONL + Perfetto), "
        "metrics dump and controller audit log",
    )
    trace.add_argument("app", choices=("sirius", "nlp"))
    trace.add_argument(
        "policy", choices=LATENCY_POLICIES, nargs="?", default="powerchief"
    )
    trace.add_argument(
        "--load",
        choices=tuple(level.value for level in LoadLevel),
        default="high",
        help="load level relative to baseline saturation (default: high)",
    )
    trace.add_argument("--rate", type=float, help="explicit arrival rate (qps)")
    trace.add_argument("--duration", type=float, default=300.0)
    trace.add_argument("--seed", type=int, default=3)
    trace.add_argument(
        "--output",
        default="trace-out",
        help="directory for trace.jsonl, trace.chrome.json, metrics.prom "
        "and audit.jsonl (default: trace-out)",
    )
    trace.add_argument(
        "--max-spans",
        type=int,
        default=200_000,
        help="trace buffer bound; earliest spans are kept (default: 200000)",
    )
    trace.add_argument(
        "--slo-target",
        type=_positive_float,
        default=2.0,
        help="latency objective for the SLO burn tracker in seconds "
        "(default: 2.0)",
    )
    trace.add_argument(
        "--slo-attainment",
        type=_positive_float,
        default=0.99,
        help="attainment goal the error budget is sized from "
        "(default: 0.99)",
    )
    trace.add_argument(
        "--stream",
        action="store_true",
        help="also write incremental stream.jsonl snapshots during the run",
    )
    trace.add_argument(
        "--stream-interval",
        type=_positive_float,
        default=5.0,
        help="simulated seconds between stream snapshots (default: 5)",
    )

    explain = commands.add_parser(
        "explain",
        help="read a trace directory back and print the postmortem "
        "(latency attribution, SLO burn, energy split)",
    )
    explain.add_argument(
        "directory",
        help="artifact directory written by 'repro trace'",
    )
    explain.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the domain-aware static-analysis pass over source trees",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all rules)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    bench = commands.add_parser(
        "bench",
        help="time the pinned microbenchmark cells and emit BENCH_v10.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="short durations for CI (same cell shapes, scaled down)",
    )
    bench.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="repetitions per cell; the fastest wins (default: 1)",
    )
    bench.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="run only the named cell (repeatable; default: all)",
    )
    bench.add_argument(
        "--output",
        default="BENCH_v10.json",
        help="artifact path (default: BENCH_v10.json)",
    )
    bench.add_argument(
        "--prior",
        default="BENCH_v9.json",
        help="prior bench artifact whose cells join the trajectory "
        "section when it exists (default: BENCH_v9.json)",
    )
    bench.add_argument(
        "--pre-pr-baseline",
        default="benchmarks/micro/baseline_pre_pr.json",
        help="committed pre-PR measurement embedded as the speedup "
        "reference when it exists and matches the run's mode "
        "(default: benchmarks/micro/baseline_pre_pr.json)",
    )
    bench.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against this committed baseline artifact and exit 1 "
        "on a regression past the threshold",
    )
    bench.add_argument(
        "--threshold",
        type=_positive_float,
        default=0.15,
        help="allowed fractional wall-clock slowdown for --check "
        "(default: 0.15)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="one latency run under a fault plan, with goodput report",
    )
    chaos.add_argument("app", choices=("sirius", "nlp"))
    chaos.add_argument(
        "policy", choices=LATENCY_POLICIES, nargs="?", default="powerchief"
    )
    chaos.add_argument(
        "--plan",
        default="all-faults",
        help="built-in plan name or a path to a plan .json "
        f"(built-ins: {', '.join(_named_plan_names())}; default: all-faults)",
    )
    chaos.add_argument(
        "--load",
        choices=tuple(level.value for level in LoadLevel),
        default="high",
        help="load level relative to baseline saturation (default: high)",
    )
    chaos.add_argument("--rate", type=float, help="explicit arrival rate (qps)")
    chaos.add_argument("--duration", type=float, default=300.0)
    chaos.add_argument("--seed", type=int, default=3)
    chaos.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the fault-free baseline run (no delta section)",
    )
    chaos.add_argument(
        "--fail-on-goodput-delta",
        type=_positive_float,
        metavar="PCT",
        help="exit 1 when the faulty run's goodput fraction falls more "
        "than PCT percent below the fault-free baseline's "
        "(requires the baseline run)",
    )
    chaos.add_argument("--json", help="write the full report to this path")

    guard = commands.add_parser(
        "guard",
        help="one supervised chaos run: monitors, degradation ladder and "
        "safe mode armed; prints the goodput report with guard section",
    )
    guard.add_argument("app", choices=("sirius", "nlp"))
    guard.add_argument(
        "policy", choices=LATENCY_POLICIES, nargs="?", default="powerchief"
    )
    guard.add_argument(
        "--plan",
        default="telemetry-dark",
        help="built-in plan name or a path to a plan .json "
        f"(built-ins: {', '.join(_named_plan_names())}; "
        "default: telemetry-dark)",
    )
    guard.add_argument(
        "--load",
        choices=tuple(level.value for level in LoadLevel),
        default="high",
        help="load level relative to baseline saturation (default: high)",
    )
    guard.add_argument("--rate", type=float, help="explicit arrival rate (qps)")
    guard.add_argument("--duration", type=float, default=600.0)
    guard.add_argument("--seed", type=int, default=3)
    guard.add_argument(
        "--slo-target",
        type=_positive_float,
        default=20.0,
        help="latency objective in seconds for the SLO tracker the "
        "storm monitor watches (default: 20)",
    )
    guard.add_argument(
        "--ladder",
        default="conserve,safe",
        help="comma-separated fallback rungs walked on demotion "
        "(default: conserve,safe)",
    )
    guard.add_argument(
        "--demote-after",
        type=_positive_int,
        default=2,
        help="violations within the window that trigger one demotion "
        "(default: 2)",
    )
    guard.add_argument(
        "--window",
        type=_positive_float,
        default=75.0,
        help="sliding violation window in seconds (default: 75)",
    )
    guard.add_argument(
        "--probation",
        type=_positive_float,
        default=150.0,
        help="violation-free seconds required before one re-promotion "
        "(default: 150)",
    )
    guard.add_argument(
        "--burn-threshold",
        type=_positive_float,
        default=2.0,
        help="SLO burn rate the storm monitor tolerates (default: 2.0)",
    )
    guard.add_argument(
        "--storm-ticks",
        type=_positive_int,
        default=3,
        help="consecutive over-threshold ticks before the storm monitor "
        "fires (default: 3)",
    )
    guard.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the fault-free baseline run (no delta section)",
    )
    guard.add_argument("--json", help="write the full report to this path")

    qos = commands.add_parser("qos", help="one Table-3 QoS-mode run")
    qos.add_argument("app", choices=("sirius", "websearch"))
    qos.add_argument("policy", choices=QOS_POLICIES)
    qos.add_argument("--rate", type=float, help="arrival rate (qps)")
    qos.add_argument("--duration", type=float, default=400.0)
    qos.add_argument("--seed", type=int, default=3)
    qos.add_argument("--json", help="write the full result to this path")

    serve = commands.add_parser(
        "serve",
        help="run the reprod control-plane daemon: host armed stacks, "
        "pace them against the wall clock, take live commands",
    )
    serve.add_argument(
        "--socket",
        default="reprod.sock",
        help="unix control socket path (default: reprod.sock)",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="additionally listen on a TCP address",
    )
    serve.add_argument(
        "--rate",
        type=_positive_float,
        default=1.0,
        help="simulated seconds advanced per real second (default: 1.0)",
    )
    serve.add_argument(
        "--turbo",
        action="store_true",
        help="ignore the wall clock: advance a fixed quantum per loop "
        "iteration, as fast as the host allows",
    )
    serve.add_argument(
        "--quantum",
        type=_positive_float,
        default=10.0,
        help="simulated seconds per --turbo chunk (default: 10)",
    )
    serve.add_argument(
        "--poll",
        type=_positive_float,
        default=0.05,
        help="socket poll interval in real seconds (default: 0.05)",
    )
    serve.add_argument(
        "--spec",
        action="append",
        dest="specs",
        metavar="FILE",
        help="scenario spec file to submit at boot (repeatable)",
    )
    serve.add_argument(
        "--paused",
        action="store_true",
        help="boot-submitted specs start paused (resume via repro ctl)",
    )

    ctl = commands.add_parser(
        "ctl",
        help="drive a running reprod daemon over its control socket",
    )
    ctl.add_argument(
        "--socket",
        default="reprod.sock",
        help="unix control socket path (default: reprod.sock)",
    )
    ctl.add_argument(
        "--tcp", metavar="HOST:PORT", help="connect over TCP instead"
    )
    ctl.add_argument(
        "--timeout",
        type=_positive_float,
        default=30.0,
        help="socket timeout in seconds (default: 30)",
    )
    ctl_actions = ctl.add_subparsers(dest="action", required=True)
    ctl_actions.add_parser("ping", help="liveness check")
    ctl_submit = ctl_actions.add_parser(
        "submit", help="submit a scenario spec file as a hosted run"
    )
    ctl_submit.add_argument("spec", help="scenario spec .json")
    ctl_submit.add_argument("--name", help="run name (default: assigned)")
    ctl_submit.add_argument(
        "--paused", action="store_true", help="submit paused"
    )
    ctl_status = ctl_actions.add_parser(
        "status", help="one run's status, or every run's"
    )
    ctl_status.add_argument("run", nargs="?", help="run name (default: all)")
    ctl_budget = ctl_actions.add_parser(
        "budget", help="move a run's power budget live (guarded + audited)"
    )
    ctl_budget.add_argument("run")
    ctl_budget.add_argument("watts", type=_positive_float)
    ctl_slo = ctl_actions.add_parser(
        "slo", help="retarget a run's SLO live (audited)"
    )
    ctl_slo.add_argument("run")
    ctl_slo.add_argument("target_s", type=_positive_float)
    for simple in ("pause", "resume", "drain", "stop", "result"):
        ctl_simple = ctl_actions.add_parser(
            simple,
            help={
                "pause": "freeze a run's simulated clock",
                "resume": "unfreeze a paused run",
                "drain": "fast-forward a run to the end of its drain "
                "window and collect",
                "stop": "abort a run, releasing its resources",
                "result": "print a finished run's result payload",
            }[simple],
        )
        ctl_simple.add_argument("run")
    ctl_audit = ctl_actions.add_parser(
        "audit", help="print a run's audit log entries"
    )
    ctl_audit.add_argument("run")
    ctl_audit.add_argument(
        "--kind", help="only entries of this kind (e.g. budget-change)"
    )
    ctl_audit.add_argument(
        "--tail", type=_positive_int, help="only the last N entries"
    )
    ctl_watch = ctl_actions.add_parser(
        "watch", help="subscribe to a run's stream and print event lines"
    )
    ctl_watch.add_argument("run")
    ctl_watch.add_argument(
        "--count",
        type=_positive_int,
        default=1,
        help="stop after this many events (default: 1)",
    )
    ctl_actions.add_parser("shutdown", help="stop the daemon")

    return parser


def _cmd_figures(args: argparse.Namespace) -> int:
    registry = default_registry()
    names = sorted(registry) if args.which == "all" else [args.which]
    for name in names:
        print(registry[name]())
        print()
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.budget_watts is not None:
        kwargs["budget_watts"] = args.budget_watts
    if args.cores is not None:
        kwargs["n_cores"] = args.cores
    result = run_latency_experiment(
        args.app,
        args.policy,
        ConstantLoad(_resolve_rate(args)),
        args.duration,
        seed=args.seed,
        drain_s=args.drain,
        **kwargs,
    )
    print(_describe_scenario_result(result))
    if args.json:
        path = write_json(args.json, run_result_to_dict(result))
        print(f"result written to {path}")
    return 0


def _load_scenario(path: str) -> "ScenarioSpec":
    from repro.scenario import ScenarioSpec

    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ReproError(f"cannot read scenario {path}: {error}") from error
    return ScenarioSpec.from_json(text)


def _describe_scenario_result(result: object) -> str:
    from repro.scenario import QosRunResult, RunResult, ShardedRunResult

    if isinstance(result, ShardedRunResult):
        per_shard = ", ".join(
            f"shard{shard.index}={shard.queries_completed}"
            for shard in result.shards
        )
        return (
            f"{result.app}/{result.policy} x{result.n_shards} "
            f"({result.splitter}): {result.queries_completed} queries "
            f"({per_shard}), pooled mean {result.latency.mean:.3f}s, "
            f"p99 {result.latency.p99:.3f}s, "
            f"avg power {result.average_power_watts:.2f} W"
        )
    if isinstance(result, QosRunResult):
        return (
            f"{result.app}/{result.policy}: latency {result.latency.mean:.3f}s "
            f"({result.latency.mean / result.qos_target_s:.2f}x QoS), "
            f"power {result.average_power_fraction:.3f} of peak, "
            f"violations {result.violation_fraction * 100:.1f}%"
        )
    assert isinstance(result, RunResult)
    return (
        f"{result.app}/{result.policy}: {result.queries_completed} queries, "
        f"mean {result.latency.mean:.3f}s, p99 {result.latency.p99:.3f}s, "
        f"avg power {result.average_power_watts:.2f} W"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import run_cells

    spec = _load_scenario(args.scenario)
    (outcome,) = run_cells([spec], cache=args.cache_dir).outcomes
    source = "cache" if outcome.source == "cache" else "computed"
    print(f"scenario {spec.label}")
    print(f"digest={outcome.digest[:16]} source={source}")
    print(_describe_scenario_result(outcome.result()))
    if args.json:
        path = write_json(args.json, outcome.payload)
        print(f"result written to {path}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.paths:
        if args.action == "validate":
            try:
                spec = _load_scenario(path)
            except ReproError as error:
                print(f"invalid {path}: {error}")
                failures += 1
                continue
            print(f"ok {path}: {spec.label} digest={spec.digest()[:16]}")
        else:
            spec = _load_scenario(path)
            print(spec.to_json(indent=2))
    return 1 if failures else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import run_campaign

    result = run_campaign(
        output_dir=args.output,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    for name in result.artefacts:
        print(result.render(name))
        print()
    print(result.timing_report())
    if result.output_dir is not None:
        print(f"campaign archived to {result.output_dir}")
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from repro.experiments.headline import format_headline, run_headline

    headline = run_headline(
        duration_s=args.duration,
        qos_duration_s=args.qos_duration,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(format_headline(headline))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs import (
        AttributionCollector,
        EnergyAttributor,
        SloTracker,
        StreamExporter,
    )
    from repro.obs.audit import BoostEntry, BottleneckEntry, WithdrawEntry

    logger = logging.getLogger("repro.cli")
    rate = _resolve_rate(args)
    target = Path(args.output)
    target.mkdir(parents=True, exist_ok=True)
    observability = Observability.enabled(max_spans=args.max_spans)
    observability.attribution = AttributionCollector(
        registry=observability.metrics
    )
    observability.slo = SloTracker(
        target_s=args.slo_target,
        attainment_goal=args.slo_attainment,
        registry=observability.metrics,
    )
    observability.energy = EnergyAttributor(registry=observability.metrics)
    if args.stream:
        observability.stream = StreamExporter(
            path=target / "stream.jsonl", interval_s=args.stream_interval
        )
    logger.info(
        "tracing %s/%s at %.2f qps for %.0fs", args.app, args.policy,
        rate, args.duration,
    )
    result = run_latency_experiment(
        args.app,
        args.policy,
        ConstantLoad(rate),
        args.duration,
        seed=args.seed,
        observability=observability,
    )
    tracer, metrics, audit = (
        observability.tracer,
        observability.metrics,
        observability.audit,
    )
    assert tracer is not None and metrics is not None and audit is not None
    attribution, slo, energy = (
        observability.attribution,
        observability.slo,
        observability.energy,
    )
    assert attribution is not None and slo is not None and energy is not None
    tracer.write_jsonl(target / "trace.jsonl")
    tracer.write_chrome_trace(target / "trace.chrome.json")
    (target / "metrics.prom").write_text(metrics.render_prometheus())
    audit.write_jsonl(target / "audit.jsonl")
    (target / "attribution.json").write_text(
        json_module.dumps(
            {
                "report": attribution.report().to_dict(),
                "dropped": attribution.dropped,
                "queries": [qa.to_dict() for qa in attribution.attributions],
            },
            sort_keys=True,
        )
    )
    (target / "slo.json").write_text(
        json_module.dumps(slo.to_dict(), sort_keys=True)
    )
    (target / "energy.json").write_text(
        json_module.dumps(
            energy.to_dict(result.queries_completed), sort_keys=True
        )
    )
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(_describe_scenario_result(result))
    print(
        f"trace: {len(tracer)} spans{dropped}; audit: "
        f"{len(audit.of_kind(BottleneckEntry))} bottleneck / "
        f"{len(audit.of_kind(BoostEntry))} boost / "
        f"{len(audit.of_kind(WithdrawEntry))} withdraw entries; "
        f"metrics: {len(metrics)} instruments"
    )
    print(
        f"accounting: {attribution.report().count} queries attributed, "
        f"SLO attainment {slo.attainment() * 100.0:.1f}% at "
        f"{slo.target_s}s, {energy.total_joules():.1f} J split over "
        f"{len(energy.stage_names)} stages"
    )
    streamed = ", stream.jsonl" if args.stream else ""
    print(
        f"artifacts in {target}/: trace.jsonl, trace.chrome.json "
        f"(open at ui.perfetto.dev), metrics.prom, audit.jsonl, "
        f"attribution.json, slo.json, energy.json{streamed}"
    )
    print(f"read it back with: repro explain {target}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs import build_explain_report, render_explain

    report = build_explain_report(args.directory)
    if args.format == "json":
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_explain(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit codes: 0 clean, 1 findings, 2 the linter itself crashed."""
    import json as json_module

    from repro.lint import default_registry, lint_paths, report_to_sarif

    try:
        registry = default_registry()
        if args.list_rules:
            for rule, description, scope in registry.describe():
                scoped = f" [{', '.join(scope)}]" if scope else ""
                print(f"{rule}{scoped}: {description}")
            return 0
        report = lint_paths(
            args.paths,
            registry=registry,
            select=args.select,  # None = all; "" must error, not pass
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # a crash must never read as "clean"
        print(f"repro-lint internal error: {error!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(
            json_module.dumps(
                report_to_sarif(report, registry), indent=2, sort_keys=True
            )
        )
    else:
        print(report.format_text())
    return 1 if report.findings else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.bench import (
        compare_reports,
        load_report,
        run_bench,
        trajectory_from_prior,
    )

    report = run_bench(
        quick=args.quick,
        repeats=args.repeat,
        names=args.scenarios,
        progress=print,
    )
    baseline = None
    pre_pr_path = Path(args.pre_pr_baseline)
    if pre_pr_path.exists():
        pre_pr = load_report(pre_pr_path)
        if pre_pr.quick == report.quick:
            baseline = pre_pr
        else:
            print(
                f"note: {pre_pr_path} is a "
                f"{'quick' if pre_pr.quick else 'full'} baseline; this is a "
                f"{'quick' if report.quick else 'full'} run, so no speedup "
                f"trajectory is embedded"
            )
    trajectory = None
    prior_path = Path(args.prior)
    if prior_path.exists():
        try:
            prior_payload = json_module.loads(prior_path.read_text())
        except ValueError as error:
            raise ReproError(
                f"prior bench artifact {prior_path} is not valid JSON: {error}"
            ) from error
        trajectory = trajectory_from_prior(prior_payload)
        print(
            f"trajectory: carrying {len(trajectory)} prior artifact "
            f"generation(s) forward from {prior_path}"
        )
    path = report.write(args.output, baseline=baseline, trajectory=trajectory)
    print(f"bench artifact written to {path}")
    if baseline is not None:
        payload = report.to_dict(baseline)
        headline = payload.get("headline_speedup")
        if headline is not None:
            print(f"headline-cell speedup vs pre-PR baseline: {headline:.2f}x")
    if args.check:
        gate = load_report(args.check)
        regressions = compare_reports(
            report, gate, threshold=args.threshold
        )
        if regressions:
            for regression in regressions:
                print(f"REGRESSION {regression}", file=sys.stderr)
            return 1
        print(
            f"gate ok: no cell more than {args.threshold * 100:.0f}% slower "
            f"than {args.check}"
        )
    return 0


def _resolve_rate(args: argparse.Namespace) -> float:
    if args.rate is not None:
        return args.rate
    levels = sirius_load_levels() if args.app == "sirius" else nlp_load_levels()
    return levels.rate(LoadLevel(args.load))


def _chaos_payload(
    args: argparse.Namespace, plan: object, chaos_result: object
) -> dict:
    import dataclasses

    return {
        "app": args.app,
        "policy": args.policy,
        "seed": args.seed,
        "plan": plan.to_dict(),
        "report": dataclasses.asdict(chaos_result.report),
        "events": [dataclasses.asdict(event) for event in chaos_result.events],
    }


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import load_plan, run_chaos_experiment

    if args.fail_on_goodput_delta is not None and args.no_baseline:
        raise ReproError(
            "--fail-on-goodput-delta needs the fault-free baseline; "
            "drop --no-baseline"
        )
    plan = load_plan(args.plan, args.duration)
    chaos_result = run_chaos_experiment(
        args.app,
        args.policy,
        ConstantLoad(_resolve_rate(args)),
        args.duration,
        plan,
        seed=args.seed,
        with_baseline=not args.no_baseline,
    )
    print(f"{args.app}/{args.policy} under plan {plan.name!r}:")
    print()
    print(chaos_result.report.render(chaos_result.baseline))
    if args.json:
        path = write_json(args.json, _chaos_payload(args, plan, chaos_result))
        print(f"report written to {path}")
    if args.fail_on_goodput_delta is not None:
        baseline = chaos_result.baseline
        assert baseline is not None  # guarded above
        base_fraction = baseline.completion_fraction
        faulty_fraction = chaos_result.report.goodput_fraction
        if base_fraction <= 0.0:
            raise ReproError(
                "baseline completed no queries; goodput delta is undefined"
            )
        delta_pct = (base_fraction - faulty_fraction) / base_fraction * 100.0
        print()
        print(
            f"goodput delta vs baseline: {delta_pct:+.2f}% "
            f"(gate: {args.fail_on_goodput_delta:.2f}%)"
        )
        if delta_pct > args.fail_on_goodput_delta:
            print(
                f"goodput gate breached: faulty run completed "
                f"{delta_pct:.2f}% fewer admitted queries than the "
                f"baseline (allowed {args.fail_on_goodput_delta:.2f}%)",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_guard(args: argparse.Namespace) -> int:
    from repro.faults import load_plan, run_chaos_experiment
    from repro.guard import GuardConfig

    guard_config = GuardConfig(
        ladder=args.ladder,
        demote_after=args.demote_after,
        violation_window_s=args.window,
        probation_s=args.probation,
        burn_threshold=args.burn_threshold,
        storm_ticks=args.storm_ticks,
    )
    plan = load_plan(args.plan, args.duration)
    chaos_result = run_chaos_experiment(
        args.app,
        args.policy,
        ConstantLoad(_resolve_rate(args)),
        args.duration,
        plan,
        seed=args.seed,
        with_baseline=not args.no_baseline,
        guard=guard_config,
        slo_target_s=args.slo_target,
    )
    print(
        f"{args.app}/{args.policy} under plan {plan.name!r}, supervised "
        f"(ladder {args.ladder}, SLO target {args.slo_target:g}s):"
    )
    print()
    print(chaos_result.report.render(chaos_result.baseline))
    if args.json:
        path = write_json(args.json, _chaos_payload(args, plan, chaos_result))
        print(f"report written to {path}")
    return 0


def _cmd_qos(args: argparse.Namespace) -> int:
    setup = TABLE3_SIRIUS if args.app == "sirius" else TABLE3_WEBSEARCH
    rate = args.rate if args.rate is not None else (7.0 if args.app == "sirius" else 8.0)
    result = run_qos_experiment(
        setup, args.policy, rate_qps=rate, duration_s=args.duration, seed=args.seed
    )
    print(
        f"{result.app}/{result.policy}: latency {result.latency.mean:.3f}s "
        f"({result.latency.mean / result.qos_target_s:.2f}x QoS), "
        f"power {result.average_power_fraction:.3f} of peak "
        f"(saving {result.power_saving_fraction * 100:.1f}%), "
        f"violations {result.violation_fraction * 100:.1f}%"
    )
    if args.json:
        path = write_json(args.json, qos_result_to_dict(result))
        print(f"result written to {path}")
    return 0


def _parse_tcp(text: Optional[str]) -> tuple[Optional[str], Optional[int]]:
    if text is None:
        return None, None
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ReproError(f"--tcp takes HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproDaemon

    host, port = _parse_tcp(args.tcp)
    daemon = ReproDaemon(
        args.socket,
        host=host,
        port=port,
        rate=args.rate,
        turbo=args.turbo,
        quantum_s=args.quantum,
        poll_interval_s=args.poll,
    )
    for path in args.specs or ():
        spec = _load_scenario(path)
        run = daemon.submit(spec, paused=args.paused)
        print(f"submitted {path} as {run.name} (end_s={run.end_s:g})")
    where = args.socket if args.tcp is None else f"{args.socket} and {args.tcp}"
    pacing = "turbo" if args.turbo else f"rate {args.rate:g} sim-s/s"
    print(f"reprod listening on {where} ({pacing})", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.shutdown()
    print("reprod stopped")
    return 0


def _cmd_ctl(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import CtlClient

    host, port = _parse_tcp(args.tcp)
    client = CtlClient(
        None if host is not None else args.socket,
        host=host,
        port=port,
        timeout_s=args.timeout,
    )
    with client as ctl:
        if args.action == "watch":
            ctl.call("watch", run=args.run)
            for event in ctl.events(max_events=args.count):
                print(_json.dumps(event, sort_keys=True))
            return 0
        call_args: dict[str, object] = {}
        if args.action == "submit":
            spec = _load_scenario(args.spec)
            call_args["spec"] = spec.to_dict()
            if args.name:
                call_args["name"] = args.name
            if args.paused:
                call_args["paused"] = True
        elif args.action == "status":
            if args.run:
                call_args["run"] = args.run
        elif args.action == "budget":
            call_args = {"run": args.run, "watts": args.watts}
        elif args.action == "slo":
            call_args = {"run": args.run, "target_s": args.target_s}
        elif args.action == "audit":
            call_args = {"run": args.run}
            if args.kind:
                call_args["kind"] = args.kind
            if args.tail is not None:
                call_args["tail"] = args.tail
        elif args.action in ("pause", "resume", "drain", "stop", "result"):
            call_args = {"run": args.run}
        result = ctl.call(args.action, **call_args)
        print(_json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    handlers = {
        "figures": _cmd_figures,
        "latency": _cmd_latency,
        "qos": _cmd_qos,
        "campaign": _cmd_campaign,
        "headline": _cmd_headline,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
        "bench": _cmd_bench,
        "chaos": _cmd_chaos,
        "guard": _cmd_guard,
        "run": _cmd_run,
        "scenario": _cmd_scenario,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "ctl": _cmd_ctl,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
