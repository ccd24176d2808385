"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``figures`` — regenerate a paper figure/table (or ``all``) and print
  its ASCII rendering; serial and uncached, through the same figure
  runner as ``campaign``.
* ``latency`` — one latency-mitigation run (Table-2 scenario) with a
  chosen application, policy and load level.
* ``qos`` — one power-conservation run (Table-3 scenario) with a chosen
  deployment and policy.
* ``campaign`` — the whole evaluation: the union of every figure's
  scenario cells, each distinct run once; ``--workers N`` fans the cells
  across processes and ``--cache-dir`` memoizes each run by its spec
  digest, so re-runs only recompute changed cells and every render is
  rebuilt from results.
* ``headline`` — the abstract's four claims, measured through the same
  figure runner (same ``--workers`` / ``--cache-dir`` knobs, shared
  cache entries).
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
  optional content-addressed cache keyed on the scenario digest.  It
  prints the report the spec calls for (the summary line with
  ``--cache-dir``).
* ``scenario`` — spec tooling: ``validate`` checks spec files and prints
  their digests; ``dump`` prints a spec's canonical JSON form.
* ``serve`` — the ``reprod`` control-plane daemon: hosts armed stacks,
  paces them against the wall clock (``--rate`` sim-seconds per real
  second, or ``--turbo``), takes live commands over a line-delimited
  JSON control socket and streams metrics snapshots to watchers.
* ``ctl`` — the client for a running daemon: submit specs, check
  status, move the power budget or SLO target live (guarded and
  audited), pause/resume/drain/stop runs, fetch results, watch streams.

``latency``, ``qos``, ``trace``, ``chaos`` and ``guard`` are presets:
their flags make a spec, and the runner ``run`` uses executes it.
``latency``, ``qos``, ``chaos``, ``guard`` and ``run`` archive their
full result (``chaos`` and ``guard``: the report) with ``--json``.
The global ``--log-level`` flag configures one shared structured-logging
setup (module, simulated time, wall time) for every subcommand.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.campaign import default_registry
from repro.obs import setup_logging
from repro.experiments.export import scenario_payload, write_json
from repro.scenario.builder import StackBuilder
from repro.scenario.spec import LATENCY_POLICIES, QOS_POLICIES, ScenarioSpec
from repro.workloads.levels import LoadLevel
from repro.workloads.nlp import nlp_load_levels
from repro.workloads.sirius import sirius_load_levels

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults import GoodputReport
    from repro.experiments.parallel import CellResult

__all__ = ["main", "build_parser"]


def _finite_float(text: str) -> float:
    """Argparse type: a finite float (``nan`` and ``inf`` are refused)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive finite float."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type: a finite float >= 0."""
    value = _finite_float(text)
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


def _add_run_flags(
    command: argparse.ArgumentParser,
    duration_s: float,
    policy: Optional[str] = None,
    plan: Optional[str] = None,
    qos: bool = False,
) -> None:
    """Add the flags every run command shares, with this command's defaults.

    Fresh arguments for each command: ``set_defaults`` on a parser shared
    through ``parents=`` writes one command's default into all of them.
    """
    command.add_argument(
        "app", choices=("sirius", "websearch") if qos else ("sirius", "nlp")
    )
    if policy is None:
        command.add_argument(
            "policy", choices=QOS_POLICIES if qos else LATENCY_POLICIES
        )
    else:
        command.add_argument(
            "policy", choices=LATENCY_POLICIES, nargs="?", default=policy
        )
    if plan is not None:
        from repro.faults.plan import named_plans

        command.add_argument(
            "--plan",
            default=plan,
            help="built-in plan name or a path to a plan .json "
            f"(built-ins: {', '.join(named_plans())}; default: {plan})",
        )
    if not qos:
        command.add_argument(
            "--load",
            choices=tuple(level.value for level in LoadLevel),
            default="high",
            help="load level relative to baseline saturation (default: high)",
        )
    command.add_argument(
        "--rate", type=_positive_float, help="explicit arrival rate (qps)"
    )
    command.add_argument("--duration", type=_positive_float, default=duration_s)
    command.add_argument("--seed", type=int, default=3)
    if plan is not None:
        command.add_argument(
            "--no-baseline",
            action="store_true",
            help="skip the fault-free baseline run (no delta section)",
        )


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
    _add_run_flags(latency, duration_s=600.0)
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
        help="worker processes for the cell fan-out (default: 1, serial)",
    )
    campaign.add_argument(
        "--cache-dir",
        help="content-addressed result cache keyed on each cell's scenario "
        "digest; re-runs only recompute changed cells",
    )

    headline = commands.add_parser(
        "headline",
        help="measure the paper's abstract numbers via the figure runner",
    )
    headline.add_argument("--duration", type=_positive_float, default=600.0)
    headline.add_argument("--qos-duration", type=_positive_float, default=800.0)
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
    _add_run_flags(trace, duration_s=300.0, policy="powerchief")
    trace.add_argument(
        "--output",
        default="trace-out",
        help="directory for trace.jsonl, trace.chrome.json, metrics.prom "
        "and audit.jsonl (default: trace-out)",
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

    chaos = commands.add_parser(
        "chaos",
        help="one latency run under a fault plan, with goodput report",
    )
    _add_run_flags(chaos, duration_s=300.0, policy="powerchief", plan="all-faults")
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
    _add_run_flags(
        guard, duration_s=600.0, policy="powerchief", plan="telemetry-dark"
    )
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
    guard.add_argument("--json", help="write the full report to this path")

    qos = commands.add_parser("qos", help="one Table-3 QoS-mode run")
    _add_run_flags(qos, duration_s=400.0, qos=True)
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
        "iteration, as fast as the host allows (one core busy while a "
        "run is live)",
    )
    serve.add_argument(
        "--quantum",
        type=_positive_float,
        default=0.25,
        help="simulated seconds per --turbo chunk; a command waits at "
        "most one chunk's compute (default: 0.25)",
    )
    serve.add_argument(
        "--poll",
        type=_positive_float,
        default=0.05,
        help="real seconds an idle loop waits for commands, and the "
        "--rate step (default: 0.05)",
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
    from repro.experiments.campaign import run_figures

    registry = default_registry()
    names = sorted(registry) if args.which == "all" else [args.which]
    figures = [registry[name] for name in names]
    results, _ = run_figures(figures)
    for figure, result in zip(figures, results):
        print(figure.render(result))
        print()
    return 0


def _preset_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The spec a run command's flags describe."""
    rate = args.rate
    if args.command == "qos":
        if rate is None:
            from repro.experiments.figures import fig13, fig14

            sirius = args.app == "sirius"
            rate = fig13.SIRIUS_QOS_RATE_QPS if sirius else fig14.WEBSEARCH_QOS_RATE_QPS
        return ScenarioSpec.qos(args.app, args.policy, rate, args.duration, seed=args.seed)
    if rate is None:
        levels = sirius_load_levels() if args.app == "sirius" else nlp_load_levels()
        rate = levels.rate(LoadLevel(args.load))
    trace = ("constant", rate)
    if args.command in ("chaos", "guard"):
        from repro.faults import chaos_spec, load_plan

        guard, slo_target = None, None
        if args.command == "guard":
            from repro.guard import GuardConfig

            guard = GuardConfig(
                ladder=args.ladder,
                demote_after=args.demote_after,
                violation_window_s=args.window,
                probation_s=args.probation,
                burn_threshold=args.burn_threshold,
                storm_ticks=args.storm_ticks,
            )
            slo_target = args.slo_target
        plan = load_plan(args.plan, args.duration)
        return chaos_spec(
            args.app, args.policy, trace, args.duration, plan, seed=args.seed,
            guard=guard, slo_target_s=slo_target,
        )
    options: dict[str, object]
    if args.command == "latency":
        options = {"budget_watts": args.budget_watts, "drain_s": args.drain}
        if args.cores is not None:
            options["n_cores"] = args.cores
    else:  # trace: every pillar, with the artifacts bound for --output
        observe = ["trace", "metrics", "audit", "attribution", "slo", "energy"]
        options = {
            "slo_target_s": args.slo_target,
            "slo_attainment": args.slo_attainment,
        }
        if args.stream:
            observe.append("stream")
            options.update(
                stream_path=str(Path(args.output) / "stream.jsonl"),
                stream_interval_s=args.stream_interval,
            )
        options["observe"] = observe
    return ScenarioSpec.latency(
        args.app, args.policy, trace, args.duration, seed=args.seed, **options
    )


class _Run(NamedTuple):
    """A run: its stack and result; with chaos, the report and twin's result."""

    builder: StackBuilder
    result: "CellResult"
    report: Optional["GoodputReport"]
    baseline: Optional["CellResult"]


def _run_spec(
    spec: ScenarioSpec,
    twin: Optional[ScenarioSpec] = None,
    output: Optional[str] = None,
) -> _Run:
    """The one runner behind every run command: build, execute, report.

    ``output`` is made once the spec is accepted (a refused run leaves
    no directory) and gets the artifacts of the pillars the run armed.
    A single-stack chaos run prints the goodput report, against the
    fault-free ``twin``'s result when given; any other run prints the
    summary line.
    """
    builder = StackBuilder(spec)
    if output is not None:
        Path(output).mkdir(parents=True, exist_ok=True)
    result = builder.execute()
    if output is not None and builder.observability is not None:
        from repro.obs.explain import write_artifacts

        write_artifacts(output, builder.observability, result.queries_completed)
    chaos = builder.chaos
    if chaos is None:
        print(_describe_scenario_result(result))
        return _Run(builder, result, None, None)
    report = chaos.report(result)
    baseline = None if twin is None else StackBuilder(twin).execute()
    title = f"{spec.app}/{spec.policy} under plan {chaos.plan.name!r}"
    if spec.guard:
        from repro.guard.config import guard_from_spec

        target = dict(spec.options).get("slo_target_s")
        slo = "" if target is None else f", SLO target {target:g}s"
        title += f", supervised (ladder {guard_from_spec(spec.guard).ladder}{slo})"
    print(f"{title}:")
    print()
    print(report.render(baseline))
    return _Run(builder, result, report, baseline)


def _cmd_latency(args: argparse.Namespace) -> int:
    """``latency`` and ``qos``: one run, and its result with ``--json``."""
    result = _run_spec(_preset_spec(args)).result
    if args.json:
        path = write_json(args.json, scenario_payload(result)["result"])
        print(f"result written to {path}")
    return 0


def _load_scenario(path: str) -> ScenarioSpec:
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
            f"power {result.average_power_fraction:.3f} of peak "
            f"(saving {result.power_saving_fraction * 100:.1f}%), "
            f"violations {result.violation_fraction * 100:.1f}%"
        )
    assert isinstance(result, RunResult)
    return (
        f"{result.app}/{result.policy}: {result.queries_completed} queries, "
        f"mean {result.latency.mean:.3f}s, p99 {result.latency.p99:.3f}s, "
        f"avg power {result.average_power_watts:.2f} W"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_scenario(args.scenario)
    print(f"scenario {spec.label}")
    if args.cache_dir is None:
        print(f"digest={spec.digest()[:16]} source=computed")
        payload = scenario_payload(_run_spec(spec).result)
    else:
        # A cache entry holds only the result payload, while a goodput
        # report reads the live stack: a cached run prints its summary.
        from repro.experiments.parallel import run_cells

        (outcome,) = run_cells([spec], cache=args.cache_dir).outcomes
        source = "cache" if outcome.source == "cache" else "computed"
        print(f"digest={outcome.digest[:16]} source={source}")
        print(_describe_scenario_result(outcome.result()))
        payload = outcome.payload
    if args.json:
        path = write_json(args.json, payload)
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
    print(result.report.format_timing())
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
    from repro.obs.audit import BoostEntry, BottleneckEntry, WithdrawEntry

    spec = _preset_spec(args)
    logging.getLogger("repro.cli").info(
        "tracing %s/%s at %.2f qps for %.0fs", spec.app, spec.policy,
        spec.trace[1], spec.duration_s,
    )
    observability = _run_spec(spec, output=args.output).builder.observability
    assert observability is not None
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
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
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
    target = Path(args.output)
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos`` and ``guard``: the run against its fault-free twin (unless
    ``--no-baseline``), the report with ``--json``, then the goodput gate."""
    import dataclasses

    gate = getattr(args, "fail_on_goodput_delta", None)  # guard has none
    if gate is not None and args.no_baseline:
        raise ReproError(
            "--fail-on-goodput-delta needs the fault-free baseline; "
            "drop --no-baseline"
        )
    spec = _preset_spec(args)
    twin = None
    if not args.no_baseline:
        twin = ScenarioSpec.latency(
            spec.app, spec.policy, spec.trace, spec.duration_s, seed=spec.seed
        )
    run = _run_spec(spec, twin)
    if args.json:
        chaos = run.builder.chaos
        assert chaos is not None and chaos.injector is not None
        payload = {
            "app": spec.app,
            "policy": spec.policy,
            "seed": spec.seed,
            "plan": chaos.plan.to_dict(),
            "report": dataclasses.asdict(run.report),
            "events": [dataclasses.asdict(event) for event in chaos.injector.events],
        }
        path = write_json(args.json, payload)
        print(f"report written to {path}")
    if gate is None:
        return 0
    assert run.report is not None and run.baseline is not None
    base_fraction = run.baseline.completion_fraction
    faulty_fraction = run.report.goodput_fraction
    if base_fraction <= 0.0:
        raise ReproError(
            "baseline completed no queries; goodput delta is undefined"
        )
    delta_pct = (base_fraction - faulty_fraction) / base_fraction * 100.0
    print()
    print(f"goodput delta vs baseline: {delta_pct:+.2f}% (gate: {gate:.2f}%)")
    if delta_pct > gate:
        print(
            f"goodput gate breached: faulty run completed "
            f"{delta_pct:.2f}% fewer admitted queries than the "
            f"baseline (allowed {gate:.2f}%)",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_tcp(text: Optional[str]) -> tuple[Optional[str], Optional[int]]:
    if text is None:
        return None, None
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit() or int(port) > 65535:
        raise ReproError(f"--tcp takes HOST:PORT with a port up to 65535, got {text!r}")
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
    runs = [
        (path, daemon.submit(_load_scenario(path), paused=args.paused))
        for path in args.specs or ()
    ]
    where = args.socket if args.tcp is None else f"{args.socket} and {args.tcp}"
    pacing = "turbo" if args.turbo else f"rate {args.rate:g} sim-s/s"
    try:
        # Announce nothing until every listener is bound: a refused bind
        # aborts the submitted runs.
        daemon.bind()
        for path, run in runs:
            print(f"submitted {path} as {run.name} (end_s={run.end_s:g})")
        print(f"reprod listening on {where} ({pacing})", flush=True)
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.shutdown()
    except OSError as error:
        print(f"error: reprod cannot serve on {where}: {error}", file=sys.stderr)
        return 1
    print("reprod stopped")
    return 0


def _cmd_ctl(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import CtlClient
    from repro.serve.protocol import COMMANDS

    host, port = _parse_tcp(args.tcp)
    client = CtlClient(
        None if host is not None else args.socket,
        host=host,
        port=port,
        timeout_s=args.timeout,
    )
    try:
        client.connect()
    except OSError as error:
        where = args.socket if host is None else args.tcp
        print(f"error: cannot reach reprod at {where}: {error}", file=sys.stderr)
        return 1
    with client as ctl:
        # The argparse dests carry the protocol's argument names: send
        # every required one and each optional one that is set.
        required, optional = COMMANDS[args.action]
        call_args = {name: getattr(args, name) for name in required}
        call_args.update(
            (name, getattr(args, name)) for name in optional if getattr(args, name)
        )
        if args.action == "submit":
            call_args["spec"] = _load_scenario(args.spec).to_dict()
        result = ctl.call(args.action, **call_args)
        if args.action == "watch":
            for event in ctl.events(max_events=args.count):
                print(_json.dumps(event, sort_keys=True))
        else:
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
        "qos": _cmd_latency,
        "campaign": _cmd_campaign,
        "headline": _cmd_headline,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
        "chaos": _cmd_chaos,
        "guard": _cmd_chaos,
        "run": _cmd_run,
        "scenario": _cmd_scenario,
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
