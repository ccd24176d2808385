"""Performance benchmark of the PowerChief reproduction's simulator.

Measures host time, set-up time, memory and control-socket latency on
four workloads (see ``suite.json`` and ``README.md``) and checks each
run's simulated output against the digests pinned for seeds 3 and 11.
Every repeat runs in a fresh worker process (or a fresh ``repro serve``
daemon), one at a time.

One workload, one JSON line (the form ``BENCHMARK.json`` declares): the
metrics over the repeats that fit in ``--seconds`` (see
:func:`run_metrics`), or with ``--trace 1`` the per-layer metrics of one
shortened traced run::

    python3 benchmarks/perf/run.py --workload headline-batch --seed 3 --seconds 28 --trace 0

A set of such measurements, interleaved round-robin across workloads,
each as long as ``BENCHMARK.json``'s ``run_seconds``::

    python3 benchmarks/perf/run.py run [--seed 3] [--repeats 5] [--workload NAME ...]
                                       [--traced] [--out DIR]

Two sets side by side, judged against each metric's bound::

    python3 benchmarks/perf/run.py compare A/set.json B/set.json [--write PATH]

Each entry point exits non-zero when an operation failed or an output
digest disagreed.
"""

from __future__ import annotations

import time

T0 = time.monotonic()  # the budget of a one-workload run starts here

import argparse
import contextlib
import json
import os
import platform
import pstats
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import reprod  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SET_FORMAT = "perfbench-set/1"
#: Share of each simulated duration the traced run covers.  Profiling
#: slows the grid about sevenfold; at full length its traced run alone
#: would take close to a minute.  Counts at this scale repeat exactly.
TRACE_SCALE = 0.2
WORKER_TIMEOUT_S = 150.0
#: Phase spans summed into each set-up layer metric.
PHASE_METRICS = {
    "scenario.import_s": ("import",),
    "scenario.build_s": ("build", "arm", "start"),
    "scenario.collect_s": ("collect",),
}


def load_config() -> tuple[dict[str, Any], dict[str, Any]]:
    """``BENCHMARK.json`` (the metrics every workload reports) and
    ``suite.json`` (seeds, pinned digests, workload-scoped metrics)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    suite = json.loads((HERE / "suite.json").read_text())
    return bench, suite


def e2e_metrics(workload: str, bench: dict, suite: dict) -> list[dict[str, Any]]:
    """Every end-to-end metric ``workload`` reports, in declaration order."""
    scoped = [m for m in suite["end_to_end"] if workload in m["workloads"]]
    return bench["end_to_end"] + scoped


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    """One measured run of one workload."""

    workload: str
    metrics: dict[str, float] = field(default_factory=dict)
    #: Wall time as the host clock read it; an untraced in-process
    #: repeat's ``wall_s`` metric is this scaled to the reference speed.
    host_wall_s: float = 0.0
    digest: Optional[str] = None
    spec_digest: Optional[str] = None
    attempted: int = 1
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    # A fixed hash seed keeps set iteration, and with it every call
    # count the profile reports, identical from run to run.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A private scratch directory under the benchmark, removed after."""
    path = HERE / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_worker(workload: str, seed: int, scale: float, mode: str, work: Path) -> Repeat:
    """One in-process repeat in a fresh ``worker.py`` interpreter;
    ``mode`` is ``run`` or ``traced``."""
    rep = Repeat(workload, attempted=len(workloads.batch_specs(workload, seed, scale)))
    out_path = work / "worker.json"
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(scale), mode]
    spawned = time.monotonic()
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(command, env=child_env(), stdout=out)
        rss_kb = reprod.reap(proc, spawned + WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        rep.failed = rep.attempted
        rep.errors.append(f"{workload} worker exited with {proc.returncode}")
        return rep
    data = json.loads(out_path.read_text())
    rep.detail = data
    rep.digest = data["digest"]
    rep.spec_digest = data["spec_digest"]
    rep.spans = [("spawn", spawned, data["spans"][0][1])] + [tuple(s) for s in data["spans"]]
    rep.host_wall_s = data["wall_s"]
    rep.metrics = {"setup_s": data["started"] - spawned, "peak_rss_mb": rss_kb / 1024.0}
    if data["ref_wall_s"] is not None:
        rep.metrics["wall_s"] = data["ref_wall_s"]
    return rep


def run_reprod(seed: int, scale: float, work: Path, profile_to: Optional[Path] = None) -> Repeat:
    """One daemon session: boot, submit, poll at 20 Hz, collect, stop."""
    spec = workloads.reprod_spec(seed, scale)
    session = reprod.run_daemon(spec, child_env(), work, profile_to)
    rep = Repeat(
        "reprod-turbo",
        attempted=session.attempted,
        failed=session.failed,
        errors=session.errors,
        spans=session.spans,
        spec_digest=spec.digest(),
        host_wall_s=session.wall_s,
    )
    if session.payload is not None and not session.failed:
        rep.digest = workloads.canonical_digest(session.payload)
        # No tail percentile: whether a request waits behind a quantum
        # that computes past the 50 ms poll swings a session's p90
        # between 6 and 75 ms.
        rep.metrics = {
            "wall_s": session.wall_s,
            "setup_s": session.setup_s,
            "peak_rss_mb": session.rss_kb / 1024.0,
            "ctl_ms_p50": statistics.median(session.ctl_ms),
            "ctl_late_ms_max": max(session.late_ms),
        }
    return rep


def measure(workload: str, seed: int, work: Path, scale: float = 1.0) -> Repeat:
    """One untraced repeat of ``workload``."""
    if workload == "reprod-turbo":
        return run_reprod(seed, scale, work)
    return run_worker(workload, seed, scale, "run", work)


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def layer_profile(workload: str, seed: int, work: Path, scale: float) -> tuple[dict[str, float], list[Repeat]]:
    """Per-layer metrics from one untraced and one traced repeat at
    ``scale`` (the caller passes :data:`TRACE_SCALE`).

    End-to-end numbers never come from here.  The traced worker carries
    the event hook and cProfile; for ``reprod-turbo`` the self times come
    from the daemon run under ``python -m cProfile`` and the counts from
    the same spec hosted in-process.
    """
    if workload == "reprod-turbo":
        base = run_reprod(seed, scale, work)
        profile_path = work / "daemon.prof"
        profiled = run_reprod(seed, scale, work, profile_path)
        spans_from = run_worker(workload, seed, scale, "run", work)
        counted = run_worker(workload, seed, scale, "traced", work)
        runs = [base, profiled, spans_from, counted]
        if any(r.failed for r in runs):
            return {}, runs
        self_s, _calls, total = layers.profile_layers(
            pstats.Stats(str(profile_path)).stats,  # type: ignore[attr-defined]
            str(SRC / "repro") + os.sep,
            str(HERE) + os.sep,
        )
        hosted_wall = spans_from.metrics["wall_s"]
        out: dict[str, float] = {
            "serve.hosted_wall_s": hosted_wall,
            "serve.loop_overhead": base.host_wall_s / spans_from.host_wall_s,
            "serve.ctl_late_ms_max": base.metrics["ctl_late_ms_max"],
        }
    else:
        base = spans_from = run_worker(workload, seed, scale, "run", work)
        profiled = counted = run_worker(workload, seed, scale, "traced", work)
        runs = [base, counted]
        if any(r.failed for r in runs):
            return {}, runs
        self_s, total = counted.detail["self_s"], counted.detail["profile_total_s"]
        out = {}
    detail = counted.detail
    events = detail["events"]
    out.update(
        {
            "sim.events": events,
            "sim.compactions": detail["compactions"],
            "sim.us_per_event": base.metrics["wall_s"] / events * 1e6,
            "core.actions": detail["actions"],
            "trace.overhead": profiled.host_wall_s / base.host_wall_s,
            "trace.hook_events": detail["hook_events"],
            "trace.profile_total_s": total,
        }
    )
    out.update(detail["counts"])
    out.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    out.update({f"{layer}.calls_in": value for layer, value in detail["calls_in"].items()})
    for name, phases in PHASE_METRICS.items():
        out[name] = sum(end - start for phase, start, end in spans_from.spans if phase in phases)
    return out, runs


# ----------------------------------------------------------------------
# Statistics and correctness
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict[str, Any]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": list(values)}


def pinned(suite: dict, workload: str, seed: int, scale: float) -> tuple[Optional[str], Optional[str]]:
    """The output and spec digests ``suite.json`` pins for this seed
    (pins hold for full-length runs only)."""
    if scale != 1.0:
        return None, None
    entry = suite["workloads"][workload]
    return entry["digest"].get(str(seed)) or None, entry.get("spec_digest", {}).get(str(seed))


def score(
    workload: str, seed: int, reps: list[Repeat], suite: dict, scale: float = 1.0
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)`` over ``reps``.

    A repeat whose output digest differs from the one pinned for this
    seed (or, unpinned, from the other repeats') fails every operation
    it attempted.
    """
    pinned_output, pinned_spec = pinned(suite, workload, seed, scale)
    reference = pinned_output or next((r.digest for r in reps if r.digest), None)
    attempted = failed = 0
    notes: list[str] = []
    for rep in reps:
        attempted += rep.attempted
        failed += rep.failed
        notes += rep.errors
        if rep.failed:
            continue
        if rep.digest != reference:
            failed += rep.attempted
            notes.append(f"{workload}: output digest {rep.digest} != {reference}")
        elif pinned_spec and rep.spec_digest != pinned_spec:
            failed += rep.attempted
            notes.append(f"{workload}: spec digest {rep.spec_digest} != {pinned_spec}")
    return attempted, failed, notes


# ----------------------------------------------------------------------
# One workload, one JSON line
# ----------------------------------------------------------------------
def measure_for(
    workload: str, seed: int, deadline: float, work: Path, scale: float = 1.0
) -> list[Repeat]:
    """Repeats of ``workload`` until the next one, were it as slow as the
    slowest so far, would end past ``deadline``; at least one."""
    reps: list[Repeat] = []
    slowest = 0.0
    while True:
        began = time.monotonic()
        reps.append(measure(workload, seed, work, scale))
        slowest = max(slowest, time.monotonic() - began)
        if time.monotonic() + slowest > deadline:
            return reps


def run_metrics(reps: list[Repeat]) -> dict[str, float]:
    """Each metric's median over ``reps``; nothing if any repeat failed.
    An in-process workload's ``wall_s`` is already scaled to the
    reference host speed (see ``hostspeed``)."""
    if any(r.failed for r in reps):
        return {}
    return {name: statistics.median(r.metrics[name] for r in reps) for name in reps[0].metrics}


def one_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> int:
    """Measure ``workload`` for ``seconds`` counted from process start
    (with ``trace``, one traced run instead) and print one JSON line."""
    bench, suite = load_config()
    with work_dir() as work:
        if trace:
            scale *= TRACE_SCALE
            values, reps = layer_profile(workload, seed, work, scale)
            names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        else:
            reps = measure_for(workload, seed, T0 + seconds, work, scale)
            values = run_metrics(reps)
            names = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    attempted, failed, notes = score(workload, seed, reps, suite, scale)
    missing = [name for name, _unit in names if name not in values]
    if values and missing:
        notes.append(f"{workload}: no value for {', '.join(missing)}")
    for note in notes:
        print(note, file=sys.stderr)
    if missing:
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# A set of repeats
# ----------------------------------------------------------------------
def run_set(
    seed: int,
    repeats: int,
    names: list[str],
    traced: bool,
    out_dir: Optional[Path],
    seconds: float,
    scale: float = 1.0,
) -> dict[str, Any]:
    """``repeats`` untraced measurements per workload, round-robin, plus
    one traced run each with ``traced``; writes ``set.json`` (and
    ``layers.json`` and ``trace.json`` when traced) into ``out_dir``.

    Each measurement is what one ``--workload`` run reports: the median
    over the worker processes that fit in ``seconds``.
    """
    bench, suite = load_config()
    rounds: dict[str, list[list[Repeat]]] = {name: [] for name in names}
    layer_values: dict[str, dict[str, float]] = {}
    traced_runs: dict[str, list[Repeat]] = {}
    with work_dir() as work:
        for index in range(repeats):
            for name in names:
                print(f"{name}: repeat {index + 1}/{repeats}", file=sys.stderr, flush=True)
                deadline = time.monotonic() + seconds
                rounds[name].append(measure_for(name, seed, deadline, work, scale))
        if traced:
            for name in names:
                print(f"{name}: traced run", file=sys.stderr, flush=True)
                layer_values[name], traced_runs[name] = layer_profile(
                    name, seed, work, scale * TRACE_SCALE
                )
    result: dict[str, Any] = {
        "format": SET_FORMAT,
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "scale": scale,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    for name in names:
        reps = [rep for round_reps in rounds[name] for rep in round_reps]
        attempted, failed, notes = score(name, seed, reps, suite, scale)
        if traced:
            t_attempted, t_failed, t_notes = score(
                name, seed, traced_runs[name], suite, scale * TRACE_SCALE
            )
            attempted, failed, notes = attempted + t_attempted, failed + t_failed, notes + t_notes
        medians = [m for m in map(run_metrics, rounds[name]) if m]
        metrics = {}
        for metric in e2e_metrics(name, bench, suite):
            if metric["name"] == "failed_frac":
                values = [failed / attempted]
            elif medians:
                values = [m[metric["name"]] for m in medians]
            else:
                continue
            metrics[metric["name"]] = {"unit": metric["unit"], **summarize(values)}
        result["workloads"][name] = {
            "digest": next((r.digest for r in reps if not r.failed), None),
            "attempted": attempted,
            "failed": failed,
            "errors": notes,
            "metrics": metrics,
        }
    if traced:
        result["layers"] = layer_values
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "set.json", result)
        if traced:
            write_json(out_dir / "layers.json", layer_values)
            all_runs = {
                n: [r for rs in rounds[n] for r in rs] + traced_runs.get(n, []) for n in names
            }
            write_json(out_dir / "trace.json", chrome_trace(all_runs))
    return result


def chrome_trace(runs: dict[str, list[Repeat]]) -> dict[str, Any]:
    """Every recorded span as Chrome trace events: one process per
    workload, one thread per repeat."""
    starts = [s[1] for reps in runs.values() for r in reps for s in r.spans]
    origin = min(starts, default=0.0)
    events: list[dict[str, Any]] = []
    for pid, (name, reps) in enumerate(runs.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}})
        for tid, rep in enumerate(reps):
            for span, start, end in rep.spans:
                events.append(
                    {
                        "name": span,
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "ts": (start - origin) * 1e6,
                        "dur": (end - start) * 1e6,
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def render_set(result: dict[str, Any]) -> str:
    lines = []
    for name, entry in result["workloads"].items():
        lines.append(
            f"{name}  attempted={entry['attempted']} failed={entry['failed']} "
            f"digest={(entry['digest'] or '-')[:12]}"
        )
        for metric, stats in entry["metrics"].items():
            lines.append(
                f"  {metric:<16} {stats['median']:>12.4f} {stats['unit']:<6} "
                f"[{stats['q1']:.4f}, {stats['q3']:.4f}] n={stats['n']}"
            )
        for metric, value in sorted(result.get("layers", {}).get(name, {}).items()):
            lines.append(f"  {metric:<28} {value:>14.6g}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Comparing two sets
# ----------------------------------------------------------------------
def compare_sets(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets.

    ``verdict`` is ``unresolved`` when the two sets' samples overlap and
    either set's spread (quartile distance over median) exceeds the
    bound; otherwise ``worse``/``better`` when the median moved by more
    than the bound in that direction, else ``within``.
    """
    bench, suite = load_config()
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in e2e_metrics(workload, bench, suite):
            name = metric["name"]
            ma, mb = entry_a["metrics"].get(name), entry_b["metrics"].get(name)
            if ma is None or mb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            bound = metric["bound"]
            if ma["median"]:
                change = sign * (mb["median"] - ma["median"]) / ma["median"]
            else:
                change = sign * mb["median"]
            spread = max(_spread(ma), _spread(mb))
            overlap = min(mb["samples"]) <= max(ma["samples"]) and min(ma["samples"]) <= max(
                mb["samples"]
            )
            if spread > bound and overlap:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "within"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": bound,
                    "a": {k: ma[k] for k in ("median", "q1", "q3", "n")},
                    "b": {k: mb[k] for k in ("median", "q1", "q3", "n")},
                    "change": change,
                    "spread": spread,
                    "verdict": verdict,
                }
            )
    return rows


def _spread(stats: dict[str, Any]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def render_compare(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<18} {row['metric']:<12} "
            f"{a['median']:>10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] "
            f"{b['median']:>10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
            f"{row['change']:>+8.2%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if argv[:1] == ["run"]:
        parser = argparse.ArgumentParser(prog="run.py run")
        parser.add_argument("--seed", type=int, default=3)
        parser.add_argument("--repeats", type=int, default=5)
        parser.add_argument("--workload", action="append", choices=WORKLOADS)
        parser.add_argument("--traced", action="store_true")
        parser.add_argument("--out", type=Path)
        args = parser.parse_args(argv[1:])
        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        result = run_set(
            args.seed,
            args.repeats,
            args.workload or list(WORKLOADS),
            args.traced,
            args.out,
            load_config()[0]["run_seconds"],
        )
        print(render_set(result))
        return 1 if any(e["failed"] for e in result["workloads"].values()) else 0
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        parser.add_argument("--write", type=Path, help="write both sets and the rows here")
        args = parser.parse_args(argv[1:])
        a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
        rows = compare_sets(a, b)
        print(render_compare(rows))
        if args.write is not None:
            write_json(args.write, {"sets": [a, b], "compare": rows})
        failed = any(s["workloads"][w]["failed"] for s in (a, b) for w in s["workloads"])
        open_rows = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
        for row in open_rows:
            print(f"{row['verdict']}: {row['workload']} {row['metric']}", file=sys.stderr)
        return 1 if failed or open_rows else 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return one_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
