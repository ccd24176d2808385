"""``repro explain``: post-mortem answers from archived run artifacts.

:func:`write_artifacts` leaves a traced run's directory of artifacts —
``attribution.json``, ``slo.json``, ``energy.json``, ``audit.jsonl``,
``trace.jsonl``, with ``stream.jsonl`` written as the run goes — and
this module reads whichever subset exists and builds one report
answering the two questions every postmortem starts with: *why was the
latency high* (which component, which stage, did the controller agree,
what held up the slowest queries) and *where did the power go* (joules
per stage, per query).  Every section is optional: a
directory holding only a span trace still explains via the span-derived
attribution fallback.

:func:`build_explain_report` returns the structured payload;
:func:`render_explain` formats it for a terminal.  An artifact that is
not JSON, or is JSON of a shape the report cannot read or render, raises
:class:`~repro.errors.ReproError` naming the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError, ReproError
from repro.obs.attribution import (
    COMPONENTS,
    TRANSIT_STAGE,
    AttributionReport,
    QueryAttribution,
    attributions_from_spans,
    report_from_attributions,
    tail_report,
)
from repro.obs.trace import spans_from_jsonl

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs import Observability

__all__ = ["build_explain_report", "render_explain", "write_artifacts"]

#: What a lookup raises when an artifact's JSON has the wrong shape (a
#: span whose stamps are out of order raises ConfigurationError).
_SHAPE_ERRORS = (
    AttributeError, ConfigurationError, IndexError, KeyError, TypeError, ValueError
)


@contextmanager
def _shape_of(path: Path) -> Iterator[None]:
    """Report a misshapen artifact as one :class:`ReproError` naming it."""
    try:
        yield
    except _SHAPE_ERRORS as error:
        raise ReproError(
            f"{path} does not have the shape 'repro trace' writes "
            f"({type(error).__name__}: {error})"
        ) from error


def _load_json(path: Path) -> Optional[Any]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError as error:
        raise ReproError(f"{path} is not valid JSON: {error}") from error


def _load_jsonl(path: Path) -> Optional[list[Any]]:
    if not path.exists():
        return None
    out = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except ValueError as error:
            raise ReproError(
                f"{path}:{line_no} is not valid JSON: {error}"
            ) from error
    return out


def _heaviest_stage(report: AttributionReport) -> Optional[str]:
    """The stage with the most attributed time, transit aside: hop time
    is no controller's fault, so it never competes for blame."""
    for stage, _seconds in report.blame_ranking():
        if stage != TRANSIT_STAGE:
            return stage
    return None


def _bottleneck_verdicts(
    audit_entries: Sequence[Mapping[str, Any]],
) -> dict[str, int]:
    """Equation-1 verdict counts by *stage* from raw audit dicts (the
    audit names an instance; its reading supplies the stage)."""
    counts: dict[str, int] = {}
    for entry in audit_entries:
        if entry.get("kind") != "bottleneck":
            continue
        stage = str(entry.get("bottleneck", ""))
        for reading in entry.get("readings", ()):
            if reading.get("instance") == entry.get("bottleneck"):
                stage = str(reading.get("stage", stage))
                break
        counts[stage] = counts.get(stage, 0) + 1
    return counts


def _tail_section(queries: Sequence[QueryAttribution]) -> Optional[dict[str, Any]]:
    """What the slowest queries spent their time on (None: no queries)."""
    tail = tail_report(queries)
    if tail is None:
        return None
    waiting = tail.component_totals["queue"]
    stage_time = waiting + tail.component_totals["service"]
    latencies = sorted((qa.e2e_latency for qa in queries), reverse=True)
    return {
        "count": tail.count,
        "threshold_s": latencies[tail.count - 1],
        "dominant_stage": _heaviest_stage(tail),
        "queuing_fraction": waiting / stage_time if stage_time > 0.0 else 0.0,
        "report": tail.to_dict(),
    }


def write_artifacts(
    directory: Union[str, Path],
    observability: "Observability",
    queries_completed: int,
) -> None:
    """Write the artifact of every pillar ``observability`` armed into
    ``directory`` (the stream pillar writes its own while the run goes)."""
    target = Path(directory)
    obs = observability
    if obs.tracer is not None:
        obs.tracer.write_jsonl(target / "trace.jsonl")
        obs.tracer.write_chrome_trace(target / "trace.chrome.json")
    if obs.metrics is not None:
        (target / "metrics.prom").write_text(obs.metrics.render_prometheus())
    if obs.audit is not None:
        obs.audit.write_jsonl(target / "audit.jsonl")
    documents: dict[str, Any] = {}
    if obs.attribution is not None:
        documents["attribution.json"] = {
            "report": obs.attribution.report().to_dict(),
            "dropped": obs.attribution.dropped,
            "queries": [qa.to_dict() for qa in obs.attribution.attributions],
        }
    if obs.slo is not None:
        documents["slo.json"] = obs.slo.to_dict()
    if obs.energy is not None:
        documents["energy.json"] = obs.energy.to_dict(queries_completed)
    for name, document in documents.items():
        (target / name).write_text(json.dumps(document, sort_keys=True))


def build_explain_report(directory: Union[str, Path]) -> dict[str, Any]:
    """Read every artifact the directory holds; build the explain payload.

    Every section is built, and rendered once, under its artifact's
    name, so a payload this returns always renders.
    """
    target = Path(directory)
    if not target.is_dir():
        raise ReproError(f"{target} is not a directory of run artifacts")
    report: dict[str, Any] = {"directory": str(target), "sources": {}}
    sources = report["sources"]
    #: Section key -> the artifact it was read from.
    origins: dict[str, Path] = {}

    attribution: Optional[AttributionReport] = None
    tail: Optional[dict[str, Any]] = None
    path = target / "attribution.json"
    payload = _load_json(path)
    if payload is not None:
        source = "attribution.json"
        with _shape_of(path):
            attribution = AttributionReport.from_dict(payload["report"])
            dropped = payload["dropped"]
            if dropped > 0:
                # The collector's per-query list stopped at its bound.
                tail = {
                    "unavailable": f"attribution.json dropped {dropped} "
                    f"per-query records"
                }
            else:
                tail = _tail_section(
                    [QueryAttribution.from_dict(qa) for qa in payload["queries"]]
                )
    else:
        source = "absent"
        path = target / "trace.jsonl"
        if path.exists():
            with _shape_of(path):
                spans = spans_from_jsonl(path.read_text())
            if spans:
                source = "trace.jsonl (span-derived approximation)"
                queries = attributions_from_spans(spans)
                attribution = report_from_attributions(queries)
                tail = _tail_section(queries)
    sources["attribution"] = source
    if attribution is not None:
        with _shape_of(path):
            fractions = attribution.component_fractions()
            report["attribution"] = {
                "report": attribution.to_dict(),
                "component_fractions": fractions,
                "blame_ranking": attribution.blame_ranking(),
                "dominant_component": (
                    max(COMPONENTS, key=lambda name: fractions.get(name, 0.0))
                    if attribution.count
                    else None
                ),
            }
        origins["attribution"] = path
    if tail is not None:
        report["tail"] = tail
        origins["tail"] = path

    path = target / "audit.jsonl"
    audit = _load_jsonl(path)
    sources["audit"] = "audit.jsonl" if audit is not None else "absent"
    if audit is not None:
        with _shape_of(path):
            verdicts = _bottleneck_verdicts(audit)
            faults: dict[str, int] = {}
            for entry in audit:
                if entry.get("kind") == "fault":
                    fault = str(entry.get("fault", "?"))
                    faults[fault] = faults.get(fault, 0) + 1
        blame = None if attribution is None else _heaviest_stage(attribution)
        total = sum(verdicts.values())
        report["controller"] = {
            "bottleneck_verdicts": verdicts,
            "attribution_blame": blame,
            "agreement": (
                verdicts.get(blame, 0) / total if total and blame else None
            ),
        }
        if faults:
            report["faults"] = faults

    path = target / "slo.json"
    slo = _load_json(path)
    sources["slo"] = "slo.json" if slo is not None else "absent"
    if slo is not None:
        with _shape_of(path):
            timeline = slo.get("timeline", [])
            worst = max(
                timeline, key=lambda bucket: bucket.get("burn_rate", 0.0), default=None
            )
            report["slo"] = {**slo, "worst_bucket": worst}
        origins["slo"] = path

    path = target / "energy.json"
    energy = _load_json(path)
    sources["energy"] = "energy.json" if energy is not None else "absent"
    if energy is not None:
        report["energy"] = energy
        origins["energy"] = path

    path = target / "stream.jsonl"
    stream = _load_jsonl(path)
    sources["stream"] = "stream.jsonl" if stream is not None else "absent"
    if stream is not None:
        with _shape_of(path):
            snapshots = [line for line in stream if "mark" not in line]
            marks = [line for line in stream if "mark" in line]
            report["stream"] = {
                "snapshots": len(snapshots),
                "marks": len(marks),
                "span_s": (
                    [snapshots[0]["t"], snapshots[-1]["t"]] if snapshots else None
                ),
                "mark_labels": sorted({str(m["mark"]) for m in marks}),
            }
        origins["stream"] = path

    for key, origin in origins.items():
        with _shape_of(origin):
            render_explain({key: report[key]})
    return report


def _fmt_seconds(value: float) -> str:
    return f"{value:.3f}s" if value < 100.0 else f"{value:.1f}s"


def render_explain(report: Mapping[str, Any]) -> str:
    """The explain payload as a terminal report."""
    lines = [f"explain: {report.get('directory', '?')}"]
    sources = report.get("sources", {})
    lines.append(
        "sources: "
        + ", ".join(f"{name}={where}" for name, where in sorted(sources.items()))
    )

    attribution = report.get("attribution")
    lines.append("")
    lines.append("-- why was the latency high? --")
    if attribution is None:
        lines.append("no attribution artifact (and no span trace to derive one)")
    else:
        rollup = attribution["report"]
        lines.append(
            f"{rollup['count']} queries attributed "
            f"({rollup['failed']} failed terminally), "
            f"{_fmt_seconds(rollup['total_e2e'])} total end-to-end time"
        )
        fractions = attribution["component_fractions"]
        for name in COMPONENTS:
            seconds = rollup["component_totals"].get(name, 0.0)
            lines.append(
                f"  {name:<14} {_fmt_seconds(seconds):>10}  "
                f"({fractions.get(name, 0.0) * 100.0:5.1f}%)"
            )
        ranking = attribution["blame_ranking"]
        if ranking:
            total = rollup["total_e2e"] or 1.0
            top = ", ".join(
                f"{stage} {seconds / total * 100.0:.1f}%"
                for stage, seconds in ranking[:4]
            )
            lines.append(f"stage blame: {top}")
    tail = report.get("tail")
    if tail is not None:
        if "unavailable" in tail:
            lines.append(f"tail: unavailable ({tail['unavailable']})")
        else:
            lines.append(
                f"tail: slowest {tail['count']} queries "
                f"(>= {_fmt_seconds(tail['threshold_s'])}): "
                f"{tail['dominant_stage']} dominates, "
                f"{tail['queuing_fraction'] * 100.0:.0f}% queuing"
            )

    controller = report.get("controller")
    if controller is not None:
        verdicts = controller["bottleneck_verdicts"]
        total = sum(verdicts.values())
        if total:
            by_count = ", ".join(
                f"{stage} x{count}"
                for stage, count in sorted(
                    verdicts.items(), key=lambda item: (-item[1], item[0])
                )
            )
            lines.append(f"controller Eq-1 verdicts: {by_count}")
            agreement = controller.get("agreement")
            blame = controller.get("attribution_blame")
            if agreement is not None and blame is not None:
                lines.append(
                    f"controller agreement: {agreement * 100.0:.0f}% of "
                    f"verdicts named the attribution blame stage ({blame})"
                )

    slo = report.get("slo")
    if slo is not None:
        lines.append("")
        lines.append("-- slo burn --")
        lines.append(
            f"target {slo['target_s']}s at goal "
            f"{slo['attainment_goal'] * 100.0:.1f}%: attainment "
            f"{slo['attainment'] * 100.0:.2f}% "
            f"({slo['violations']}/{slo['total']} violations), "
            f"closing burn rate {slo['burn_rate']:.2f}x"
        )
        worst = slo.get("worst_bucket")
        if worst is not None:
            lines.append(
                f"worst window: t={worst['t']:.0f}s burned "
                f"{worst['burn_rate']:.1f}x budget pace "
                f"({worst['violations']:.0f}/{worst['settled']:.0f} violations)"
            )

    energy = report.get("energy")
    if energy is not None:
        lines.append("")
        lines.append("-- where did the power go? --")
        total_joules = energy.get("total_joules", 0.0) or 1.0
        per_stage = energy.get("joules_per_stage", {})
        for stage, joules in sorted(
            per_stage.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(
                f"  {stage:<14} {joules:10.1f} J  "
                f"({joules / total_joules * 100.0:5.1f}%)"
            )
        lines.append(
            f"total {energy.get('total_joules', 0.0):.1f} J over "
            f"{energy.get('samples', 0)} samples"
        )
        per_query = energy.get("joules_per_query", {})
        if per_query:
            lines.append(
                f"per completed query: "
                f"{sum(per_query.values()):.2f} J across "
                f"{energy.get('queries_completed', 0)} queries"
            )

    faults = report.get("faults")
    if faults is not None:
        lines.append("")
        lines.append("-- faults --")
        lines.append(
            ", ".join(
                f"{kind} x{count}" for kind, count in sorted(faults.items())
            )
        )

    stream = report.get("stream")
    if stream is not None:
        lines.append("")
        lines.append("-- stream --")
        span = stream.get("span_s")
        window = (
            f" spanning t={span[0]:.0f}..{span[1]:.0f}s"
            if span is not None
            else ""
        )
        marks = stream.get("mark_labels", [])
        annotated = f" (marks: {', '.join(marks)})" if marks else ""
        lines.append(
            f"{stream['snapshots']} snapshots + {stream['marks']} marks"
            f"{window}{annotated}"
        )
    return "\n".join(lines)
