"""End-to-end tests for ``repro explain`` over trace artifacts."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import build_explain_report, render_explain
from repro.obs.attribution import TRANSIT_STAGE


#: A span that starts service before it was enqueued.
OUT_OF_ORDER_SPAN = {
    "qid": 1,
    "stage": "A",
    "instance_id": 0,
    "instance": "A_0",
    "enqueue_time": 2.0,
    "start_time": 1.0,
    "finish_time": 3.0,
    "queue_at_arrival": 0,
    "service_level": 0,
    "work": 1.0,
}


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("explain") / "out"
    code = main(
        [
            "trace",
            "sirius",
            "powerchief",
            "--rate",
            "1.8",
            "--duration",
            "60",
            "--stream",
            "--stream-interval",
            "5",
            "--output",
            str(target),
        ]
    )
    assert code == 0
    return target


class TestBuildReport:
    def test_reads_every_artifact(self, artifact_dir):
        report = build_explain_report(artifact_dir)
        assert report["sources"] == {
            "attribution": "attribution.json",
            "audit": "audit.jsonl",
            "energy": "energy.json",
            "slo": "slo.json",
            "stream": "stream.jsonl",
        }

    def test_attribution_section_is_nonempty_and_consistent(self, artifact_dir):
        report = build_explain_report(artifact_dir)
        rollup = report["attribution"]["report"]
        assert rollup["count"] > 0
        total = sum(rollup["component_totals"].values())
        assert abs(total - rollup["total_e2e"]) < 1e-6
        fractions = report["attribution"]["component_fractions"]
        assert abs(sum(fractions.values()) - 1.0) < 1e-6
        assert report["attribution"]["dominant_component"] in fractions

    def test_controller_section_cross_references_audit(self, artifact_dir):
        report = build_explain_report(artifact_dir)
        controller = report["controller"]
        assert sum(controller["bottleneck_verdicts"].values()) > 0
        assert controller["attribution_blame"] is not None

    def test_tail_is_the_slowest_percent(self, artifact_dir):
        report = build_explain_report(artifact_dir)
        count = report["attribution"]["report"]["count"]
        tail = report["tail"]
        assert tail["count"] == max(1, round(0.01 * count))
        assert tail["report"]["count"] == tail["count"]
        assert tail["dominant_stage"] not in (None, TRANSIT_STAGE)
        assert 0.0 <= tail["queuing_fraction"] <= 1.0

    def test_tail_unavailable_when_queries_were_dropped(
        self, artifact_dir, tmp_path
    ):
        payload = json.loads((artifact_dir / "attribution.json").read_text())
        payload["dropped"] = 3
        (tmp_path / "attribution.json").write_text(json.dumps(payload))
        report = build_explain_report(tmp_path)
        assert report["tail"] == {
            "unavailable": "attribution.json dropped 3 per-query records"
        }
        assert report["attribution"]["report"] == payload["report"]
        assert "tail: unavailable" in render_explain(report)

    def test_energy_and_slo_sections_present(self, artifact_dir):
        report = build_explain_report(artifact_dir)
        assert report["energy"]["total_joules"] > 0.0
        assert report["slo"]["total"] > 0
        assert report["slo"]["worst_bucket"] is not None

    def test_stream_section_counts_snapshots(self, artifact_dir):
        report = build_explain_report(artifact_dir)
        assert report["stream"]["snapshots"] >= 10
        assert report["stream"]["span_s"][1] > report["stream"]["span_s"][0]

    def test_rejects_missing_directory(self, tmp_path):
        with pytest.raises(ReproError):
            build_explain_report(tmp_path / "nope")

    def test_rejects_corrupt_artifact(self, tmp_path):
        (tmp_path / "slo.json").write_text("{not json")
        with pytest.raises(ReproError):
            build_explain_report(tmp_path)


class TestSpanFallback:
    def test_trace_only_directory_still_explains(self, artifact_dir, tmp_path):
        (tmp_path / "trace.jsonl").write_text(
            (artifact_dir / "trace.jsonl").read_text()
        )
        report = build_explain_report(tmp_path)
        assert report["sources"]["attribution"] == (
            "trace.jsonl (span-derived approximation)"
        )
        assert report["attribution"]["report"]["count"] > 0
        assert report["tail"]["count"] >= 1
        assert "slo" not in report

    def test_empty_directory_reports_absence(self, tmp_path):
        report = build_explain_report(tmp_path)
        assert set(report["sources"].values()) == {"absent"}
        rendered = render_explain(report)
        assert "no attribution artifact" in rendered


class TestRender:
    def test_rendered_report_answers_both_questions(self, artifact_dir):
        rendered = render_explain(build_explain_report(artifact_dir))
        assert "why was the latency high" in rendered
        assert "where did the power go" in rendered
        assert "slo burn" in rendered
        assert "queries attributed" in rendered
        assert "snapshots" in rendered
        tail = [line for line in rendered.splitlines() if line.startswith("tail:")]
        assert len(tail) == 1
        assert tail[0].startswith("tail: slowest ")
        assert " dominates, " in tail[0] and tail[0].endswith("% queuing")


class TestCli:
    def test_text_output(self, artifact_dir, capsys):
        assert main(["explain", str(artifact_dir)]) == 0
        out = capsys.readouterr().out
        assert "why was the latency high" in out

    def test_json_output_parses(self, artifact_dir, capsys):
        assert main(["explain", str(artifact_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attribution"]["report"]["count"] > 0

    def test_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("attribution.json", "{}"),
            ("slo.json", "[1, 2]"),
            ("audit.jsonl", '{"kind": "bottleneck", "readings": 5}\n'),
            ("slo.json", "{}"),
            ("attribution.json", '{"report": {}, "dropped": 0, "queries": []}'),
            ("trace.jsonl", '{"qid": 1}\n'),
            ("trace.jsonl", json.dumps(OUT_OF_ORDER_SPAN) + "\n"),
            ("energy.json", '{"joules_per_stage": [1]}'),
        ],
    )
    def test_misshapen_artifact_is_one_error_line(
        self, tmp_path, capsys, name, text
    ):
        (tmp_path / name).write_text(text)
        assert main(["explain", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: ") and name in err[0]
