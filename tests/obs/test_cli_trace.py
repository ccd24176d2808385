"""End-to-end tests: the observability-wired runner and ``repro trace``.

These are the same assertions the CI trace smoke step makes — every
artifact exists, is non-empty, and parses under its schema — plus the
runner-level checks that one observed run populates all three pillars.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.audit import BottleneckEntry
from repro.obs.trace import spans_from_chrome_trace, spans_from_jsonl
from repro.scenario import ScenarioSpec, StackBuilder, run_scenario

SPAN_KEYS = {
    "qid",
    "stage",
    "instance_id",
    "instance",
    "enqueue_time",
    "start_time",
    "finish_time",
    "queue_at_arrival",
    "service_level",
    "work",
}


class TestObservedRunner:
    @pytest.fixture(scope="class")
    def observed_run(self):
        builder = StackBuilder(
            ScenarioSpec.latency(
                "sirius",
                "powerchief",
                ("constant", 1.5),
                120.0,
                seed=3,
                observe=("trace", "metrics", "audit"),
            )
        )
        result = builder.execute()
        return builder.observability, result

    def test_all_three_pillars_populated(self, observed_run):
        observability, result = observed_run
        assert result.queries_completed > 0
        assert len(observability.tracer) > 0
        assert len(observability.audit) > 0
        assert len(observability.metrics) > 0

    def test_span_count_tracks_stage_visits(self, observed_run):
        observability, result = observed_run
        # Sirius has four stages; completed queries visited all of them,
        # in-flight ones a prefix, so spans land in this bracket.
        assert len(observability.tracer) >= result.queries_completed
        assert len(observability.tracer) <= result.queries_submitted * 4

    def test_power_metrics_routed(self, observed_run):
        observability, result = observed_run
        metrics = observability.metrics
        samples = metrics.counter("repro_power_samples_total").value()
        assert samples > 0
        assert metrics.gauge("repro_power_peak_watts").value() > 0.0
        assert metrics.counter("repro_sim_events_total").value() > 0
        assert metrics.histogram("repro_power_sample_watts").count == samples

    def test_audit_saw_rankings(self, observed_run):
        observability, _ = observed_run
        assert observability.audit.of_kind(BottleneckEntry)

    def test_observability_defaults_off(self):
        result = run_scenario(
            ScenarioSpec.latency("sirius", "static", ("constant", 1.0), 30.0, seed=3)
        )
        assert result.queries_completed > 0


class TestTraceCommand:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace-out")
        code = main(
            [
                "trace",
                "sirius",
                "powerchief",
                "--duration",
                "90",
                "--rate",
                "1.5",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        return out

    def test_artifacts_exist_and_non_empty(self, trace_dir):
        for name in ("trace.jsonl", "trace.chrome.json", "metrics.prom", "audit.jsonl"):
            path = trace_dir / name
            assert path.exists(), f"missing artifact {name}"
            assert path.stat().st_size > 0, f"empty artifact {name}"

    def test_jsonl_schema(self, trace_dir):
        spans = spans_from_jsonl((trace_dir / "trace.jsonl").read_text())
        assert spans
        for line in (trace_dir / "trace.jsonl").read_text().splitlines():
            assert set(json.loads(line)) == SPAN_KEYS

    def test_chrome_trace_matches_jsonl(self, trace_dir):
        jsonl_spans = spans_from_jsonl((trace_dir / "trace.jsonl").read_text())
        chrome = json.loads((trace_dir / "trace.chrome.json").read_text())
        assert chrome["otherData"]["span_count"] == len(jsonl_spans)
        assert spans_from_chrome_trace(chrome) == jsonl_spans

    def test_metrics_dump_is_prometheus_text(self, trace_dir):
        text = (trace_dir / "metrics.prom").read_text()
        assert "# TYPE repro_queries_completed_total counter" in text
        assert "# TYPE repro_power_watts gauge" in text
        assert "# TYPE repro_query_e2e_latency_seconds histogram" in text
        assert 'repro_query_e2e_latency_seconds_bucket{le="+Inf"}' in text

    def test_audit_jsonl_schema(self, trace_dir):
        entries = [
            json.loads(line)
            for line in (trace_dir / "audit.jsonl").read_text().splitlines()
        ]
        assert entries
        assert all("kind" in entry and "time" in entry for entry in entries)
        kinds = {entry["kind"] for entry in entries}
        assert "bottleneck" in kinds

    def test_default_policy_is_powerchief(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "sirius",
                "--duration",
                "30",
                "--rate",
                "1.0",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "sirius/powerchief" in capsys.readouterr().out

    def test_streamed_spec_names_no_output_file(self, tmp_path, monkeypatch):
        # The stream is written to OUTPUT/stream.jsonl while the run
        # goes, yet the spec that ran names no file: running it again,
        # from anywhere, writes nothing there.
        import repro.cli

        out = tmp_path / "out"
        specs = []
        run_spec = repro.cli._run_spec

        def recording(spec, *args, **kwargs):
            specs.append(spec)
            return run_spec(spec, *args, **kwargs)

        monkeypatch.setattr(repro.cli, "_run_spec", recording)
        argv = ["trace", "sirius", "--duration", "30", "--rate", "1.0"]
        assert main(argv + ["--stream", "--output", str(out)]) == 0
        stream = out / "stream.jsonl"
        assert stream.read_text().splitlines()
        (spec,) = specs
        assert str(out) not in spec.to_json()
        stream.unlink()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "spec.json").write_text(spec.to_json())
        monkeypatch.chdir(elsewhere)
        assert main(["run", "--scenario", "spec.json"]) == 0
        assert not stream.exists()
        assert sorted(path.name for path in elsewhere.iterdir()) == ["spec.json"]

    def test_refused_spec_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "trace",
                "sirius",
                "--slo-attainment",
                "1.5",
                "--duration",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
