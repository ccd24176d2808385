"""CLI surface of the scenario layer and the new latency flags."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.scenario import ScenarioSpec

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "scenarios"


def _write_preset_spec(argv, path):
    """Write the spec a run command's ``argv`` builds to ``path``."""
    spec = repro.cli._preset_spec(build_parser().parse_args(argv))
    path.write_text(spec.to_json(indent=2), encoding="utf-8")
    return spec


@pytest.fixture
def tiny_scenario(tmp_path):
    spec = ScenarioSpec.latency(
        "sirius", "powerchief", ("constant", 1.0), 40.0, seed=2
    )
    path = tmp_path / "tiny.json"
    path.write_text(spec.to_json(indent=2), encoding="utf-8")
    return spec, path


class TestLatencyFlags:
    def test_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "latency",
                "sirius",
                "powerchief",
                "--budget-watts",
                "30.5",
                "--cores",
                "12",
                "--drain",
                "15",
            ]
        )
        assert args.budget_watts == 30.5
        assert args.cores == 12
        assert args.drain == 15.0

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--budget-watts", "0"),
            ("--budget-watts", "-3"),
            ("--budget-watts", "lots"),
            ("--cores", "0"),
            ("--cores", "2.5"),
            ("--drain", "-1"),
            ("--budget-watts", "inf"),
            ("--budget-watts", "nan"),
            ("--drain", "inf"),
            ("watts", "nan"),
            ("watts", "1e400"),
            ("--poll", "inf"),
            ("--rate", "0"),
            ("--rate", "nan"),
            ("--duration", "-5"),
            ("--duration", "nan"),
            ("--qos-duration", "-1"),
            ("--qos-duration", "inf"),
        ],
    )
    def test_bad_values_rejected_at_parse_time(self, flag, value, capsys):
        # ``watts`` is ``repro ctl budget``'s positional, ``--poll`` a
        # ``repro serve`` flag, ``--qos-duration`` a ``repro headline``
        # flag; ``--rate`` and ``--duration`` are tried on every command
        # that takes them, and the rest are latency flags.
        runs = (
            ["latency", "sirius", "static"],
            ["trace", "sirius"],
            ["chaos", "sirius"],
            ["guard", "sirius"],
            ["qos", "sirius", "pegasus"],
        )
        argvs = {
            "watts": [["ctl", "budget", "run0"]],
            "--poll": [["serve", "--poll"]],
            "--qos-duration": [["headline", "--qos-duration"]],
            "--rate": [[*run, "--rate"] for run in runs],
            "--duration": [[*run, "--duration"] for run in (*runs, ["headline"])],
        }.get(flag, [["latency", "sirius", "static", flag]])
        parser = build_parser()
        for argv in argvs:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([*argv, value])
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    def test_budget_below_the_allocation_names_draw_and_budget(self, capsys):
        argv = ["latency", "sirius", "powerchief", "--budget-watts", "9", "--duration", "30"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "13.560 W" in err and "9.000 W" in err

    def test_drain_defaults_to_zero(self):
        args = build_parser().parse_args(
            ["latency", "sirius", "static"]
        )
        assert args.drain == 0.0
        assert args.budget_watts is None
        assert args.cores is None


class TestRunFlags:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["latency", "sirius", "static"], {"duration": 600.0}),
            (
                ["trace", "sirius"],
                {
                    "duration": 300.0,
                    "policy": "powerchief",
                    "slo_target": 2.0,
                    "output": "trace-out",
                },
            ),
            (
                ["chaos", "sirius"],
                {"duration": 300.0, "policy": "powerchief", "plan": "all-faults"},
            ),
            (
                ["guard", "sirius"],
                {
                    "duration": 600.0,
                    "policy": "powerchief",
                    "plan": "telemetry-dark",
                    "slo_target": 20.0,
                    "ladder": "conserve,safe",
                    "demote_after": 2,
                },
            ),
            (["qos", "sirius", "pegasus"], {"duration": 400.0}),
        ],
        ids=["latency", "trace", "chaos", "guard", "qos"],
    )
    def test_each_command_keeps_its_own_defaults(self, argv, expected):
        # Shared flags are added afresh to each command, so one command's
        # default never leaks into another.
        args = build_parser().parse_args(argv)
        shared = {"seed": 3} if argv[0] == "qos" else {"seed": 3, "load": "high"}
        for name, value in {**shared, **expected}.items():
            assert getattr(args, name) == value, name


class TestScenarioCommand:
    def test_validate_ok(self, tiny_scenario, capsys):
        spec, path = tiny_scenario
        assert main(["scenario", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert spec.digest()[:16] in out

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "latency"}', encoding="utf-8")
        assert main(["scenario", "validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "fields",
        [
            {"trace": ["custom", "X"]},
            {"observe": ["slo"], "options": {"slo_target_s": 2.0, "slo_attainment": 1.5}},
            {"observe": ["slo"], "options": {"slo_target_s": -3.0}},
            {"observe": ["slo"], "options": {"slo_target_s": 2.0, "slo_window_s": 0.0}},
            {"observe": ["stream"], "options": {"stream_interval_s": -1.0}},
        ],
        ids=["custom-trace", "attainment", "slo-target", "slo-window", "stream-interval"],
    )
    def test_validate_rejects_a_spec_run_cannot_build(self, fields, tmp_path, capsys):
        custom = tmp_path / "custom.json"
        spec = {
            "kind": "latency",
            "app": "sirius",
            "policy": "static",
            "duration_s": 10,
            "trace": ["constant", 1.0],
        }
        custom.write_text(json.dumps({**spec, **fields}), encoding="utf-8")
        assert main(["scenario", "validate", str(custom)]) == 1
        assert "invalid" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "options",
        [{"conserve_fraction": 5.0}, {"hold_fraction": -1.0}, {"e2e_window_s": 0.0}],
        ids=["conserve-fraction", "hold-fraction", "e2e-window"],
    )
    def test_validate_rejects_a_qos_option_its_policy_refuses(
        self, options, tmp_path, capsys
    ):
        payload = ScenarioSpec.qos("sirius", "powerchief", 4.0, 30.0).to_dict()
        payload["options"] = options
        custom = tmp_path / "qos.json"
        custom.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["scenario", "validate", str(custom)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["scenario", "validate", str(missing)]) != 0

    def test_dump_emits_canonical_json(self, tiny_scenario, capsys):
        spec, path = tiny_scenario
        assert main(["scenario", "dump", str(path)]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(dumped) == spec


class TestRunCommand:
    def test_run_computes_then_hits_cache(self, tiny_scenario, tmp_path, capsys):
        spec, path = tiny_scenario
        cache = tmp_path / "cache"
        assert (
            main(
                ["run", "--scenario", str(path), "--cache-dir", str(cache)]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert "source=computed" in first
        assert spec.digest()[:16] in first
        assert (
            main(
                ["run", "--scenario", str(path), "--cache-dir", str(cache)]
            )
            == 0
        )
        assert "source=cache" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["latency", "nlp", "inst-boost", "--rate", "1.5", "--duration", "60"],
            ["qos", "sirius", "powerchief", "--rate", "4", "--duration", "120"],
            ["chaos", "sirius", "--plan", "crash-heavy", "--duration", "60", "--no-baseline"],
            ["guard", "sirius", "--rate", "2", "--duration", "60", "--no-baseline"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_run_on_a_preset_spec_prints_the_preset_report(
        self, argv, tmp_path, capsys
    ):
        path = tmp_path / "preset.json"
        spec = _write_preset_spec(argv, path)
        assert main(argv) == 0
        preset = capsys.readouterr().out
        assert main(["run", "--scenario", str(path)]) == 0
        scenario, digest, *report = capsys.readouterr().out.splitlines(True)
        assert scenario == f"scenario {spec.label}\n"
        assert digest == f"digest={spec.digest()[:16]} source=computed\n"
        assert "".join(report) == preset

    def test_run_on_a_trace_spec_prints_the_summary_line(self, tmp_path, capsys):
        out = tmp_path / "trace-out"
        argv = ["trace", "sirius", "--rate", "1", "--duration", "30", "--output", str(out)]
        path = tmp_path / "trace.json"
        _write_preset_spec(argv, path)
        assert main(argv) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert main(["run", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [summary]

    def test_cached_run_prints_the_summary_line(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        _write_preset_spec(["chaos", "sirius", "--plan", "crash-heavy", "--duration", "60"], path)
        argv = ["run", "--scenario", str(path), "--cache-dir", str(tmp_path / "c")]
        for source in ("computed", "cache"):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[1].endswith(f"source={source}")
            assert len(lines) == 3 and " queries, mean " in lines[2]

    def test_run_writes_json(self, tiny_scenario, tmp_path, capsys):
        _, path = tiny_scenario
        out_path = tmp_path / "result.json"
        assert (
            main(["run", "--scenario", str(path), "--json", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["kind"] == "latency"
        assert payload["result"]["queries_completed"] > 0


@pytest.mark.parametrize("doc", ["scenarios.md", "tutorial.md"])
def test_docs_quote_each_example_digest_as_it_is(doc):
    # A quoted digest belongs to the example file named last before it.
    text = (ROOT / "docs" / doc).read_text(encoding="utf-8")
    example, quoted = None, 0
    for match in re.finditer(r"examples/scenarios/(\w+)\.json|\b([0-9a-f]{16})\b", text):
        if match.group(1):
            example = match.group(1)
            continue
        assert example is not None, f"{doc} quotes {match.group(2)} for no example"
        spec = ScenarioSpec.from_json((EXAMPLES / f"{example}.json").read_text())
        assert match.group(2) == spec.digest()[:16], f"{doc}: {example}.json"
        quoted += 1
    assert quoted == 2
