"""CLI surface of the scenario layer and the new latency flags."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.scenario import ScenarioSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


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

    def test_validate_rejects_a_spec_run_cannot_build(self, tmp_path, capsys):
        custom = tmp_path / "custom.json"
        custom.write_text(
            json.dumps(
                {
                    "kind": "latency",
                    "app": "sirius",
                    "policy": "static",
                    "duration_s": 10,
                    "trace": ["custom", "X"],
                }
            ),
            encoding="utf-8",
        )
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

    def test_run_on_a_qos_spec_prints_the_qos_line(self, capsys):
        # The example spec is `repro qos sirius powerchief` at its
        # defaults for rate 4, 120 s and seed 5: both print one line.
        path = EXAMPLES / "qos_sirius.json"
        assert main(["run", "--scenario", str(path)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert "saving" in line
        argv = ["qos", "sirius", "powerchief", "--rate", "4", "--duration", "120"]
        assert main(argv + ["--seed", "5"]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_run_writes_json(self, tiny_scenario, tmp_path, capsys):
        _, path = tiny_scenario
        out_path = tmp_path / "result.json"
        assert (
            main(["run", "--scenario", str(path), "--json", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["kind"] == "latency"
        assert payload["result"]["queries_completed"] > 0
