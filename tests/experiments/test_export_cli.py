"""Unit tests for result export and the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest

from repro.cli import build_parser, main
from repro.core.actions import ActionRecord
from repro.errors import ExperimentError
from repro.experiments.export import (
    scenario_payload,
    scenario_result_from_payload,
    write_json,
)
from repro.scenario import ScenarioSpec, run_scenario


@pytest.fixture(scope="module")
def latency_result():
    return run_scenario(
        ScenarioSpec.latency("sirius", "powerchief", ("constant", 1.5), 200.0, seed=3)
    )


@pytest.fixture(scope="module")
def qos_result():
    return run_scenario(ScenarioSpec.qos("websearch", "powerchief", 6.0, 60.0, seed=3))


@pytest.fixture(scope="module")
def sharded_result():
    # So few queries that least-in-flight leaves shards without one.
    return run_scenario(
        ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 0.05), 120.0, seed=7, shards=4
        )
    )


def one_action_of_each_type() -> tuple[ActionRecord, ...]:
    """An instance of every concrete action record, with filler values."""
    filler = {int: 3, float: 1.25, str: "x"}
    actions = []
    for cls in ActionRecord.__subclasses__():
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        actions.append(cls(**{f.name: filler[hints[f.name]] for f in fields}))
    return tuple(actions)


def result_payload(result) -> dict:
    """What ``repro latency``/``qos --json`` write for a result."""
    return scenario_payload(result)["result"]


class TestCodec:
    def test_every_action_type_is_covered(self):
        names = {type(a).__name__ for a in one_action_of_each_type()}
        assert {"FrequencyChangeAction", "SkipAction"} <= names
        assert len(names) == len(ActionRecord.__subclasses__())

    @pytest.mark.parametrize("kind", ["latency", "qos", "sharded"])
    def test_json_round_trip_is_lossless_and_stable(
        self, kind, latency_result, qos_result, sharded_result
    ):
        result = {
            "latency": dataclasses.replace(
                latency_result,
                actions=one_action_of_each_type() + latency_result.actions,
            ),
            "qos": qos_result,
            "sharded": sharded_result,
        }[kind]
        text = json.dumps(scenario_payload(result), sort_keys=True)
        assert json.loads(text)["kind"] == kind
        decoded = scenario_result_from_payload(json.loads(text))
        assert decoded == result
        assert json.dumps(scenario_payload(decoded), sort_keys=True) == text

    def test_sharded_fixture_has_a_shard_without_latency(self, sharded_result):
        assert any(shard.latency is None for shard in sharded_result.shards)

    def test_qos_payload_carries_the_power_saving(self, qos_result):
        payload = result_payload(qos_result)
        assert payload["power_saving_fraction"] == qos_result.power_saving_fraction

    def test_tuple_of_scalars_decodes_to_a_tuple(self):
        # No result field has this shape yet; a new one needs no codec edit.
        from repro.experiments.export import _decoder

        assert _decoder(tuple[float, ...])([1.5, 2.5]) == (1.5, 2.5)

    def test_unknown_kind_and_action_type_are_rejected(self, latency_result):
        with pytest.raises(ExperimentError, match="payload kind"):
            scenario_result_from_payload({"kind": "mystery", "result": {}})
        payload = json.loads(json.dumps(scenario_payload(latency_result)))
        payload["result"]["actions"][0]["type"] = "MysteryAction"
        with pytest.raises(ExperimentError, match="action type"):
            scenario_result_from_payload(payload)


class TestExport:
    def test_run_result_roundtrips_through_json(self, latency_result):
        payload = result_payload(latency_result)
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["app"] == "sirius"
        assert restored["policy"] == "powerchief"
        assert restored["queries_completed"] == latency_result.queries_completed
        assert restored["latency"]["mean"] == pytest.approx(
            latency_result.latency.mean
        )

    def test_actions_are_typed(self, latency_result):
        payload = result_payload(latency_result)
        assert payload["actions"]
        assert all("type" in action for action in payload["actions"])
        types = {action["type"] for action in payload["actions"]}
        assert types <= {
            "FrequencyChangeAction",
            "InstanceLaunchAction",
            "InstanceWithdrawAction",
            "SkipAction",
        }

    def test_state_samples_serialised(self, latency_result):
        payload = result_payload(latency_result)
        assert payload["state_samples"]
        sample = payload["state_samples"][0]
        assert {"time", "stages", "total_power_watts"} <= set(sample)

    def test_qos_result_roundtrips(self, qos_result):
        payload = result_payload(qos_result)
        restored = json.loads(json.dumps(payload))
        assert restored["qos_target_s"] == pytest.approx(0.25)
        assert 0.0 <= restored["average_power_fraction"] <= 1.0
        assert restored["qos_samples"]

    def test_write_json_creates_parents(self, tmp_path, latency_result):
        target = tmp_path / "nested" / "result.json"
        written = write_json(target, result_payload(latency_result))
        assert written.exists()
        assert json.loads(written.read_text())["app"] == "sirius"


class TestCli:
    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_figures_table(self, capsys):
        assert main(["figures", "table4"]) == 0
        out = capsys.readouterr().out
        assert "PowerChief versus existing work" in out

    def test_latency_command(self, capsys):
        code = main(
            ["latency", "sirius", "static", "--load", "low", "--duration", "120", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sirius/static" in out
        assert "mean" in out

    def test_latency_command_with_explicit_rate_and_json(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        code = main(
            [
                "latency",
                "nlp",
                "powerchief",
                "--rate",
                "1.0",
                "--duration",
                "120",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        assert json.loads(target.read_text())["app"] == "nlp"

    def test_qos_command(self, capsys):
        code = main(
            ["qos", "websearch", "pegasus", "--duration", "60", "--rate", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "websearch/pegasus" in out
        assert "saving" in out

    def test_qos_command_json(self, tmp_path):
        target = tmp_path / "qos.json"
        code = main(
            [
                "qos",
                "sirius",
                "baseline",
                "--duration",
                "60",
                "--rate",
                "4",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["policy"] == "baseline"

    def test_error_paths_return_nonzero(self, capsys):
        # Arrival rate of ~0 completes no queries -> ExperimentError -> rc 1.
        code = main(
            ["latency", "sirius", "static", "--rate", "0.0001", "--duration", "10"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
