"""Fault plan validation, JSON round-tripping and the built-in catalog."""

from __future__ import annotations

import json
import math

import pytest

import repro.cli
from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults.plan import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    PlanValidationError,
    load_plan,
    named_plans,
)
from repro.scenario import ScenarioSpec


class TestFaultSpecValidation:
    def test_crash_needs_no_duration(self):
        spec = FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=10.0)
        assert spec.duration_s == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=-1.0)

    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.INSTANCE_HANG,
            FaultKind.TELEMETRY_DROPOUT,
            FaultKind.RPC_DELAY,
        ],
    )
    def test_windowed_kinds_need_duration(self, kind):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=kind, at_s=1.0, magnitude=0.5)

    def test_stage_only_for_instance_faults(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(
                kind=FaultKind.TELEMETRY_DROPOUT,
                at_s=1.0,
                duration_s=5.0,
                stage="ASR",
            )

    @pytest.mark.parametrize("magnitude", [0.0, 1.5, -0.5])
    def test_degrade_magnitude_bounds(self, magnitude):
        with pytest.raises(ConfigurationError):
            FaultSpec(
                kind=FaultKind.INSTANCE_DEGRADE,
                at_s=1.0,
                duration_s=5.0,
                magnitude=magnitude,
            )

    @pytest.mark.parametrize("magnitude", [0.0, 1.0])
    def test_loss_probability_bounds(self, magnitude):
        with pytest.raises(ConfigurationError):
            FaultSpec(
                kind=FaultKind.RPC_LOSS,
                at_s=1.0,
                duration_s=5.0,
                magnitude=magnitude,
            )


#: One non-finite number per field and fault kind: NaN slips past every
#: ordered range check and infinity past the lower bounds.
NON_FINITE_SPECS = {
    "crash-at-nan": {"kind": "instance-crash", "at_s": math.nan},
    "hang-for-ever": {"kind": "instance-hang", "at_s": 10.0, "duration_s": math.inf},
    "dropout-at-inf": {
        "kind": "telemetry-dropout",
        "at_s": math.inf,
        "duration_s": 5.0,
    },
    "rpc-delay-inf": {
        "kind": "rpc-delay",
        "at_s": 10.0,
        "duration_s": 5.0,
        "magnitude": math.inf,
    },
    "noise-nan": {
        "kind": "telemetry-noise",
        "at_s": 10.0,
        "duration_s": 5.0,
        "magnitude": math.nan,
    },
    "degrade-for-nan": {
        "kind": "instance-degrade",
        "at_s": 10.0,
        "duration_s": math.nan,
        "magnitude": 0.5,
    },
}


def _plan(spec):
    return {"name": "bad", "specs": [spec]}


@pytest.mark.parametrize(
    "spec", NON_FINITE_SPECS.values(), ids=NON_FINITE_SPECS.keys()
)
class TestNonFiniteNumbers:
    def test_plan_refuses(self, spec):
        with pytest.raises(
            PlanValidationError, match=r"^specs\[0\]: \w+ must be a finite number"
        ):
            FaultPlan.from_dict(_plan(spec))

    def test_chaos_cli_refuses_before_any_run(
        self, spec, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_plan(spec)))
        runs = []
        monkeypatch.setattr(
            repro.cli, "_run_spec", lambda *args, **kwargs: runs.append(args)
        )
        code = main(
            [
                "chaos",
                "sirius",
                "powerchief",
                "--plan",
                str(path),
                "--duration",
                "60",
                "--rate",
                "2",
                "--no-baseline",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert runs == []
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: specs[0]: ")

    def test_inline_plan_refused_at_spec_time(self, spec):
        with pytest.raises(ConfigurationError, match="finite number"):
            ScenarioSpec.latency(
                "sirius", "powerchief", ("constant", 2.0), 60.0, chaos=_plan(spec)
            )


class TestPlanSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            name="mine",
            specs=(
                FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=5.0, stage="ASR"),
                FaultSpec(
                    kind=FaultKind.RPC_LOSS,
                    at_s=10.0,
                    duration_s=20.0,
                    magnitude=0.3,
                ),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self):
        plan = FaultPlan(
            name="json",
            specs=(
                FaultSpec(
                    kind=FaultKind.TELEMETRY_NOISE,
                    at_s=1.0,
                    duration_s=2.0,
                    magnitude=0.1,
                ),
            ),
        )
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"kind": "meteor-strike", "at_s": 1.0})

    def test_touches_rpc(self):
        crash_only = FaultPlan(
            name="c", specs=(FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=1.0),)
        )
        lossy = FaultPlan(
            name="l",
            specs=(
                FaultSpec(
                    kind=FaultKind.RPC_LOSS, at_s=1.0, duration_s=2.0, magnitude=0.1
                ),
            ),
        )
        assert not crash_only.touches_rpc
        assert lossy.touches_rpc


class TestBuiltinPlans:
    def test_catalog(self):
        assert named_plans() == (
            "all-faults",
            "crash-heavy",
            "slow-instances",
            "telemetry-dark",
        )

    @pytest.mark.parametrize("name", named_plans())
    def test_builders_scale_with_duration(self, name):
        short = load_plan(name, 100.0)
        long = load_plan(name, 1000.0)
        assert short.name == name
        assert len(short.specs) == len(long.specs)
        for a, b in zip(short.specs, long.specs):
            assert b.at_s == pytest.approx(10.0 * a.at_s)

    def test_all_faults_covers_every_kind(self):
        assert load_plan("all-faults", 100.0).kinds() == set(FaultKind)

    def test_unknown_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            load_plan("no-such-plan", 100.0)

    def test_load_from_json_file(self, tmp_path):
        plan = FaultPlan(
            name="file",
            specs=(FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=3.0),),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert load_plan(path, 100.0) == plan
