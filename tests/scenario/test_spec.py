"""ScenarioSpec: validation, JSON round-trips and digest stability."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.cluster.contention import ContentionModel
from repro.core.controller import ControllerConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.scenario import (
    SCENARIO_FORMAT_VERSION,
    ScenarioSpec,
    StageAllocation,
)
from repro.scenario.config import app_stage_names, app_stages
from repro.workloads.loadgen import ConstantLoad, LoadTrace, PiecewiseLoad


def latency_spec(**overrides) -> ScenarioSpec:
    base = dict(
        kind="latency",
        app="sirius",
        policy="powerchief",
        trace=("constant", 1.5),
        duration_s=180.0,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


#: One wrongly typed value per field that ``from_dict`` used to let
#: escape as a TypeError, ValueError or KeyError.
WRONGLY_TYPED = [
    ("allocation", 5),
    ("contention", 5),
    ("controller", "x"),
    ("drain_s", None),
    ("duration_s", None),
    ("guard", "x"),
    ("n_cores", None),
    ("observe", 5),
    ("options", "x"),
    ("rate_qps", None),
    ("sample_interval_s", None),
    ("shards", None),
    ("stats_window_s", None),
    ("trace", 5),
    ("trace", {"kind": "constant"}),
]

#: NaN passes every ordered range check and inf every lower bound, so
#: each of these used to be accepted: an infinite duration never ends a
#: batch run, a NaN one fails the lifecycle after the arrivals ran.
NON_FINITE = [
    (field, value)
    for field in (
        "duration_s",
        "drain_s",
        "sample_interval_s",
        "stats_window_s",
        "rate_qps",
    )
    for value in (math.nan, math.inf)
] + [
    # Load-trace values, checked by building the trace.
    ("trace", ["constant", math.nan]),
    ("trace", ["constant", math.inf]),
    ("trace", ["piecewise", [[0, 2], [10, math.nan]]]),
    ("trace", ["piecewise", [[0, 2], [math.nan, 3]]]),
    ("trace", ["piecewise", [[0, 2], [math.inf, 3]]]),
    ("trace", ["diurnal", math.inf, 0.5, 600.0, 0.0]),
    ("trace", ["diurnal", 2.0, 0.5, math.nan, 0.0]),
    ("trace", ["diurnal", 2.0, 0.5, 600.0, math.nan]),
]


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_spec(kind="batch")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_spec(policy="psychic")
        with pytest.raises(ConfigurationError):
            ScenarioSpec.qos("sirius", "freq-boost", 4.0, 60.0)

    def test_qos_forbids_latency_only_fields(self):
        for field, value in [
            ("trace", ("constant", 1.0)),
            ("budget_watts", 30.0),
            ("shards", 2),
            ("drain_s", 10.0),
            ("chaos", "crash-heavy"),
        ]:
            with pytest.raises(ConfigurationError):
                ScenarioSpec(
                    kind="qos",
                    app="sirius",
                    policy="powerchief",
                    rate_qps=4.0,
                    duration_s=60.0,
                    **{field: value},
                )

    def test_controller_keys_must_be_config_fields(self):
        with pytest.raises(ConfigurationError):
            latency_spec(controller=(("warp_factor", 9.0),))
        fields = {f.name for f in dataclasses.fields(ControllerConfig)}
        assert "adjust_interval_s" in fields
        latency_spec(controller=(("adjust_interval_s", 25.0),))

    def test_allocation_counts_positive(self):
        with pytest.raises(ConfigurationError):
            StageAllocation(count=0, level=1.8)

    def test_unknown_splitter_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_spec(shards=2, splitter="coin-flip")

    def test_unknown_observe_pillar_rejected(self):
        with pytest.raises(ConfigurationError, match="pillar"):
            latency_spec(observe=("tracing",))

    def test_accounting_pillars_are_known(self):
        spec = latency_spec(
            observe=(
                "trace",
                "metrics",
                "audit",
                "attribution",
                "slo",
                "energy",
                "stream",
            ),
            options=(("slo_target_s", 2.0),),
        )
        assert "energy" in spec.observe

    def test_energy_needs_metrics(self):
        with pytest.raises(ConfigurationError, match="metrics"):
            latency_spec(observe=("energy",))

    def test_energy_rejected_on_sharded_scenarios(self):
        with pytest.raises(ConfigurationError, match="sharded"):
            latency_spec(observe=("energy", "metrics"), shards=2)

    def test_latency_slo_needs_a_target_option(self):
        with pytest.raises(ConfigurationError, match="slo_target_s"):
            latency_spec(observe=("slo",))
        latency_spec(observe=("slo",), options=(("slo_target_s", 1.5),))

    def test_qos_slo_defaults_without_a_target(self):
        spec = ScenarioSpec.qos(
            "sirius", "powerchief", 4.0, 60.0, observe=("slo",)
        )
        assert "slo" in spec.observe

    @pytest.mark.parametrize("field", ["trace", "contention"])
    def test_custom_kind_rejected_at_spec_time(self, field):
        # A "custom" marker names a type but carries no parameters, so a
        # spec holding one could never run; it must not validate either.
        payload = latency_spec().to_dict()
        payload[field] = ["custom", "X"]
        with pytest.raises(ConfigurationError, match="kind 'custom'"):
            ScenarioSpec.from_dict(payload)

    def test_unnameable_trace_and_contention_objects_rejected(self):
        class Custom(LoadTrace):
            def rate_at(self, time: float) -> float:
                return 1.0

        class Crowding(ContentionModel):
            def slowdown(self, active_cores: int, total_cores: int) -> float:
                return 1.0

        with pytest.raises(ConfigurationError, match="cannot describe trace"):
            ScenarioSpec.latency("sirius", "static", Custom(), 60.0)
        with pytest.raises(ConfigurationError, match="cannot describe contention"):
            ScenarioSpec.latency(
                "sirius", "static", ("constant", 1.0), 60.0, contention=Crowding()
            )

    @pytest.mark.parametrize("field, value", NON_FINITE)
    def test_non_finite_number_rejected(self, field, value):
        if field == "rate_qps":
            payload = ScenarioSpec.qos("sirius", "powerchief", 4.0, 120.0).to_dict()
        else:
            payload = latency_spec().to_dict()
        payload[field] = value
        with pytest.raises(ConfigurationError, match="finite number"):
            ScenarioSpec.from_dict(payload)


#: Every number in the controller and guard blocks; the counts also
#: refuse fractions and booleans.
CONTROLLER_NUMBERS = (
    "adjust_interval_s",
    "balance_threshold_s",
    "withdraw_interval_s",
    "withdraw_utilization",
    "min_queue_for_instance",
)
GUARD_NUMBERS = (
    "demote_after",
    "violation_window_s",
    "probation_s",
    "osc_window_s",
    "osc_max_flips",
    "burn_threshold",
    "storm_ticks",
    "conserve_headroom",
)
COUNTS = (
    ("controller", "min_queue_for_instance"),
    ("guard", "demote_after"),
    ("guard", "osc_max_flips"),
    ("guard", "storm_ticks"),
)

#: The numeric options the builder reads.
NUMERIC_OPTIONS = (
    "slo_target_s",
    "slo_attainment",
    "slo_window_s",
    "stream_interval_s",
    "e2e_window_s",
    "hold_fraction",
    "conserve_fraction",
    "guard_fraction",
)


class TestValuesTheBuilderReads:
    """Whatever the builder would choke on is refused when the spec is made."""

    def refused(self, match, **changes):
        payload = dict(latency_spec().to_dict(), **changes)
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", CONTROLLER_NUMBERS)
    def test_non_finite_controller_value_refused(self, field, value):
        self.refused(field, controller={field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", GUARD_NUMBERS)
    def test_non_finite_guard_value_refused(self, field, value):
        self.refused(field, guard={field: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    @pytest.mark.parametrize("block, field", COUNTS)
    def test_counts_must_be_integers(self, block, field, value):
        self.refused(f"{field} must be an integer", **{block: {field: value}})

    @pytest.mark.parametrize("watts", [math.nan, math.inf, 0.0, -1.0])
    def test_budget_must_be_finite_and_positive(self, watts):
        self.refused("budget", budget_watts=watts)

    @pytest.mark.parametrize("freq", [math.nan, math.inf, 1.85, 3.0])
    def test_initial_frequency_must_be_on_the_ladder(self, freq):
        self.refused("initial frequency", initial_freq_ghz=freq)

    @pytest.mark.parametrize("level", [-1, 13, 6.5, True])
    def test_allocation_level_must_be_on_the_ladder(self, level):
        allocation = [["ASR", 1, level], ["IMM", 1, 6], ["QA", 1, 6]]
        self.refused("allocation level", allocation=allocation)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "soon"])
    @pytest.mark.parametrize("key", NUMERIC_OPTIONS)
    def test_numeric_option_must_be_finite(self, key, value):
        self.refused(key, options={key: value})

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"hold_fraction": -1.0}, "hold fraction must be in"),
            ({"hold_fraction": 1.0}, "hold fraction must be in"),
            ({"conserve_fraction": 5.0}, "fractions must satisfy"),
            ({"guard_fraction": -0.5}, "fractions must satisfy"),
            ({"guard_fraction": 1.5}, "fractions must satisfy"),
            # Each against the other's default (0.92 and 0.75).
            ({"conserve_fraction": 0.95}, "fractions must satisfy"),
            ({"guard_fraction": 0.7}, "fractions must satisfy"),
            (
                {"conserve_fraction": 0.9, "guard_fraction": 0.9},
                "option 'conserve_fraction' and 'guard_fraction': fractions",
            ),
            ({"e2e_window_s": 0.0}, "e2e window must be"),
            ({"e2e_window_s": -5.0}, "e2e window must be"),
        ],
    )
    @pytest.mark.parametrize("policy", ["pegasus", "powerchief"])
    def test_qos_controller_option_refused_as_its_policy_refuses_it(
        self, policy, options, match
    ):
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.qos("sirius", policy, 4.0, 30.0, **options)

    def test_qos_fractions_are_checked_together(self):
        # Either fraction may move past the other's default when the
        # other moves too.
        spec = ScenarioSpec.qos(
            "sirius", "powerchief", 4.0, 30.0, conserve_fraction=0.95, guard_fraction=0.99
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_qos_option_refused(self):
        with pytest.raises(ConfigurationError, match="unknown qos options: hold_fracton"):
            ScenarioSpec.qos("sirius", "pegasus", 1.0, 60.0, hold_fracton=0.8)

    def test_valid_blocks_keep_their_digest(self):
        # Values are refused, never coerced: a valid spec is unchanged.
        spec = latency_spec(
            budget_watts=18.0,
            initial_freq_ghz=2.0,
            allocation=(("ASR", 2, 8), ("IMM", 1, 8), ("QA", 2, 8)),
            controller=(("adjust_interval_s", 25), ("min_queue_for_instance", 3)),
            guard=(("demote_after", 1), ("probation_s", 60)),
            options=(("e2e_window_s", 30),),
        )
        assert ScenarioSpec.from_json(spec.to_json()).digest() == spec.digest()
        assert spec.to_dict()["controller"]["adjust_interval_s"] == 25


def _allocation(*stages):
    return tuple((stage, 1, 6) for stage in stages)


#: Specs that used to validate and then fail at ``build()`` (or, for the
#: extra stage, build an app that ignored the entry), as (dict changes to
#: a valid spec, the refusal's message).
CANNOT_RUN = [
    ({"app": "siri"}, "unknown app 'siri' \\(known: nlp, sirius, websearch\\)"),
    ({"allocation": _allocation("ASR")}, "no entry for IMM, QA"),
    ({"allocation": _allocation("ASR", "IMM", "QA", "XYZ")}, "unknown XYZ"),
    (
        {"allocation": _allocation("ASR", "ASR", "IMM", "QA")},
        "more than one entry for ASR",
    ),
    (
        {"app": "nlp", "allocation": _allocation("ASR", "IMM", "QA")},
        "no entry for POS, PSG, SRL; unknown ASR, IMM, QA",
    ),
]


#: Every application the builder assembles.
APPS = ("nlp", "sirius", "websearch")


class TestAppAndStages:
    """An app, QoS deployment or allocation the builder cannot assemble
    is refused when the spec is made."""

    @pytest.mark.parametrize(
        "changes, match", CANNOT_RUN, ids=["app", "missing", "extra", "twice", "other-app"]
    )
    def test_refused_at_spec_time_and_from_json(self, changes, match):
        with pytest.raises(ConfigurationError, match=match):
            latency_spec(**changes)
        payload = dict(latency_spec().to_dict(), **changes)
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_friendly_constructor_refuses_a_partial_allocation(self):
        with pytest.raises(ConfigurationError, match="no entry for IMM, QA"):
            ScenarioSpec.latency(
                "sirius",
                "powerchief",
                ("constant", 1.0),
                60.0,
                allocation={"ASR": StageAllocation(1, 6)},
            )

    @pytest.mark.parametrize("app", ["nlp", "foo"])
    def test_qos_needs_a_table3_deployment(self, app):
        match = f"unknown QoS deployment '{app}' \\(known: sirius, websearch\\)"
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.qos(app, "baseline", 4.0, 60.0)
        payload = dict(ScenarioSpec.qos("sirius", "baseline", 4.0, 60.0).to_dict(), app=app)
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_every_app_validates_with_its_full_allocation(self):
        for app in APPS:
            allocation = {stage: StageAllocation(1, 6) for stage in app_stage_names(app)}
            spec = ScenarioSpec.latency(
                app, "static", ("constant", 1.0), 60.0, allocation=allocation
            )
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_stage_names_match_the_profiles_the_builder_makes(self):
        for app in APPS:
            names = tuple(profile.name for profile, _ in app_stages(app))
            assert app_stage_names(app) == names

    def test_both_lookups_refuse_an_unknown_app_alike(self):
        match = "unknown app 'siri' \\(known: nlp, sirius, websearch\\)"
        with pytest.raises(ConfigurationError, match=match):
            app_stage_names("siri")
        with pytest.raises(ConfigurationError, match=match):
            app_stages("siri")


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = latency_spec(
            shards=2,
            drain_s=30.0,
            chaos="crash-heavy",
            controller=(("adjust_interval_s", 25.0), ("stale_metric_guard", True)),
            options=(("n_cores", 16),),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_qos_round_trip(self):
        spec = ScenarioSpec.qos(
            "sirius",
            "powerchief",
            4.0,
            120.0,
            seed=5,
            conserve_fraction=0.75,
            guard_fraction=0.92,
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_version_stamped_and_checked(self):
        payload = latency_spec().to_dict()
        assert payload["version"] == SCENARIO_FORMAT_VERSION
        payload["version"] = SCENARIO_FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(payload)

    def test_unknown_keys_rejected(self):
        payload = latency_spec().to_dict()
        payload["warp"] = True
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("field, value", WRONGLY_TYPED)
    def test_wrongly_typed_field_is_a_configuration_error(self, field, value):
        if field == "rate_qps":
            payload = ScenarioSpec.qos("sirius", "powerchief", 4.0, 120.0).to_dict()
        else:
            payload = latency_spec().to_dict()
        payload[field] = value
        with pytest.raises(ConfigurationError, match="wrongly typed"):
            ScenarioSpec.from_dict(payload)

    def test_trace_variants_round_trip(self):
        constant = latency_spec(trace=("constant", 2.5))
        piecewise = latency_spec(
            trace=("piecewise", ((0.0, 1.0), (60.0, 3.0), (120.0, 1.5)))
        )
        diurnal = latency_spec(trace=("diurnal", 2.0, 0.5, 600.0, 0.0))
        for spec in (constant, piecewise, diurnal):
            restored = ScenarioSpec.from_json(spec.to_json())
            assert restored == spec

    def test_inline_chaos_plan_round_trips(self):
        plan = FaultPlan(
            name="one-crash",
            specs=(
                FaultSpec(
                    kind=FaultKind.INSTANCE_CRASH,
                    at_s=30.0,
                    stage="asr",
                ),
            ),
        )
        spec = ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.5), 180.0, seed=7, chaos=plan
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.digest() == spec.digest()
        rebuilt = restored.chaos_plan()
        assert rebuilt is not None
        assert len(rebuilt.specs) == 1
        assert rebuilt.specs[0].kind is FaultKind.INSTANCE_CRASH


class TestDigest:
    def test_digest_stable_across_key_order(self):
        spec = latency_spec(
            controller=(("balance_threshold_s", 0.25), ("adjust_interval_s", 25.0)),
        )
        payload = spec.to_dict()
        shuffled = json.dumps(dict(reversed(list(payload.items()))))
        restored = ScenarioSpec.from_json(shuffled)
        assert restored.digest() == spec.digest()

    def test_digest_changes_with_seed(self):
        assert latency_spec(seed=7).digest() != latency_spec(seed=8).digest()

    def test_digest_is_hex_sha256(self):
        digest = latency_spec().digest()
        assert len(digest) == 64
        int(digest, 16)


class TestHelpers:
    def test_latency_classmethod_accepts_load_objects(self):
        from_tuple = ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.5), 180.0, seed=7
        )
        from_load = ScenarioSpec.latency(
            "sirius", "powerchief", ConstantLoad(1.5), 180.0, seed=7
        )
        assert from_tuple == from_load

    def test_piecewise_load_object_converts(self):
        load = PiecewiseLoad(((0.0, 1.0), (60.0, 2.0)))
        spec = ScenarioSpec.latency("sirius", "powerchief", load, 120.0)
        assert spec.trace[0] == "piecewise"

    def test_label_identifies_the_run(self):
        assert "x2" in latency_spec(shards=2).label
        qos_label = ScenarioSpec.qos("sirius", "baseline", 2.0, 60.0, seed=9).label
        assert qos_label.startswith("qos:sirius/baseline")
        assert "seed=9" in qos_label

    def test_controller_config_materialises(self):
        spec = latency_spec(controller=(("adjust_interval_s", 25.0),))
        config = spec.controller_config()
        assert config is not None and config.adjust_interval_s == 25.0
        assert latency_spec().controller_config() is None


class TestGuardBlock:
    def test_guard_block_round_trips(self):
        from repro.guard import GuardConfig, guard_to_spec

        config = GuardConfig(ladder="safe", demote_after=1, probation_s=50.0)
        spec = latency_spec(guard=guard_to_spec(config))
        assert spec.guard_config() == config
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.guard_config() == config

    def test_latency_classmethod_accepts_guard_forms(self):
        from repro.guard import GuardConfig

        config = GuardConfig(demote_after=1)
        from_config = ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.5), 180.0, guard=config
        )
        from_mapping = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            180.0,
            guard={
                "ladder": config.ladder,
                "demote_after": 1,
                "violation_window_s": config.violation_window_s,
                "probation_s": config.probation_s,
                "osc_window_s": config.osc_window_s,
                "osc_max_flips": config.osc_max_flips,
                "burn_threshold": config.burn_threshold,
                "storm_ticks": config.storm_ticks,
                "conserve_headroom": config.conserve_headroom,
            },
        )
        assert from_config == from_mapping
        assert from_config.guard_config() == config

    def test_empty_guard_block_means_disabled(self):
        spec = latency_spec()
        assert spec.guard == ()
        assert spec.guard_config() is None
        assert spec.to_dict()["guard"] == {}

    def test_unknown_guard_option_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown guard option"):
            latency_spec(guard=(("panic_mode", True),))

    def test_invalid_guard_values_fail_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="demote_after"):
            latency_spec(guard=(("demote_after", 0),))

    def test_qos_rejects_guard(self):
        spec = ScenarioSpec.qos("sirius", "baseline", 2.0, 60.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, guard=(("demote_after", 1),))

    def test_guard_block_changes_the_digest(self):
        plain = latency_spec()
        guarded = latency_spec(guard=(("demote_after", 1),))
        assert plain.digest() != guarded.digest()
