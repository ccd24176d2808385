"""The paper's shape claims, checked on the figures the campaign renders.

PowerChief's evaluation (Section 8) is a set of shape claims: which
policy wins in each regime, the rough size of the win, and where the
crossovers fall.  Absolute latencies are not expected to match a
simulated testbed; these shapes are.  Each claim is one test, checked on
the full-size result of one default-registry artefact at its default
seeds (3 and 5; 3 for Figures 11, 13 and 14), or on the abstract's
headline numbers aggregated from Figures 10, 12, 13 and 14.  Those are
the results whose renders ``output_digests.json`` pins
(:func:`~tests.integration.golden_cells.registry_results`), so the
claims simulate nothing of their own, and a model change that re-pins
the renders still has to keep every claim.

A claim reads one value from a result and compares it with a constant,
or with ``factor`` times a second value of the same result.  The
headline holds the abstract's claims; a figure holds the claims the
abstract does not state.
"""

from __future__ import annotations

import operator
from operator import attrgetter
from typing import Any, Callable, NamedTuple

import pytest

from repro.experiments.campaign import default_registry
from repro.experiments.headline import compute_headline
from repro.scenario.config import TABLE2_POWER_BUDGET_WATTS

from tests.integration.golden_cells import registry_results

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Claim(NamedTuple):
    """``measure(result) op factor * bound`` on one artefact's result;
    ``bound`` is a constant or a second reading of the result."""

    figure: str
    name: str
    measure: Callable[[Any], Any]
    op: str
    bound: Any
    factor: float = 1.0


# Readings of an improvement grid (Figures 4, 10 and 12).
def avg(policy: str, load: str) -> Callable[[Any], float]:
    return lambda result: result.cell(policy, load).avg_improvement


def p99(policy: str, load: str) -> Callable[[Any], float]:
    return lambda result: result.cell(policy, load).p99_improvement


def best_avg(load: str) -> Callable[[Any], float]:
    """The better single technique's average improvement at ``load``."""
    return lambda result: max(
        avg("freq-boost", load)(result), avg("inst-boost", load)(result)
    )


def across_loads(policy: str) -> Callable[[Any], float]:
    return lambda result: result.average_improvement(policy)[0]


# Readings of the Figure-11 runs.
def launches(policy: str) -> Callable[[Any], int]:
    return lambda result: result.launches(policy)


def withdrawals(policy: str) -> Callable[[Any], int]:
    return lambda result: result.withdrawals(policy)


def mean_latency(policy: str) -> Callable[[Any], float]:
    return lambda result: result.run_for(policy).latency.mean


def final_frequencies(result: Any) -> list[float]:
    """Every core's frequency at instance boosting's last sample."""
    final = result.run_for("inst-boost").state_samples[-1]
    return [ghz for stage in final.stages for _, ghz in stage.frequencies]


# Readings of a QoS figure (Figures 13 and 14).
def power(policy: str) -> Callable[[Any], float]:
    return lambda result: result.run_for(policy).average_power_fraction


def violations(policy: str) -> Callable[[Any], float]:
    return lambda result: result.run_for(policy).violation_fraction


CLAIMS = [
    # Figure 2: which stage is boosted matters (the paper's motivation;
    # its best bar is more than 40% better than a wrong one).
    Claim("fig02", "qa-is-the-best-boost", lambda r: r.best().stage, "==", "QA"),
    Claim("fig02", "imm-is-the-worst-boost", lambda r: r.worst().stage, "==", "IMM"),
    Claim(
        "fig02", "worst-boost-over-1.3x-best",
        lambda r: r.worst().normalized_latency, ">",
        lambda r: r.best().normalized_latency, 1.3,
    ),
    Claim(
        "fig02", "best-boost-matches-the-baseline",
        lambda r: r.best().normalized_latency, "<=", 1.05,
    ),
    # Figure 4: instance boosting for queuing, frequency for serving
    # (paper: instance 25.11x against frequency 1.82x average at high
    # load; frequency 1.41x against instance 1.04x p99 at low load).
    Claim(
        "fig04", "high-load-inst-over-3x-freq",
        avg("inst-boost", "high"), ">", avg("freq-boost", "high"), 3.0,
    ),
    Claim("fig04", "high-load-inst-over-8x", avg("inst-boost", "high"), ">", 8.0),
    Claim(
        "fig04", "low-load-freq-tail-within-1.1x-inst",
        lambda r: r.cell("freq-boost", "low").p99_latency_s, "<=",
        lambda r: r.cell("inst-boost", "low").p99_latency_s, 1.1,
    ),
    Claim("fig04", "low-load-inst-under-2x", avg("inst-boost", "low"), "<", 2.0),
    Claim(
        "fig04", "inst-advantage-grows-with-load",
        lambda r: avg("inst-boost", "high")(r) / avg("freq-boost", "high")(r), ">",
        lambda r: avg("inst-boost", "low")(r) / avg("freq-boost", "low")(r),
    ),
    # Figure 10: PowerChief tracks the better technique at every Sirius
    # load (paper: 32.8x average, 19.5x p99 at high load).
    Claim("fig10", "high-load-powerchief-over-10x", avg("powerchief", "high"), ">", 10.0),
    Claim(
        "fig10", "high-load-powerchief-tail-over-5x", p99("powerchief", "high"), ">", 5.0
    ),
    *(
        Claim(
            "fig10", f"{load}-load-powerchief-tracks-the-best",
            avg("powerchief", load), ">=", best_avg(load), 0.85,
        )
        for load in ("low", "medium", "high")
    ),
    Claim(
        "fig10", "high-load-inst-beats-freq",
        avg("inst-boost", "high"), ">", avg("freq-boost", "high"),
    ),
    Claim(
        "fig10", "high-load-every-policy-beats-static",
        lambda r: min(
            avg(policy, "high")(r)
            for policy in ("freq-boost", "inst-boost", "powerchief")
        ),
        ">", 1.0,
    ),
    Claim(
        "fig10", "low-load-powerchief-within-1.1x-freq",
        lambda r: r.cell("powerchief", "low").mean_latency_s, "<=",
        lambda r: r.cell("freq-boost", "low").mean_latency_s, 1.1,
    ),
    Claim(
        "fig10", "powerchief-beats-freq-across-loads",
        across_loads("powerchief"), ">", across_loads("freq-boost"),
    ),
    # Figure 11: the runtime behaviours under fluctuating load.
    Claim("fig11", "freq-boost-never-launches", launches("freq-boost"), "==", 0),
    Claim("fig11", "freq-boost-never-withdraws", withdrawals("freq-boost"), "==", 0),
    Claim("fig11", "inst-boost-launches-3-clones", launches("inst-boost"), ">=", 3),
    Claim("fig11", "inst-boost-never-withdraws", withdrawals("inst-boost"), "==", 0),
    Claim(
        "fig11", "inst-boost-ends-locked-at-the-floor",
        lambda r: sum(1 for ghz in final_frequencies(r) if ghz == pytest.approx(1.2)),
        ">=", lambda r: len(final_frequencies(r)) - 1,
    ),
    Claim(
        "fig11", "inst-boost-ends-with-5-cores",
        lambda r: len(final_frequencies(r)), ">=", 5,
    ),
    Claim("fig11", "powerchief-launches-2-clones", launches("powerchief"), ">=", 2),
    Claim("fig11", "powerchief-withdraws", withdrawals("powerchief"), ">=", 1),
    Claim(
        "fig11", "powerchief-beats-freq",
        mean_latency("powerchief"), "<=", mean_latency("freq-boost"),
    ),
    Claim(
        "fig11", "powerchief-within-1.25x-inst",
        mean_latency("powerchief"), "<=", mean_latency("inst-boost"), 1.25,
    ),
    Claim(
        "fig11", "every-run-within-the-budget",
        lambda r: max(run.average_power_watts for run in r.runs),
        "<=", TABLE2_POWER_BUDGET_WATTS,
    ),
    # Figure 12: the same grid on NLP (paper: 52.2x average, 28.4x p99
    # at high load; PowerChief tracks instance boosting at medium load
    # and frequency boosting at low load).
    Claim("fig12", "high-load-powerchief-over-10x", avg("powerchief", "high"), ">", 10.0),
    Claim(
        "fig12", "high-load-powerchief-tail-over-5x", p99("powerchief", "high"), ">", 5.0
    ),
    Claim(
        "fig12", "medium-load-powerchief-tracks-inst",
        avg("powerchief", "medium"), ">=", avg("inst-boost", "medium"), 0.8,
    ),
    Claim(
        "fig12", "low-load-powerchief-tail-tracks-freq",
        p99("powerchief", "low"), ">=", p99("freq-boost", "low"), 0.9,
    ),
    Claim(
        "fig12", "high-load-inst-over-3x-freq",
        avg("inst-boost", "high"), ">", avg("freq-boost", "high"), 3.0,
    ),
    # Figure 13: the Sirius 2 s QoS (paper: Pegasus saves 2%, both hold
    # the QoS).
    Claim("fig13", "baseline-is-the-reference", power("baseline"), "==", 1.0),
    Claim("fig13", "baseline-never-violates", violations("baseline"), "==", 0.0),
    Claim(
        "fig13", "pegasus-saves-under-15pct",
        lambda r: r.saving_over_baseline("pegasus"), "<", 0.15,
    ),
    Claim("fig13", "powerchief-violates-under-10pct", violations("powerchief"), "<", 0.10),
    Claim("fig13", "pegasus-violates-under-10pct", violations("pegasus"), "<", 0.10),
    # Figure 14: the Web Search 250 ms QoS on the scatter-gather tier.
    Claim("fig14", "baseline-is-the-reference", power("baseline"), "==", 1.0),
    Claim(
        "fig14", "pegasus-draws-no-more-than-baseline",
        power("pegasus"), "<=", power("baseline"),
    ),
    Claim("fig14", "powerchief-violates-under-10pct", violations("powerchief"), "<", 0.10),
    # The abstract: 20.3x and 32.4x average (13.3x and 19.4x p99) for
    # Sirius and NLP; 25% and 43% power saved against Pegasus's 2% and
    # 10%.
    Claim("headline", "sirius-avg-over-8x", attrgetter("sirius_avg_improvement"), ">", 8.0),
    Claim("headline", "nlp-avg-over-8x", attrgetter("nlp_avg_improvement"), ">", 8.0),
    Claim("headline", "sirius-tail-over-4x", attrgetter("sirius_p99_improvement"), ">", 4.0),
    Claim("headline", "nlp-tail-over-4x", attrgetter("nlp_p99_improvement"), ">", 4.0),
    Claim(
        "headline", "nlp-improves-more-than-sirius",
        attrgetter("nlp_avg_improvement"), ">", attrgetter("sirius_avg_improvement"),
    ),
    Claim(
        "headline", "sirius-saves-over-15pct", attrgetter("sirius_power_saving"), ">", 0.15
    ),
    Claim(
        "headline", "websearch-saves-over-25pct",
        attrgetter("websearch_power_saving"), ">", 0.25,
    ),
    Claim(
        "headline", "sirius-saves-more-than-pegasus",
        attrgetter("sirius_power_saving"), ">", attrgetter("sirius_pegasus_saving"),
    ),
    Claim(
        "headline", "websearch-saves-more-than-pegasus",
        attrgetter("websearch_power_saving"), ">", attrgetter("websearch_pegasus_saving"),
    ),
]


def claim_result(figure: str) -> Any:
    """The result a claim reads: a registry artefact's, or the headline
    over the registry's Figures 10, 12, 13 and 14 (Figure 14 at its
    200 s default, not ``run_headline``'s 800 s)."""
    results = registry_results()
    if figure == "headline":
        return compute_headline(*(results[name] for name in ("fig10", "fig12", "fig13", "fig14")))
    return results[figure]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: f"{claim.figure}-{claim.name}")
def test_claim_holds(claim: Claim) -> None:
    result = claim_result(claim.figure)
    measured = claim.measure(result)
    bound = claim.bound(result) if callable(claim.bound) else claim.bound
    limit = bound if claim.factor == 1.0 else claim.factor * bound
    shown = f"{bound!r}" if claim.factor == 1.0 else f"{claim.factor:g} x {bound!r}"
    assert _OPS[claim.op](measured, limit), (
        f"{claim.figure} claim {claim.name!r} fails: measured {measured!r}, "
        f"which is not {claim.op} {shown}"
    )


def test_every_simulated_figure_and_the_headline_has_a_claim() -> None:
    simulated = {name for name, figure in default_registry().items() if figure.cells}
    claimed = {claim.figure for claim in CLAIMS}
    assert simulated | {"headline"} <= claimed, sorted(simulated | {"headline"} - claimed)
