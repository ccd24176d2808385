"""Sharded runs (Section 7.2): one stack per shard behind a query router."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, StackBuilder
from repro.scenario.builder import _ShardRouter


class FakeApplication:
    """Stands in for a shard's application: every query stays in flight."""

    def __init__(self, index: int, log: list[int]) -> None:
        self.index = index
        self.log = log
        self.in_flight = 0

    def submit(self, query: int) -> None:
        self.in_flight += 1
        self.log.append(self.index)


def route(splitter: str, n_shards: int, n_queries: int, busy=()) -> list[int]:
    """The shard index each of ``n_queries`` queries was routed to."""
    log: list[int] = []
    applications = [FakeApplication(index, log) for index in range(n_shards)]
    for index in busy:
        applications[index].in_flight += 3
    router = _ShardRouter(applications, splitter)
    for qid in range(n_queries):
        router.submit(qid)
    return log


class TestRouter:
    def test_round_robin_cycles_shards(self):
        assert route("round-robin", 3, 6) == [0, 1, 2, 0, 1, 2]

    def test_least_in_flight_balances(self):
        assert route("least-in-flight", 2, 4) == [0, 1, 0, 1]

    def test_least_in_flight_avoids_busy_shard(self):
        assert route("least-in-flight", 2, 1, busy=(0,)) == [1]


def sharded_spec(rate_qps: float, shards: int, **kwargs) -> ScenarioSpec:
    return ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("constant", rate_qps),
        120.0,
        seed=7,
        shards=shards,
        **kwargs,
    )


@pytest.fixture(scope="module")
def trickle():
    """A 4-shard least-in-flight run whose queries never overlap."""
    builder = StackBuilder(sharded_spec(0.05, 4))
    return builder, builder.execute()


class TestShardedRuns:
    def test_least_in_flight_sends_a_trickle_to_shard_zero(self, trickle):
        builder, result = trickle
        submitted = [stack.application.submitted for stack in builder._stacks]
        assert submitted == [result.queries_submitted, 0, 0, 0]
        assert result.shards[0].queries_completed == result.queries_completed
        assert [shard.latency for shard in result.shards[1:]] == [None] * 3

    def test_each_shard_is_its_own_server(self, trickle):
        builder, _ = trickle
        stacks = builder._stacks
        assert len({id(stack.machine) for stack in stacks}) == 4
        assert len({id(stack.controller) for stack in stacks}) == 4
        assert all(stack.controller is not None for stack in stacks)
        for stack in stacks:
            assert stack.budget.machine is stack.machine
            assert stack.budget.draw() <= stack.budget.budget_watts

    def test_round_robin_deals_queries_evenly(self):
        builder = StackBuilder(sharded_spec(3.0, 3, splitter="round-robin"))
        result = builder.execute()
        submitted = [stack.application.submitted for stack in builder._stacks]
        assert sum(submitted) == result.queries_submitted
        assert max(submitted) - min(submitted) <= 1
        # The pooled summary covers every shard's completions.
        assert result.latency.count == result.queries_completed
        assert result.queries_completed == sum(
            shard.queries_completed for shard in result.shards
        )

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            sharded_spec(1.0, 0)
