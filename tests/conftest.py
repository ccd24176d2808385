"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.obs import Observability
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.demand import DeterministicDemand, LogNormalDemand
from repro.service.profile import PowerLawSpeedup, ServiceProfile
from repro.service.query import Query
from repro.sim.engine import Simulator


def make_profile(
    name: str = "SVC",
    mean: float = 1.0,
    sigma: float = 0.0,
    beta: float = 1.0,
) -> ServiceProfile:
    """A service profile with deterministic (sigma=0) or log-normal demand."""
    if sigma == 0.0:
        demand = DeterministicDemand(mean)
    else:
        demand = LogNormalDemand(mean, sigma)
    return ServiceProfile(
        name=name,
        demand=demand,
        speedup=PowerLawSpeedup(HASWELL_LADDER.min_ghz, beta=beta),
    )


def make_query(qid: int, **demands: float) -> Query:
    """A query with explicit per-stage demands."""
    return Query(qid=qid, demands=demands)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def machine(sim: Simulator) -> Machine:
    return Machine(sim, n_cores=8)


@pytest.fixture
def dvfs(sim: Simulator) -> DvfsActuator:
    return DvfsActuator(sim)


@pytest.fixture
def budget(machine: Machine) -> PowerBudget:
    # Three instances at 1.8 GHz, as in Table 2.
    return PowerBudget(machine, 13.56)


def make_two_stage_app(
    sim: Simulator, machine: Machine, observability: Optional[Observability] = None
) -> Application:
    """A minimal pipeline: fast stage A (0.2 s) then slow stage B (1.0 s).

    A controller built on it reads its pillars from ``observability``.
    """
    app = Application("test-app", sim, machine, observability=observability)
    stage_a = app.add_stage(make_profile("A", mean=0.2))
    stage_b = app.add_stage(make_profile("B", mean=1.0))
    level = HASWELL_LADDER.level_of(1.8)
    stage_a.launch_instance(level)
    stage_b.launch_instance(level)
    return app


@pytest.fixture
def two_stage_app(sim: Simulator, machine: Machine) -> Application:
    return make_two_stage_app(sim, machine)


@pytest.fixture
def command_center(sim: Simulator, two_stage_app: Application) -> CommandCenter:
    return CommandCenter(sim, two_stage_app)


def submit_two_stage_query(app: Application, qid: int, a: float = 0.2, b: float = 1.0) -> Query:
    """Submit one query with explicit demands into the two-stage app."""
    query = make_query(qid, A=a, B=b)
    app.submit(query)
    return query
