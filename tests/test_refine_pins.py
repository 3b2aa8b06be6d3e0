"""Pinned placements of the greedy kernel's conflict-dense tail.

The golden artifact digests never drive a fill into the replay's conflict
tail (the part of a cold fill that the wave replay hands on once its scan
budget runs out). The perfbench-scale ``hierarchy`` instance does: carbon
costs give every application nearly the same ranking of servers, so both the
region refinements and a flat greedy solve of the same batch finish most of
their fill in that tail. These digests were recorded before the tail was
rewired and pin its placements byte for byte.

No application of this instance has a feasible server in both regions, so
the refinement decomposes the flat fill exactly and each batch's two digests
coincide: two code paths, one answer.

Each digest is the SHA-256 of the (A,) int64 assignment vector followed by
the objective formatted to 10 significant digits (the golden digests'
canonicalisation, so last-ulp libm differences between hosts do not trip
the pin).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.solver.compile import (
    GreedyState,
    ScenarioCompilation,
    compile_placement,
    greedy_fill,
)
from repro.solver.config import SolverConfig
from repro.solver.hierarchy import build_region_plan, solve_hierarchical
from repro.solver.registry import solve as registry_solve
from repro.workloads.generator import ApplicationGenerator

#: The perfbench ``hierarchy`` workload's instance: 256 one-server sites in
#: 2 regions, 10 applications per site, 40 ms SLO, hour 4700, greedy refine.
N_SITES = 256
N_APPS = 2560
N_REGIONS = 2
HOUR = 4700

#: ``solve_hierarchical`` on batches 0-2: assignment + ``refined_objective``.
HIERARCHY_DIGESTS = {
    0: "c5a775cedf012fedaa0c5bf7b372ada0782255d32fa06250152a9068a4134365",
    1: "e70c50aa63c3fea3099a6c10c8051e9d29bb775a8dc000c599e3e83f13f9d97d",
    2: "4073eecdfd0c90f75ac451e535ad5d11ba56e0ede14df08077d4ea15d497504f",
}

#: Flat ``registry.solve(backend="greedy")`` on batches 0-2: assignment in
#: batch order + total carbon.
FLAT_DIGESTS = {
    0: "c5a775cedf012fedaa0c5bf7b372ada0782255d32fa06250152a9068a4134365",
    1: "e70c50aa63c3fea3099a6c10c8051e9d29bb775a8dc000c599e3e83f13f9d97d",
    2: "4073eecdfd0c90f75ac451e535ad5d11ba56e0ede14df08077d4ea15d497504f",
}


def placement_digest(assignment: np.ndarray, objective: float) -> str:
    """SHA-256 of an assignment vector and its objective (10 significant digits)."""
    digest = hashlib.sha256(np.asarray(assignment, dtype=np.int64).tobytes())
    digest.update(format(float(objective), ".10g").encode("ascii"))
    return digest.hexdigest()


def build_instance():
    """(fleet, latency, carbon, plan, generator) of the perfbench instance."""
    fleet, latency, carbon = build_planetary_substrate(N_SITES, seed=0)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), N_REGIONS,
                             seed=0)
    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=40.0,
        mean_arrivals_per_batch=float(N_APPS), duration_hours=1.0, seed=0)
    return fleet, latency, carbon, plan, generator


def hierarchy_digest(instance, k: int) -> str:
    fleet, latency, carbon, plan, generator = instance
    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    batch = generator.generate_batch(k, HOUR, n_arrivals=N_APPS)
    outcome = solve_hierarchical(
        compilation, batch, plan, hour=HOUR, horizon_hours=1.0,
        objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=N_REGIONS, refine_backend="greedy"),
        seed=0)
    return placement_digest(outcome.assignment, outcome.refined_objective)


def flat_solution(instance, k: int):
    fleet, latency, carbon, _, generator = instance
    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    batch = generator.generate_batch(k, HOUR, n_arrivals=N_APPS)
    problem = compilation.build_problem(batch, HOUR)
    return registry_solve(problem, backend="greedy", objective=ObjectiveKind.CARBON)


def flat_digest(solution) -> str:
    problem = solution.problem
    assignment = np.full(problem.n_applications, -1, dtype=np.int64)
    for app_id, j in solution.placements.items():
        assignment[problem.app_index(app_id)] = j
    return placement_digest(assignment, solution.total_carbon_g())


@pytest.fixture(scope="module")
def instance():
    return build_instance()


@pytest.mark.parametrize("k", sorted(HIERARCHY_DIGESTS))
def test_hierarchy_refine_placements_are_pinned(instance, k):
    assert hierarchy_digest(instance, k) == HIERARCHY_DIGESTS[k]


@pytest.mark.parametrize("k", sorted(FLAT_DIGESTS))
def test_flat_greedy_placements_are_pinned(instance, k):
    solution = flat_solution(instance, k)
    # Most of this fill runs in the conflict tail, which is what the pin is
    # for: replay the fill the ``greedy`` backend ran and read its stats.
    state = GreedyState(compile_placement(solution.problem).dense(ObjectiveKind.CARBON))
    greedy_fill(state)
    assert state.stats.revalidation_rate > 0.5
    assert flat_digest(solution) == FLAT_DIGESTS[k]
