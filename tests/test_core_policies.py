"""Placement-policy behaviour tests."""

import numpy as np
import pytest

from repro.core.policies import (
    CarbonEdgePolicy,
    EnergyAwarePolicy,
    IntensityAwarePolicy,
    LatencyAwarePolicy,
)
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from tests.conftest import make_apps

ALL_POLICIES = (LatencyAwarePolicy(), EnergyAwarePolicy(), IntensityAwarePolicy(),
                CarbonEdgePolicy(), CarbonEdgePolicy(solver="greedy"))


def _policy_id(policy) -> str:
    solver = getattr(policy, "solver", "auto")
    return policy.name if solver == "auto" else f"{policy.name}-{solver}"


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=_policy_id)
def test_every_policy_produces_valid_full_placements(central_eu_problem, policy):
    solution = policy.timed_place(central_eu_problem)
    assert validate_solution(solution) == []
    assert solution.all_placed
    assert solution.policy_name == policy.name
    assert solution.solve_time_s >= 0.0


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=_policy_id)
def test_every_policy_is_deterministic(central_eu_fleet, central_eu_latency,
                                       central_eu_carbon, policy):
    """The same policy on the same problem, or on an identically built one,
    places and powers on exactly the same way."""
    def build():
        return PlacementProblem.build(
            make_apps(central_eu_fleet.sites(), n_per_site=2), central_eu_fleet.servers(),
            central_eu_latency, central_eu_carbon, hour=12, horizon_hours=24.0)

    problem = build()
    first = policy.place(problem)
    for again in (policy.place(problem), policy.place(build())):
        assert again.placements == first.placements
        assert np.array_equal(again.power_on, first.power_on)
        assert again.unplaced == first.unplaced


def test_latency_aware_places_locally(central_eu_problem):
    solution = LatencyAwarePolicy().place(central_eu_problem)
    assert solution.mean_latency_ms() == pytest.approx(0.0)
    assert solution.latency_increase_ms() == pytest.approx(0.0)


def test_carbon_edge_never_worse_than_baselines(central_eu_problem):
    carbon_edge = CarbonEdgePolicy().place(central_eu_problem).total_carbon_g()
    for baseline in (LatencyAwarePolicy(), EnergyAwarePolicy(), IntensityAwarePolicy()):
        assert carbon_edge <= baseline.place(central_eu_problem).total_carbon_g() + 1e-6


def test_carbon_edge_concentrates_on_green_zones(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    sites = solution.apps_per_site()
    # The greenest Central-EU zones are Lyon and Bern; Munich/Milan should be empty.
    assert sites.get("Munich", 0) == 0
    assert sites.get("Milan", 0) == 0


def test_carbon_edge_respects_latency_slo(central_eu_fleet, central_eu_latency,
                                          central_eu_carbon):
    apps = make_apps(central_eu_fleet.sites(), slo_ms=4.0)  # 2 ms one-way: stay local-ish
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(), central_eu_latency,
                                     central_eu_carbon, hour=0)
    solution = CarbonEdgePolicy().place(problem)
    validate_solution(solution)
    assert 2.0 * solution.max_latency_ms() <= 4.0 + 1e-9


def test_carbon_edge_solver_strategies_agree_on_feasibility(central_eu_problem):
    results = {}
    for solver in ("exact", "lp-round", "greedy"):
        solution = CarbonEdgePolicy(solver=solver).place(central_eu_problem)
        validate_solution(solution)
        results[solver] = solution
    assert all(s.all_placed for s in results.values())
    # The exact solver is at least as good as the heuristics.
    assert results["exact"].total_carbon_g() <= results["greedy"].total_carbon_g() + 1e-6
    assert results["exact"].total_carbon_g() <= results["lp-round"].total_carbon_g() + 1e-6


def test_invalid_policy_parameters():
    with pytest.raises(ValueError):
        CarbonEdgePolicy(solver="quantum")
    with pytest.raises(ValueError):
        CarbonEdgePolicy(alpha=2.0)
    with pytest.raises(ValueError):
        EnergyAwarePolicy(solver="quantum")


def test_alpha_zero_matches_pure_carbon_objective(central_eu_problem):
    pure = CarbonEdgePolicy(solver="exact").place(central_eu_problem).total_carbon_g()
    multi = CarbonEdgePolicy(alpha=0.0, solver="exact").place(central_eu_problem).total_carbon_g()
    assert multi == pytest.approx(pure, rel=1e-6)


def test_alpha_one_tracks_energy_objective(central_eu_problem):
    energy_aware = EnergyAwarePolicy(solver="exact").place(central_eu_problem).total_energy_j()
    alpha_one = CarbonEdgePolicy(alpha=1.0, solver="exact").place(central_eu_problem).total_energy_j()
    assert alpha_one == pytest.approx(energy_aware, rel=0.05)


def test_unplaceable_apps_are_reported(central_eu_fleet, central_eu_latency, central_eu_carbon):
    apps = make_apps(["Bern"], workload="UnknownNet") + make_apps(["Lyon"])
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(), central_eu_latency,
                                     central_eu_carbon, hour=0)
    solution = CarbonEdgePolicy().place(problem)
    validate_solution(solution)
    assert len(solution.unplaced) == 1
    assert solution.n_placed == 1


def test_intensity_aware_picks_lowest_intensity_zone(central_eu_problem):
    solution = IntensityAwarePolicy().place(central_eu_problem)
    p = central_eu_problem
    greenest = p.servers[int(np.argmin(p.intensity))].site
    # Most applications land in the greenest zone (capacity permitting).
    assert solution.apps_per_site().get(greenest, 0) >= p.n_applications // 2
