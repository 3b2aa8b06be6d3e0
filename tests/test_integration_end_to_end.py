"""End-to-end integration tests: substrate -> placement -> commit -> accounting."""

import numpy as np
import pytest

from repro.analysis.savings import compare_solutions
from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.fleet import build_regional_fleet
from repro.core.incremental import IncrementalPlacer
from repro.core.policies import CarbonEdgePolicy, LatencyAwarePolicy
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.cities import default_city_catalog
from repro.datasets.electricity_maps import default_zone_catalog
from repro.datasets.regions import CENTRAL_EU
from repro.network.latency import build_latency_matrix
from repro.workloads.generator import ApplicationGenerator


@pytest.fixture(scope="module")
def stack():
    """The full CarbonEdge stack wired from public constructors only."""
    catalog = default_city_catalog()
    zones = default_zone_catalog()
    cities = CENTRAL_EU.cities(catalog)
    names = [c.name for c in cities]
    latency = build_latency_matrix(names, catalog.coordinates_array(names),
                                   countries=[c.country for c in cities])
    traces = SyntheticTraceGenerator(seed=13, n_hours=336).generate_set(
        zones.get(z) for z in CENTRAL_EU.zone_ids(catalog))
    carbon = CarbonIntensityService(traces=traces)
    fleet = build_regional_fleet(CENTRAL_EU, servers_per_site=2)
    return {"latency": latency, "carbon": carbon, "fleet": fleet, "sites": names}


def test_full_pipeline_commits_arrivals(stack):
    placer = IncrementalPlacer(fleet=stack["fleet"], latency=stack["latency"],
                               carbon=stack["carbon"], policy=CarbonEdgePolicy(),
                               horizon_hours=24.0)
    generator = ApplicationGenerator(sites=stack["sites"], seed=13,
                                     workload_mix={"ResNet50": 0.6, "Sci": 0.4},
                                     mean_arrivals_per_batch=8, latency_slo_ms=25.0)
    hosting: dict[str, str] = {}
    for interval in range(3):
        batch = generator.generate_batch(interval, hour_of_year=interval * 24)
        if not batch.applications:
            continue
        solution = placer.place_batch(list(batch.applications), hour=interval * 24)
        hosting.update({app_id: solution.problem.servers[j].server_id
                        for app_id, j in solution.placements.items()})
    assert hosting
    assert placer.total_placed() == len(hosting)
    assert set(placer.active_apps) == set(hosting)
    # Every committed placement holds its allocation on the hosting server.
    for app_id, server_id in hosting.items():
        assert app_id in stack["fleet"].server(server_id).allocations
    # All placements across rounds were validated and carbon was accounted.
    assert placer.total_carbon_g() > 0.0
    # Clean up: release everything and confirm the fleet drains.
    placer.release_all()
    assert all(not s.allocations for s in stack["fleet"].servers())


def test_carbon_edge_vs_baseline_end_to_end(stack):
    stack["fleet"].reset_allocations()
    for server in stack["fleet"].servers():
        server.power_on()
    generator = ApplicationGenerator(sites=stack["sites"], seed=17,
                                     workload_mix={"ResNet50": 1.0},
                                     mean_arrivals_per_batch=15, latency_slo_ms=20.0)
    batch = generator.generate_batch(0, 0, n_arrivals=15)
    problem = PlacementProblem.build(list(batch.applications), stack["fleet"].servers(),
                                     stack["latency"], stack["carbon"], hour=100,
                                     horizon_hours=24.0)
    baseline = LatencyAwarePolicy().timed_place(problem)
    carbon_edge = CarbonEdgePolicy().timed_place(problem)
    validate_solution(baseline)
    validate_solution(carbon_edge)
    comparison = compare_solutions(baseline, carbon_edge)
    # Central EU offers large mesoscale savings at a few ms of extra latency.
    assert comparison.carbon_savings_pct > 30.0
    assert comparison.latency_increase_ms < 2 * 20.0


def test_deterministic_end_to_end_repetition(stack):
    generator = ApplicationGenerator(sites=stack["sites"], seed=23,
                                     mean_arrivals_per_batch=10)
    batch = generator.generate_batch(0, 0, n_arrivals=10)
    stack["fleet"].reset_allocations()
    for server in stack["fleet"].servers():
        server.power_on()
    problem = PlacementProblem.build(list(batch.applications), stack["fleet"].servers(),
                                     stack["latency"], stack["carbon"], hour=50)
    a = CarbonEdgePolicy().place(problem)
    b = CarbonEdgePolicy().place(problem)
    assert a.placements == b.placements
    assert a.total_carbon_g() == pytest.approx(b.total_carbon_g())


def test_intensity_scaling_scales_emissions(stack):
    """Doubling every zone's intensity doubles the reported carbon (fixed placement)."""
    from repro.carbon.traces import TraceSet
    stack["fleet"].reset_allocations()
    for server in stack["fleet"].servers():
        server.power_on()
    generator = ApplicationGenerator(sites=stack["sites"], seed=29, mean_arrivals_per_batch=6)
    apps = list(generator.generate_batch(0, 0, n_arrivals=6).applications)
    problem = PlacementProblem.build(apps, stack["fleet"].servers(), stack["latency"],
                                     stack["carbon"], hour=10)
    doubled_traces = TraceSet.from_mapping(
        {z: stack["carbon"].trace(z).values * 2.0 for z in stack["carbon"].zones()})
    doubled = CarbonIntensityService(traces=doubled_traces)
    doubled_problem = PlacementProblem.build(apps, stack["fleet"].servers(), stack["latency"],
                                             doubled, hour=10)
    solution = LatencyAwarePolicy().place(problem)
    doubled_solution = LatencyAwarePolicy().place(doubled_problem)
    assert doubled_solution.total_carbon_g() == pytest.approx(2.0 * solution.total_carbon_g(),
                                                              rel=1e-9)
    assert np.isclose(doubled_solution.total_energy_j(), solution.total_energy_j())
