"""Property-based tests of the placement core (hypothesis).

These generate random placement problems — random SLOs, rates, workloads, and
carbon intensities — and check the invariants every policy must uphold:
solutions validate against all constraints, the exact solver never loses to the
greedy heuristic, and carbon accounting is consistent.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import TraceSet
from repro.cluster.fleet import build_regional_fleet
from repro.core.policies import CarbonEdgePolicy, GreedyCarbonPolicy, LatencyAwarePolicy
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.regions import CENTRAL_EU
from repro.network.latency import build_latency_matrix
from repro.datasets.cities import default_city_catalog
from repro.workloads.application import Application
from tests.conftest import per_app

_CATALOG = default_city_catalog()
_CITIES = CENTRAL_EU.cities(_CATALOG)
_NAMES = [c.name for c in _CITIES]
_LATENCY = build_latency_matrix(_NAMES, _CATALOG.coordinates_array(_NAMES),
                                countries=[c.country for c in _CITIES])

app_strategy = st.builds(
    dict,
    workload=st.sampled_from(["ResNet50", "EfficientNetB0", "YOLOv4", "Sci"]),
    source=st.sampled_from(_NAMES),
    slo_ms=st.sampled_from([6.0, 12.0, 20.0, 40.0]),
    rate_rps=st.floats(min_value=1.0, max_value=40.0),
)

intensity_strategy = st.lists(st.floats(min_value=10.0, max_value=900.0),
                              min_size=5, max_size=5)


def _build_problem(app_specs, intensities):
    fleet = build_regional_fleet(CENTRAL_EU)
    traces = TraceSet.from_mapping({
        zone: np.full(24, value)
        for zone, value in zip(CENTRAL_EU.zone_ids(_CATALOG), intensities)
    })
    carbon = CarbonIntensityService(traces=traces)
    apps = [Application(app_id=f"app-{k}", workload=spec["workload"],
                        source_site=spec["source"], latency_slo_ms=spec["slo_ms"],
                        request_rate_rps=spec["rate_rps"], duration_hours=1.0)
            for k, spec in enumerate(app_specs)]
    return PlacementProblem.build(apps, fleet.servers(), _LATENCY, carbon, hour=0,
                                  horizon_hours=1.0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(app_strategy, min_size=1, max_size=8), intensity_strategy)
def test_policies_always_produce_valid_solutions(app_specs, intensities):
    problem = _build_problem(app_specs, intensities)
    for policy in (LatencyAwarePolicy(), GreedyCarbonPolicy(), CarbonEdgePolicy(solver="greedy")):
        solution = policy.place(problem)
        assert validate_solution(solution) == []
        # Every application is accounted for exactly once.
        assert solution.n_placed + len(solution.unplaced) == problem.n_applications


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(app_strategy, min_size=1, max_size=6), intensity_strategy)
def test_exact_solver_never_worse_than_greedy(app_specs, intensities):
    problem = _build_problem(app_specs, intensities)
    exact = CarbonEdgePolicy(solver="exact").place(problem)
    greedy = GreedyCarbonPolicy().place(problem)
    validate_solution(exact)
    if exact.n_placed == greedy.n_placed:
        assert exact.total_carbon_g() <= greedy.total_carbon_g() + 1e-6


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(app_strategy, min_size=1, max_size=8), intensity_strategy)
def test_carbon_edge_never_worse_than_latency_aware(app_specs, intensities):
    problem = _build_problem(app_specs, intensities)
    carbon_edge = CarbonEdgePolicy(solver="greedy").place(problem)
    baseline = LatencyAwarePolicy().place(problem)
    if carbon_edge.n_placed == baseline.n_placed:
        assert carbon_edge.total_carbon_g() <= baseline.total_carbon_g() + 1e-6


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(app_strategy, min_size=1, max_size=8), intensity_strategy)
def test_latency_slo_always_respected(app_specs, intensities):
    problem = _build_problem(app_specs, intensities)
    solution = CarbonEdgePolicy(solver="greedy").place(problem)
    latency = per_app(problem)["latency_ms"]
    for app_id, j in solution.placements.items():
        i = problem.app_index(app_id)
        assert 2.0 * latency[i, j] <= problem.applications[i].latency_slo_ms + 1e-9


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(app_strategy, min_size=1, max_size=8), intensity_strategy)
def test_carbon_accounting_is_consistent(app_specs, intensities):
    problem = _build_problem(app_specs, intensities)
    solution = GreedyCarbonPolicy().place(problem)
    total = solution.total_carbon_g()
    assert total >= 0.0
    assert total == (solution.operational_carbon_g() + solution.activation_carbon_g())
    # Scaling every intensity scales operational carbon linearly.
    scaled_problem = _build_problem(app_specs, [2.0 * v for v in intensities])
    scaled_solution = GreedyCarbonPolicy().place(scaled_problem)
    if solution.placements == scaled_solution.placements:
        np.testing.assert_allclose(scaled_solution.operational_carbon_g(),
                                   2.0 * solution.operational_carbon_g(), rtol=1e-9)
