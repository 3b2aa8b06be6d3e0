"""Cross-backend metamorphic tests on small random epochs.

Three relations every solver-backend pair must satisfy on the same compiled
instance, checked over seeded random grids (deterministic, CI-stable):

* **Ordering** — a proven-optimal exact solve is never beaten by the
  heuristic under the raw objective, and the heuristic stays within a bounded
  multiplicative gap of the exact optimum.
* **Permutation invariance** — rebuilding the same problem with the
  applications in a different order must not change the exact backend's
  objective value, nor which server each application lands on (the epsilon
  tie-break makes the optimum generically unique).
* **Registry floor** — ``solve(backend="exact")`` is never worse than
  ``solve(backend="heuristic")``: the registry's better-of rule guarantees
  the exact path cannot lose to the baseline it could have used.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import TraceSet
from repro.cluster.fleet import build_regional_fleet
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.cities import default_city_catalog
from repro.datasets.regions import CENTRAL_EU
from repro.network.latency import build_latency_matrix
from repro.solver.backend import SolveRequest, raw_objective_value
from repro.solver.registry import get_backend, solve
from repro.workloads.application import Application

#: Multiplicative slack allowed for the greedy+local-search heuristic over a
#: proven exact optimum on these instance sizes (regression bound, not a
#: theorem — the observed gaps on the seeded grid are far below it).
HEURISTIC_GAP_BOUND = 0.25

_CATALOG = default_city_catalog()
_CITIES = CENTRAL_EU.cities(_CATALOG)
_NAMES = [c.name for c in _CITIES]
_LATENCY = build_latency_matrix(_NAMES, _CATALOG.coordinates_array(_NAMES),
                                countries=[c.country for c in _CITIES])
_WORKLOADS = ("ResNet50", "EfficientNetB0", "YOLOv4")


def _random_problem(seed: int, n_apps: int,
                    order: np.ndarray | None = None) -> PlacementProblem:
    """A small random epoch over the Central-EU fleet (seeded, deterministic).

    Rates are drawn continuously so no two applications are exact duplicates
    — that keeps the tie-broken optimum unique and the permutation test
    meaningful rather than vacuous.
    """
    rng = np.random.default_rng(seed)
    fleet = build_regional_fleet(CENTRAL_EU)
    zones = CENTRAL_EU.zone_ids(_CATALOG)
    traces = TraceSet.from_mapping({
        zone: np.full(24, value)
        for zone, value in zip(zones, rng.uniform(20.0, 800.0, len(zones)))
    })
    carbon = CarbonIntensityService(traces=traces)
    apps = [Application(app_id=f"app-{k}",
                        workload=str(rng.choice(_WORKLOADS)),
                        source_site=str(rng.choice(_NAMES)),
                        latency_slo_ms=float(rng.choice([12.0, 20.0, 40.0])),
                        request_rate_rps=float(rng.uniform(1.0, 30.0)),
                        duration_hours=1.0)
            for k in range(n_apps)]
    if order is not None:
        apps = [apps[i] for i in order]
    return PlacementProblem.build(apps, fleet.servers(), _LATENCY, carbon,
                                  hour=0, horizon_hours=1.0)


@pytest.mark.parametrize("seed,n_apps", [(0, 3), (1, 4), (2, 5), (3, 6), (4, 5)])
def test_exact_vs_heuristic_objective_ordering(seed, n_apps):
    problem = _random_problem(seed, n_apps)
    request = SolveRequest(problem=problem)
    exact = get_backend("highs").solve(request)
    heuristic = get_backend("heuristic").solve(SolveRequest(problem=problem))
    assert exact is not None and heuristic is not None
    validate_solution(exact, strict=True)
    validate_solution(heuristic, strict=True)
    assert exact.n_placed == heuristic.n_placed == n_apps

    exact_obj = raw_objective_value(request, exact)
    heuristic_obj = raw_objective_value(request, heuristic)
    if not exact.solver_gap:  # proven optimum (gap 0 or None)
        # The tie-break epsilon perturbs the two objectives by < 1e-5 of the
        # largest coefficient; allow that much relative slack.
        assert exact_obj <= heuristic_obj + 1e-5 * max(1.0, abs(heuristic_obj))
        assert heuristic_obj <= exact_obj * (1.0 + HEURISTIC_GAP_BOUND) + 1e-9


@pytest.mark.parametrize("seed,n_apps", [(0, 4), (1, 5), (2, 6)])
def test_exact_backend_is_permutation_invariant(seed, n_apps):
    """Shuffling the application list must not change what the exact backend
    decides — same objective value, same server per application id."""
    rng = np.random.default_rng(1000 + seed)
    problem = _random_problem(seed, n_apps)
    shuffled = _random_problem(seed, n_apps, order=rng.permutation(n_apps))

    base_request = SolveRequest(problem=problem)
    shuf_request = SolveRequest(problem=shuffled)
    base = get_backend("highs").solve(base_request)
    shuf = get_backend("highs").solve(shuf_request)
    assert base is not None and shuf is not None
    validate_solution(base, strict=True)
    validate_solution(shuf, strict=True)

    assert base.placements == shuf.placements  # keyed by app_id, order-free
    base_obj = raw_objective_value(base_request, base)
    shuf_obj = raw_objective_value(shuf_request, shuf)
    np.testing.assert_allclose(shuf_obj, base_obj, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("seed,n_apps", [(0, 4), (2, 5), (4, 6)])
def test_registry_exact_path_never_loses_to_heuristic(seed, n_apps):
    """The registry's better-of rule: solve(exact) <= solve(heuristic)."""
    problem = _random_problem(seed, n_apps)
    via_exact = solve(problem, backend="exact")
    via_heuristic = solve(problem, backend="heuristic")
    assert via_exact.n_placed >= via_heuristic.n_placed
    if via_exact.n_placed == via_heuristic.n_placed:
        assert via_exact.total_carbon_g() <= via_heuristic.total_carbon_g() + 1e-6
