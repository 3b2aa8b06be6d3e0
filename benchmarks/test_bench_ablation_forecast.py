"""Ablation: forecast-mean intensity (paper) vs instantaneous intensity.

The placement objective uses the *mean forecast* intensity over the horizon
(Ī_j). This ablation quantifies how much carbon is lost when placements are
made against the instantaneous intensity instead (which chases short-lived dips
that do not persist over the horizon).
"""

from repro.carbon.forecasting import SeasonalNaiveForecaster
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.policies.latency_aware import LatencyAwarePolicy
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.regions import CENTRAL_EU
from repro.experiments.common import EXPERIMENT_SEED
from repro.testbed.emulation import build_testbed
from repro.workloads.application import Application


def _problem(testbed, hour: int, horizon: float, use_forecast: bool) -> PlacementProblem:
    apps = [Application(app_id=f"a-{site}", workload="ResNet50", source_site=site,
                        latency_slo_ms=30.0, request_rate_rps=20.0, duration_hours=horizon)
            for site in testbed.sites()]
    for server in testbed.fleet.servers():
        server.reset_allocations()
        server.power_on()
    return PlacementProblem.build(apps, testbed.fleet.servers(), testbed.latency,
                                  testbed.carbon, hour=hour, horizon_hours=horizon,
                                  use_forecast=use_forecast)


def test_bench_ablation_forecast(bench_once):
    testbed = build_testbed(CENTRAL_EU, seed=EXPERIMENT_SEED)
    testbed.carbon.forecaster = SeasonalNaiveForecaster()

    def run_all():
        out = {}
        for label, use_forecast in (("forecast-mean", True), ("instantaneous", False)):
            totals = {"CarbonEdge": 0.0, "Latency-aware": 0.0}
            for hour in range(4000, 4000 + 96, 24):
                problem = _problem(testbed, hour, horizon=24.0, use_forecast=use_forecast)
                for policy in (CarbonEdgePolicy(), LatencyAwarePolicy()):
                    solution = policy.place(problem)
                    validate_solution(solution)
                    # Evaluate against the *true* mean intensity of the horizon.
                    true_problem = _problem(testbed, hour, horizon=24.0, use_forecast=True)
                    true_solution = type(solution)(problem=true_problem,
                                                   placements=dict(solution.placements),
                                                   power_on=solution.power_on.copy(),
                                                   unplaced=list(solution.unplaced))
                    totals[policy.name] += true_solution.total_carbon_g()
            out[label] = totals
        return out

    results = bench_once(run_all)
    print("\nAblation (forecast handling): total carbon over 4 days, grams")
    for label, totals in results.items():
        print(f"  {label:14s} CarbonEdge {totals['CarbonEdge']:10.1f} g   "
              f"Latency-aware {totals['Latency-aware']:10.1f} g")
    # Both variants must still beat the Latency-aware baseline.
    for totals in results.values():
        assert totals["CarbonEdge"] < totals["Latency-aware"]
    # Using the horizon forecast is at least as good as chasing the instantaneous value.
    assert (results["forecast-mean"]["CarbonEdge"]
            <= results["instantaneous"]["CarbonEdge"] * 1.05)
