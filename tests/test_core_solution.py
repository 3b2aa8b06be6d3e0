"""Placement-solution accounting tests."""

import numpy as np
import pytest

from repro.cluster.server import EdgeServer
from repro.core.policies import CarbonEdgePolicy, LatencyAwarePolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.core.validation import validate_solution
from repro.utils.units import joules_to_kwh
from repro.workloads.application import Application
from tests.conftest import make_apps, per_app


def test_summary_keys(central_eu_problem):
    solution = CarbonEdgePolicy().timed_place(central_eu_problem)
    summary = solution.summary()
    assert set(summary) == {"placed", "unplaced", "carbon_g", "operational_carbon_g",
                            "activation_carbon_g", "energy_j", "mean_latency_ms",
                            "latency_increase_ms", "solve_time_s"}
    assert summary["placed"] == central_eu_problem.n_applications


def test_carbon_decomposition(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    assert solution.total_carbon_g() == pytest.approx(
        solution.operational_carbon_g() + solution.activation_carbon_g())
    # All servers are already on, so no activation carbon.
    assert solution.activation_carbon_g() == 0.0
    assert np.all(solution.newly_activated() == 0.0)


def test_operational_carbon_matches_manual_sum(central_eu_problem):
    solution = LatencyAwarePolicy().place(central_eu_problem)
    manual = 0.0
    energy = per_app(central_eu_problem)["energy_j"]
    for app_id, j in solution.placements.items():
        i = central_eu_problem.app_index(app_id)
        manual += joules_to_kwh(energy[i, j]) * central_eu_problem.intensity[j]
    assert solution.operational_carbon_g() == pytest.approx(manual)


def test_assignments_records(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    records = solution.assignments()
    assert len(records) == solution.n_placed
    for record in records:
        assert record.server_id == solution.server_of(record.app_id)
        assert record.operational_carbon_g >= 0.0


def test_apps_per_server_and_site_consistency(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    assert sum(solution.apps_per_server().values()) == solution.n_placed
    assert sum(solution.apps_per_site().values()) == solution.n_placed


def test_latency_metrics(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    assert solution.max_latency_ms() >= solution.mean_latency_ms() >= 0.0
    assert solution.latency_increase_ms() >= 0.0


def test_server_of_unknown_app(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    with pytest.raises(KeyError):
        solution.server_of("ghost")


def test_empty_solution_metrics(central_eu_problem):
    solution = PlacementSolution(problem=central_eu_problem,
                                 unplaced=[a.app_id for a in central_eu_problem.applications])
    assert solution.n_placed == 0
    assert not solution.all_placed
    assert solution.total_carbon_g() == 0.0
    assert solution.mean_latency_ms() == 0.0
    assert solution.latency_increase_ms() == 0.0


def test_power_on_shape_validation(central_eu_problem):
    with pytest.raises(ValueError):
        PlacementSolution(problem=central_eu_problem, power_on=np.ones(2))


def _hand_problem(current_power=(1.0, 0.0, 0.0), horizon_hours=2.0):
    """Two applications and three servers with round numbers (3.6e6 J is
    1 kWh), so Equation 6 can be worked out by hand."""
    servers = [EdgeServer(server_id=f"s{j}", site=f"site{j}", zone_id=f"z{j}")
               for j in range(3)]
    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="site0",
                        latency_slo_ms=100.0, request_rate_rps=1.0) for i in range(2)]
    return PlacementProblem(
        applications=apps, servers=servers,
        latency_ms=np.array([[1.0, 5.0, 9.0], [2.0, 4.0, 8.0]]),
        energy_j=np.array([[3.6e6, 7.2e6, 1.8e6], [0.9e6, 3.6e6, 3.6e6]]),
        intensity=np.array([300.0, 100.0, 500.0]),
        resource_keys=("cpu_cores",),
        capacity=np.full((3, 1), 10.0),
        demand=np.ones((2, 3, 1)),
        base_power_w=np.array([100.0, 50.0, 200.0]),
        current_power=np.asarray(current_power),
        horizon_hours=horizon_hours)


def _hand_solution(problem=None):
    """a0 on the switched-off s1 (switching it on), a1 on s0 (already on)."""
    problem = problem or _hand_problem()
    return PlacementSolution(problem=problem, placements={"a0": 1, "a1": 0},
                             power_on=np.array([1.0, 1.0, 0.0]))


def test_equation6_by_hand():
    solution = _hand_solution()
    # Operational: 2 kWh at 100 g/kWh plus 0.25 kWh at 300 g/kWh.
    assert solution.operational_carbon_g() == pytest.approx(275.0)
    # Activation of s1 only: 50 W for 2 h is 0.1 kWh, at 100 g/kWh.
    np.testing.assert_array_equal(solution.newly_activated(), [0.0, 1.0, 0.0])
    assert solution.activation_carbon_g() == pytest.approx(10.0)
    assert solution.total_carbon_g() == pytest.approx(285.0)


def test_energy_accounting_by_hand():
    solution = _hand_solution()
    assert solution.dynamic_energy_j() == pytest.approx(8.1e6)
    # s1's base power over the horizon: 50 W x 2 h x 3600 s/h.
    assert solution.activation_energy_j() == pytest.approx(360_000.0)
    assert solution.total_energy_j() == pytest.approx(8.46e6)


def test_switching_a_server_off_earns_no_carbon_credit():
    # s0 was on and is switched off: only s1's activation is charged, and
    # s0's base power is not subtracted.
    solution = PlacementSolution(problem=_hand_problem(), placements={"a0": 1, "a1": 1},
                                 power_on=np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(solution.newly_activated(), [0.0, 1.0, 0.0])
    assert solution.activation_carbon_g() == pytest.approx(10.0)
    assert solution.activation_energy_j() == pytest.approx(360_000.0)


def test_activation_carbon_scales_with_horizon():
    short = _hand_solution(_hand_problem(horizon_hours=2.0))
    long = _hand_solution(_hand_problem(horizon_hours=6.0))
    assert long.activation_carbon_g() == pytest.approx(3.0 * short.activation_carbon_g())
    assert long.activation_energy_j() == pytest.approx(3.0 * short.activation_energy_j())
    # The energy table already spans the horizon, so operational carbon is unchanged.
    assert long.operational_carbon_g() == pytest.approx(short.operational_carbon_g())


def test_assignment_records_by_hand():
    solution = _hand_solution()
    records = {r.app_id: r for r in solution.assignments()}
    assert (records["a0"].server_id, records["a0"].zone_id) == ("s1", "z1")
    assert records["a0"].one_way_latency_ms == 5.0
    assert records["a0"].operational_carbon_g == pytest.approx(200.0)
    assert records["a1"].energy_j == pytest.approx(0.9e6)
    assert sum(r.operational_carbon_g for r in records.values()) == pytest.approx(
        solution.operational_carbon_g())
    assert sum(r.energy_j for r in records.values()) == pytest.approx(
        solution.dynamic_energy_j())


def test_latency_metrics_by_hand():
    solution = _hand_solution()
    assert solution.mean_latency_ms() == pytest.approx(3.5)
    assert solution.max_latency_ms() == 5.0
    # Every server meets the 100 ms round-trip SLO, so the nearest feasible
    # servers are s0 for both: a0 pays 5 - 1 ms, a1 nothing.
    assert solution.latency_increase_ms() == pytest.approx(2.0)


def test_summary_reads_the_accessors():
    solution = _hand_solution()
    summary = solution.summary()
    assert summary["placed"] == 2.0 and summary["unplaced"] == 0.0
    assert summary["carbon_g"] == pytest.approx(285.0)
    assert summary["operational_carbon_g"] == pytest.approx(275.0)
    assert summary["activation_carbon_g"] == pytest.approx(10.0)
    assert summary["energy_j"] == pytest.approx(8.46e6)
    assert summary["latency_increase_ms"] == pytest.approx(2.0)


def test_activation_carbon_of_a_switched_off_fleet(florida_fleet, florida_latency,
                                                   florida_carbon):
    servers = florida_fleet.servers()
    for server in servers:
        server.power_off()
    problem = PlacementProblem.build(make_apps(florida_fleet.sites()), servers,
                                     florida_latency, florida_carbon, hour=12,
                                     horizon_hours=24.0)
    solution = CarbonEdgePolicy().place(problem)
    assert validate_solution(solution) == []
    switched_on = [s for j, s in enumerate(servers) if solution.power_on[j] == 1.0]
    assert switched_on
    # B_j x horizon x the 24-hour forecast mean of the server's zone, read
    # from the server and carbon objects rather than the problem's arrays.
    expected = sum(s.base_power_w * 24.0 / 1000.0
                   * florida_carbon.forecast_mean(s.zone_id, 12, 24) for s in switched_on)
    assert solution.activation_carbon_g() == pytest.approx(expected)
    assert solution.activation_energy_j() == pytest.approx(
        sum(s.base_power_w * 24.0 * 3600.0 for s in switched_on))
