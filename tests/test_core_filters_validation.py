"""Feasibility-filter and solution-validation tests."""

import numpy as np
import pytest

from repro.cluster.resources import FIT_SLACK, ResourceVector
from repro.cluster.server import EdgeServer
from repro.core.filters import SLO_SLACK_MS, capacity_fits
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.core.validation import ValidationError, validate_solution
from repro.solver import registry
from repro.solver.backend import SolveRequest
from repro.solver.compile import compile_placement
from repro.workloads.application import Application
from tests.conftest import cold_build, make_apps, per_app
from tests.test_solver_backends import _FakeServer


def _candidates(problem: PlacementProblem) -> np.ndarray:
    """The (A, S) candidate mask: the compiled class rows, per application."""
    dense = compile_placement(problem).dense()
    return dense.mask[dense.row_class]


def test_filter_matches_feasible_mask(central_eu_problem):
    # Every demand here fits every server, so only the SLO and support prune.
    mask = _candidates(central_eu_problem)
    feasible = per_app(central_eu_problem)["feasible_mask"]
    assert np.array_equal(mask, feasible)
    assert mask.any(axis=1).all()  # no application without a candidate
    assert registry._candidate_pairs(SolveRequest(problem=central_eu_problem)) \
        == int(feasible.sum())


def test_filter_capacity_prunes_oversized_demands(florida_fleet, florida_latency, florida_carbon):
    # 10000 rps of YOLOv4 needs far more GPU memory than one A2 offers.
    apps = make_apps(["Miami"], workload="YOLOv4", rate_rps=10_000.0)
    problem = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                     florida_carbon, hour=0)
    assert problem.feasible_mask().sum() > 0  # SLO + support alone keep pairs
    assert not _candidates(problem).any()  # the capacity fit prunes them all
    assert registry._candidate_pairs(SolveRequest(problem=problem)) == 0
    assert registry.solve(problem).unplaced == [apps[0].app_id]


def test_capacity_fit_tolerates_residue_and_a_zero_width_key_axis():
    """A demand that fills what float subtraction left (0.3 - 0.1 is just
    under 0.2) fits within the slack, a larger one does not, and a
    zero-width resource axis fits everywhere."""
    left = np.array([0.3 - 0.1, 1.0])
    assert left[0] < 0.2
    assert capacity_fits(np.array([0.2, 1.0]), left)
    assert not capacity_fits(np.array([0.2, 1.0 + 1e-6]), left)
    fits = capacity_fits(np.zeros((2, 3, 0)), np.zeros((3, 0)))
    assert fits.shape == (2, 3) and fits.all()


@pytest.mark.parametrize("over, fits", [(FIT_SLACK / 2, True), (2 * FIT_SLACK, False)])
def test_dense_fit_and_server_allocation_share_one_slack(over, fits):
    """On one key, a demand half a slack past what a server has left fits
    both the dense fit test and ``EdgeServer.allocate``; two slacks past
    fits neither."""
    server = EdgeServer(server_id="s", site="x", zone_id="z")
    server.power_on()
    server.allocate("used", ResourceVector.of(cpu_cores=0.3))
    available = server.available_capacity["cpu_cores"]
    demand = available + over
    assert demand > available
    assert bool(capacity_fits(np.array([demand]), np.array([available]))) is fits
    assert server.can_host(ResourceVector.of(cpu_cores=demand)) is fits
    if fits:
        server.allocate("app", ResourceVector.of(cpu_cores=demand))
    else:
        with pytest.raises(ValueError, match="cannot host"):
            server.allocate("app", ResourceVector.of(cpu_cores=demand))


def _slo_problem(latency_ms: list[float], slo_ms: float) -> PlacementProblem:
    """A raw one-application problem over ``len(latency_ms)`` servers."""
    s = len(latency_ms)
    app = Application(app_id="a", workload="ResNet50", source_site="s0",
                      latency_slo_ms=slo_ms, request_rate_rps=1.0)
    return PlacementProblem(
        applications=[app], servers=[_FakeServer(f"srv{j}") for j in range(s)],
        latency_ms=np.array([latency_ms]), energy_j=np.ones((1, s)),
        intensity=np.ones(s), resource_keys=(), capacity=np.zeros((s, 0)),
        demand=np.zeros((1, s, 0)), base_power_w=np.ones(s), current_power=np.ones(s))


def test_slo_boundary_on_a_raw_problem():
    """A round trip exactly at the SLO is feasible, one within the slack
    too, and one past the slack is not."""
    problem = _slo_problem([5.0, 5.0 + SLO_SLACK_MS / 4, 5.0 + SLO_SLACK_MS], slo_ms=10.0)
    assert problem.feasible_mask().tolist() == [[True, True, False]]


def test_slo_boundary_on_a_tier_build(central_eu_fleet, central_eu_latency,
                                      central_eu_carbon):
    """The scenario tier's class rows draw the same boundary: an SLO equal to
    the round trip to Munich keeps Munich a candidate, an SLO one slack and
    more below it does not, exactly as the per-object reference build."""
    servers = central_eu_fleet.servers()
    munich = [srv.site for srv in servers].index("Munich")
    probe = PlacementProblem.build(make_apps(["Bern"]), servers, central_eu_latency,
                                   central_eu_carbon, hour=0)
    round_trip = 2.0 * per_app(probe)["latency_ms"][0, munich]
    assert round_trip - 2 * SLO_SLACK_MS < round_trip
    for slo_ms, feasible in ((round_trip, True), (round_trip - 2 * SLO_SLACK_MS, False)):
        apps = make_apps(["Bern"], slo_ms=slo_ms)
        tier = PlacementProblem.build(apps, servers, central_eu_latency,
                                      central_eu_carbon, hour=0)
        cold = cold_build(apps, servers, central_eu_latency, central_eu_carbon, hour=0)
        assert per_app(tier)["feasible_mask"][0, munich] == feasible
        assert np.array_equal(tier.feasible_mask(), cold.feasible_mask())
        assert _candidates(tier)[0, munich] == feasible


def test_filter_useful_servers(central_eu_problem):
    mask = _candidates(central_eu_problem)
    assert mask.shape == (central_eu_problem.n_applications, central_eu_problem.n_servers)
    assert mask.any(axis=0).sum() >= 1  # some server is a candidate


def test_validate_accepts_trivial_local_placement(central_eu_problem):
    placements = {}
    latency = per_app(central_eu_problem)["latency_ms"]
    for i, app in enumerate(central_eu_problem.applications):
        j = int(np.argmin(latency[i]))
        placements[app.app_id] = j
    solution = PlacementSolution(problem=central_eu_problem, placements=placements)
    assert validate_solution(solution) == []


def test_validate_detects_latency_violation(central_eu_fleet, central_eu_latency,
                                            central_eu_carbon):
    # Place an app on the farthest server while its SLO only allows the local one.
    apps = make_apps(["Bern"], slo_ms=1.0)
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(), central_eu_latency,
                                     central_eu_carbon, hour=0)
    far = int(np.argmax(per_app(problem)["latency_ms"][0]))
    solution = PlacementSolution(problem=problem, placements={apps[0].app_id: far})
    with pytest.raises(ValidationError, match="latency"):
        validate_solution(solution)


def test_validate_detects_missing_application(central_eu_problem):
    solution = PlacementSolution(problem=central_eu_problem, placements={})
    violations = validate_solution(solution, strict=False)
    assert any("neither placed nor marked unplaced" in v for v in violations)


def test_validate_detects_capacity_violation(florida_fleet, florida_latency, florida_carbon):
    apps = make_apps(["Miami"], workload="Sci", n_per_site=15)  # 15 * 4 cores > 40 cores
    problem = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                     florida_carbon, hour=0)
    miami = problem.server_index("Miami-srv00")
    solution = PlacementSolution(problem=problem,
                                 placements={a.app_id: miami for a in apps})
    violations = validate_solution(solution, strict=False)
    assert any("over capacity" in v for v in violations)


def test_validate_detects_powered_off_host(central_eu_problem):
    p = central_eu_problem
    solution = PlacementSolution(problem=p,
                                 placements={p.applications[0].app_id: 0},
                                 power_on=np.zeros(p.n_servers),
                                 unplaced=[a.app_id for a in p.applications[1:]])
    violations = validate_solution(solution, strict=False)
    assert any("powered off" in v for v in violations)
    # Switching off an already-on server also violates power-state consistency.
    assert any("powers it off" in v for v in violations)


def test_validate_detects_unknown_placement(central_eu_problem):
    solution = PlacementSolution(problem=central_eu_problem,
                                 placements={"ghost": 0},
                                 unplaced=[a.app_id for a in central_eu_problem.applications])
    violations = validate_solution(solution, strict=False)
    assert any("unknown applications" in v for v in violations)
