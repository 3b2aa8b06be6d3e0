"""Tests for the pluggable solver-backend registry (repro.solver.registry)."""

import time
from unittest import mock

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.core.validation import validate_solution
from repro.solver import registry
from repro.solver.backend import SolveRequest, raw_objective_value
from repro.solver.backends.heuristic import GreedyLocalSearchBackend
from repro.solver.compile import GreedyState, greedy_fill

from tests.conftest import make_apps
from tests.test_backend_metamorphic import _random_problem


# -- registry mechanics ---------------------------------------------------------

def test_registry_module_importable_first():
    # Importing the registry before anything else must not trip the
    # solver<->core import cycle (external backend packages do exactly this).
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-c",
         "import repro.solver.registry as r; print(len(r.available_backends()))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "4"


def test_builtin_backends_are_registered():
    names = registry.available_backends()
    assert names == ("greedy", "heuristic", "highs", "lp-round")
    for name in names:
        backend = registry.get_backend(name)
        assert backend.name == name


def test_aliases_resolve_to_canonical_backends():
    assert registry.get_backend("exact").name == "highs"
    assert registry.get_backend("local-search").name == "heuristic"
    assert registry.get_backend("lp-rounding").name == "lp-round"
    assert "auto" in registry.backend_names()
    assert "auto" not in registry.available_backends()


def test_greedy_backend_is_construction_only():
    greedy = registry.get_backend("greedy")
    assert isinstance(greedy, GreedyLocalSearchBackend)
    assert greedy.local_search is False
    assert registry.get_backend("heuristic").local_search is True


def test_unknown_backend_raises_with_available_names():
    with pytest.raises(ValueError,
                       match="greedy, heuristic, highs, lp-round"):
        registry.get_backend("quantum")
    with pytest.raises(ValueError):
        registry.get_backend("auto")  # a selection rule, not a backend


def test_register_backend_rejects_duplicates():
    with pytest.raises(ValueError):
        registry.register_backend("heuristic")(GreedyLocalSearchBackend)
    with pytest.raises(ValueError):
        registry.register_backend("fresh-name", aliases=("exact",))(GreedyLocalSearchBackend)
    assert "fresh-name" not in registry.available_backends()


def test_custom_backend_registration_and_cleanup(central_eu_problem):
    @registry.register_backend("nullsolver", aliases=("void",))
    class NullBackend:
        name = "nullsolver"

        def solve(self, request):
            return None  # always fails -> registry falls back to heuristic

    try:
        solution = registry.solve(central_eu_problem, backend="void")
        validate_solution(solution)
        assert solution.backend_name == "heuristic"  # graceful fallback
        assert solution.all_placed
    finally:
        del registry._BACKENDS["nullsolver"]
        del registry._ALIASES["void"]


@pytest.fixture
def partial_backend():
    """Register ``partial``, a backend returning the incumbent set on it, and
    unregister it afterwards."""
    @registry.register_backend("partial")
    class PartialBackend:
        name = "partial"
        incumbent: dict = {}

        def solve(self, request):
            return PlacementSolution(problem=request.problem,
                                     placements=dict(self.incumbent),
                                     power_on=np.ones(request.problem.n_servers))

    try:
        yield PartialBackend
    finally:
        del registry._BACKENDS["partial"]


def test_registry_fills_an_exhausted_incumbent_within_its_capacity(
        partial_backend, central_eu_fleet, central_eu_latency, central_eu_carbon):
    """An incumbent that leaves applications out takes the heuristic
    baseline's server for each of them, in application order, only where
    what the incumbent left on that server fits; a server the incumbent
    overloads takes nothing more."""
    # 30 Sci apps of 4 cores each, every server within the SLO: the baseline
    # fills three servers of 40 cores with ten apps each.
    apps = make_apps(central_eu_fleet.sites(), workload="Sci", n_per_site=6,
                     slo_ms=1000.0)
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(),
                                     central_eu_latency, central_eu_carbon, hour=0)
    baseline = registry.solve(problem, backend="heuristic").placements
    ids = list(problem.app_ids())
    over, tight, free = (baseline[ids[k]] for k in (0, 10, 20))
    groups = {j: [a for a in ids if baseline[a] == j] for j in (over, tight, free)}
    assert len({over, tight, free}) == 3
    assert all(len(group) == 10 for group in groups.values())
    other = next(j for j in range(problem.n_servers) if j not in groups)

    # Left out: 2 apps the baseline puts on `over`, 4 on `tight`, 3 on `free`.
    omitted = groups[over][-2:] + groups[tight][-4:] + groups[free][-3:]
    kept = [a for a in ids if a not in omitted]
    # The incumbent puts 11 apps on `over` (44 cores of 40), 8 on `tight`
    # (8 cores left: room for two more) and the last 2 on `other`.
    partial_backend.incumbent = {a: j for a, j in zip(
        kept, [over] * 11 + [tight] * 8 + [other] * 2)}

    with mock.patch.object(registry, "_fill_missing",
                           wraps=registry._fill_missing) as spy:
        result = registry.solve(problem, backend="partial")
    (_, completed, passed_baseline), _ = spy.call_args
    assert passed_baseline.placements == baseline

    filled = {a: j for a, j in completed.placements.items()
              if a not in partial_backend.incumbent}
    assert filled == {a: baseline[a] for a in groups[tight][-4:-2] + groups[free][-3:]}
    assert sorted(completed.unplaced) == sorted(groups[over][-2:] + groups[tight][-2:])
    # Nothing was added to the overloaded server: the incumbent's own
    # overload is the completed solution's only violation.
    assert sum(j == over for j in completed.placements.values()) == 11
    violations = validate_solution(completed, strict=False)
    assert len(violations) == 1
    assert f"server {problem.servers[over].server_id} over capacity" in violations[0]
    # The complete baseline places more, so it is what the registry returns.
    assert result is passed_baseline and result.backend_name == "heuristic"
    validate_solution(result)
    assert result.all_placed


# -- cross-backend agreement -----------------------------------------------------

def test_all_backends_feasible_and_within_tolerance(central_eu_problem):
    solutions = {}
    for backend in registry.available_backends():
        solution = registry.solve(central_eu_problem, backend=backend)
        validate_solution(solution)
        assert solution.all_placed
        solutions[backend] = solution
    exact_carbon = solutions["highs"].total_carbon_g()
    for backend, solution in solutions.items():
        # Heuristics stay within 5% of the exact objective on small instances
        # and never beat it by more than numerical noise.
        assert solution.total_carbon_g() >= exact_carbon - 1e-6, backend
        assert solution.total_carbon_g() <= exact_carbon * 1.05 + 1e-9, backend


def test_backends_agree_on_energy_objective(central_eu_problem):
    values = {}
    for backend in registry.available_backends():
        solution = registry.solve(central_eu_problem, backend=backend,
                                  objective=ObjectiveKind.ENERGY)
        validate_solution(solution)
        values[backend] = solution.total_energy_j()
    assert values["heuristic"] <= values["highs"] * 1.05 + 1e-9
    assert values["lp-round"] <= values["highs"] * 1.05 + 1e-9


def test_auto_picks_exact_for_small_and_heuristic_under_tight_budget(central_eu_problem):
    small = registry.solve(central_eu_problem, backend="auto")
    assert small.backend_name == "highs"
    tight = registry.solve(central_eu_problem, backend="auto", time_budget_s=0.01)
    assert tight.backend_name == "heuristic"
    validate_solution(tight)
    assert tight.all_placed


# -- heuristic backend specifics --------------------------------------------------

def _tight_problem(n_apps: int = 6, n_servers: int = 3) -> PlacementProblem:
    """A capacity-tight instance: each server fits exactly two unit apps."""
    from repro.workloads.application import Application

    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="s0",
                        latency_slo_ms=100.0, request_rate_rps=1.0)
            for i in range(n_apps)]
    intensity = np.linspace(100.0, 300.0, n_servers)
    latency = np.zeros((n_apps, n_servers))
    energy = np.full((n_apps, n_servers), 3.6e6)  # 1 kWh per assignment
    servers = [_FakeServer(f"srv{j}") for j in range(n_servers)]
    return PlacementProblem(
        applications=apps, servers=servers, latency_ms=latency, energy_j=energy,
        intensity=intensity, resource_keys=("cpu_cores",),
        capacity=np.full((n_servers, 1), 2.0), demand=np.ones((n_apps, n_servers, 1)),
        base_power_w=np.full(n_servers, 100.0), current_power=np.zeros(n_servers),
        horizon_hours=1.0)


class _FakeServer:
    """Minimal stand-in exposing the attributes the solver layer reads."""

    def __init__(self, server_id: str):
        self.server_id = server_id
        self.site = "s0"
        self.zone_id = "Z"

    is_on = False


def test_heuristic_respects_capacity_on_tight_instance():
    problem = _tight_problem()
    solution = registry.solve(problem, backend="heuristic")
    validate_solution(solution)
    assert solution.all_placed
    counts = {}
    for j in solution.placements.values():
        counts[j] = counts.get(j, 0) + 1
    assert all(c <= 2 for c in counts.values())  # capacity 2 per server
    # 6 unit apps over capacity-2 servers require all 3 servers on.
    assert float(np.sum(solution.power_on)) == 3.0


def test_heuristic_prefers_green_servers_under_activation():
    # 2 apps fit on one server: the heuristic should consolidate on the
    # lowest-intensity server rather than activating several.
    problem = _tight_problem(n_apps=2, n_servers=3)
    solution = registry.solve(problem, backend="heuristic")
    validate_solution(solution)
    assert set(solution.placements.values()) == {0}  # intensity 100 server
    assert float(np.sum(solution.power_on)) == 1.0


def test_local_search_no_worse_than_pure_greedy(central_eu_problem):
    request = SolveRequest(problem=central_eu_problem)
    pure = GreedyLocalSearchBackend(local_search=False).solve(request)
    improved = GreedyLocalSearchBackend().solve(request)
    assert improved.n_placed >= pure.n_placed
    assert raw_objective_value(request, improved) <= raw_objective_value(request, pure) + 1e-9


def test_zero_time_budget_still_returns_valid_flagged_solution(central_eu_problem):
    # A zero budget can no longer guarantee completeness: the construction
    # path itself is deadline-bound now. The contract is a *valid* solution,
    # flagged construction_truncated whenever the budget cut the fill short.
    for backend in registry.available_backends():
        solution = registry.solve(central_eu_problem, backend=backend, time_budget_s=0.0)
        validate_solution(solution)
        assert solution.all_placed or solution.construction_truncated, backend


def test_negative_time_budget_rejected(central_eu_problem):
    with pytest.raises(ValueError):
        registry.solve(central_eu_problem, time_budget_s=-1.0)


# -- warm starts -------------------------------------------------------------------

def test_warm_start_is_respected_and_improved(central_eu_problem):
    cold = registry.solve(central_eu_problem, backend="heuristic")
    warm = registry.solve(central_eu_problem, backend="heuristic",
                          warm_start=dict(cold.placements))
    validate_solution(warm)
    assert warm.n_placed == cold.n_placed
    assert warm.total_carbon_g() <= cold.total_carbon_g() + 1e-9


def test_warm_start_ignores_stale_entries(central_eu_problem):
    warm_start = {"no-such-app": 0, "another": 99999}
    for app in central_eu_problem.applications[:2]:
        warm_start[app.app_id] = 10**6  # out-of-range server index
    solution = registry.solve(central_eu_problem, backend="heuristic",
                              warm_start=warm_start)
    validate_solution(solution)
    assert solution.all_placed


# -- warm-start sanitization ------------------------------------------------------

def test_solve_request_drops_and_counts_malformed_hints():
    problem = _random_problem(seed=2, n_apps=4)
    good_app = problem.applications[0].app_id
    request = SolveRequest(problem=problem, warm_start={
        good_app: 0,                 # kept
        "departed-app": 1,           # unknown id -> dropped
        problem.applications[1].app_id: 10**6,   # out-of-range server -> dropped
        problem.applications[2].app_id: "zero",  # non-numeric -> dropped
    })
    assert request.warm_hints_dropped == 3
    assert request.warm_start == {good_app: 0}


def test_clean_warm_start_drops_nothing():
    problem = _random_problem(seed=2, n_apps=4)
    warm = {app.app_id: 0 for app in problem.applications}
    request = SolveRequest(problem=problem, warm_start=warm)
    assert request.warm_hints_dropped == 0
    assert request.warm_start == warm


def test_dropped_hint_counter_reaches_the_solution():
    problem = _random_problem(seed=3, n_apps=4)
    solution = registry.solve(problem, backend="heuristic",
                              warm_start={"no-such-app": 0, "nor-this-one": 2})
    validate_solution(solution)
    assert solution.all_placed
    assert solution.warm_hints_dropped == 2
    untainted = registry.solve(problem, backend="heuristic")
    assert untainted.warm_hints_dropped == 0


# -- construction deadline ---------------------------------------------------------

def test_greedy_fill_expired_deadline_truncates_with_valid_state():
    request = SolveRequest(problem=_random_problem(seed=4, n_apps=6))
    state = GreedyState(request.dense())
    greedy_fill(state, deadline=time.monotonic() - 1.0)
    assert state.stats.truncated
    # Whatever was filled before the cut is a consistent partial assignment.
    assert np.all(state.assignment == -1) or state.assignment.max() >= 0


def test_expired_budget_flags_construction_truncated_on_the_solution():
    problem = _random_problem(seed=4, n_apps=6)
    request = SolveRequest(problem=problem, time_budget_s=5.0,
                           started_at=time.monotonic() - 10.0)  # already expired
    solution = registry.get_backend("heuristic").solve(request)
    assert solution is not None
    validate_solution(solution)
    assert solution.construction_truncated
    assert not solution.all_placed


def test_no_budget_leaves_construction_untruncated():
    problem = _random_problem(seed=4, n_apps=6)
    solution = registry.get_backend("heuristic").solve(SolveRequest(problem=problem))
    assert solution is not None
    assert not solution.construction_truncated
    assert solution.all_placed


# -- policy integration ------------------------------------------------------------

def test_policy_accepts_any_registered_backend_name(central_eu_problem):
    for solver in ("heuristic", "highs", "exact", "rounding"):
        solution = CarbonEdgePolicy(solver=solver).place(central_eu_problem)
        validate_solution(solution)
        assert solution.all_placed


def test_policy_time_budget_flows_to_auto_selection(central_eu_problem):
    solution = CarbonEdgePolicy(time_limit_s=0.05).place(central_eu_problem)
    assert solution.backend_name == "heuristic"
    validate_solution(solution)
