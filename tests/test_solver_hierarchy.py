"""Tests of the cluster-then-refine hierarchical solver tier.

Covers the determinism contract (plans are pure functions of their inputs),
the degenerate single-region case
collapsing to the flat solve, spill accounting under overload and over a
fleet that already holds allocations, every objective's pinned and validated
outcome on a pristine and on a live fleet (also with the coarse pass cut into
small class blocks), the multi objective's normalisation pool, the region
refinement against the route it replaced (a region problem solved by the
registry's greedy backend), and the dense-cell budget guard that points
planetary users at this tier and, inside it, at a finer region plan.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.problem import ensure_dense_cell_budget
from repro.core.validation import validate_solution
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.solver import hierarchy
from repro.solver.compile import (
    ScenarioCompilation,
    assignment_to_solution,
    compile_placement,
)
from repro.solver.config import SolverConfig
from repro.solver.hierarchy import (
    HierarchicalResult,
    RegionPlan,
    build_region_plan,
    region_server_columns,
    solve_hierarchical,
)
from repro.solver.registry import solve as registry_solve
from repro.workloads.generator import ApplicationGenerator

from tests.conftest import per_app
from tests.test_refine_pins import N_APPS as PERFBENCH_APPS
from tests.test_refine_pins import build_instance as perfbench_instance

HOUR = 4700


def _substrate(n_sites: int, n_apps: int, seed: int = 0,
               latency_slo_ms: float = 40.0):
    fleet, latency, carbon = build_planetary_substrate(n_sites, seed=seed)
    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=latency_slo_ms,
        mean_arrivals_per_batch=float(n_apps), duration_hours=1.0, seed=seed)
    apps = list(generator.generate_batch(0, HOUR, n_arrivals=n_apps).applications)
    return fleet, compilation, apps


# --------------------------------------------------------------------------
# Region plans
# --------------------------------------------------------------------------

def test_region_plan_is_deterministic():
    fleet, _, _ = _substrate(40, 1)
    names, coords = fleet.sites(), fleet.site_coordinates()
    a = build_region_plan(names, coords, 5, seed=3)
    b = build_region_plan(names, coords, 5, seed=3)
    assert a.method == "kmeans"
    assert np.array_equal(a.site_region, b.site_region)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.neighbor_order, b.neighbor_order)
    # A different seed re-draws the k-means initialisation.
    c = build_region_plan(names, coords, 5, seed=4)
    assert c.method == "kmeans"


def test_region_plan_covers_every_site_exactly_once():
    fleet, _, _ = _substrate(40, 1)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 6, seed=0)
    assert plan.site_region.shape == (40,)
    assert plan.site_region.min() >= 0 and plan.site_region.max() < plan.n_regions
    assert int(plan.region_sizes().sum()) == 40
    cols = region_server_columns(plan, fleet.servers())
    seen = np.sort(np.concatenate([c for c in cols if len(c)]))
    assert np.array_equal(seen, np.arange(len(fleet.servers())))


def test_region_plan_grid_fallback_on_degenerate_coordinates():
    names = [f"s{i}" for i in range(6)]
    coords = np.zeros((6, 2))  # one distinct coordinate, 4 regions requested
    plan = build_region_plan(names, coords, 4, seed=0)
    assert plan.method == "grid"
    assert plan.site_region.shape == (6,)
    assert int(plan.region_sizes().sum()) == 6


def test_region_plan_clamps_regions_to_site_count():
    names = ["a", "b", "c"]
    coords = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]])
    plan = build_region_plan(names, coords, 8, seed=0)
    assert plan.n_regions == 3


def test_region_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_region_plan(["a"], np.zeros((1, 2)), 0, seed=0)
    with pytest.raises(ValueError):
        build_region_plan(["a", "b"], np.zeros((3, 2)), 1, seed=0)


def test_neighbor_order_starts_at_self_and_permutes_regions():
    fleet, _, _ = _substrate(40, 1)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 5, seed=0)
    for r in range(plan.n_regions):
        row = plan.neighbor_order[r]
        assert row[0] == r  # self is at distance zero
        assert sorted(row.tolist()) == list(range(plan.n_regions))


# --------------------------------------------------------------------------
# Hierarchical solve: determinism and degenerate cases
# --------------------------------------------------------------------------

def test_single_region_hierarchy_matches_flat_solve():
    """With one region the coarse pass is trivial and refinement IS the flat
    problem, so the hierarchy must reproduce the flat backend's answer."""
    fleet, compilation, apps = _substrate(24, 60)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 1, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=1), seed=0)

    problem = compilation.build_problem(apps, HOUR)
    flat = registry_solve(problem, backend="greedy",
                          objective=ObjectiveKind.CARBON)
    flat_assignment = np.full(len(apps), -1, dtype=int)
    for i, app in enumerate(apps):
        if app.app_id in flat.placements:
            flat_assignment[i] = flat.placements[app.app_id]
    assert np.array_equal(outcome.assignment, flat_assignment)
    assert outcome.n_spilled == 0


def _fresh_latency_carbon(fleet):
    from repro.carbon.service import CarbonIntensityService
    from repro.carbon.synthetic import SyntheticTraceGenerator
    from repro.datasets.electricity_maps import default_zone_catalog
    from repro.network.latency import build_latency_matrix_fast

    latency = build_latency_matrix_fast(
        fleet.sites(), fleet.site_coordinates(),
        countries=[dc.zone_id for dc in fleet])
    zone_catalog = default_zone_catalog()
    traces = SyntheticTraceGenerator(seed=0).generate_set(
        zone_catalog.get(z) for z in fleet.zone_ids())
    return latency, CarbonIntensityService(traces=traces)


def test_hierarchy_accounts_for_every_application():
    fleet, compilation, apps = _substrate(32, 100)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 4, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=4), seed=0)
    assert isinstance(outcome, HierarchicalResult)
    assert outcome.assignment.shape == (len(apps),)
    assert outcome.n_placed + outcome.n_unplaced == len(apps)
    n_servers = len(fleet.servers())
    placed = outcome.assignment[outcome.assignment >= 0]
    assert placed.size == outcome.n_placed
    assert np.all(placed < n_servers)
    # Region accounting covers the fleet and the routed applications.
    assert int(np.sum(outcome.region_server_counts)) == n_servers
    assert int(np.sum(outcome.region_app_counts)) \
        == len(apps) - outcome.n_coarse_unrouted


def test_overloaded_region_spills_to_neighbors():
    """Far more applications than one region can hold: refinement overflows
    and the spill pass re-routes into neighbouring regions instead of
    silently dropping demand."""
    fleet, compilation, apps = _substrate(12, 600)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert outcome.n_placed + outcome.n_unplaced == len(apps)
    # The instance is saturated: spill must have fired (or everything the
    # regions could not take is explicitly unplaced — never lost).
    assert outcome.n_spilled > 0 or outcome.n_unplaced > 0
    # Spill respects capacity: re-running the same inputs is stable.
    again = solve_hierarchical(
        ScenarioCompilation(fleet.servers(), *_fresh_latency_carbon(fleet)),
        apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert np.array_equal(outcome.assignment, again.assignment)
    assert outcome.n_spilled == again.n_spilled


def test_spill_into_an_unrouted_region_depletes_a_copy_of_the_baseline():
    """A region no app was routed to seeds its spill capacities from its rows
    of the epoch's capacity table, here the compilation's cached pristine
    baseline. The spilled app must deplete a copy, so a later solve over the
    same compilation starts from the baseline."""
    fleet, compilation, apps = _substrate(12, 20)
    delta = compilation.epoch_delta(apps, HOUR)
    block_ids = np.unique(compilation._class_block[delta.class_indices])
    blocks = [compilation._block_keys[b] for b in block_ids]
    keys = compilation._epoch_keys([compilation._block(*b) for b in blocks])
    energy = np.stack([compilation._energy_row(w, r, 1.0) for w, r in blocks])
    demand = np.stack([compilation._dense_row(w, r, keys) for w, r in blocks])
    k = int(delta.class_indices[0])
    b = int(np.searchsorted(block_ids, compilation._class_block[k]))
    cap_dense = compilation._capacity_dense(keys)
    baseline = cap_dense.copy()
    cols = np.arange(len(fleet.servers()), dtype=np.intp)
    remaining: dict = {}
    assignment = np.full(len(apps), -1)
    assert hierarchy._spill_into(compilation, cols, k, b, energy, demand, cap_dense,
                                 delta.intensity, ObjectiveKind.CARBON, remaining,
                                 0, assignment, 0)
    j = assignment[0]
    assert np.all(remaining[0][j] <= baseline[j]) and np.any(remaining[0][j] < baseline[j])
    assert np.array_equal(compilation._capacity_dense(keys), baseline)


@pytest.mark.parametrize("full_regions", [(0,), (0, 1, 2)])
def test_spill_respects_live_allocations(full_regions):
    """Servers the fleet has already filled take no spilled app: a region no
    app was routed to seeds its spill capacities from the live capacities,
    not from the pristine baseline, so the decoded placement validates, and
    a fleet with no room left places nothing."""
    fleet, compilation, apps = _substrate(12, 600)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    cols = region_server_columns(plan, fleet.servers())
    full = np.concatenate([cols[r] for r in full_regions])
    for j in full:
        server = fleet.servers()[j]
        server.allocate("blocker", server.available_capacity)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert not np.isin(outcome.assignment, full).any()
    problem = compilation.build_problem(apps, HOUR)
    validate_solution(assignment_to_solution(problem, outcome.assignment), strict=True)
    if len(full) == len(fleet.servers()):
        assert outcome.n_placed == 0


@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_hierarchy_supports_every_objective(objective):
    fleet, compilation, apps = _substrate(20, 40)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=objective, alpha=0.5,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert outcome.n_placed > 0
    assert np.isfinite(outcome.refined_objective)


#: Three-region outcomes for every objective (alpha 0.5 for multi) and power
#: mode, on a slack instance and on the spill instance: SHA-256 of the int64
#: assignment followed by ``repr`` of the coarse and the refined objective.
#: Recorded before the coarse pass ran in class blocks, so every objective's
#: placements and both floats are pinned, not only carbon's. Every server of
#: these fleets is on and free, so both power modes share a digest.
OUTCOME_DIGESTS = {
    ((20, 40), "carbon"): "202b373b4d44dfcf01cfddeaf249421980e37c54c3dcaed03717fcbc649024bd",
    ((20, 40), "energy"): "d6d1ec52dfca38c07794fbc1af0cc1bea22a7bec7fd6c6b6e2b384e96638d0e0",
    ((20, 40), "multi"): "3031dc69a9565d12ad27ee28d66944ce133dac0c11ae95bbca8021871c0636c5",
    ((20, 40), "latency"): "6126d2641e844e7346aa0ae6c37d442292ed9e9e4a7743d0fb54f58ec8a033a0",
    ((20, 40), "intensity"): "fc0d32400ad98fbaf8ac37891828cb617ba5dd9ce26caca6dae834139a809ca8",
    ((12, 600), "carbon"): "2e0f34922531238c9817f7135b0f77ce01a660c2e1dc3b7a4ba622871f60430d",
    ((12, 600), "energy"): "b4f2d58a9e6337d1d51aaf9db9cff5b9f9dbb438258b96ecd7d9247cf70eedbb",
    ((12, 600), "multi"): "f209771116038e28325225aea6aa2c647820dd20b0a2b6558cbe95dc1985bafe",
    ((12, 600), "latency"): "2f66daab30adc296c845d3c7fd411217246f4b0f12540b22d22cbdcf2afbc6f5",
    ((12, 600), "intensity"): "1f8cc2733c9ed623dbc35f1c03bb7379b4211790f118bc134e408466751d6ba0",
}

#: The same solves on the live fleet of :func:`_make_live`, keyed by (size,
#: objective, manage_power): allocations narrow the mask and the servers off
#: open the activation channel, so the power modes part.
LIVE_OUTCOME_DIGESTS = {
    ((20, 40), "carbon", True): "5d51b49966e172bbdd1d24ccb5c62002b07c692f21d53fff19d5c614440bb3e4",
    ((20, 40), "carbon", False): "202b373b4d44dfcf01cfddeaf249421980e37c54c3dcaed03717fcbc649024bd",
    ((20, 40), "energy", True): "ece9a180324b87de66ec8103aca2c741d4ffc1a2e78f3dfaa92afe41e14d3626",
    ((20, 40), "energy", False): "d6d1ec52dfca38c07794fbc1af0cc1bea22a7bec7fd6c6b6e2b384e96638d0e0",
    ((20, 40), "multi", True): "e4c8155fb14f5923b80dbeb40390195f443e523bcd78f43b435cae0e2329d3e9",
    ((20, 40), "multi", False): "3031dc69a9565d12ad27ee28d66944ce133dac0c11ae95bbca8021871c0636c5",
    ((20, 40), "latency", True): "6126d2641e844e7346aa0ae6c37d442292ed9e9e4a7743d0fb54f58ec8a033a0",
    ((20, 40), "latency", False): "6126d2641e844e7346aa0ae6c37d442292ed9e9e4a7743d0fb54f58ec8a033a0",
    ((20, 40), "intensity", True): "fc0d32400ad98fbaf8ac37891828cb617ba5dd9ce26caca6dae834139a809ca8",
    ((20, 40), "intensity", False): "fc0d32400ad98fbaf8ac37891828cb617ba5dd9ce26caca6dae834139a809ca8",
    ((12, 600), "carbon", True): "1e1fd5843deca01d1439cd649ec7a3ddd3955dde0c8bd9b3871f0b3fa2852ddc",
    ((12, 600), "carbon", False): "909a21724f6cfa75018b0b08b54f3e29a97935a2711b5e67470e811d987e8787",
    ((12, 600), "energy", True): "7e477da20dbf79a0da03609c80fcafad3190d5f03ee5040abd31bc250b9f6b28",
    ((12, 600), "energy", False): "c9f87a87692bf6dcf9233ef6c6456daaf776f5a9e8d6999bf7cddef697b3a7cd",
    ((12, 600), "multi", True): "7aed1a01f6d88bd08a907c2690f3620e8e94aa51647aa7b308e79a52d4802bb9",
    ((12, 600), "multi", False): "73595f7a0a64df1ad74d2490ab17302015ef430f8abbd1417c631105c755819b",
    ((12, 600), "latency", True): "aab25f15624475ff9ecb290f6c6e31f3de2370abcdfa33d00dd750f291f2bbd3",
    ((12, 600), "latency", False): "aab25f15624475ff9ecb290f6c6e31f3de2370abcdfa33d00dd750f291f2bbd3",
    ((12, 600), "intensity", True): "1f3e3a5bbbad16bdb677eec7bc32af9a62feba7714a2c70ac7a210378e4b26f6",
    ((12, 600), "intensity", False): "1f3e3a5bbbad16bdb677eec7bc32af9a62feba7714a2c70ac7a210378e4b26f6",
}


def _make_live(fleet) -> None:
    """Every third server half allocated, and the other odd-indexed servers off."""
    for j, server in enumerate(fleet.servers()):
        if j % 3 == 0:
            server.allocate("blocker", server.available_capacity * 0.5)
        elif j % 2:
            server.power_off()


def _pinned_solve(size, objective, manage_power=True, live=False):
    """(compilation, apps, outcome) of one pinned three-region solve."""
    fleet, compilation, apps = _substrate(*size)
    if live:
        _make_live(fleet)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=objective, alpha=0.5,
        manage_power=manage_power, config=SolverConfig(hierarchy_regions=3),
        seed=0)
    return compilation, apps, outcome


def _outcome_digest(outcome) -> str:
    digest = hashlib.sha256(np.asarray(outcome.assignment, dtype=np.int64).tobytes())
    digest.update(repr(outcome.coarse_objective).encode("ascii"))
    digest.update(repr(outcome.refined_objective).encode("ascii"))
    return digest.hexdigest()


@pytest.mark.parametrize("manage_power", [True, False])
@pytest.mark.parametrize("objective", list(ObjectiveKind))
@pytest.mark.parametrize("size", [(20, 40), (12, 600)])
@pytest.mark.parametrize("live", [False, True], ids=["pristine", "live"])
def test_every_objective_outcome_is_pinned(live, size, objective, manage_power):
    """Pinned, on a pristine and on a live fleet, and valid: decoded on the
    flat problem of the same batch, the refined and spilled placements pass
    the validator every path answers to."""
    compilation, apps, outcome = _pinned_solve(size, objective, manage_power, live)
    expected = LIVE_OUTCOME_DIGESTS[size, objective.value, manage_power] if live \
        else OUTCOME_DIGESTS[size, objective.value]
    assert _outcome_digest(outcome) == expected
    problem = compilation.build_problem(apps, HOUR)
    validate_solution(assignment_to_solution(problem, outcome.assignment,
                                             manage_power), strict=True)


@pytest.mark.parametrize("objective", list(ObjectiveKind))
@pytest.mark.parametrize("size", [(20, 40), (12, 600)])
def test_coarse_class_blocks_do_not_move_the_outcome(size, objective):
    """One class per block, and blocks that split the classes unevenly, give
    the pinned outcome byte for byte."""
    fleet, compilation, apps = _substrate(*size)
    n_servers = len(fleet.servers())
    n_classes = len(np.unique(
        compilation.epoch_delta(apps, HOUR).class_indices))
    per_block = 7
    assert n_classes > per_block and n_classes % per_block, \
        "the blocks must split the classes unevenly"
    for cells in (1, per_block * n_servers):
        with mock.patch.object(hierarchy, "COARSE_BLOCK_CELLS", cells):
            digest = _outcome_digest(_pinned_solve(size, objective)[2])
        assert digest == OUTCOME_DIGESTS[size, objective.value], cells


def test_multi_normalisation_pools_only_feasible_entries():
    """A class with no feasible server must not widen the multi objective's
    min-max pool. Server 0 is CPU-only, so it has no ResNet50 profile, and a
    1 ms SLO leaves its site's ResNet50 applications nowhere to go; their
    zero coefficients on unsupported servers stay out of the pool, as in
    the flat epoch's dense view, so the refined objective is the flat
    normalised coefficients of the same placements."""
    fleet, latency, carbon = build_planetary_substrate(20, seed=0)
    fleet.servers()[0].accelerator = None
    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    apps = list(ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=1.0, mean_arrivals_per_batch=40.0,
        duration_hours=1.0, seed=0).generate_batch(0, HOUR, n_arrivals=40).applications)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 1, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.MULTI,
        alpha=0.5, config=SolverConfig(hierarchy_regions=1), seed=0)

    problem = compilation.build_problem(apps, HOUR)
    assert (~per_app(problem)["feasible_mask"].any(axis=1)).sum() == 1
    dense = compile_placement(problem).dense(ObjectiveKind.MULTI, 0.5)
    assign = dense.raw_assign[dense.row_class]
    placed = np.flatnonzero(outcome.assignment >= 0)
    assert len(placed) == 39
    flat = float(assign[placed, outcome.assignment[placed]].sum())
    assert outcome.refined_objective == pytest.approx(flat, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_refined_objective_sums_parts_like_the_per_part_loop(seed):
    """The refined objective's bulk sum is the float of summing each class's
    part on its own and adding the part sums left to right from 0.0, for
    part lengths on both sides of numpy's 8-wide unroll and 128-wide
    pairwise block."""
    rng = np.random.default_rng(seed)
    lengths = rng.choice([1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 200, 257], size=60)
    n = int(lengths.sum())
    values = rng.random(n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    cuts = np.cumsum(lengths)[:-1]
    expected = 0.0
    for part in np.split(values, cuts):
        expected += float(part.sum())
    assert hierarchy._sum_by_part(values, cuts).hex() == expected.hex()
    assert hierarchy._sum_by_part(np.empty(0), np.empty(0, dtype=np.intp)) == 0.0


def test_recorded_gap_is_refined_minus_coarse():
    fleet, compilation, apps = _substrate(20, 60)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 4, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=4), seed=0)
    assert outcome.objective_gap == pytest.approx(
        outcome.refined_objective - outcome.coarse_objective)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_refinement_is_the_region_solve(compilation, apps, plan, objective,
                                           alpha, manage_power) -> None:
    """Each region's refinement costs and places its apps exactly as the
    route it replaced: a fresh compilation over the region's servers builds
    the region's problem from its routed apps, and the registry's greedy
    backend solves it. The DenseCosts the kernel receives equal that
    problem's compiled tables per application, bit for bit (demand and
    capacity on the region problem's keys), and the placements are the
    backend's."""
    with mock.patch.object(hierarchy, "greedy_fill",
                           wraps=hierarchy.greedy_fill) as fill:
        solve_hierarchical(
            compilation, apps, plan, hour=HOUR, objective=objective, alpha=alpha,
            manage_power=manage_power,
            config=SolverConfig(hierarchy_regions=plan.n_regions), seed=0)
    coarse, *regions = [call.args[0] for call in fill.call_args_list]
    servers = compilation.servers
    cols = [c for c in region_server_columns(plan, servers) if len(c)]
    routed = coarse.assignment
    refined = [r for r in range(len(cols)) if np.any(routed == r)]
    assert len(regions) == len(refined) > 1
    for r, state in zip(refined, regions):
        idx_r = np.flatnonzero(routed == r)
        problem = ScenarioCompilation(
            [servers[j] for j in cols[r]], compilation.latency, compilation.carbon,
        ).build_problem([apps[i] for i in idx_r], HOUR)
        solution = registry_solve(problem, backend="greedy", objective=objective,
                                  alpha=alpha, manage_power=manage_power)
        reference = compile_placement(problem).dense(objective, alpha, manage_power)
        dense = state.dense
        rows, ref_rows = dense.row_class, reference.row_class
        for name in ("cost", "raw_assign", "mask", "energy"):
            assert _same_bits(getattr(dense, name)[rows],
                              getattr(reference, name)[ref_rows]), (r, name)
        for name in ("activation", "initially_on"):
            assert _same_bits(getattr(dense, name), getattr(reference, name)), (r, name)
        on_keys = [dense.keys.index(key) for key in reference.keys]
        assert _same_bits(dense.demand[dense.class_block[rows]][..., on_keys],
                          reference.demand[reference.class_block[ref_rows]])
        assert _same_bits(dense.capacity[:, on_keys], reference.capacity)
        expected = np.full(len(idx_r), -1)
        expected[problem.app_indices(list(solution.placements))] = \
            list(solution.placements.values())
        assert np.array_equal(state.assignment, expected), r


@pytest.mark.parametrize("manage_power", [True, False])
@pytest.mark.parametrize("objective", list(ObjectiveKind))
@pytest.mark.parametrize("size", [(20, 40), (12, 600)])
@pytest.mark.parametrize("live", [False, True], ids=["pristine", "live"])
def test_region_refinement_is_the_region_problems_greedy_solve(live, size, objective,
                                                               manage_power):
    """On a pristine fleet, and on a live one (a third of the servers half
    allocated, some others off), where the mask reads live capacities and
    the activation channel is open."""
    fleet, compilation, apps = _substrate(*size)
    if live:
        _make_live(fleet)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    _assert_refinement_is_the_region_solve(compilation, apps, plan, objective,
                                           0.5, manage_power)


def test_perfbench_region_refinement_is_the_region_problems_greedy_solve():
    fleet, latency, carbon, plan, generator = perfbench_instance()
    batch = generator.generate_batch(0, HOUR, n_arrivals=PERFBENCH_APPS)
    _assert_refinement_is_the_region_solve(
        ScenarioCompilation(fleet.servers(), latency, carbon),
        list(batch.applications), plan, ObjectiveKind.CARBON, 0.0, True)


def test_refine_backend_other_than_greedy_is_refused():
    """Regions are refined by the greedy kernel on class tables; a config
    naming another backend is refused rather than silently ignored."""
    assert SolverConfig(refine_backend="greedy").refine_backend == "greedy"
    for name in ("heuristic", "auto", "highs", ""):
        with pytest.raises(ValueError, match="refine_backend"):
            SolverConfig(hierarchy_regions=3, refine_backend=name)


# --------------------------------------------------------------------------
# Dense-cell budget guard
# --------------------------------------------------------------------------

def test_dense_cell_guard_names_the_hierarchy_knob(monkeypatch):
    monkeypatch.setenv("CARBON_EDGE_MAX_DENSE_CELLS", "100")
    fleet, compilation, apps = _substrate(20, 40)
    with pytest.raises(ValueError) as excinfo:
        compilation.build_problem(apps, HOUR)
    message = str(excinfo.value)
    assert "hierarchy_regions" in message
    assert "--hierarchy-regions" in message
    assert "CARBON_EDGE_MAX_DENSE_CELLS" in message


def test_dense_cell_guard_spares_the_hierarchical_path(monkeypatch):
    """The same instance that the flat path refuses solves hierarchically:
    no region sub-problem crosses the budget. Each region is still held to
    it: one region spanning the fleet is refused like the flat build, and
    the refusal points at a finer plan, not at the tier it came from."""
    monkeypatch.setenv("CARBON_EDGE_MAX_DENSE_CELLS", "400")
    fleet, compilation, apps = _substrate(20, 40)
    with pytest.raises(ValueError):
        compilation.build_problem(apps, HOUR)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 8, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=8), seed=0)
    assert outcome.n_placed > 0
    one = build_region_plan(fleet.sites(), fleet.site_coordinates(), 1, seed=0)
    with pytest.raises(ValueError, match="hierarchy region refinement") as excinfo:
        solve_hierarchical(compilation, apps, one, hour=HOUR,
                           config=SolverConfig(hierarchy_regions=1), seed=0)
    message = str(excinfo.value)
    assert "more regions" in message
    assert "--hierarchy-regions N" in message and "build_region_plan" in message
    assert "CARBON_EDGE_MAX_DENSE_CELLS" in message
    assert "hierarchical solver tier" not in message


@pytest.mark.parametrize("raw", ["1e8", "abc", "2.5", "0", "-5"])
def test_dense_cell_budget_rejects_a_non_positive_integer(monkeypatch, raw):
    """A malformed or non-positive budget fails up front, naming the variable
    and the value, instead of refusing every flat build."""
    monkeypatch.setenv("CARBON_EDGE_MAX_DENSE_CELLS", raw)
    with pytest.raises(ValueError) as excinfo:
        ensure_dense_cell_budget(1, 1)
    message = str(excinfo.value)
    assert "CARBON_EDGE_MAX_DENSE_CELLS" in message
    assert repr(raw) in message
