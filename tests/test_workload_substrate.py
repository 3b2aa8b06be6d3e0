"""The columnar workload substrate: equivalence, bit-identity, scenario classes.

The contract under test (see the columnar section of
:mod:`repro.workloads.generator`): the struct-of-arrays batch is a pure
representation change — application ids, per-app fields, the class partition,
every compiled epoch tensor, and every simulation artifact must be identical
whether the batch flows through the class-table path or the per-object
reference build (:func:`tests.conftest.cold_build`, which
:func:`tests.conftest.cold_builds` swaps in for ``PlacementProblem.build``).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.incremental import IncrementalPlacer
from repro.core.objective import ObjectiveKind
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.validation import validate_solution
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.serving.loadgen import LoadGenerator
from repro.simulator.cdn import CDNSimulator, clear_substrate_cache
from repro.simulator.scenario import CDNScenario
from repro.solver.compile import ScenarioCompilation, compile_placement
from repro.solver.config import SolverConfig
from repro.solver.hierarchy import build_region_plan, solve_hierarchical
from repro.workloads.generator import (
    ApplicationBatch,
    ApplicationGenerator,
    LazyApplications,
    app_id_pad_width,
)

from tests.conftest import cold_build, cold_builds

SCENARIO_KWARGS = dict(continent="EU", n_epochs=2, max_sites=8, seed=0)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_substrate_cache()
    yield
    clear_substrate_cache()


# -- id scheme ----------------------------------------------------------------


def test_app_id_pad_width_widens_past_ten_thousand():
    assert app_id_pad_width(0) == 4
    assert app_id_pad_width(1) == 4
    assert app_id_pad_width(9_999) == 4
    assert app_id_pad_width(10_000) == 4  # last id is 9999 — still 4 digits
    assert app_id_pad_width(10_001) == 5
    assert app_id_pad_width(100_001) == 6


def _batch(count: int, n_sites: int = 4, seed: int = 0) -> ApplicationBatch:
    generator = ApplicationGenerator(
        sites=[f"site{i:02d}" for i in range(n_sites)],
        mean_arrivals_per_batch=float(max(count, 1)), seed=seed)
    return generator.generate_batch(0, 100, n_arrivals=count)


def test_ids_unchanged_at_ten_thousand_and_sorted_above():
    batch = _batch(10_000)
    ids = batch.app_ids()
    assert ids[0] == "app-00000-0000" and ids[-1] == "app-00000-9999"

    wide = _batch(10_001)
    wide_ids = wide.app_ids()
    assert wide_ids[0] == "app-00000-00000" and wide_ids[-1] == "app-00000-10000"
    # The whole point of deriving the pad from the batch count: lexicographic
    # order equals arrival order, with no aliasing past the 4-digit overflow.
    assert sorted(wide_ids) == list(wide_ids)
    assert len(set(wide_ids)) == len(wide_ids)


# -- columnar <-> object equivalence -----------------------------------------

_values = st.floats(min_value=0.25, max_value=64.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _columns(draw):
    n_sites = draw(st.integers(1, 5))
    n_workloads = draw(st.integers(1, 3))
    count = draw(st.integers(0, 40))
    site_idx = draw(st.lists(st.integers(0, n_sites - 1),
                             min_size=count, max_size=count))
    workload_idx = draw(st.lists(st.integers(0, n_workloads - 1),
                                 min_size=count, max_size=count))

    def column(scalar_ok: bool):
        if scalar_ok and draw(st.booleans()):
            return draw(_values)
        return np.asarray(draw(st.lists(_values, min_size=count, max_size=count)))

    return dict(
        interval_index=draw(st.integers(0, 3)),
        hour_of_year=draw(st.integers(0, 8759)),
        site_names=tuple(f"s{i}" for i in range(n_sites)),
        workload_names=tuple(f"w{i}" for i in range(n_workloads)),
        site_idx=np.asarray(site_idx, dtype=np.int64),
        workload_idx=np.asarray(workload_idx, dtype=np.int64),
        latency_slo_ms=column(scalar_ok=True),
        request_rate_rps=column(scalar_ok=True),
        duration_hours=column(scalar_ok=True),
    )


@given(_columns())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_class_table_partitions_the_batch(cols):
    batch = ApplicationBatch.from_columns(**cols)
    count = len(cols["site_idx"])
    assert len(batch) == count
    assert int(batch.class_counts.sum()) == count
    assert np.array_equal(np.bincount(batch.class_idx,
                                      minlength=batch.n_classes),
                          batch.class_counts)
    # Every class row reproduces its members' per-app values exactly.
    assert np.array_equal(batch.class_site_idx[batch.class_idx], batch.site_idx)
    assert np.array_equal(batch.class_workload_idx[batch.class_idx],
                          batch.workload_idx)
    assert np.array_equal(batch.class_slo_ms[batch.class_idx],
                          batch.latency_slo_ms)
    assert np.array_equal(batch.class_rate_rps[batch.class_idx],
                          batch.request_rate_rps)
    assert np.array_equal(batch.class_duration_h[batch.class_idx],
                          batch.duration_hours)
    # The class table is a real dedup: rows are pairwise distinct.
    rows = {(int(batch.class_site_idx[c]), int(batch.class_workload_idx[c]),
             float(batch.class_slo_ms[c]), float(batch.class_rate_rps[c]),
             float(batch.class_duration_h[c])) for c in range(batch.n_classes)}
    assert len(rows) == batch.n_classes
    # first-occurrence: position k of class c has no earlier member of c.
    first = batch.class_first_occurrence()
    for c, k in enumerate(first):
        members = np.flatnonzero(batch.class_idx == c)
        assert members[0] == k


@given(_columns())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_object_view_matches_columns(cols):
    batch = ApplicationBatch.from_columns(**cols)
    apps = batch.applications
    assert len(apps) == len(batch)
    for k, app in enumerate(apps):
        assert app.app_id == batch.app_id(k)
        assert app.source_site == cols["site_names"][batch.site_idx[k]]
        assert app.workload == cols["workload_names"][batch.workload_idx[k]]
        assert app.latency_slo_ms == float(batch.latency_slo_ms[k])
        assert app.request_rate_rps == float(batch.request_rate_rps[k])
        assert app.duration_hours == float(batch.duration_hours[k])
        assert batch.application(k) is apps[k] or \
            batch.application(k).app_id == apps[k].app_id


def test_from_applications_preserves_object_identity():
    apps = tuple(_batch(16).applications)
    wrapped = ApplicationBatch.from_applications(apps)
    assert wrapped.applications is apps
    assert wrapped.app_ids() == tuple(a.app_id for a in apps)
    view = LazyApplications(wrapped)
    assert len(view) == len(apps)
    assert view[3] is apps[3]
    assert [a.app_id for a in view] == [a.app_id for a in apps]


def test_generate_schedule_is_deterministic_at_scale():
    def schedule():
        return ApplicationGenerator(
            sites=[f"site{i:02d}" for i in range(24)],
            mean_arrivals_per_batch=10_000.0, seed=7).generate_schedule(2)

    first, second = schedule(), schedule()
    assert len(first) == len(second) == 2
    for a, b in zip(first, second):
        assert len(a) >= 9_000  # Poisson(10^4) — the scale regression is real
        assert np.array_equal(a.site_idx, b.site_idx)
        assert np.array_equal(a.workload_idx, b.workload_idx)
        assert np.array_equal(a.class_idx, b.class_idx)
        assert a.app_ids() == b.app_ids()
        assert sorted(a.app_ids()) == list(a.app_ids())


# -- compiled-tensor and artifact bit-identity -------------------------------


def _epoch_problems(**scenario_kwargs):
    scenario = CDNScenario(**{**SCENARIO_KWARGS, **scenario_kwargs})
    simulator = CDNSimulator(scenario=scenario)
    return [simulator.epoch_problem(epoch) for epoch in range(scenario.n_epochs)]


def _assert_problems_identical(cold, fast):
    assert [a.app_id for a in cold.applications] == \
        [a.app_id for a in fast.applications]
    for name in ("latency_ms", "energy_j", "supported", "intensity",
                 "base_power_w", "current_power"):
        a, b = getattr(cold, name), getattr(fast, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert cold.resource_keys == fast.resource_keys
    for name in ("capacity", "demand"):
        a, b = getattr(cold, name), getattr(fast, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(cold.feasible_mask(), fast.feasible_mask())
    assert np.array_equal(cold.nearest_feasible_ms(), fast.nearest_feasible_ms())


def test_columnar_epoch_tensors_match_cold_build():
    columnar = _epoch_problems()
    clear_substrate_cache()
    with cold_builds():
        cold_problems = _epoch_problems()
    for fast, cold in zip(columnar, cold_problems):
        assert isinstance(fast.applications, LazyApplications)
        assert not isinstance(cold.applications, LazyApplications)
        _assert_problems_identical(cold, fast)


def test_columnar_simulation_records_match_cold_build():
    def run():
        return CDNSimulator(scenario=CDNScenario(**SCENARIO_KWARGS)).run()

    columnar = run()
    clear_substrate_cache()
    with cold_builds():
        cold = run()
    assert columnar.records.keys() == cold.records.keys()
    for policy in columnar.records:
        for a, b in zip(columnar.records[policy], cold.records[policy],
                        strict=True):
            # solve_time_s is wall-clock telemetry, never artifact bytes.
            assert dataclasses.replace(a, solve_time_s=0.0) == \
                dataclasses.replace(b, solve_time_s=0.0)


# -- solver integration -------------------------------------------------------


def test_hierarchy_solves_batch_and_list_identically():
    fleet, latency, carbon = build_planetary_substrate(12, seed=0)
    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=40.0,
        mean_arrivals_per_batch=200.0, duration_hours=1.0, seed=0)
    batch = generator.generate_batch(0, 4700, n_arrivals=200)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)

    def solve(applications):
        compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
        return solve_hierarchical(
            compilation, applications, plan, hour=4700,
            objective=ObjectiveKind.CARBON,
            config=SolverConfig(hierarchy_regions=3), seed=0)

    from_batch = solve(batch)
    from_list = solve(list(batch.applications))
    assert np.array_equal(from_batch.assignment, from_list.assignment)
    assert from_batch.n_placed == from_list.n_placed
    assert from_batch.n_spilled == from_list.n_spilled
    assert from_batch.coarse_objective == from_list.coarse_objective
    assert from_batch.refined_objective == from_list.refined_objective


def test_decision_path_builds_no_application_objects():
    """A cdn epoch (assemble, compile, CarbonEdge, validate) decides and
    decodes by id without building the batch's per-app ``Application``
    objects, and a hierarchical solve builds none at all, through the spill
    pass included."""
    clear_substrate_cache()
    simulator = CDNSimulator(scenario=CDNScenario(**SCENARIO_KWARGS))
    problem = simulator.epoch_problem(0)
    compile_placement(problem)
    solution = CarbonEdgePolicy(solver="greedy").timed_place(problem)
    validate_solution(solution, strict=True)
    assert solution.n_placed > 0
    assert isinstance(problem.applications, LazyApplications)
    assert problem.applications.batch._apps is None

    spilled = 0
    for n_sites, n_apps, n_regions in ((32, 320, 2), (12, 600, 3)):
        fleet, latency, carbon = build_planetary_substrate(n_sites, seed=0)
        batch = ApplicationGenerator(
            sites=fleet.sites(), latency_slo_ms=40.0,
            mean_arrivals_per_batch=float(n_apps), duration_hours=1.0,
            seed=0).generate_batch(0, 4700, n_arrivals=n_apps)
        plan = build_region_plan(fleet.sites(), fleet.site_coordinates(),
                                 n_regions, seed=0)
        # ``application(k)`` builds a fresh object on every call (only the
        # ``applications`` view caches them), so the check patches that method.
        with mock.patch.object(ApplicationBatch, "application",
                               side_effect=AssertionError("Application built")):
            outcome = solve_hierarchical(
                ScenarioCompilation(fleet.servers(), latency, carbon), batch,
                plan, hour=4700, config=SolverConfig(hierarchy_regions=n_regions),
                seed=0)
        assert batch._apps is None
        spilled += outcome.n_spilled
    assert spilled > 0


def test_place_batch_accepts_columnar_batch():
    fleet, latency, carbon = build_planetary_substrate(8, seed=0)
    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=40.0,
        mean_arrivals_per_batch=40.0, duration_hours=1.0, seed=0)
    batch = generator.generate_batch(0, 4700, n_arrivals=40)

    def place(applications):
        placer = IncrementalPlacer(fleet=fleet, latency=latency, carbon=carbon,
                                   policy=CarbonEdgePolicy())
        solution = placer.place_batch(applications, hour=4700, commit=False)
        return solution

    fleet.reset_allocations()
    from_batch = place(batch)
    fleet.reset_allocations()
    apps = list(batch.applications)
    from_list = place(apps)
    assert from_batch.placements == from_list.placements
    # The substrate wraps a list in a batch that keeps the caller's objects:
    # the serving loop looks its arrivals up through problem.applications.
    problem = from_list.problem
    assert isinstance(problem.applications, LazyApplications)
    assert all(got is app for got, app in
               zip(problem.applications, apps, strict=True))


def test_loadgen_arrival_batch_matches_event_stream():
    load = LoadGenerator(sites=["a", "b", "c"], rate_per_s=0.1, shape="burst",
                         workload_mix={"ResNet50": 0.6, "BERT": 0.4}, seed=3)
    arrivals = [e.payload for e in load.events(3600.0) if e.kind == "arrival"]
    batch = load.arrival_batch(3600.0)
    assert len(batch) == len(arrivals)
    for k, app in enumerate(arrivals):
        got = batch.application(k)
        assert got.app_id == app.app_id
        assert got.source_site == app.source_site
        assert got.workload == app.workload
        assert got.duration_hours == app.duration_hours


# -- scenario classes and their row caches ------------------------------------


def _assert_dense_identical(cold, fast):
    """The candidate mask and carbon costs, read per application through
    each arm's class rows."""
    dc, df = compile_placement(cold).dense(), compile_placement(fast).dense()
    for attr in ("mask", "cost", "raw_assign", "energy"):
        a, b = getattr(dc, attr)[dc.row_class], getattr(df, attr)[df.row_class]
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


def test_durations_share_a_scenario_class():
    """Live arrivals each draw their own lifetime, and no class row reads
    it: a batch whose applications differ only in duration registers one
    scenario class per (site, workload, rate, SLO)."""
    fleet, latency, carbon = build_planetary_substrate(10, seed=0)
    sites = fleet.sites()
    count = 40
    site_idx = np.arange(count, dtype=np.int64) % len(sites)
    workload_idx = np.arange(count, dtype=np.int64) // len(sites) % 2
    batch = ApplicationBatch.from_columns(
        interval_index=0, hour_of_year=4700,
        site_names=tuple(sites), workload_names=("ResNet50", "BERT"),
        site_idx=site_idx, workload_idx=workload_idx,
        latency_slo_ms=40.0, request_rate_rps=10.0,
        duration_hours=np.linspace(0.25, 20.0, count))
    assert batch.n_classes == count

    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    fast = compilation.build_problem(batch, hour=4700)
    n_keys = len(set(zip(site_idx.tolist(), workload_idx.tolist())))
    assert compilation.cache_stats()["n_classes"] == n_keys < count
    cold = cold_build(batch, fleet.servers(), latency, carbon, hour=4700)
    _assert_problems_identical(cold, fast)
    _assert_dense_identical(cold, fast)


def test_row_caches_hold_one_row_per_block():
    fleet, latency, carbon = build_planetary_substrate(10, seed=0)
    sites = fleet.sites()
    # The row caches key on (workload, rate): distinct per-app request rates
    # make every application its own block.
    count = 12
    batch = ApplicationBatch.from_columns(
        interval_index=0, hour_of_year=4700,
        site_names=tuple(sites), workload_names=("ResNet50",),
        site_idx=np.arange(count, dtype=np.int64) % len(sites),
        workload_idx=np.zeros(count, dtype=np.int64),
        latency_slo_ms=40.0,
        request_rate_rps=np.linspace(4.0, 26.0, count),
        duration_hours=1.0)
    assert batch.n_classes == count

    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    fast = compilation.build_problem(batch, hour=4700)
    stats = compilation.cache_stats()
    assert stats["n_blocks"] == stats["n_energy_rows"] == stats["n_dense_rows"] == count
    cold = cold_build(batch, fleet.servers(), latency, carbon, hour=4700)
    _assert_problems_identical(cold, fast)
    _assert_dense_identical(cold, fast)


def test_rate_and_slo_split_scenario_classes():
    """Rate and SLO stay in the class key: applications of one site and
    workload that differ only in SLO, or only in rate, each get their own
    class, and the problem equals ``cold_build``."""
    fleet, latency, carbon = build_planetary_substrate(10, seed=0)
    count = 8
    batch = ApplicationBatch.from_columns(
        interval_index=0, hour_of_year=4700,
        site_names=tuple(fleet.sites()), workload_names=("ResNet50",),
        site_idx=np.zeros(count, dtype=np.int64),
        workload_idx=np.zeros(count, dtype=np.int64),
        latency_slo_ms=np.tile([5.0, 20.0, 60.0, 200.0], 2),
        request_rate_rps=np.repeat([10.0, 20.0], 4),
        duration_hours=1.0)

    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    fast = compilation.build_problem(batch, hour=4700)
    stats = compilation.cache_stats()
    assert stats["n_classes"] == count and stats["n_blocks"] == 2
    # The SLOs cut different candidate sets, so a key without them would
    # hand some applications another class's feasibility row.
    assert len(set(fast.feasible_mask().sum(axis=1)[:4].tolist())) > 1
    cold = cold_build(batch, fleet.servers(), latency, carbon, hour=4700)
    _assert_problems_identical(cold, fast)
    _assert_dense_identical(cold, fast)


def test_second_epoch_delta_registers_no_class():
    """The class tables keep every class for the compilation's lifetime: a
    second delta of a 4200-class batch fills no class row and points at the
    first delta's rows."""
    fleet, latency, carbon = build_planetary_substrate(10, seed=7)
    sites = fleet.sites()
    count = 4200
    batch = ApplicationBatch.from_columns(
        interval_index=0, hour_of_year=4700,
        site_names=tuple(sites), workload_names=("ResNet50",),
        site_idx=np.arange(count, dtype=np.int64) % len(sites),
        workload_idx=np.zeros(count, dtype=np.int64),
        latency_slo_ms=40.0,
        request_rate_rps=1.0 + 0.25 * (np.arange(count) // len(sites)),
        duration_hours=1.0)
    assert batch.n_classes == count

    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    first = compilation.epoch_delta(batch, 4700)
    stats = compilation.cache_stats()
    assert stats["n_classes"] == count
    with mock.patch.object(compilation, "_fill_class_rows",
                           wraps=compilation._fill_class_rows) as fill:
        second = compilation.epoch_delta(batch, 4700)
    fill.assert_not_called()
    assert compilation.cache_stats() == stats
    assert np.array_equal(first.class_indices, second.class_indices)
    for name in ("energy", "demand", "intensity"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
