"""The scenario-lifetime compilation tier: bit-identity vs the cold rebuild.

The contract under test (see the scenario-lifetime section of
:mod:`repro.solver.compile`): for every epoch, the problem tensors, the epoch
compilation's report and dense cost tensors, and every simulation artifact
must be byte-identical whether assembled through the scenario tier's delta
path or rebuilt cold per epoch — the tier is a pure performance layer.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.simulator.cdn import CDNSimulator, clear_substrate_cache
from repro.simulator.scenario import CDNScenario
from repro.solver.compile import (
    SCENARIO_TIER_ENV,
    clear_scenario_compilations,
    compile_placement,
    compile_scenario,
    scenario_tier_enabled,
)

SCENARIO_KWARGS = dict(continent="EU", n_epochs=2, max_sites=8, seed=0)


@contextlib.contextmanager
def tier_disabled():
    os.environ[SCENARIO_TIER_ENV] = "1"
    try:
        yield
    finally:
        os.environ.pop(SCENARIO_TIER_ENV, None)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_substrate_cache()
    yield
    clear_substrate_cache()


def _compiled_epochs(**scenario_kwargs):
    scenario = CDNScenario(**{**SCENARIO_KWARGS, **scenario_kwargs})
    simulator = CDNSimulator(scenario=scenario)
    out = []
    for epoch in range(scenario.n_epochs):
        problem = simulator.epoch_problem(epoch)
        out.append((problem, compile_placement(problem)))
    return out


def _assert_problems_identical(cold: PlacementProblem, fast: PlacementProblem):
    for name in ("latency_ms", "energy_j", "supported", "intensity",
                 "base_power_w", "current_power"):
        a, b = getattr(cold, name), getattr(fast, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert cold.horizon_hours == fast.horizon_hours
    assert cold.resource_keys() == fast.resource_keys()
    assert np.array_equal(cold.capacity_dense(), fast.capacity_dense())
    assert np.array_equal(cold.demand_dense(), fast.demand_dense())
    assert np.array_equal(cold.feasible_mask(), fast.feasible_mask())
    assert np.array_equal(cold.nearest_feasible_ms(), fast.nearest_feasible_ms())
    for ca, fa in zip(cold.capacities, fast.capacities):
        assert set(ca.keys()) == set(fa.keys())
        assert all(ca.get(k) == fa.get(k) for k in ca.keys())
    for ci, fi in zip(cold.demands, fast.demands):
        for cv, fv in zip(ci, fi):
            assert set(cv.keys()) == set(fv.keys())
            assert all(cv.get(k) == fv.get(k) for k in cv.keys())


def test_scenario_tier_env_gate():
    assert scenario_tier_enabled()
    with tier_disabled():
        assert not scenario_tier_enabled()
    assert scenario_tier_enabled()


def test_epoch_tensors_bit_identical_to_cold_rebuild():
    with tier_disabled():
        cold = _compiled_epochs()
    clear_substrate_cache()
    fast = _compiled_epochs()
    for (pc, cc), (pf, cf) in zip(cold, fast):
        _assert_problems_identical(pc, pf)
        # The pre-seeded feasibility report vs the cold vectorised filter.
        assert np.array_equal(cc.report.mask, cf.report.mask)
        assert cc.report.unplaceable == cf.report.unplaceable
        assert cc.report.useful_servers == cf.report.useful_servers
        assert np.array_equal(cc.nearest_feasible_ms, cf.nearest_feasible_ms)
        assert cc.n_nearest_unreachable == cf.n_nearest_unreachable
        # Dense cost tensors per objective (what every backend solves over).
        for kind in (ObjectiveKind.CARBON, ObjectiveKind.ENERGY,
                     ObjectiveKind.LATENCY, ObjectiveKind.INTENSITY):
            dc, df = cc.dense(kind), cf.dense(kind)
            assert dc.keys == df.keys
            for attr in ("demand", "capacity", "mask", "cost", "raw_assign",
                         "activation", "initially_on"):
                a, b = getattr(dc, attr), getattr(df, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), (kind, attr)


def test_simulation_artifacts_identical_to_cold_rebuild():
    scenario = CDNScenario(**SCENARIO_KWARGS)
    with tier_disabled():
        cold = CDNSimulator(scenario=scenario).run()
    clear_substrate_cache()
    fast = CDNSimulator(scenario=scenario).run()
    assert cold.policies() == fast.policies()
    for policy in cold.policies():
        for rc, rf in zip(cold.records[policy], fast.records[policy]):
            assert rc.carbon_g == rf.carbon_g
            assert rc.energy_j == rf.energy_j
            assert rc.mean_one_way_latency_ms == rf.mean_one_way_latency_ms
            assert rc.latency_increase_one_way_ms == rf.latency_increase_one_way_ms
            assert rc.n_placed == rf.n_placed
            assert rc.n_unplaced == rf.n_unplaced
            assert rc.apps_per_site == rf.apps_per_site
            assert rc.hosting_intensities == rf.hosting_intensities
            assert rc.n_nearest_unreachable == rf.n_nearest_unreachable


def test_pristine_epochs_are_memoised_per_delta():
    first = _compiled_epochs()
    second = _compiled_epochs()  # same scenario, substrate cache warm
    for (_, ca), (_, cb) in zip(first, second):
        assert ca is cb


def test_compile_scenario_memoised_on_substrate_identity():
    scenario = CDNScenario(**SCENARIO_KWARGS)
    sim = CDNSimulator(scenario=scenario)
    a = compile_scenario(sim.fleet.servers(), sim.latency, sim.carbon)
    b = compile_scenario(sim.fleet.servers(), sim.latency, sim.carbon)
    assert a is b
    # A second simulator over the same scenario shares the substrate — and
    # therefore the scenario compilation.
    sim2 = CDNSimulator(scenario=scenario)
    assert sim2.scenario_compilation() is a
    clear_scenario_compilations()
    assert compile_scenario(sim.fleet.servers(), sim.latency, sim.carbon) is not a


def test_mismatched_substrate_falls_back_to_cold_build():
    scenario = CDNScenario(**SCENARIO_KWARGS)
    sim = CDNSimulator(scenario=scenario)
    substrate = sim.scenario_compilation()
    batch = sim.generator.generate_batch(0, 0)
    apps = list(batch.applications)
    # Dropping a server breaks the element-wise identity check, so build()
    # must take the cold path — and still produce a correct problem.
    servers = sim.fleet.servers()[:-1]
    assert not substrate.matches(servers, sim.latency, sim.carbon)
    problem = PlacementProblem.build(
        applications=apps, servers=servers, latency=sim.latency,
        carbon=sim.carbon, hour=0, horizon_hours=1.0, substrate=substrate)
    assert problem.n_servers == len(servers)
    assert problem._compilation is None  # cold builds compile lazily


def test_non_pristine_delta_reads_live_fleet_state():
    scenario = CDNScenario(**SCENARIO_KWARGS)
    sim = CDNSimulator(scenario=scenario)
    problem0 = sim.epoch_problem(0)  # registers classes, resets the fleet
    # Dirty the fleet: allocate one placed pair and power another server off.
    report = compile_placement(problem0).report
    i = next(i for i in range(problem0.n_applications)
             if len(report.candidates_for(i)) > 0)
    j = int(report.candidates_for(i)[0])
    app = problem0.applications[i]
    sim.fleet.servers()[j].allocate(app.app_id, problem0.demands[i][j])
    off = (j + 1) % problem0.n_servers
    sim.fleet.servers()[off].power_off()

    apps = list(problem0.applications)
    fast = PlacementProblem.build(
        applications=apps, servers=sim.fleet.servers(), latency=sim.latency,
        carbon=sim.carbon, hour=7, horizon_hours=2.0,
        substrate=sim.scenario_compilation())
    with tier_disabled():
        cold = PlacementProblem.build(
            applications=apps, servers=sim.fleet.servers(), latency=sim.latency,
            carbon=sim.carbon, hour=7, horizon_hours=2.0)
    _assert_problems_identical(cold, fast)
    assert fast.current_power[off] == 0.0
    # The capacity-dependent report is not served from the pristine rows.
    rc = compile_placement(cold).report
    rf = compile_placement(fast).report
    assert np.array_equal(rc.mask, rf.mask)
    assert rc.unplaceable == rf.unplaceable
    # Non-pristine deltas are never memoised: a second build re-reads state.
    again = PlacementProblem.build(
        applications=apps, servers=sim.fleet.servers(), latency=sim.latency,
        carbon=sim.carbon, hour=7, horizon_hours=2.0,
        substrate=sim.scenario_compilation())
    assert again is not fast
