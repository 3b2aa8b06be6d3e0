"""The scenario-lifetime compilation tier: bit-identity vs the cold rebuild.

The contract under test (see the scenario-lifetime section of
:mod:`repro.solver.compile`): for every epoch, the problem tensors, the epoch
compilation's report and dense cost tensors, and every simulation artifact
must be byte-identical whether assembled through the scenario tier's delta
path — the only path :meth:`PlacementProblem.build` takes — or rebuilt cold
per epoch: the tier is a pure performance layer. The cold arm is the
per-object reference build, :func:`tests.conftest.cold_build`, which
:func:`tests.conftest.cold_builds` swaps in for ``PlacementProblem.build``.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.simulator.cdn import CDNSimulator, clear_substrate_cache
from repro.simulator.scenario import CDNScenario
from repro.solver import compile as compile_module
from repro.solver.compile import (
    ScenarioCompilation,
    clear_scenario_compilations,
    compile_placement,
    compile_scenario,
)

from tests.conftest import cold_build, cold_builds, make_apps

SCENARIO_KWARGS = dict(continent="EU", n_epochs=2, max_sites=8, seed=0)


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
                 "base_power_w", "current_power", "capacity", "demand"):
        a, b = getattr(cold, name), getattr(fast, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert cold.horizon_hours == fast.horizon_hours
    assert cold.resource_keys == fast.resource_keys
    assert np.array_equal(cold.feasible_mask(), fast.feasible_mask())
    assert np.array_equal(cold.nearest_feasible_ms(), fast.nearest_feasible_ms())


def _candidate_mask(problem: PlacementProblem) -> np.ndarray:
    """The compiled (A, S) candidate mask: the class rows, per application."""
    dense = compile_placement(problem).dense()
    return dense.mask[dense.row_class]


def test_epoch_tensors_bit_identical_to_cold_rebuild():
    with cold_builds():
        cold = _compiled_epochs()
    clear_substrate_cache()
    fast = _compiled_epochs()
    for (pc, cc), (pf, cf) in zip(cold, fast):
        assert np.array_equal(cc.dense().row_class, np.arange(pc.n_applications))
        assert len(np.unique(cf.dense().row_class)) < pf.n_applications
        _assert_problems_identical(pc, pf)
        # The candidate mask, on the tier's class tables and the cold arm's
        # per-application ones.
        assert np.array_equal(_candidate_mask(pc), _candidate_mask(pf))
        assert cc.n_nearest_unreachable == cf.n_nearest_unreachable
        # Dense cost tensors per objective (what every backend solves over).
        for kind in (ObjectiveKind.CARBON, ObjectiveKind.ENERGY,
                     ObjectiveKind.LATENCY, ObjectiveKind.INTENSITY):
            dc, df = cc.dense(kind), cf.dense(kind)
            assert dc.keys == df.keys
            # The class tables, read through each arm's row classes, and the
            # demand blocks through each arm's class blocks.
            for attr in ("mask", "cost", "raw_assign", "energy"):
                a = getattr(dc, attr)[dc.row_class]
                b = getattr(df, attr)[df.row_class]
                assert a.dtype == b.dtype and np.array_equal(a, b), (kind, attr)
            a = dc.demand[dc.class_block[dc.row_class]]
            b = df.demand[df.class_block[df.row_class]]
            assert a.dtype == b.dtype and np.array_equal(a, b), (kind, "demand")
            for attr in ("capacity", "activation", "initially_on"):
                a, b = getattr(dc, attr), getattr(df, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), (kind, attr)


def test_simulation_artifacts_identical_to_cold_rebuild():
    scenario = CDNScenario(**SCENARIO_KWARGS)
    with cold_builds():
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


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_class_tables_fill_in_bounded_blocks(rows_per_block):
    """Class-table rows filled a block at a time (one row, or blocks that
    split a batch's classes unevenly), across two batches whose second grows
    the tables, give the cold build's tensors."""
    sim = CDNSimulator(scenario=CDNScenario(**SCENARIO_KWARGS))
    servers = sim.fleet.servers()
    compilation = ScenarioCompilation(servers, sim.latency, sim.carbon)
    with mock.patch.object(compile_module, "CLASS_FILL_CELLS",
                           rows_per_block * len(servers)):
        for epoch in range(2):
            apps = list(sim.generator.generate_batch(epoch, epoch).applications)
            before = compilation.cache_stats()["n_classes"]
            fast = compilation.build_problem(apps, hour=epoch)
            added = compilation.cache_stats()["n_classes"] - before
            assert added > 0
            if epoch == 0:
                assert added > rows_per_block
                assert rows_per_block == 1 or added % rows_per_block
            cold = cold_build(
                applications=apps, servers=servers, latency=sim.latency,
                carbon=sim.carbon, hour=epoch, horizon_hours=1.0)
            _assert_problems_identical(cold, fast)


def test_delta_held_across_new_classes_stays_valid():
    """The class tables only grow: a delta captured before a later batch
    registers more classes still assembles its own epoch's cold build."""
    sim = CDNSimulator(scenario=CDNScenario(**SCENARIO_KWARGS))
    servers = sim.fleet.servers()
    compilation = ScenarioCompilation(servers, sim.latency, sim.carbon)
    first = list(sim.generator.generate_batch(0, 0).applications)
    delta = compilation.epoch_delta(first, hour=0)
    before = compilation.cache_stats()["n_classes"]
    later = list(sim.generator.generate_batch(1, 1).applications)
    compilation.build_problem(later, hour=1)
    assert compilation.cache_stats()["n_classes"] > before
    fast = compilation.compile_epoch(delta).problem
    cold = cold_build(
        applications=first, servers=servers, latency=sim.latency,
        carbon=sim.carbon, hour=0, horizon_hours=1.0)
    _assert_problems_identical(cold, fast)


def test_unknown_site_registers_no_class():
    """A batch with a site the latency matrix does not know fails without
    registering any of its classes, and the tables stay usable."""
    sim = CDNSimulator(scenario=CDNScenario(**SCENARIO_KWARGS))
    servers = sim.fleet.servers()
    compilation = ScenarioCompilation(servers, sim.latency, sim.carbon)
    apps = list(sim.generator.generate_batch(0, 0).applications)
    stray = replace(apps[0], app_id="stray", source_site="Atlantis")
    with pytest.raises(KeyError, match="Atlantis"):
        compilation.build_problem(apps + [stray], hour=0)
    assert compilation.cache_stats()["n_classes"] == 0
    fast = compilation.build_problem(apps, hour=0)
    cold = cold_build(
        applications=apps, servers=servers, latency=sim.latency,
        carbon=sim.carbon, hour=0, horizon_hours=1.0)
    _assert_problems_identical(cold, fast)


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


def test_build_over_a_list_records_row_classes(central_eu_fleet, central_eu_latency,
                                                central_eu_carbon):
    """A list of applications is assembled through the scenario tier too: the
    problem is costed on its scenario classes and hands back the caller's
    objects."""
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(),
                                     central_eu_latency, central_eu_carbon,
                                     hour=12, horizon_hours=24.0)
    row_class = compile_placement(problem).dense().row_class
    assert len(np.unique(row_class)) < len(apps)
    assert len(row_class) == len(apps)
    assert all(problem.applications[i] is app for i, app in enumerate(apps))


def test_server_hardware_changed_in_place_is_reread(central_eu_fleet, central_eu_latency,
                                                    central_eu_carbon):
    """``EdgeServer`` is mutable: a build after a server loses its
    accelerator must see the change, not the rows compiled before it."""
    servers = central_eu_fleet.servers()
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    before = PlacementProblem.build(apps, servers, central_eu_latency,
                                    central_eu_carbon, hour=12)
    assert before.supported[:, 0].all()
    servers[0].accelerator = None
    after = PlacementProblem.build(apps, servers, central_eu_latency,
                                   central_eu_carbon, hour=12)
    cold = cold_build(apps, servers, central_eu_latency, central_eu_carbon, hour=12)
    _assert_problems_identical(cold, after)
    assert not after.supported[:, 0].any()
    assert after.base_power_w[0] < before.base_power_w[0]


@pytest.mark.parametrize("use_forecast", [True, False])
def test_non_pristine_delta_reads_live_fleet_state(use_forecast):
    scenario = CDNScenario(**SCENARIO_KWARGS)
    sim = CDNSimulator(scenario=scenario)
    problem0 = sim.epoch_problem(0)  # registers classes, resets the fleet
    # Dirty the fleet: allocate one placed pair and power another server off.
    mask = _candidate_mask(problem0)
    i = next(i for i in range(problem0.n_applications) if mask[i].any())
    j = int(np.flatnonzero(mask[i])[0])
    app, server = problem0.applications[i], sim.fleet.servers()[j]
    server.allocate(app.app_id, app.resource_demand_on(server))
    off = (j + 1) % problem0.n_servers
    sim.fleet.servers()[off].power_off()

    apps = list(problem0.applications)
    fast = PlacementProblem.build(
        applications=apps, servers=sim.fleet.servers(), latency=sim.latency,
        carbon=sim.carbon, hour=7, horizon_hours=2.0, use_forecast=use_forecast)
    cold = cold_build(
        applications=apps, servers=sim.fleet.servers(), latency=sim.latency,
        carbon=sim.carbon, hour=7, horizon_hours=2.0, use_forecast=use_forecast)
    _assert_problems_identical(cold, fast)
    assert fast.current_power[off] == 0.0
    # The capacity-dependent candidate mask is not served from the pristine rows.
    assert np.array_equal(_candidate_mask(cold), _candidate_mask(fast))
    # Epochs are assembled afresh: a second build re-reads the live state.
    again = PlacementProblem.build(
        applications=apps, servers=sim.fleet.servers(), latency=sim.latency,
        carbon=sim.carbon, hour=7, horizon_hours=2.0, use_forecast=use_forecast)
    assert again is not fast
