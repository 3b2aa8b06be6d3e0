"""Tests of the sharded parallel scenario runner.

The load-bearing property is determinism regardless of worker count: the same
experiment must produce byte-identical JSON artifacts whether it runs inline
or sharded across a process pool.
"""

import pytest

from repro.experiments import common, registry
from repro.experiments.results import jsonable
from repro.simulator.cdn import clear_substrate_cache, scenario_substrate
from repro.simulator.scenario import CDNScenario
from repro.simulator.runner import (
    ScenarioRunner,
    expand_units,
    merge_artifacts,
    run_experiments,
)


# -- work-unit expansion ------------------------------------------------------


def test_expand_units_respects_grid_order():
    units = expand_units(registry.get("fig12"))
    assert len(units) == 12  # 2 continents x 6 limits
    assert units[0].params["continents"] == ("US",)
    assert units[0].params["limits_ms"] == (5.0,)
    assert units[5].params["limits_ms"] == (30.0,)
    assert units[6].params["continents"] == ("EU",)
    assert all(u.n_units == 12 for u in units)


def test_expand_units_without_sweep_is_single_unit():
    units = expand_units(registry.get("fig04"))
    assert len(units) == 1
    assert units[0].index == 0 and units[0].n_units == 1


def test_expand_units_applies_smoke_and_overrides():
    units = expand_units(registry.get("fig11"), smoke=True, overrides={"seed": 3})
    assert len(units) == 1
    assert units[0].params["seed"] == 3
    assert units[0].params["n_epochs"] == 1


# -- artifact merging ---------------------------------------------------------


def test_merge_dicts_recursively_and_concatenates_lists():
    merged = merge_artifacts([
        {"summary": {"US": 1}, "rows": [{"a": 1}], "shared": "x"},
        {"summary": {"EU": 2}, "rows": [{"a": 2}], "shared": "x"},
    ])
    assert merged == {"summary": {"US": 1, "EU": 2},
                      "rows": [{"a": 1}, {"a": 2}], "shared": "x"}


def test_merge_collapses_equal_lists_but_concatenates_different_ones():
    merged = merge_artifacts([{"axis": [1, 2], "rows": [1]},
                              {"axis": [1, 2], "rows": [2]}])
    assert merged == {"axis": [1, 2], "rows": [1, 2]}


def test_merge_conflicting_scalars_raises():
    with pytest.raises(ValueError, match="cannot merge"):
        merge_artifacts([{"x": 1}, {"x": 2}])


def test_merge_empty_raises():
    with pytest.raises(ValueError, match="no unit artifacts"):
        merge_artifacts([])


# -- execution ----------------------------------------------------------------


def test_runner_rejects_bad_worker_counts_and_empty_selection():
    with pytest.raises(ValueError, match="workers"):
        ScenarioRunner(workers=0)
    with pytest.raises(ValueError, match="no experiments"):
        ScenarioRunner().run([])


@pytest.mark.parametrize(
    "name", [s.name for s in registry.all_specs() if s.deterministic])
def test_worker_count_does_not_change_artifact_bytes(name):
    """--workers 1/2/4 produce byte-identical artifacts (the tentpole claim).

    Covers every spec whose artifact claims to be a pure function of its
    parameters; fig17 (wall-clock/memory payload) opts out via
    ``deterministic=False``.
    """
    reference = None
    for workers in (1, 2, 4):
        result = ScenarioRunner(workers=workers, smoke=True).run_one(name)
        blob = result.to_json()
        if reference is None:
            reference = blob
        assert blob == reference, f"workers={workers} changed {name} artifact"


def test_sharded_merge_equals_sequential_run():
    """The merged sharded artifact matches one unsharded run() call."""
    from repro.experiments import fig12_latency_sweep

    spec = registry.get("fig12")
    direct = fig12_latency_sweep.run(**spec.resolved_params(smoke=True))
    sharded = ScenarioRunner(workers=2, smoke=True).run_one("fig12")
    assert sharded.artifact["rows"] == jsonable(direct["rows"])
    assert sharded.n_units == 2


def test_run_experiments_multiple_specs_in_one_session():
    results = run_experiments(["table1", "fig07"], workers=2, smoke=True)
    assert list(results) == ["table1", "fig07"]
    for name, result in results.items():
        result.validate(registry.get(name).schema)


def test_seed_override_reaches_seeded_specs_only():
    result = ScenarioRunner(smoke=True, seed=123).run_one("fig01")
    assert result.params["seed"] == 123
    result = ScenarioRunner(smoke=True, seed=123).run_one("table1")
    assert "seed" not in result.params


# -- cache management ---------------------------------------------------------


def test_clear_caches_drops_experiment_and_substrate_caches():
    common.region_traces("Florida", seed=11, n_hours=48)
    assert common._region_traces.cache_info().currsize > 0
    scenario = CDNScenario(continent="EU", n_epochs=1, max_sites=6, seed=11)
    first = scenario_substrate(scenario)
    assert scenario_substrate(scenario) is first
    common.clear_caches()
    assert common._region_traces.cache_info().currsize == 0
    assert scenario_substrate(scenario) is not first
    common.clear_caches()


def test_cache_keying_normalises_defaulted_and_explicit_seeds():
    common.clear_caches()
    a = common.region_traces("Florida", n_hours=48)
    b = common.region_traces("Florida", seed=common.EXPERIMENT_SEED, n_hours=48)
    assert a is b
    assert common._region_traces.cache_info().currsize == 1
    c = common.region_traces("Florida", seed=1, n_hours=48)
    assert c is not a
    common.clear_caches()


def test_substrate_shared_across_scenario_variants():
    clear_substrate_cache()
    base = CDNScenario(continent="EU", n_epochs=1, max_sites=6, seed=5)
    variant = CDNScenario(continent="EU", n_epochs=4, max_sites=6, seed=5,
                          latency_limit_ms=10.0)
    other_seed = CDNScenario(continent="EU", n_epochs=1, max_sites=6, seed=6)
    assert scenario_substrate(base) is scenario_substrate(variant)
    assert scenario_substrate(base) is not scenario_substrate(other_seed)
    clear_substrate_cache()


def test_fresh_simulator_sees_pristine_fleet_despite_shared_substrate():
    """A new CDNSimulator must not inherit a previous run's fleet state."""
    from repro.simulator.cdn import CDNSimulator

    clear_substrate_cache()
    scenario = CDNScenario(continent="EU", n_epochs=1, max_sites=6, seed=5)
    first = CDNSimulator(scenario=scenario)
    first.run()
    second = CDNSimulator(scenario=scenario)
    assert second.fleet is first.fleet  # substrate is shared...
    for server in second.fleet.servers():  # ...but the baseline is restored
        assert not server.allocations
        assert server.is_on
    clear_substrate_cache()


# -- merge error paths ---------------------------------------------------------


def test_merge_type_mismatch_reports_the_json_path():
    with pytest.raises(ValueError, match=r"\$\.summary"):
        merge_artifacts([{"summary": {"US": 1}}, {"summary": [1, 2]}])


def test_merge_conflict_reports_nested_paths():
    with pytest.raises(ValueError, match=r"\$\.scale\.n_sites"):
        merge_artifacts([{"scale": {"n_sites": 10}},
                         {"scale": {"n_sites": 20}}])
    with pytest.raises(ValueError, match=r"\$\.a\.b\.c"):
        merge_artifacts([{"a": {"b": {"c": "x"}}},
                         {"a": {"b": {"c": "y"}}}])
