"""Incremental placement (Algorithm 1) tests."""

import pytest

from repro.core.incremental import IncrementalPlacer
from repro.core.policies import CarbonEdgePolicy, LatencyAwarePolicy
from repro.core.problem import _demand_for
from tests.conftest import make_apps


@pytest.fixture
def placer(central_eu_fleet, central_eu_latency, central_eu_carbon):
    return IncrementalPlacer(fleet=central_eu_fleet, latency=central_eu_latency,
                             carbon=central_eu_carbon, policy=CarbonEdgePolicy(),
                             horizon_hours=24.0)


def test_place_batch_commits_allocations(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites())
    solution = placer.place_batch(apps, hour=12)
    assert solution.all_placed
    allocated = {a for s in central_eu_fleet.servers() for a in s.allocations}
    assert allocated == {a.app_id for a in apps}
    assert placer.total_placed() == len(apps)
    assert placer.total_carbon_g() == pytest.approx(solution.total_carbon_g())


def test_capacity_carries_across_batches(placer, central_eu_fleet):
    # Each Sci app pins 4 cores; a 40-core server fits 10. Three batches of 5 Sci
    # apps all sourced at Bern must eventually spill beyond the greenest server.
    for batch_index in range(3):
        apps = make_apps(["Bern"], workload="Sci", n_per_site=5, slo_ms=40.0)
        apps = [type(a)(app_id=f"b{batch_index}-{a.app_id}", workload=a.workload,
                        source_site=a.source_site, latency_slo_ms=a.latency_slo_ms,
                        request_rate_rps=a.request_rate_rps, duration_hours=a.duration_hours)
                for a in apps]
        placer.place_batch(apps, hour=12)
    per_server = {s.server_id: len(s.allocations) for s in central_eu_fleet.servers()}
    assert sum(per_server.values()) == 15
    assert max(per_server.values()) <= 10


def test_no_commit_leaves_fleet_untouched(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites())
    placer.place_batch(apps, hour=0, commit=False)
    assert all(not s.allocations for s in central_eu_fleet.servers())
    assert placer.history[-1].committed is False
    assert placer.total_placed() == 0


def test_empty_batch_rejected(placer):
    with pytest.raises(ValueError):
        placer.place_batch([], hour=0)


def test_release_all(placer, central_eu_fleet):
    placer.place_batch(make_apps(central_eu_fleet.sites()), hour=0)
    placer.release_all()
    assert all(not s.allocations for s in central_eu_fleet.servers())


def test_placer_with_powered_off_fleet_turns_servers_on(central_eu_latency, central_eu_carbon):
    from repro.cluster.fleet import build_regional_fleet
    from repro.datasets.regions import CENTRAL_EU
    fleet = build_regional_fleet(CENTRAL_EU, powered_on=False)
    placer = IncrementalPlacer(fleet=fleet, latency=central_eu_latency,
                               carbon=central_eu_carbon, policy=CarbonEdgePolicy(),
                               horizon_hours=24.0)
    solution = placer.place_batch(make_apps(fleet.sites(), slo_ms=40.0), hour=0)
    assert solution.all_placed
    used_sites = set(solution.apps_per_site())
    for dc in fleet:
        if dc.site in used_sites:
            assert any(s.is_on for s in dc.servers)
    # Power management consolidates: fewer servers on than sites with demand.
    assert sum(1 for s in fleet.servers() if s.is_on) <= len(fleet.sites())


def test_history_records_hours(placer, central_eu_fleet):
    placer.place_batch(make_apps(central_eu_fleet.sites()), hour=5)
    placer.place_batch(make_apps(central_eu_fleet.sites(), n_per_site=1, workload="Sci"), hour=6)
    assert [r.hour for r in placer.history] == [5, 6]


def test_latency_aware_policy_through_placer(central_eu_fleet, central_eu_latency,
                                             central_eu_carbon):
    placer = IncrementalPlacer(fleet=central_eu_fleet, latency=central_eu_latency,
                               carbon=central_eu_carbon, policy=LatencyAwarePolicy())
    solution = placer.place_batch(make_apps(central_eu_fleet.sites()), hour=0)
    assert solution.mean_latency_ms() == pytest.approx(0.0)


def test_commit_allocates_each_app_its_demand_on_its_host(placer, central_eu_fleet):
    """What a commit allocates is the application's own demand on its host,
    replicas included (300 rps of ResNet50 takes three)."""
    apps = make_apps(central_eu_fleet.sites(), rate_rps=300.0)
    solution = placer.place_batch(apps, hour=12)
    assert solution.all_placed
    for app in apps:
        host = solution.problem.servers[solution.placements[app.app_id]]
        assert host.allocations[app.app_id] == _demand_for(app.request_rate_rps,
                                                           app.profile_on(host))
        assert placer.active_apps[app.app_id] is app
    assert sum(solution.apps_per_site().values()) == len(apps)


def test_release_restores_the_hosts_capacity(placer, central_eu_fleet):
    before = {s.server_id: s.available_capacity for s in central_eu_fleet.servers()}
    apps = make_apps(central_eu_fleet.sites()[:1], workload="Sci", slo_ms=40.0)
    solution = placer.place_batch(apps, hour=12)
    host = solution.problem.servers[solution.placements[apps[0].app_id]]
    assert host.available_capacity != before[host.server_id]
    released = host.release(apps[0].app_id)
    assert released == _demand_for(apps[0].request_rate_rps, apps[0].profile_on(host))
    assert {s.server_id: s.available_capacity
            for s in central_eu_fleet.servers()} == before
    with pytest.raises(KeyError):
        host.release(apps[0].app_id)

