"""Emulated-testbed tests (the Figure 8-10 machinery)."""

import numpy as np
import pytest

from repro.core.policies import CarbonEdgePolicy, LatencyAwarePolicy
from repro.datasets.regions import CENTRAL_EU, FLORIDA
from repro.testbed.emulation import build_testbed, run_testbed_experiment
from repro.workloads.requests import generate_request_load


@pytest.fixture(scope="module")
def florida_testbed():
    return build_testbed(FLORIDA, seed=3, n_hours=72)


def test_build_testbed_structure(florida_testbed):
    assert florida_testbed.sites() == list(FLORIDA.city_names)
    assert len(florida_testbed.fleet.servers()) == 5
    assert set(florida_testbed.carbon.zones()) == set(FLORIDA.zone_ids())


def test_base_power_share_adds_the_hosts_base_carbon(florida_testbed):
    dynamic = run_testbed_experiment(florida_testbed, CarbonEdgePolicy(), hours=6)
    with_base = run_testbed_experiment(florida_testbed, CarbonEdgePolicy(), hours=6,
                                       include_base_power=True)
    placements = with_base.solution.placements
    assert placements == dynamic.solution.placements
    servers = with_base.solution.problem.servers
    extra_by_host: dict[int, np.ndarray] = {}
    for app_id, j in placements.items():
        extra = with_base.hourly_emissions_g[app_id] - dynamic.hourly_emissions_g[app_id]
        extra_by_host[j] = extra_by_host.get(j, 0.0) + extra
    # The apps on one host share its base power: together they carry one
    # server's B_j for each hour, at that hour's intensity of its zone.
    for j, extra in extra_by_host.items():
        intensities = florida_testbed.carbon.trace(servers[j].zone_id).window(0, 6)
        np.testing.assert_allclose(
            extra, servers[j].base_power_w / 1000.0 * intensities, rtol=1e-9)


def test_latency_aware_run_keeps_apps_local(florida_testbed):
    result = run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), hours=12)
    for app_id, site in result.hosting_site.items():
        assert site in app_id.replace("_", " ")
    # Local hosting: response time is dominated by processing latency (~52 ms for Sci).
    assert 40.0 <= result.mean_response_ms() <= 70.0


def test_carbon_edge_run_consolidates_and_saves(florida_testbed):
    baseline = run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), hours=12)
    carbon_edge = run_testbed_experiment(florida_testbed, CarbonEdgePolicy(), hours=12)
    assert carbon_edge.total_emissions_g < baseline.total_emissions_g
    assert len(set(carbon_edge.hosting_site.values())) < 5
    assert carbon_edge.mean_response_ms() >= baseline.mean_response_ms()


def test_emission_series_shape_and_positivity(florida_testbed):
    result = run_testbed_experiment(florida_testbed, CarbonEdgePolicy(), hours=12)
    assert set(result.hourly_emissions_g) == {f"Sci-{s.replace(' ', '_')}"
                                              for s in florida_testbed.sites()}
    for series in result.hourly_emissions_g.values():
        assert series.shape == (12,)
        assert np.all(series >= 0)
    assert result.emissions_by_app().keys() == result.hourly_emissions_g.keys()


def test_hosting_sites_follow_the_placements(florida_testbed):
    result = run_testbed_experiment(florida_testbed, CarbonEdgePolicy(), hours=6)
    servers = result.solution.problem.servers
    assert result.hosting_site == {app_id: servers[j].site
                                   for app_id, j in result.solution.placements.items()}
    assert set(result.hosting_site) == set(result.hourly_emissions_g)


def test_dynamic_emissions_are_request_energy_at_the_host_intensity(florida_testbed):
    """Without a base-power share, an hour's emissions are that hour's
    requests times the per-request energy, at the host zone's intensity."""
    result = run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), hours=6)
    problem = result.solution.problem
    for app in problem.applications:
        host = problem.servers[result.solution.placements[app.app_id]]
        requests = generate_request_load(app.app_id, app.request_rate_rps, 6 * 3600.0,
                                         seed=florida_testbed.seed).hourly_counts()[:6]
        intensities = florida_testbed.carbon.trace(host.zone_id).window(0, 6)
        np.testing.assert_allclose(
            result.hourly_emissions_g[app.app_id],
            requests * app.profile_on(host).energy_per_request_j / 3.6e6 * intensities,
            rtol=1e-12)
    assert result.total_emissions_g == pytest.approx(sum(result.emissions_by_app().values()))


def test_response_times_are_sampled_per_source_site(florida_testbed):
    result = run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), hours=6,
                                    requests_sampled_per_site=50)
    assert set(result.response_times_ms) == set(florida_testbed.sites())
    for site, samples in result.response_times_ms.items():
        assert samples.shape == (50,) and np.all(samples > 0)
        assert result.mean_response_ms(site) == pytest.approx(samples.mean())
    everything = np.concatenate(list(result.response_times_ms.values()))
    assert result.mean_response_ms() == pytest.approx(everything.mean())


def test_gpu_workload_emits_less_than_cpu(florida_testbed):
    # The paper notes the GPU-based app emits ~55% less carbon than the CPU app
    # because of its lower per-request energy.
    cpu = run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), workload="Sci", hours=6)
    gpu = run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), workload="ResNet50",
                                 hours=6)
    assert gpu.total_emissions_g < cpu.total_emissions_g


def test_central_eu_savings_exceed_florida():
    florida = build_testbed(FLORIDA, seed=3, n_hours=48)
    central_eu = build_testbed(CENTRAL_EU, seed=3, n_hours=48)
    savings = {}
    for name, testbed in (("FL", florida), ("EU", central_eu)):
        base = run_testbed_experiment(testbed, LatencyAwarePolicy(), hours=24)
        ce = run_testbed_experiment(testbed, CarbonEdgePolicy(), hours=24)
        savings[name] = 1 - ce.total_emissions_g / base.total_emissions_g
    assert savings["EU"] > savings["FL"] > 0.0


def test_invalid_hours_rejected(florida_testbed):
    with pytest.raises(ValueError):
        run_testbed_experiment(florida_testbed, LatencyAwarePolicy(), hours=0)
