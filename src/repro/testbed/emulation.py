"""End-to-end emulation of the paper's mesoscale testbed experiments.

:func:`run_testbed_experiment` reproduces the Section-6.2 methodology: one edge
data center per region city, one application sourced at every city, a placement
decision by the policy under test, then a 24-hour replay in which each
application's request load is served at its hosting site — hourly emissions
from its dynamic energy (per-request profile energy) at the hosting zone's
carbon intensity, optionally with a share of the host's base power, and
per-request response times (network round trip + inference time + jitter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.fleet import EdgeFleet, build_regional_fleet
from repro.core.policies.base import PlacementPolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.core.validation import validate_solution
from repro.datasets.cities import CityCatalog, default_city_catalog
from repro.datasets.electricity_maps import ZoneCatalog, default_zone_catalog
from repro.datasets.regions import MesoscaleRegion
from repro.network.latency import LatencyMatrix, build_latency_matrix
from repro.network.traces import generate_latency_trace
from repro.utils.rng import substream
from repro.utils.units import joules_to_kwh
from repro.workloads.application import Application
from repro.workloads.requests import generate_request_load


@dataclass
class EmulatedTestbed:
    """A wired-up mesoscale testbed: fleet + latency + carbon service."""

    region: MesoscaleRegion
    fleet: EdgeFleet
    latency: LatencyMatrix
    carbon: CarbonIntensityService
    seed: int = 0

    def sites(self) -> list[str]:
        """Site (city) names of the testbed."""
        return self.fleet.sites()


@dataclass
class TestbedRunResult:
    """Metrics of one 24-hour testbed run under one policy."""

    region: str
    policy: str
    workload: str
    solution: PlacementSolution
    #: app_id -> (hours,) emission series in grams (dynamic + base share).
    hourly_emissions_g: dict[str, np.ndarray]
    #: source site -> per-request end-to-end response times (ms).
    response_times_ms: dict[str, np.ndarray]
    #: site hosting each application.
    hosting_site: dict[str, str]
    hours: int

    @property
    def total_emissions_g(self) -> float:
        """Total emissions across applications over the run, grams."""
        return float(sum(series.sum() for series in self.hourly_emissions_g.values()))

    def mean_response_ms(self, site: str | None = None) -> float:
        """Mean end-to-end response time (optionally for one source site)."""
        if site is not None:
            return float(self.response_times_ms[site].mean())
        all_samples = np.concatenate(list(self.response_times_ms.values()))
        return float(all_samples.mean())

    def emissions_by_app(self) -> dict[str, float]:
        """Total emissions per application, grams."""
        return {a: float(s.sum()) for a, s in self.hourly_emissions_g.items()}


def build_testbed(region: MesoscaleRegion, seed: int = 0, n_hours: int = 8760,
                  city_catalog: CityCatalog | None = None,
                  zone_catalog: ZoneCatalog | None = None,
                  servers_per_site: int = 1) -> EmulatedTestbed:
    """Construct the emulated testbed for one mesoscale region."""
    city_catalog = city_catalog or default_city_catalog()
    zone_catalog = zone_catalog or default_zone_catalog()
    cities = region.cities(city_catalog)
    names = [c.name for c in cities]
    latency = build_latency_matrix(
        names, city_catalog.coordinates_array(names),
        countries=[c.state or c.country for c in cities])
    fleet = build_regional_fleet(region, servers_per_site=servers_per_site,
                                 catalog=city_catalog)
    generator = SyntheticTraceGenerator(seed=seed, n_hours=n_hours)
    traces = generator.generate_set([zone_catalog.get(z) for z in region.zone_ids(city_catalog)])
    carbon = CarbonIntensityService(traces=traces)
    return EmulatedTestbed(region=region, fleet=fleet, latency=latency, carbon=carbon, seed=seed)


def run_testbed_experiment(
    testbed: EmulatedTestbed,
    policy: PlacementPolicy,
    workload: str = "Sci",
    hours: int = 24,
    start_hour: int = 0,
    request_rate_rps: float = 10.0,
    latency_slo_ms: float = 20.0,
    requests_sampled_per_site: int = 200,
    include_base_power: bool = False,
) -> TestbedRunResult:
    """Run one 24-hour (by default) testbed experiment under one policy.

    One application is sourced at every region city (as in the paper's regional
    deployment); the policy places the batch once at ``start_hour``, then the
    run replays ``hours`` hours of request load and carbon intensity.

    Parameters
    ----------
    include_base_power:
        Attribute a share of the hosting server's base power to each
        application (the paper's Figure 8 reports application-level emissions,
        which are dominated by dynamic energy; the aggregate Figure 10 numbers
        include base power when servers are activated by the placement).
    """
    if hours <= 0:
        raise ValueError("hours must be positive")
    sites = testbed.sites()
    testbed.fleet.reset_allocations()
    for server in testbed.fleet.servers():
        server.power_on()

    applications = [
        Application(app_id=f"{workload}-{site.replace(' ', '_')}", workload=workload,
                    source_site=site, latency_slo_ms=latency_slo_ms,
                    request_rate_rps=request_rate_rps, duration_hours=float(hours))
        for site in sites
    ]
    problem = PlacementProblem.build(
        applications=applications, servers=testbed.fleet.servers(),
        latency=testbed.latency, carbon=testbed.carbon, hour=start_hour,
        horizon_hours=float(hours))
    solution = policy.timed_place(problem)
    validate_solution(solution, strict=True)

    hosting_site: dict[str, str] = {}
    hourly_emissions: dict[str, np.ndarray] = {}
    response_times: dict[str, np.ndarray] = {}

    for app in applications:
        if app.app_id not in solution.placements:
            # Unplaced applications contribute nothing (should not happen in
            # the regional setup, where every site is within the SLO).
            hourly_emissions[app.app_id] = np.zeros(hours)
            response_times[app.source_site] = np.array([0.0])
            continue
        j = solution.placements[app.app_id]
        server = problem.servers[j]
        hosting_site[app.app_id] = server.site
        profile = app.profile_on(server)

        # --- energy + carbon accounting, hour by hour -----------------------
        load = generate_request_load(app.app_id, request_rate_rps, hours * 3600.0,
                                     seed=testbed.seed)
        hourly_requests = load.hourly_counts()[:hours]
        dynamic_energy_per_hour = hourly_requests * profile.energy_per_request_j
        intensities = testbed.carbon.trace(server.zone_id).window(start_hour, hours)
        emissions = joules_to_kwh(dynamic_energy_per_hour.astype(float)) * intensities
        if include_base_power:
            # Split the hosting server's base power evenly across its apps.
            apps_on_server = max(1, sum(1 for jj in solution.placements.values() if jj == j))
            base_share_j = server.base_power_w * 3600.0 / apps_on_server
            emissions = emissions + joules_to_kwh(base_share_j) * intensities
        hourly_emissions[app.app_id] = emissions

        # --- response times ---------------------------------------------------
        one_way = testbed.latency.one_way_ms(app.source_site, server.site)
        trace = generate_latency_trace(
            (app.source_site, server.site), one_way, requests_sampled_per_site,
            seed=testbed.seed)
        rng = substream(testbed.seed, "inference-jitter", app.app_id)
        inference = profile.latency_ms * rng.uniform(0.9, 1.15, size=len(trace))
        response_times[app.source_site] = 2.0 * trace.samples_ms + inference

    return TestbedRunResult(
        region=testbed.region.name,
        policy=policy.name,
        workload=workload,
        solution=solution,
        hourly_emissions_g=hourly_emissions,
        response_times_ms=response_times,
        hosting_site=hosting_site,
        hours=hours,
    )
