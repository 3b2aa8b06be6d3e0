"""Shared fixtures for the test suite.

Fixtures that are expensive to build (trace sets, latency matrices, fleets) are
session-scoped and use short trace horizons so the whole suite stays fast while
still exercising the real code paths.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.fleet import build_regional_fleet
from repro.core.problem import PlacementProblem
from repro.datasets.cities import default_city_catalog
from repro.datasets.electricity_maps import default_zone_catalog
from repro.datasets.regions import CENTRAL_EU, FLORIDA
from repro.network.latency import build_latency_matrix
from repro.simulator.cdn import CDNSimulator
from repro.workloads.application import Application

#: Trace length used by most tests (one week keeps generation fast).
TEST_TRACE_HOURS = 7 * 24


@pytest.fixture(scope="session")
def city_catalog():
    """The default city catalogue."""
    return default_city_catalog()


@pytest.fixture(scope="session")
def zone_catalog():
    """The default 148-zone catalogue."""
    return default_zone_catalog()


@pytest.fixture(scope="session")
def florida_traces(zone_catalog):
    """One-week traces for the Florida region zones."""
    generator = SyntheticTraceGenerator(seed=3, n_hours=TEST_TRACE_HOURS)
    return generator.generate_set(zone_catalog.get(z) for z in FLORIDA.zone_ids())


@pytest.fixture(scope="session")
def central_eu_traces(zone_catalog):
    """One-week traces for the Central-EU region zones."""
    generator = SyntheticTraceGenerator(seed=3, n_hours=TEST_TRACE_HOURS)
    return generator.generate_set(zone_catalog.get(z) for z in CENTRAL_EU.zone_ids())


@pytest.fixture(scope="session")
def florida_latency(city_catalog):
    """Pairwise latency matrix over the Florida cities."""
    cities = FLORIDA.cities(city_catalog)
    names = [c.name for c in cities]
    return build_latency_matrix(names, city_catalog.coordinates_array(names),
                                countries=[c.state for c in cities])


@pytest.fixture(scope="session")
def central_eu_latency(city_catalog):
    """Pairwise latency matrix over the Central-EU cities."""
    cities = CENTRAL_EU.cities(city_catalog)
    names = [c.name for c in cities]
    return build_latency_matrix(names, city_catalog.coordinates_array(names),
                                countries=[c.country for c in cities])


@pytest.fixture
def florida_fleet():
    """A fresh Florida regional fleet (1 server per city, powered on)."""
    return build_regional_fleet(FLORIDA)


@pytest.fixture
def central_eu_fleet():
    """A fresh Central-EU regional fleet (1 server per city, powered on)."""
    return build_regional_fleet(CENTRAL_EU)


@pytest.fixture
def florida_carbon(florida_traces):
    """Carbon-intensity service replaying the Florida traces."""
    return CarbonIntensityService(traces=florida_traces)


@pytest.fixture
def central_eu_carbon(central_eu_traces):
    """Carbon-intensity service replaying the Central-EU traces."""
    return CarbonIntensityService(traces=central_eu_traces)


def make_apps(sites, workload="ResNet50", n_per_site=1, slo_ms=25.0, rate_rps=10.0,
              duration_hours=1.0):
    """Helper constructing a batch of applications spread over the given sites."""
    apps = []
    for k in range(n_per_site):
        for site in sites:
            apps.append(Application(
                app_id=f"{workload}-{site.replace(' ', '_')}-{k}", workload=workload,
                source_site=site, latency_slo_ms=slo_ms, request_rate_rps=rate_rps,
                duration_hours=duration_hours))
    return apps


def cold_builds():
    """Hand the builder no substrate: every simulator epoch builds cold
    (:meth:`PlacementProblem.build`'s reference body, not the scenario tier)."""
    return mock.patch.object(CDNSimulator, "scenario_compilation",
                             return_value=None)


@pytest.fixture
def florida_problem(florida_fleet, florida_latency, florida_carbon):
    """A small Florida placement problem (5 apps, 5 servers)."""
    apps = make_apps(florida_fleet.sites())
    return PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                  florida_carbon, hour=12, horizon_hours=24.0)


@pytest.fixture
def central_eu_problem(central_eu_fleet, central_eu_latency, central_eu_carbon):
    """A small Central-EU placement problem (10 apps, 5 servers)."""
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    return PlacementProblem.build(apps, central_eu_fleet.servers(), central_eu_latency,
                                  central_eu_carbon, hour=12, horizon_hours=24.0)
