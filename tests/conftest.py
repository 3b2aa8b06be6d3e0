"""Shared fixtures for the test suite.

Fixtures that are expensive to build (trace sets, latency matrices, fleets) are
session-scoped and use short trace horizons so the whole suite stays fast while
still exercising the real code paths.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.fleet import build_regional_fleet
from repro.cluster.resources import ResourceVector
from repro.core.problem import (
    INFEASIBLE_LATENCY_MS,
    PlacementProblem,
    _demand_for,
    _resolve_profile,
    ensure_dense_cell_budget,
)
from repro.datasets.cities import default_city_catalog
from repro.datasets.electricity_maps import default_zone_catalog
from repro.datasets.regions import CENTRAL_EU, FLORIDA
from repro.network.latency import build_latency_matrix
from repro.workloads.application import Application
from repro.workloads.generator import ApplicationBatch

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


def cold_build(applications, servers, latency, carbon, hour=0,
               horizon_hours=1.0, use_forecast=True) -> PlacementProblem:
    """The per-object reference build the scenario tier is checked against.

    Fills every (workload, rate) x (accelerator, CPU) block of a fresh
    problem from the application and server objects, reading each server's
    site, zone, hardware, capacity and power at call time, and caches
    nothing across calls. :meth:`PlacementProblem.build` gathers the same
    tensors from the scenario tier's class rows; they must agree bit for bit.
    Accepts a list of applications or an ``ApplicationBatch``.
    """
    if isinstance(applications, ApplicationBatch):
        applications = list(applications.applications)
    else:
        applications = list(applications)
    servers = list(servers)
    a, s = len(applications), len(servers)
    if a == 0:
        raise ValueError("cannot build a placement problem with no applications")
    if s == 0:
        raise ValueError("cannot build a placement problem with no servers")
    ensure_dense_cell_budget(a, s, context="cold_build")

    # Latency: one site-index gather instead of A x S matrix lookups.
    app_rows = [latency.index_of(app.source_site) for app in applications]
    server_cols = [latency.index_of(srv.site) for srv in servers]
    latency_ms = latency.matrix_ms[np.ix_(app_rows, server_cols)].astype(float)

    # Every per-pair quantity depends only on (workload, request rate) x
    # (accelerator, CPU) — group both axes and fill whole blocks at once.
    app_groups: dict[tuple[str, float], list[int]] = {}
    for i, app in enumerate(applications):
        app_groups.setdefault((app.workload, app.request_rate_rps), []).append(i)
    server_classes: dict[tuple[str | None, str], list[int]] = {}
    for j, server in enumerate(servers):
        accel = server.accelerator.name if server.accelerator is not None else None
        server_classes.setdefault((accel, server.cpu.name), []).append(j)

    energy_j = np.zeros((a, s))
    supported = np.zeros((a, s), dtype=bool)
    blocks: list[tuple[list[int], list[int], ResourceVector]] = []
    for (workload, rate), rows in app_groups.items():
        rows_arr = np.asarray(rows, dtype=np.intp)
        rates = np.full(len(rows), rate)
        for (accel, cpu), cols in server_classes.items():
            profile = _resolve_profile(workload, accel, cpu)
            if profile is None:
                continue
            cols_arr = np.asarray(cols, dtype=np.intp)
            supported[np.ix_(rows_arr, cols_arr)] = True
            # Same association order as the seed's scalar path
            # (((energy/request x rate) x 3600) x horizon), so the values
            # are bit-identical.
            per_app = profile.energy_per_request_j * rates * 3600.0 * horizon_hours
            energy_j[np.ix_(rows_arr, cols_arr)] = per_app[:, None]
            blocks.append((rows, cols, _demand_for(rate, profile)))
    latency_ms[~supported] = INFEASIBLE_LATENCY_MS

    # Resource keys span the live capacities and the demand vectors; the
    # demand tensor is zero outside the blocks (unsupported pairs).
    capacities = [srv.available_capacity for srv in servers]
    keys = tuple(sorted({key for cap in capacities for key in cap.keys()}
                        | {key for _, _, vec in blocks for key in vec.keys()}))
    capacity = np.array([[cap.get(key) for key in keys] for cap in capacities],
                        dtype=float).reshape(s, len(keys))
    demand = np.zeros((a, s, len(keys)))
    for rows, cols, vec in blocks:
        demand[np.ix_(rows, cols)] = np.array([vec.get(key) for key in keys])

    if use_forecast:
        intensity = np.array([
            carbon.forecast_mean(srv.zone_id, hour, int(np.ceil(horizon_hours)))
            for srv in servers])
    else:
        intensity = np.array([carbon.current_intensity(srv.zone_id, hour)
                              for srv in servers])

    return PlacementProblem(
        applications=applications,
        servers=servers,
        latency_ms=latency_ms,
        energy_j=energy_j,
        intensity=intensity,
        resource_keys=keys,
        capacity=capacity,
        demand=demand,
        base_power_w=np.array([srv.base_power_w for srv in servers]),
        current_power=np.array([1.0 if srv.is_on else 0.0 for srv in servers]),
        horizon_hours=horizon_hours,
        supported=supported,
    )


def per_app(problem: PlacementProblem) -> dict[str, np.ndarray]:
    """A problem's per-application views of its class tables: row ``i`` of
    each is application ``i``'s, read through ``row_class`` (and
    ``class_block`` for demand). A :func:`cold_build` problem is one class
    and one block per application, so its views are its own tables."""
    rows = problem.row_class
    return {"latency_ms": problem.latency_ms[rows],
            "energy_j": problem.energy_j[rows],
            "supported": problem.supported[rows],
            "feasible_mask": problem.feasible_mask()[rows],
            "demand": problem.demand[problem.class_block[rows]]}


def cold_builds():
    """Route every :meth:`PlacementProblem.build` — the simulator's epochs,
    the incremental placer's batches and re-solves — through
    :func:`cold_build` instead of the scenario tier."""
    return mock.patch.object(PlacementProblem, "build", staticmethod(cold_build))


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
