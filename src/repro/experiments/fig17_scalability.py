"""Figure 17: scalability of the incremental placement algorithm.

The paper scales the placement to 400 servers and 140 applications and reports
solve times under 3 seconds and memory under 200 MB. The runner measures our
solver's wall-clock time and peak memory while varying one dimension at a time
(servers with applications fixed, applications with servers fixed). Solving
goes through the pluggable backend registry (:func:`repro.solver.solve`), so
the sweep can pin any registered backend — ``compare_backends`` runs the exact
and heuristic backends on identical instances to quantify the speed/quality
trade the registry's ``auto`` rule exploits.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.analysis.reporting import format_table
from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.fleet import build_cdn_fleet
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.akamai import CDNFootprint, build_cdn_footprint
from repro.datasets.cities import default_city_catalog
from repro.datasets.electricity_maps import default_zone_catalog
from repro.experiments.common import EXPERIMENT_SEED
from repro.experiments.registry import ExperimentSpec, RunContext, register
from repro.network.latency import build_latency_matrix
from repro.solver import solve
from repro.workloads.generator import ApplicationGenerator

#: Server counts swept (paper: 100–400).
SERVER_COUNTS: tuple[int, ...] = (100, 200, 300, 400)
#: Application counts swept (paper: 20–140).
APP_COUNTS: tuple[int, ...] = (20, 60, 100, 140)


def _build_instance(n_servers: int, n_apps: int, seed: int) -> tuple:
    """``(apps, servers, latency, carbon)`` of an instance with the requested
    numbers of servers and applications, every server powered on."""
    catalog = default_city_catalog()
    zone_catalog = default_zone_catalog()
    footprint = build_cdn_footprint(seed=seed)
    us_sites = [s for s in footprint.one_per_city() if s.continent == "US"]
    us_sites = sorted(us_sites, key=lambda s: -s.population_k)
    servers_per_site = max(1, n_servers // len(us_sites))
    n_sites = max(2, min(len(us_sites), -(-n_servers // servers_per_site)))
    sites = us_sites[:n_sites]
    fleet = build_cdn_fleet(CDNFootprint(sites=tuple(sites)),
                            servers_per_site=servers_per_site, seed=seed)
    # Trim to exactly n_servers for an apples-to-apples sweep.
    servers = fleet.servers()[:n_servers]
    site_names = sorted({s.site for s in servers})
    cities = [catalog.get(n) for n in site_names]
    latency = build_latency_matrix(site_names, catalog.coordinates_array(site_names),
                                   countries=[c.state or c.country for c in cities])
    traces = SyntheticTraceGenerator(seed=seed, n_hours=168).generate_set(
        zone_catalog.get(z) for z in sorted({s.zone_id for s in servers}))
    carbon = CarbonIntensityService(traces=traces)
    generator = ApplicationGenerator(sites=site_names, latency_slo_ms=40.0,
                                     workload_mix={"ResNet50": 1.0}, seed=seed,
                                     mean_arrivals_per_batch=n_apps)
    batch = generator.generate_batch(0, 0, n_arrivals=n_apps)
    for server in servers:
        server.power_on()
    return list(batch.applications), servers, latency, carbon


def _build_problem(n_servers: int, n_apps: int, seed: int) -> PlacementProblem:
    """A placement problem with the requested numbers of servers and applications."""
    return PlacementProblem.build(*_build_instance(n_servers, n_apps, seed),
                                  hour=0, horizon_hours=1.0)


def _measure(problem: PlacementProblem, backend: str,
             time_budget_s: float | None = None) -> tuple[float, float]:
    """(solve seconds, peak MiB) of one placement through the backend registry."""
    tracemalloc.start()
    start = time.monotonic()
    solution = solve(problem, backend=backend, time_budget_s=time_budget_s)
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    validate_solution(solution)
    return elapsed, peak / (1024.0 * 1024.0)


def run(seed: int = EXPERIMENT_SEED, backend: str = "auto",
        server_counts: tuple[int, ...] = SERVER_COUNTS,
        app_counts: tuple[int, ...] = APP_COUNTS,
        fixed_apps: int = 50, fixed_servers: int = 100,
        time_budget_s: float | None = None) -> dict[str, object]:
    """Runtime and memory scaling in both dimensions."""
    server_rows = []
    for n_servers in server_counts:
        problem = _build_problem(n_servers, fixed_apps, seed)
        elapsed, peak_mb = _measure(problem, backend, time_budget_s)
        server_rows.append({"n_servers": n_servers, "n_apps": fixed_apps,
                            "time_s": elapsed, "peak_memory_mb": peak_mb})
    app_rows = []
    for n_apps in app_counts:
        problem = _build_problem(fixed_servers, n_apps, seed)
        elapsed, peak_mb = _measure(problem, backend, time_budget_s)
        app_rows.append({"n_servers": fixed_servers, "n_apps": n_apps,
                         "time_s": elapsed, "peak_memory_mb": peak_mb})
    return {"by_servers": server_rows, "by_apps": app_rows}


def compare_backends(seed: int = EXPERIMENT_SEED,
                     sizes: tuple[tuple[int, int], ...] = ((100, 50), (200, 100)),
                     backends: tuple[str, ...] = ("highs", "heuristic")) -> list[dict[str, object]]:
    """Exact-vs-heuristic comparison on identical fig17-size instances.

    Each backend is invoked *directly* (``get_backend(name).solve(request)``)
    rather than through ``registry.solve``, so the measured time is the
    backend's alone — no heuristic-baseline runtime inflating the exact
    backend's numbers, and no silent fallback substituting another backend's
    solution for the one being labelled. Returns one row per (size, backend)
    with solve time and the Equation-6 carbon of the produced placement, plus
    per-size speedup of the fastest backend relative to the slowest.
    """
    from repro.solver.backend import SolveRequest
    from repro.solver.registry import available_backends, get_backend

    # Load the registry (and with it scipy) before the first timer starts.
    available_backends()
    rows: list[dict[str, object]] = []
    for n_servers, n_apps in sizes:
        instance = _build_instance(n_servers, n_apps, seed)
        timings: dict[str, float] = {}
        for backend in backends:
            # A freshly built problem per backend (outside the timer, cheap
            # through the memoised scenario tier), as production builds one
            # per epoch: each backend pays for its own class tables and
            # dense tensors, so timings stay self-contained. No tracemalloc
            # either — its allocation-tracking overhead would distort exactly
            # the timings the comparison reports.
            problem = PlacementProblem.build(*instance, hour=0, horizon_hours=1.0)
            request = SolveRequest(problem=problem)
            start = time.monotonic()
            solution = get_backend(backend).solve(request)
            elapsed = time.monotonic() - start
            if solution is None:
                raise RuntimeError(f"backend {backend!r} returned no solution "
                                   f"at size ({n_servers}, {n_apps})")
            validate_solution(solution)
            timings[backend] = elapsed
            rows.append({"n_servers": n_servers, "n_apps": n_apps, "backend": backend,
                         "time_s": elapsed, "carbon_g": solution.total_carbon_g(),
                         "placed": solution.n_placed})
        slowest = max(timings.values())
        for row in rows[-len(backends):]:
            row["speedup_vs_slowest"] = slowest / max(row["time_s"], 1e-9)
    return rows


def report(result: dict[str, object]) -> str:
    """Render the Figure 17 scaling rows."""
    fmt = lambda rows: [{k: (round(v, 3) if isinstance(v, float) else v)  # noqa: E731
                         for k, v in row.items()} for row in rows]
    return "\n\n".join([
        format_table(fmt(result["by_servers"]),
                     title="Figure 17a: scaling with the number of servers "
                           "(paper: <3 s, <200 MB at 400 servers)"),
        format_table(fmt(result["by_apps"]),
                     title="Figure 17b: scaling with the number of applications"),
    ])


def compute(spec: ExperimentSpec, ctx: RunContext) -> dict[str, object]:
    """Registry entry point: run this experiment with the resolved parameters."""
    return run(**ctx.params)


SPEC = register(ExperimentSpec(
    name="fig17",
    title="Scalability of the incremental placement algorithm",
    kind="figure",
    compute=compute,
    report=report,
    params=dict(seed=EXPERIMENT_SEED, backend="auto", server_counts=SERVER_COUNTS,
                app_counts=APP_COUNTS, fixed_apps=50, fixed_servers=100,
                time_budget_s=None),
    smoke_params=dict(server_counts=(20,), app_counts=(10,), fixed_apps=10,
                      fixed_servers=20),
    schema=("by_servers", "by_apps"),
    # Wall-clock and peak-memory measurements: the artifact is inherently
    # machine- and run-dependent, so it is excluded from byte-identity checks.
    deterministic=False,
))


if __name__ == "__main__":
    print(report(run()))
