"""Planetary-scale placement through the cluster-then-refine hierarchy.

The ROADMAP's planetary regime — 10k sites × 10^5 applications — is two
orders of magnitude past the paper's 496-site footprint. The flat compiled
path would need a 10^9-cell dense tensor per objective and is *refused* by
the :func:`repro.core.problem.ensure_dense_cell_budget` guard; this
experiment demonstrates that the hierarchical tier
(:mod:`repro.solver.hierarchy`) completes the same instance under the budget
and records what the coarse/refine decomposition costs (the objective gap)
and what it saves (no apps×servers tensor ever materialised).

Unlike the CDN-year experiments this one builds one data center per footprint
*site* (no one-per-city collapse — the whole point is the site count) and
uses the vectorised midpoint-inflation latency builder
(:func:`repro.network.latency.build_latency_matrix_fast`) — the per-pair
jittered builder is minutes of Python at 5·10^7 pairs.

The artifact is deterministic: placements, objectives, and region statistics
only. Wall-clock and memory measurements live in the benchmarks
(``benchmarks/test_bench_hierarchy.py``), never in artifact bytes, so
``--workers {1,2,4}`` byte-diff clean.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.datacenter import EdgeDataCenter
from repro.cluster.fleet import EdgeFleet
from repro.cluster.hardware import DEVICE_CATALOG, XEON_E5_2660V3
from repro.cluster.server import EdgeServer, PowerState
from repro.core.objective import ObjectiveKind
from repro.core.problem import ensure_dense_cell_budget
from repro.datasets.akamai import build_cdn_footprint
from repro.datasets.electricity_maps import default_zone_catalog
from repro.experiments.common import EXPERIMENT_SEED
from repro.experiments.registry import ExperimentSpec, RunContext, SweepAxis, register
from repro.network.latency import build_latency_matrix_fast
from repro.solver.compile import ScenarioCompilation
from repro.solver.config import SolverConfig
from repro.solver.hierarchy import build_region_plan, solve_hierarchical
from repro.workloads.generator import ApplicationGenerator


def build_planetary_substrate(n_sites: int, seed: int, accelerator: str = "NVIDIA A2"
                              ) -> tuple[EdgeFleet, "object", CarbonIntensityService]:
    """One data center (one server) per footprint site, planetary latency.

    The CDN-year builders collapse sites to one per city; here every site of
    the synthetic Akamai footprint becomes its own data center keyed by its
    unique ``site_id``, so ``n_sites`` is the real fleet size.
    """
    footprint = build_cdn_footprint(n_sites=n_sites, seed=seed)
    device = DEVICE_CATALOG[accelerator]
    datacenters = []
    for site in footprint:
        dc = EdgeDataCenter(site=site.site_id, zone_id=site.zone_id,
                            lat=site.lat, lon=site.lon)
        dc.add_server(EdgeServer(
            server_id=f"{site.site_id}-srv00", site=site.site_id,
            zone_id=site.zone_id, cpu=XEON_E5_2660V3, accelerator=device,
            power_state=PowerState.ON))
        datacenters.append(dc)
    fleet = EdgeFleet(name="planetary fleet", datacenters=datacenters)

    latency = build_latency_matrix_fast(
        fleet.sites(), fleet.site_coordinates(),
        countries=[dc.zone_id for dc in fleet])

    zone_catalog = default_zone_catalog()
    traces = SyntheticTraceGenerator(seed=seed).generate_set(
        zone_catalog.get(z) for z in fleet.zone_ids())
    carbon = CarbonIntensityService(traces=traces)
    return fleet, latency, carbon


def run(seed: int = EXPERIMENT_SEED, n_sites: int = 10_000,
        n_apps: int = 100_000, hour: int = 4700,
        latency_slo_ms: float = 40.0,
        hierarchy_regions: tuple[int, ...] = (32, 64)) -> dict[str, object]:
    """One placement epoch at planetary scale, swept over the region count.

    Records, per region count: placement coverage, the coarse (optimistic
    aggregate) and refined (achieved) objectives with their gap, spill
    activity, and region-size statistics. Scale facts (flat dense-cell count,
    whether the flat path is within the dense-cell budget) are sweep-invariant
    and recorded once.
    """
    fleet, latency, carbon = build_planetary_substrate(n_sites, seed)
    servers = fleet.servers()
    compilation = ScenarioCompilation(servers, latency, carbon)

    flat_within_budget = True
    try:
        ensure_dense_cell_budget(n_apps, len(servers),
                                 context="planetary flat placement")
    except ValueError:
        flat_within_budget = False

    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=latency_slo_ms,
        mean_arrivals_per_batch=float(n_apps), duration_hours=1.0, seed=seed)
    # The columnar batch flows to the hierarchy whole; it builds no per-app
    # objects.
    batch = generator.generate_batch(0, hour, n_arrivals=n_apps)

    coords = fleet.site_coordinates()
    sweep: dict[str, dict[str, object]] = {}
    for n_regions in hierarchy_regions:
        plan = build_region_plan(fleet.sites(), coords, n_regions, seed=seed)
        outcome = solve_hierarchical(
            compilation, batch, plan,
            hour=hour, horizon_hours=1.0,
            objective=ObjectiveKind.CARBON,
            config=SolverConfig(hierarchy_regions=n_regions),
            seed=seed)
        counts = np.asarray(outcome.region_server_counts)
        sweep[str(n_regions)] = {
            "n_placed": outcome.n_placed,
            "n_unplaced": outcome.n_unplaced,
            "n_spilled": outcome.n_spilled,
            "n_coarse_unrouted": outcome.n_coarse_unrouted,
            "coarse_carbon_g": outcome.coarse_objective,
            "refined_carbon_g": outcome.refined_objective,
            "objective_gap_g": outcome.objective_gap,
            "plan_method": plan.method,
            "n_effective_regions": int(len(counts)),
            "max_region_servers": int(counts.max()),
            "mean_region_servers": float(counts.mean()),
            "max_refine_cells": int(
                (np.asarray(outcome.region_app_counts) * counts).max()),
        }

    return {
        "scale": {
            "n_sites": n_sites,
            "n_servers": len(servers),
            "n_apps": n_apps,
            "n_app_classes": int(batch.n_classes),
            "flat_dense_cells": int(n_apps) * len(servers),
            "flat_within_budget": flat_within_budget,
        },
        "sweep": sweep,
    }


def report(result: dict[str, object]) -> str:
    """Render the planetary sweep summary."""
    scale = result["scale"]
    rows = [{"regions": r, **{k: (round(v, 1) if isinstance(v, float) else v)
                              for k, v in s.items()}}
            for r, s in result["sweep"].items()]
    return format_table(
        rows, title=f"Planetary sweep: {scale['n_apps']} apps x "
                    f"{scale['n_servers']} servers "
                    f"(flat {scale['flat_dense_cells']} cells, "
                    f"within budget: {scale['flat_within_budget']})")


def compute(spec: ExperimentSpec, ctx: RunContext) -> dict[str, object]:
    """Registry entry point: run this experiment with the resolved parameters."""
    return run(**ctx.params)


SPEC = register(ExperimentSpec(
    name="planetary_sweep",
    title="Planetary-scale placement via the hierarchical solver tier",
    kind="figure",
    compute=compute,
    report=report,
    params=dict(seed=EXPERIMENT_SEED, n_sites=10_000, n_apps=100_000,
                hour=4700, latency_slo_ms=40.0, hierarchy_regions=(32, 64)),
    # Two sweep units even at smoke scale so the CI hierarchy-determinism job
    # (--workers {1,2}, byte-diffed) exercises a real multi-unit merge.
    smoke_params=dict(n_sites=48, n_apps=160, hierarchy_regions=(2, 3)),
    sweep=(SweepAxis("hierarchy_regions"),),
    schema=("scale", "sweep"),
))

#: The 10^6-application point the columnar substrate unlocks: one epoch at
#: 10k sites x 10^6 apps (10^10 flat dense cells — far past the budget guard),
#: solved through the hierarchy from a columnar batch, which builds no per-app
#: objects.
SPEC_XL = register(ExperimentSpec(
    name="planetary_sweep_xl",
    title="Planetary-scale placement at one million applications",
    kind="figure",
    compute=compute,
    report=report,
    params=dict(seed=EXPERIMENT_SEED, n_sites=10_000, n_apps=1_000_000,
                hour=4700, latency_slo_ms=40.0, hierarchy_regions=(64,)),
    smoke_params=dict(n_sites=32, n_apps=120, hierarchy_regions=(2,)),
    sweep=(SweepAxis("hierarchy_regions"),),
    schema=("scale", "sweep"),
))


if __name__ == "__main__":
    print(report(run()))
