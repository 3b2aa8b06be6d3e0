"""Benchmark: the hierarchical cluster-then-refine tier vs the flat compiled path.

At planetary footprints the flat compiled path prices every application
class against every server and places every application over the whole
fleet; the hierarchical tier (:mod:`repro.solver.hierarchy`) solves a coarse
apps × regions aggregate, refines each region's restricted sub-problem, and
spills the remainder. This
benchmark races the two on the same ≥4k-server planetary instance (the
largest scale the flat path can still run under the dense-cell budget, so the
race is measurable) and asserts the hierarchy is >= 3x faster. That floor is
a wall-clock ratio, so the test is marked ``perf``: tier-1 deselects it and
``python -m pytest -m perf`` runs it.

The decomposition is *not* free: the coarse pass routes each application by
the optimistic per-region minimum, so refinement lands on a worse objective
than the flat solve. That gap is science, not noise — the trajectory record
carries the flat and refined carbon side by side, plus the coarse-vs-refined
gap and the process peak RSS, so the cost of going hierarchical stays visible
across PRs in ``BENCH_cdn_pipeline.json``.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

import pytest

from bench_util import append_bench_record
from repro.core.objective import ObjectiveKind
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.solver.compile import ScenarioCompilation
from repro.solver.config import SolverConfig
from repro.solver.hierarchy import build_region_plan, solve_hierarchical
from repro.solver.registry import available_backends, solve as registry_solve
from repro.workloads.generator import ApplicationGenerator

#: Where the timing trajectory is appended (repo root), shared with the
#: pipeline benchmarks.
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_cdn_pipeline.json"

_SMOKE = os.environ.get("CDN_PIPELINE_BENCH_SCALE", "").lower() == "smoke"

#: The issue's acceptance scale: >= 4k servers, flat still under the
#: dense-cell budget so both sides can actually run.
N_SITES = 256 if _SMOKE else 4096
N_APPS = 512 if _SMOKE else 8192
N_REGIONS = 8 if _SMOKE else 32
HOUR = 4700

#: Required speedup of the hierarchical tier over the flat compiled path.
HIERARCHY_SPEEDUP_FLOOR = 3.0


@pytest.mark.perf
def test_bench_hierarchy_vs_flat(bench_once):
    fleet, latency, carbon = build_planetary_substrate(N_SITES, seed=0)
    servers = fleet.servers()
    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=40.0,
        mean_arrivals_per_batch=float(N_APPS), duration_hours=1.0, seed=0)
    applications = list(
        generator.generate_batch(0, HOUR, n_arrivals=N_APPS).applications)

    # Load the backend registry (and with it scipy) before either timer
    # starts, so the flat arm does not time the process's one-off import.
    available_backends()
    # Fresh compilations per side: the class-row caches warm up during either
    # solve, and sharing one instance would hand the second runner a head
    # start.
    flat_s = hier_s = 0.0
    flat_solution = None
    outcome = None

    def run_both():
        nonlocal flat_s, hier_s, flat_solution, outcome
        flat_comp = ScenarioCompilation(servers, latency, carbon)
        t0 = time.perf_counter()
        problem = flat_comp.build_problem(applications, HOUR)
        flat_solution = registry_solve(problem, backend="greedy",
                                       objective=ObjectiveKind.CARBON)
        flat_s = time.perf_counter() - t0

        hier_comp = ScenarioCompilation(servers, latency, carbon)
        t0 = time.perf_counter()
        plan = build_region_plan(fleet.sites(), fleet.site_coordinates(),
                                 N_REGIONS, seed=0)
        outcome = solve_hierarchical(
            hier_comp, applications, plan, hour=HOUR,
            objective=ObjectiveKind.CARBON,
            config=SolverConfig(hierarchy_regions=N_REGIONS), seed=0)
        hier_s = time.perf_counter() - t0

    bench_once(run_both)

    speedup = flat_s / max(hier_s, 1e-9)
    flat_carbon_g = flat_solution.total_carbon_g()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"\nhierarchy ({N_SITES} servers x {N_APPS} apps, "
          f"{N_REGIONS} regions): flat {flat_s:.3f} s, "
          f"hierarchical {hier_s:.3f} s, speedup {speedup:.2f}x")
    print(f"carbon: flat {flat_carbon_g:.1f} g, "
          f"refined {outcome.refined_objective:.1f} g "
          f"(coarse/refined gap {outcome.objective_gap:.1f} g, "
          f"{outcome.n_spilled} spilled), peak RSS {peak_rss_mb:.0f} MB")
    append_bench_record(ARTIFACT, "hierarchy_vs_flat", {
        "scale": "smoke" if _SMOKE else "full",
        "size": [N_SITES, N_APPS],
        "n_regions": N_REGIONS,
        "flat_s": round(flat_s, 4),
        "hierarchical_s": round(hier_s, 4),
        "speedup": round(speedup, 2),
        "flat_carbon_g": round(flat_carbon_g, 2),
        "refined_carbon_g": round(outcome.refined_objective, 2),
        "coarse_refined_gap_g": round(outcome.objective_gap, 2),
        "n_placed": outcome.n_placed,
        "n_spilled": outcome.n_spilled,
        "peak_rss_mb": round(peak_rss_mb, 1),
    })

    assert outcome.n_placed > 0
    assert len(flat_solution.placements) > 0
    if not _SMOKE:
        assert speedup >= HIERARCHY_SPEEDUP_FLOOR, (
            f"hierarchical tier speedup {speedup:.2f}x is below the "
            f"{HIERARCHY_SPEEDUP_FLOOR}x floor at {N_SITES} servers")
