"""Figure 11: year-long CDN-scale carbon savings, latency increases, and load shift.

With a 20 ms round-trip latency limit, the paper reports 49.5% carbon savings
in the US and 67.8% in Europe, average round-trip latency increases of ~11 ms,
and a load-distribution CDF showing CarbonEdge executing far more of the
workload in low-intensity zones than the Latency-aware baseline.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.common import EXPERIMENT_SEED
from repro.experiments.registry import ExperimentSpec, RunContext, SweepAxis, register
from repro.simulator.cdn import run_cdn_simulation
from repro.simulator.metrics import SimulationResult
from repro.simulator.scenario import CDNScenario


def run(seed: int = EXPERIMENT_SEED, latency_limit_ms: float = 20.0,
        n_epochs: int = 12, apps_per_site_per_epoch: float = 2.0,
        max_sites: int | None = None,
        continents: tuple[str, ...] = ("US", "EU"),
        hierarchy_regions: int = 1) -> dict[str, object]:
    """Year-long CDN simulation for both continents under the four policies.

    ``hierarchy_regions`` is *recorded* science: above 1 every policy routes
    through the cluster-then-refine solver tier, which changes placements.
    """
    results: dict[str, SimulationResult] = {}
    for continent in continents:
        scenario = CDNScenario(
            continent=continent,
            latency_limit_ms=latency_limit_ms,
            n_epochs=n_epochs,
            apps_per_site_per_epoch=apps_per_site_per_epoch,
            max_sites=max_sites,
            hierarchy_regions=hierarchy_regions,
            seed=seed,
        )
        results[continent] = run_cdn_simulation(scenario)
    summary = {}
    for continent, result in results.items():
        summary[continent] = {
            "carbon_savings_pct": result.carbon_savings_pct("CarbonEdge"),
            "latency_increase_rtt_ms": result.mean_latency_increase_rtt_ms("CarbonEdge"),
            "load_intensity_p50_latency_aware": float(np.median(
                result.hosting_intensity_distribution("Latency-aware"))),
            "load_intensity_p50_carbon_edge": float(np.median(
                result.hosting_intensity_distribution("CarbonEdge"))),
            # Placed apps with no feasible server to measure a latency
            # increase against (excluded from the mean above, not folded in).
            "nearest_unreachable": float(
                result.total_nearest_unreachable("CarbonEdge")),
        }
    return {"results": results, "summary": summary}


def report(result: dict[str, object]) -> str:
    """Render the Figure 11 summary."""
    rows = [{"continent": c, **{k: round(v, 1) for k, v in s.items()}}
            for c, s in result["summary"].items()]
    return format_table(
        rows, title="Figure 11: year-long CDN savings "
                    "(paper: 49.5% US / 67.8% EU, latency increase < 11 ms RTT)")


def compute(spec: ExperimentSpec, ctx: RunContext) -> dict[str, object]:
    """Registry entry point: run this experiment with the resolved parameters."""
    return run(**ctx.params)


SPEC = register(ExperimentSpec(
    name="fig11",
    title="Year-long CDN-scale carbon savings, latency increase, and load shift",
    kind="figure",
    compute=compute,
    report=report,
    params=dict(seed=EXPERIMENT_SEED, latency_limit_ms=20.0, n_epochs=12,
                apps_per_site_per_epoch=2.0, max_sites=None,
                continents=("US", "EU"), hierarchy_regions=1),
    # tests/test_golden_digests.py pins this smoke configuration's artifact;
    # changing these values moves its digest.
    smoke_params=dict(n_epochs=1, max_sites=10, continents=("EU",),
                      apps_per_site_per_epoch=6.0),
    sweep=(SweepAxis("continents"),),
    # The raw per-epoch SimulationResult objects carry solve-time noise; the
    # artifact is the per-continent summary the paper reports.
    drop_keys=("results",),
    schema=("summary",),
))


if __name__ == "__main__":
    print(report(run()))
