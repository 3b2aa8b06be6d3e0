"""Serving soak: a bounded online-service run plus its replay-parity gate.

Not a figure of the paper — an operational artifact of the online serving
mode (:mod:`repro.serving`). One run does two things:

1. **Soak** — drives :class:`~repro.serving.service.PlacementService` with a
   seeded :class:`~repro.serving.loadgen.LoadGenerator` stream for a bounded
   simulated duration and reports the versioned
   :class:`~repro.serving.metrics.ServingMetrics` artifact: sustained
   placements/sec, p50/p99 decision latency, warm re-solve vs full-solve
   counts, feed health, carbon per request.
2. **Parity** — byte-diffs the service's replay-mode decisions against the
   batch :class:`~repro.simulator.cdn.CDNSimulator` over the same scenario
   (:func:`repro.serving.parity.check_replay_parity`), so the soak artifact
   self-certifies the correctness anchor it rides on.

Wall-clock latencies make the artifact machine-dependent (``deterministic``
is ``False``), but the embedded ``decision_digest`` and the parity block are
pure functions of the parameters.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.experiments.common import EXPERIMENT_SEED
from repro.experiments.registry import ExperimentSpec, RunContext, register
from repro.serving.loadgen import LoadGenerator
from repro.serving.parity import check_replay_parity
from repro.serving.service import PlacementService, ServingConfig
from repro.simulator.scenario import CDNScenario


def run(seed: int = EXPERIMENT_SEED, continent: str = "EU",
        max_sites: int | None = 10, apps_per_site_per_epoch: float = 6.0,
        n_epochs: int = 1, rate_per_s: float = 0.02, shape: str = "poisson",
        mean_lifetime_s: float = 5400.0,
        duration_s: float = 6 * 3600.0,
        batch_interval_s: float = 300.0,
        resolve_interval_s: float = 3600.0,
        max_events: int | None = None) -> dict[str, object]:
    """One bounded soak of the serving loop plus the replay-parity gate.

    The scenario parameters double as the parity scenario (its epochs are
    what the replay mode re-derives as events); the load parameters shape the
    live soak stream.
    """
    scenario = CDNScenario(
        continent=continent,
        n_epochs=n_epochs,
        apps_per_site_per_epoch=apps_per_site_per_epoch,
        max_sites=max_sites,
        seed=seed,
    )
    config = ServingConfig(batch_interval_s=batch_interval_s,
                           resolve_interval_s=resolve_interval_s,
                           horizon_hours=float(scenario.hours_per_epoch))
    service = PlacementService.from_scenario(scenario, config=config)
    load = LoadGenerator(sites=service.simulator.fleet.sites(),
                         rate_per_s=rate_per_s, shape=shape,
                         mean_lifetime_s=mean_lifetime_s, seed=seed)
    report = service.run_live(load, duration_s=duration_s,
                              max_events=max_events)
    parity = check_replay_parity(scenario)
    return {
        "serving": report.metrics.to_artifact(),
        "parity": {
            "ok": parity.ok,
            "policies": {check.policy: check.matches
                         for check in parity.checks},
        },
    }


def report(result: dict[str, object]) -> str:
    """Render the soak summary and the parity verdict."""
    serving = result["serving"]
    counters, latency = serving["counters"], serving["latency_ms"]
    rows = [{
        "events": counters["events"],
        "placements": counters["placements"],
        "batch_solves": counters["batch_solves"],
        "warm_resolves": counters["warm_resolves"],
        "p50_ms": round(latency["p50"], 3),
        "p99_ms": round(latency["p99"], 3),
        "placements_per_s": round(serving["throughput"]["placements_per_s"], 1),
        "parity": "OK" if result["parity"]["ok"] else "MISMATCH",
    }]
    return format_table(rows, title="Serving soak: bounded online-service run "
                                    "(replay parity gates the decisions)")


def compute(spec: ExperimentSpec, ctx: RunContext) -> dict[str, object]:
    """Registry entry point: run this experiment with the resolved parameters."""
    return run(**ctx.params)


SPEC = register(ExperimentSpec(
    name="serving_soak",
    title="Online serving soak with replay-parity gate",
    kind="service",
    compute=compute,
    report=report,
    params=dict(seed=EXPERIMENT_SEED, continent="EU", max_sites=10,
                apps_per_site_per_epoch=6.0, n_epochs=1,
                rate_per_s=0.02, shape="poisson", mean_lifetime_s=5400.0,
                duration_s=6 * 3600.0, batch_interval_s=300.0,
                resolve_interval_s=3600.0, max_events=None),
    smoke_params=dict(max_sites=6, duration_s=2 * 3600.0, rate_per_s=0.01),
    schema=("serving", "parity"),
    # Wall-clock decision latencies make the artifact machine-dependent;
    # the embedded decision digest and parity block stay deterministic.
    deterministic=False,
))


if __name__ == "__main__":
    print(report(run()))
