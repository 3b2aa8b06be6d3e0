"""Console entry points: the ``carbon-edge`` command and the quickstart demo.

``carbon-edge`` (see ``setup.py``; also ``python -m repro``) is the umbrella
command. Its ``experiments`` subcommand drives the declarative experiment
registry through the sharded scenario runner::

    carbon-edge experiments list
    carbon-edge experiments run fig11 fig17 --workers 8
    carbon-edge experiments run --all --smoke --workers 2 --output-dir artifacts

Its ``serve`` subcommand runs the online placement service
(:mod:`repro.serving`) — a bounded soak with a seeded load stream, or the
replay-parity check that byte-diffs the service's decisions against the
batch simulator::

    carbon-edge serve --smoke --metrics-out artifacts/serving_metrics.json
    carbon-edge serve --replay-parity
    carbon-edge serve --shape diurnal --rps 0.05 --duration-s 43200

``carbon-edge quickstart`` (and the original ``carbon-edge-quickstart``
alias) builds the Central-EU edge deployment, generates a batch of inference
applications, and compares where CarbonEdge places them against the
Latency-aware baseline — the same scenario as ``examples/quickstart.py`` —
with the solver backend, placement hour, and energy weight exposed as flags::

    carbon-edge-quickstart
    carbon-edge-quickstart --backend heuristic --time-budget-s 0.05
    carbon-edge-quickstart --alpha 0.5 --hour 300
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.carbon import CarbonIntensityService, SyntheticTraceGenerator
from repro.cluster import build_regional_fleet
from repro.core import CarbonEdgePolicy, LatencyAwarePolicy, PlacementProblem
from repro.datasets import CENTRAL_EU, default_city_catalog, default_zone_catalog
from repro.network import build_latency_matrix
from repro.solver import registry
from repro.workloads import make_application


def _add_quickstart_args(parser: argparse.ArgumentParser) -> None:
    """Attach the quickstart flags to a parser (shared by both entry points)."""
    parser.add_argument("--backend", default="auto", choices=registry.backend_names(),
                        help="solver backend for the CarbonEdge policy (default: auto)")
    parser.add_argument("--hour", type=int, default=4700,
                        help="hour-of-year of the placement (default: 4700, mid-July)")
    parser.add_argument("--alpha", type=float, default=0.0,
                        help="energy weight of the multi-objective extension (default: 0)")
    parser.add_argument("--slo-ms", type=float, default=20.0,
                        help="round-trip latency SLO per application, ms (default: 20)")
    parser.add_argument("--time-budget-s", type=float, default=None,
                        help="solver wall-clock budget in seconds (default: the policy's "
                             "30 s limit; values < 1 make 'auto' pick the heuristic)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for the synthetic carbon traces (default: 7)")


def build_parser() -> argparse.ArgumentParser:
    """The quickstart command-line interface."""
    parser = argparse.ArgumentParser(
        prog="carbon-edge-quickstart",
        description="Carbon-aware edge placement demo (CarbonEdge reproduction).")
    _add_quickstart_args(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the quickstart comparison and print the placement summary."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _run_quickstart(args, parser)


def _run_quickstart(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not 0.0 <= args.alpha <= 1.0:
        parser.error(f"--alpha must be in [0, 1], got {args.alpha}")
    if args.time_budget_s is not None and args.time_budget_s < 0:
        parser.error(f"--time-budget-s must be non-negative, got {args.time_budget_s}")

    # 1. The edge fleet: one data center per Central-EU city.
    fleet = build_regional_fleet(CENTRAL_EU)

    # 2. The substrate the placement needs: pairwise latency and carbon intensity.
    cities = CENTRAL_EU.cities(default_city_catalog())
    latency = build_latency_matrix(
        [c.name for c in cities],
        default_city_catalog().coordinates_array([c.name for c in cities]),
        countries=[c.country for c in cities],
    )
    traces = SyntheticTraceGenerator(seed=args.seed).generate_set(
        default_zone_catalog().get(z) for z in CENTRAL_EU.zone_ids())
    carbon = CarbonIntensityService(traces=traces)

    # 3. One ResNet50 serving application per city.
    apps = [make_application(f"resnet-{c.name}", "ResNet50", c.name,
                             latency_slo_ms=args.slo_ms, request_rate_rps=10.0)
            for c in cities]

    # 4. Build the problem and place it with both policies.
    problem = PlacementProblem.build(apps, fleet.servers(), latency, carbon,
                                     hour=args.hour, horizon_hours=24.0)
    baseline = LatencyAwarePolicy().timed_place(problem)
    policy = CarbonEdgePolicy(alpha=args.alpha, solver=args.backend)
    if args.time_budget_s is not None:
        policy.time_limit_s = args.time_budget_s
    carbon_edge = policy.timed_place(problem)

    # 5. Compare.
    saving = (1 - carbon_edge.total_carbon_g() / baseline.total_carbon_g()) * 100
    print(f"Solver backend          : {carbon_edge.backend_name or policy.solver} "
          f"({carbon_edge.solve_time_s * 1000:.1f} ms)")
    print("Latency-aware placement :", baseline.apps_per_site())
    print("CarbonEdge placement    :", carbon_edge.apps_per_site())
    print(f"Carbon: {baseline.total_carbon_g():.0f} g -> {carbon_edge.total_carbon_g():.0f} g "
          f"({saving:.1f}% savings)")
    print(f"Mean one-way latency increase: {carbon_edge.latency_increase_ms():.1f} ms")
    return 0


# -- the carbon-edge umbrella command -----------------------------------------


def build_carbon_edge_parser() -> argparse.ArgumentParser:
    """The ``carbon-edge`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="carbon-edge",
        description="CarbonEdge reproduction: carbon-aware placement across "
                    "edge data centers.")
    commands = parser.add_subparsers(dest="command", required=True)

    quickstart = commands.add_parser(
        "quickstart", help="run the Central-EU placement demo")
    _add_quickstart_args(quickstart)

    experiments = commands.add_parser(
        "experiments", help="list or run the registered paper experiments")
    actions = experiments.add_subparsers(dest="action", required=True)

    actions.add_parser("list", help="list every registered experiment spec")

    run_cmd = actions.add_parser(
        "run", help="run experiments through the sharded scenario runner")
    run_cmd.add_argument("names", nargs="*", metavar="NAME",
                         help="experiment names (e.g. fig11 table1); "
                              "see 'experiments list'")
    run_cmd.add_argument("--all", action="store_true", dest="run_all",
                         help="run every registered experiment")
    run_cmd.add_argument("--smoke", action="store_true",
                         help="reduced-scale smoke parameters (CI scale)")
    run_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes; results are identical for any "
                              "worker count (default: 1)")
    run_cmd.add_argument("--hierarchy-regions", type=int, default=None, metavar="N",
                         help="plan N geographic regions for the cluster-then-"
                              "refine hierarchy of the experiments that take a "
                              "hierarchy_regions parameter (the planetary_sweep "
                              "specs; selecting none is an error); a recorded "
                              "experiment parameter (it changes placements; "
                              "the coarse/refine gap is recorded)")
    run_cmd.add_argument("--backend", default=None, metavar="NAME",
                         help="pin the solver backend (canonical name or "
                              "alias, e.g. heuristic, highs, lp-round) in "
                              "every experiment that takes a backend/backends "
                              "parameter; a recorded experiment parameter "
                              "(default: each spec's own choice)")
    run_cmd.add_argument("--seed", type=int, default=None,
                         help="override the seed of every experiment that takes one")
    run_cmd.add_argument("--output-dir", default="artifacts", metavar="DIR",
                         help="directory for the JSON artifacts (default: artifacts/)")
    run_cmd.add_argument("--no-write", action="store_true",
                         help="skip writing artifacts (print the summary only)")

    serve = commands.add_parser(
        "serve", help="run the online placement service (bounded soak or "
                      "replay-parity check)")
    serve.add_argument("--continent", default="EU", choices=("US", "EU"),
                       help="CDN footprint side (default: EU)")
    serve.add_argument("--max-sites", type=int, default=10, metavar="N",
                       help="cap on the number of CDN cities (default: 10)")
    serve.add_argument("--n-epochs", type=int, default=1, metavar="N",
                       help="scenario epochs; in parity mode these become the "
                            "replayed events (default: 1)")
    serve.add_argument("--seed", type=int, default=None,
                       help="scenario and load-stream seed (default: the "
                            "experiment seed)")
    serve.add_argument("--rps", type=float, default=0.02, metavar="R",
                       help="mean deployment-request arrival rate, req/s "
                            "(default: 0.02)")
    serve.add_argument("--shape", default="poisson",
                       choices=("poisson", "diurnal", "burst"),
                       help="traffic shape of the load stream (default: poisson)")
    serve.add_argument("--mean-lifetime-s", type=float, default=5400.0,
                       metavar="S", help="mean application lifetime, seconds "
                                         "(default: 5400)")
    serve.add_argument("--duration-s", type=float, default=6 * 3600.0,
                       metavar="S", help="simulated soak duration, seconds "
                                         "(default: 21600 = 6 h)")
    serve.add_argument("--max-events", type=int, default=None, metavar="N",
                       help="hard cap on processed events (CI bound)")
    serve.add_argument("--batch-interval-s", type=float, default=300.0,
                       metavar="S", help="micro-batching window (default: 300)")
    serve.add_argument("--resolve-interval-s", type=float, default=3600.0,
                       metavar="S", help="rolling-horizon re-solve period "
                                         "(default: 3600)")
    serve.add_argument("--apps-per-site-per-epoch", type=float, default=6.0,
                       metavar="A", help="parity-scenario arrival density "
                                         "(default: 6.0)")
    serve.add_argument("--smoke", action="store_true",
                       help="reduced CI scale (fewer sites, shorter soak)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the versioned serving-metrics JSON artifact")
    serve.add_argument("--replay-parity", action="store_true",
                       help="byte-diff the service's replayed decisions "
                            "against the batch simulator and exit non-zero "
                            "on mismatch")
    return parser


def _experiments_list() -> int:
    from repro.experiments import registry as experiment_registry
    from repro.simulator.runner import expand_units

    rows = []
    for spec in experiment_registry.all_specs():
        n_units = len(expand_units(spec))
        axes = ",".join(axis.param for axis in spec.sweep) or "-"
        rows.append((spec.name, spec.kind, str(n_units), axes, spec.title))
    widths = [max(len(row[i]) for row in rows + [("name", "kind", "units", "sweep", "title")])
              for i in range(5)]
    header = ("name", "kind", "units", "sweep", "title")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return 0


def _experiments_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments import registry as experiment_registry
    from repro.simulator.runner import ScenarioRunner

    known = experiment_registry.names()
    if args.run_all and args.names:
        parser.error("pass experiment names or --all, not both")
    names = known if args.run_all else args.names
    if not names:
        parser.error("no experiments selected; pass names or --all "
                     f"(registered: {', '.join(known)})")
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown experiment(s) {', '.join(unknown)}; "
                     f"registered: {', '.join(known)}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.hierarchy_regions is not None:
        if args.hierarchy_regions < 1:
            parser.error(f"--hierarchy-regions must be >= 1, got {args.hierarchy_regions}")
        takers = [spec.name for spec in experiment_registry.all_specs()
                  if "hierarchy_regions" in spec.params]
        if not set(names) & set(takers):
            parser.error("--hierarchy-regions applies only to experiments that "
                         f"take it ({', '.join(takers)}); none is selected")
    if args.backend is not None:
        from repro.solver import registry as solver_registry

        if args.backend not in solver_registry.backend_names():
            parser.error(f"unknown solver backend {args.backend!r}; known: "
                         f"{', '.join(solver_registry.backend_names())}")

    # Recorded overrides, not execution knobs: they change placements, so
    # they must appear in the artifact params.
    # Specs that do not take the parameter ignore it.
    overrides = {}
    if args.hierarchy_regions is not None:
        overrides["hierarchy_regions"] = args.hierarchy_regions
    if args.backend is not None:
        # Single-backend specs take `backend`; sweep specs (the backend
        # tournament) take a `backends` tuple — pin both spellings.
        overrides["backend"] = args.backend
        overrides["backends"] = (args.backend,)
    overrides = overrides or None
    runner = ScenarioRunner(workers=args.workers, smoke=args.smoke, seed=args.seed,
                            overrides=overrides)
    start = time.perf_counter()
    results = runner.run(names)
    elapsed = time.perf_counter() - start
    for name, result in results.items():
        line = f"{name}: {result.n_units} unit(s)"
        if not args.no_write:
            path = result.write(args.output_dir)
            line += f" -> {path}"
        print(line)
    scale = "smoke" if args.smoke else "full"
    print(f"ran {len(results)} experiment(s) at {scale} scale with "
          f"{args.workers} worker(s) in {elapsed:.1f} s")
    return 0


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.common import EXPERIMENT_SEED
    from repro.serving.loadgen import LoadGenerator
    from repro.serving.parity import check_replay_parity
    from repro.serving.service import PlacementService, ServingConfig
    from repro.simulator.scenario import CDNScenario

    if args.max_sites < 2:
        parser.error(f"--max-sites must be >= 2, got {args.max_sites}")
    if args.duration_s <= 0:
        parser.error(f"--duration-s must be positive, got {args.duration_s}")
    seed = args.seed if args.seed is not None else EXPERIMENT_SEED
    max_sites, duration_s, rate = args.max_sites, args.duration_s, args.rps
    if args.smoke:
        max_sites = min(max_sites, 6)
        duration_s = min(duration_s, 2 * 3600.0)
        rate = min(rate, 0.01)
    scenario = CDNScenario(
        continent=args.continent,
        n_epochs=args.n_epochs,
        apps_per_site_per_epoch=args.apps_per_site_per_epoch,
        max_sites=max_sites,
        seed=seed,
    )

    if args.replay_parity:
        report = check_replay_parity(scenario)
        print(f"replay parity over {scenario.n_epochs} epoch(s), "
              f"{args.continent}:")
        print(report.summary())
        return 0 if report.ok else 1

    config = ServingConfig(batch_interval_s=args.batch_interval_s,
                           resolve_interval_s=args.resolve_interval_s,
                           horizon_hours=float(scenario.hours_per_epoch))
    service = PlacementService.from_scenario(scenario, config=config)
    load = LoadGenerator(sites=service.simulator.fleet.sites(),
                         rate_per_s=rate, shape=args.shape,
                         mean_lifetime_s=args.mean_lifetime_s, seed=seed)
    report = service.run_live(load, duration_s=duration_s,
                              max_events=args.max_events)
    metrics = report.metrics
    print(f"served {metrics.n_events} events "
          f"({metrics.n_arrivals} arrivals, {metrics.n_departures} departures) "
          f"over {duration_s:.0f} simulated seconds")
    print(f"solves: {metrics.n_batch_solves} batch, "
          f"{metrics.n_warm_resolves} warm re-solves")
    print(f"decision latency: p50 {metrics.latency_percentile_ms(50.0):.2f} ms, "
          f"p99 {metrics.latency_percentile_ms(99.0):.2f} ms")
    print(f"throughput: {metrics.placements_per_s():.1f} placements/s "
          f"({metrics.total_placed()} placed in {metrics.wall_elapsed_s:.2f} s "
          f"wall)")
    print(f"carbon: {metrics.total_carbon_g():.0f} g total, "
          f"{metrics.carbon_per_request_g() * 1000.0:.3f} mg/request")
    print(f"feed: samples {metrics.feed_samples or {'live': 0}}, "
          f"events {metrics.feed_events or 'none'}, "
          f"stale={metrics.feed_stale}")
    print(f"decision digest: {metrics.decision_digest()}")
    if args.metrics_out:
        path = metrics.write(args.metrics_out)
        print(f"metrics artifact -> {path}")
    return 0


def carbon_edge_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``carbon-edge`` command (and ``python -m repro``)."""
    parser = build_carbon_edge_parser()
    args = parser.parse_args(argv)
    if args.command == "quickstart":
        return _run_quickstart(args, parser)
    if args.command == "serve":
        return _run_serve(args, parser)
    if args.action == "list":
        return _experiments_list()
    return _experiments_run(args, parser)


if __name__ == "__main__":
    raise SystemExit(carbon_edge_main(sys.argv[1:]))
