"""The online placement service: an event-driven loop over the epoch substrate.

:class:`PlacementService` turns the batch epoch replay into a long-running
placement loop on :class:`~repro.simulator.engine.SimulationEngine`. Four
event kinds drive it:

* ``"arrival"`` — a deployment request (payload: one
  :class:`~repro.workloads.application.Application`) joins the pending batch;
* ``"batch"`` — a batching tick closes the pending batch and places it through
  :class:`~repro.core.incremental.IncrementalPlacer.place_batch` (a full solve
  for the new applications, compiled through the scenario tier);
* ``"departure"`` — a running application's lifetime ends; its allocation is
  released so capacity returns to the pool;
* ``"intensity"`` — the rolling-horizon tick: the resilient carbon feed
  refreshes every zone (recording fallbacks/staleness), then
  :meth:`~repro.core.incremental.IncrementalPlacer.resolve_epoch` re-solves
  everything running as a *warm delta re-solve* — warm-started solver, warm
  compilation threading, scenario-tier row gathers — never a cold build.

**Replay-parity contract.** :meth:`run_replay` drives the same loop with
events derived from a :class:`~repro.simulator.scenario.CDNScenario` (one
``"epoch"`` event per placement epoch) and must produce *byte-identical*
placement decisions to :meth:`repro.simulator.cdn.CDNSimulator.run` — the
extension of the determinism contract that already governs the
scenario-compilation tier. :mod:`repro.serving.parity` packages the
byte-diff; CI runs it with and without the scenario-tier kill-switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.incremental import IncrementalPlacer
from repro.core.policies.base import PlacementPolicy
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.validation import validate_solution
from repro.serving.feed import CarbonFeed, ResilientCarbonFeed, TraceFeed
from repro.serving.loadgen import LoadGenerator
from repro.serving.metrics import ServingMetrics
from repro.simulator.cdn import CDNSimulator, build_epoch_record
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import Event
from repro.simulator.metrics import SimulationResult
from repro.simulator.scenario import CDNScenario
from repro.solver.compile import compile_placement
from repro.workloads.application import Application
from repro.workloads.generator import ApplicationBatch, columnar_enabled


@dataclass(frozen=True)
class ServingConfig:
    """Execution knobs of the serving loop.

    ``batch_interval_s`` is the micro-batching window (the paper's prototype
    batches deployment requests every few minutes); ``resolve_interval_s``
    is the rolling-horizon period — each tick refreshes the carbon feed and
    warm re-solves the live placement. ``start_hour`` anchors simulated time
    to an hour-of-year so carbon traces line up.
    """

    batch_interval_s: float = 300.0
    resolve_interval_s: float = 3600.0
    start_hour: int = 0
    horizon_hours: float = 24.0
    validate: bool = True

    def __post_init__(self) -> None:
        if self.batch_interval_s <= 0:
            raise ValueError("batch_interval_s must be positive")
        if self.resolve_interval_s <= 0:
            raise ValueError("resolve_interval_s must be positive")
        if not 0 <= self.start_hour < 8760:
            raise ValueError("start_hour must be in 0..8759")
        if self.horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")


@dataclass
class ServingReport:
    """What one service run produced."""

    metrics: ServingMetrics
    #: Replay mode only: the epoch records, same shape as the batch loop's.
    result: SimulationResult | None = None


@dataclass
class PlacementService:
    """Event-driven placement service over one scenario's substrate.

    Build it with :meth:`from_scenario`; then either :meth:`run_live` (a
    load-generator-driven soak with arrivals, departures, and rolling-horizon
    re-solves) or :meth:`run_replay` (scenario-derived epoch events under the
    replay-parity contract).
    """

    simulator: CDNSimulator
    policy: PlacementPolicy
    feed: ResilientCarbonFeed
    config: ServingConfig = field(default_factory=ServingConfig)

    @classmethod
    def from_scenario(cls, scenario: CDNScenario,
                      policy: PlacementPolicy | None = None,
                      adapter: CarbonFeed | None = None,
                      feed: ResilientCarbonFeed | None = None,
                      config: ServingConfig | None = None) -> "PlacementService":
        """Service over a scenario's (cached) substrate.

        ``adapter`` overrides the primary live-feed adapter (default: the
        deterministic :class:`~repro.serving.feed.TraceFeed`); a fully built
        ``feed`` overrides the resilient wrapper wholesale.
        """
        simulator = CDNSimulator(scenario=scenario)
        if policy is None:
            policy = CarbonEdgePolicy(solver=scenario.solver)
        if feed is None:
            feed = ResilientCarbonFeed(
                adapter=adapter or TraceFeed(simulator.carbon),
                service=simulator.carbon)
        if config is None:
            config = ServingConfig(horizon_hours=float(scenario.hours_per_epoch))
        return cls(simulator=simulator, policy=policy, feed=feed, config=config)

    # -- shared plumbing -------------------------------------------------------

    def _hour_at(self, time_s: float) -> int:
        """Hour-of-year of a simulation timestamp."""
        return (self.config.start_hour + int(time_s // 3600.0)) % 8760

    def _reset_fleet(self) -> None:
        """Pristine fleet baseline (no allocations, all servers on)."""
        fleet = self.simulator.fleet
        fleet.reset_allocations()
        for server in fleet.servers():
            server.power_on()

    # -- live mode -------------------------------------------------------------

    def run_live(self, load: LoadGenerator, duration_s: float,
                 max_events: int | None = None) -> ServingReport:
        """Run the live serving loop over a synthesized request stream.

        The loop is bounded by simulated ``duration_s`` and (optionally) by
        ``max_events`` — the soak knobs ``carbon-edge serve`` exposes for CI.
        The decision sequence is a pure function of the load generator's
        stream and the scenario substrate (wall-clock latencies are telemetry,
        not decisions), which the serving property suite asserts.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self._reset_fleet()
        engine = SimulationEngine()
        placer = IncrementalPlacer(
            fleet=self.simulator.fleet,
            latency=self.simulator.latency,
            carbon=self.simulator.carbon,
            policy=self.policy,
            horizon_hours=self.config.horizon_hours,
            validate=self.config.validate,
        )
        metrics = ServingMetrics()
        zones = self.simulator.carbon.zones()
        pending: list[Application] = []
        hosting: dict[str, str] = {}

        def on_arrival(event: Event) -> None:
            metrics.n_arrivals += 1
            pending.append(event.payload)

        def on_departure(event: Event) -> None:
            metrics.n_departures += 1
            app_id = event.payload
            # Arrived but departed before its batch closed: never placed.
            for i, app in enumerate(pending):
                if app.app_id == app_id:
                    del pending[i]
                    return
            server_id = hosting.pop(app_id, None)
            if server_id is not None:
                self.simulator.fleet.server(server_id).release(app_id)
                placer.active_apps.pop(app_id, None)

        def on_batch(event: Event) -> None:
            if not pending:
                return
            batch, pending[:] = list(pending), []
            if columnar_enabled():
                # Columnar ingestion: the batch flows to the substrate's
                # class-table fast path; from_applications keeps the original
                # objects so the metrics lookups below see identical instances.
                batch = ApplicationBatch.from_applications(tuple(batch))
            hour = self._hour_at(event.time_s)
            started = time.perf_counter()
            solution = placer.place_batch(batch, hour)
            latency_s = time.perf_counter() - started
            metrics.record_decision("batch", event.time_s, hour, solution,
                                    latency_s)
            problem = solution.problem
            for app_id, j in solution.placements.items():
                hosting[app_id] = problem.servers[j].server_id
                app = problem.applications[problem.app_index(app_id)]
                metrics.total_requests += \
                    app.request_rate_rps * app.duration_hours * 3600.0
            # Unplaced arrivals are rejected (no queueing): their departure
            # events find no hosting entry and fall through harmlessly.

        def on_intensity(event: Event) -> None:
            hour = self._hour_at(event.time_s)
            samples = self.feed.refresh(zones, hour, now_s=event.time_s)
            metrics.record_feed_samples(samples)
            started = time.perf_counter()
            solution = placer.resolve_epoch(hour)
            latency_s = time.perf_counter() - started
            if solution is None:
                return
            metrics.record_decision("resolve", event.time_s, hour, solution,
                                    latency_s)
            problem = solution.problem
            hosting.clear()
            for app_id, j in solution.placements.items():
                hosting[app_id] = problem.servers[j].server_id

        engine.register_handler("arrival", on_arrival)
        engine.register_handler("departure", on_departure)
        engine.register_handler("batch", on_batch)
        engine.register_handler("intensity", on_intensity)

        for event in load.events(duration_s):
            engine.queue.push(event)
        # Ticks carry priority 1 so same-timestamp arrivals/departures settle
        # before the batch closes or the horizon rolls — deterministically.
        n_batches = int(duration_s // self.config.batch_interval_s)
        for k in range(1, n_batches + 1):
            engine.queue.schedule(k * self.config.batch_interval_s,
                                  kind="batch", priority=1)
        n_resolves = int(duration_s // self.config.resolve_interval_s)
        for k in range(1, n_resolves + 1):
            engine.queue.schedule(k * self.config.resolve_interval_s,
                                  kind="intensity", priority=2)

        metrics.n_events = engine.run(until_s=duration_s, max_events=max_events)
        metrics.record_feed(self.feed)
        metrics.finish()
        return ServingReport(metrics=metrics)

    # -- replay mode -----------------------------------------------------------

    def run_replay(self) -> ServingReport:
        """Drive the scenario's epochs through the event loop (parity mode).

        One ``"epoch"`` event per placement epoch of the scenario; each
        decision compiles through the scenario tier with warm compilation
        threading (the previous epoch's compilation seeds the next) and must
        be byte-identical to the batch loop's — see
        :func:`repro.serving.parity.check_replay_parity`.
        """
        scenario = self.simulator.scenario
        engine = SimulationEngine()
        metrics = ServingMetrics()
        result = SimulationResult(scenario_name=f"CDN-{scenario.continent}")
        last_compilation: list = [None]  # closed-over mutable slot

        def on_epoch(event: Event) -> None:
            epoch = event.payload
            start_hour = scenario.epoch_start_hour(epoch)
            problem = self.simulator.epoch_problem(epoch)
            compilation = compile_placement(problem, previous=last_compilation[0])
            last_compilation[0] = compilation
            started = time.perf_counter()
            solution = self.policy.timed_place(problem)
            latency_s = time.perf_counter() - started
            if self.config.validate:
                validate_solution(solution, strict=True)
            result.add(build_epoch_record(problem, compilation, solution,
                                          epoch, start_hour,
                                          record_assignments=True))
            metrics.record_decision("epoch", event.time_s, start_hour,
                                    solution, latency_s)

        engine.register_handler("epoch", on_epoch)
        for epoch in range(scenario.n_epochs):
            engine.queue.schedule(
                float(epoch * scenario.hours_per_epoch) * 3600.0,
                kind="epoch", payload=epoch)
        metrics.n_events = engine.run()
        metrics.finish()
        return ServingReport(metrics=metrics, result=result)
