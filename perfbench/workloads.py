"""The benchmark's workloads: what each builds, and what one decision is.

Every workload places applications with the CarbonEdge policy and is judged
the same way: how long a placement decision takes, how much carbon the
placement emits next to the latency-aware placement of the same applications
(the paper's baseline), and whether every application found a server.

Each workload uses the settings of the repository code that runs it: ``cdn``
is one epoch of fig11's US simulation, ``hierarchy`` one placement of
``planetary_sweep`` at a size a run can repeat. The fleet, latency matrix and
carbon traces are fixed (substrate seed 0, as both callers use): they are the
deployment. ``--seed`` draws the applications, so seeds vary the demand and
not the geography, and figures from different seeds compare.

Each instance builds its own substrate (the footprint is passed explicitly,
which bypasses the simulator's substrate cache), so instances share no
caches: the runner replays the same decisions on several instances and none
of them finds another's memoised epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objective import ObjectiveKind
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.policies.latency_aware import LatencyAwarePolicy
from repro.core.validation import validate_solution
from repro.datasets.akamai import build_cdn_footprint
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.simulator.cdn import CDNSimulator
from repro.simulator.scenario import CDNScenario
from repro.solver import hierarchy
from repro.solver.compile import ScenarioCompilation, assignment_to_solution, compile_placement
from repro.solver.config import SolverConfig
from repro.workloads.generator import ApplicationGenerator


@dataclass
class Step:
    """What one decision produced."""

    #: A flat decision's solution, judged by ``assess``.
    solutions: list = field(default_factory=list)
    #: A hierarchy decision's (batch, hour, outcome), judged by a flat decode.
    pending: tuple | None = None

    def carbon_g(self) -> float:
        """Carbon of the decision's placement; replays of it must match it."""
        if self.pending is not None:
            return self.pending[2].refined_objective
        return sum(s.total_carbon_g() for s in self.solutions)


@dataclass
class Quality:
    """Carbon and coverage of some decisions, next to the latency-aware ones."""

    carbon_g: float = 0.0
    reference_g: float = 0.0
    n_apps: int = 0
    n_placed: int = 0
    reference_placed: int = 0

    def add_solution(self, solution) -> None:
        reference = LatencyAwarePolicy().place(solution.problem)
        self.carbon_g += solution.total_carbon_g()
        self.reference_g += reference.total_carbon_g()
        self.n_apps += len(solution.problem.applications)
        self.n_placed += solution.n_placed
        self.reference_placed += reference.n_placed


class CdnEpochs:
    """One epoch of fig11's US simulation per decision, as ``CDNSimulator.run``
    makes it: arrivals, scenario-tier problem assembly, compile, the greedy
    CarbonEdge placement and its validation.

    fig11 runs 12 epochs over the year. Decision ``k`` is epoch ``k % 12`` of
    round ``k // 12``; each round draws fresh arrivals (generator seed derived
    from ``--seed`` and the round), so no two decisions place the same apps.
    """

    name = "cdn"
    #: fig11's scenario (its defaults: 20 ms limit, 2 apps per site per
    #: epoch, one server per site, greedy solver), US continent.
    scenario = CDNScenario(continent="US", n_epochs=12, seed=0)
    quality_steps = 48
    #: Decisions per pass: 40 rounds of the year, so a run makes many short
    #: passes and each decision's fastest pass is taken over many samples.
    max_steps = 480

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.simulator = CDNSimulator(scenario=self.scenario,
                                      footprint=build_cdn_footprint(seed=self.scenario.seed))
        self.simulator.scenario_compilation()
        self.policy = CarbonEdgePolicy(solver=self.scenario.solver)
        self._round = None

    def _arrivals(self, round_: int) -> ApplicationGenerator:
        """The simulator's arrival model, seeded per benchmark seed and round."""
        scenario = self.scenario
        sites = self.simulator.fleet.sites()
        return ApplicationGenerator(
            sites=sites,
            workload_mix=dict(scenario.workload_mix),
            mean_arrivals_per_batch=scenario.apps_per_site_per_epoch * len(sites),
            latency_slo_ms=scenario.latency_limit_ms,
            request_rate_rps=scenario.request_rate_rps,
            duration_hours=float(scenario.hours_per_epoch),
            seed=self.seed * 100_003 + round_)

    def decide(self, k: int) -> Step:
        round_, epoch = divmod(k, self.scenario.n_epochs)
        if round_ != self._round:
            self.simulator.generator = self._arrivals(round_)
            self._round = round_
        problem = self.simulator.epoch_problem(epoch)
        compile_placement(problem)
        solution = self.policy.timed_place(problem)
        validate_solution(solution, strict=True)
        return Step(solutions=[solution])

    def assess(self, step: Step, quality: Quality) -> None:
        for solution in step.solutions:
            quality.add_solution(solution)

    def counters(self) -> dict[str, int]:
        return {"class_rows": self.simulator.scenario_compilation().cache_stats()["n_classes"]}


class Hierarchy:
    """One ``planetary_sweep`` placement per decision: cluster-then-refine of
    one arrival batch, never a flat apps x servers tensor.

    planetary_sweep's settings (10 apps per site, 40 ms SLO, hour 4700,
    greedy refinement, about 160 sites per region at 10k sites / 64 regions)
    scaled down to 256 sites in 2 regions (128 sites each on average) so a
    decision takes about a tenth of a second.
    """

    name = "hierarchy"
    n_sites = 256
    n_apps = 10 * n_sites
    n_regions = 2
    hour = 4700
    quality_steps = 4
    #: Decisions per pass. The program memoises the last 64 epochs of each
    #: region (about 20 MB a decision here), so a pass stops at 16 decisions
    #: and the run makes more passes instead.
    max_steps = 16

    def __init__(self, seed: int) -> None:
        self.fleet, self.latency, self.carbon = build_planetary_substrate(
            self.n_sites, seed=0)
        self.compilation = ScenarioCompilation(self.fleet.servers(), self.latency,
                                               self.carbon)
        self.plan = hierarchy.build_region_plan(
            self.fleet.sites(), self.fleet.site_coordinates(), self.n_regions, seed=0)
        self.generator = ApplicationGenerator(
            sites=self.fleet.sites(), latency_slo_ms=40.0,
            mean_arrivals_per_batch=float(self.n_apps), duration_hours=1.0,
            seed=seed)
        self.config = SolverConfig(hierarchy_regions=self.n_regions,
                                   refine_backend="greedy")
        self._flat: ScenarioCompilation | None = None

    def decide(self, k: int) -> Step:
        batch = self.generator.generate_batch(k, self.hour, n_arrivals=self.n_apps)
        outcome = hierarchy.solve_hierarchical(
            self.compilation, batch, self.plan, hour=self.hour, horizon_hours=1.0,
            objective=ObjectiveKind.CARBON, config=self.config, seed=0)
        if outcome.n_placed + outcome.n_unplaced != len(batch):
            raise RuntimeError("hierarchy lost track of applications")
        return Step(pending=(batch, self.hour, outcome))

    def assess(self, step: Step, quality: Quality) -> None:
        # The flat decode is the check the simulator runs on hierarchical
        # placements; it builds the flat problem the hierarchy avoids, so it
        # runs outside the timed decision, on its own compilation.
        if self._flat is None:
            self._flat = ScenarioCompilation(self.fleet.servers(), self.latency,
                                             self.carbon)
        batch, hour, outcome = step.pending
        problem = self._flat.build_problem(list(batch.applications), hour)
        solution = assignment_to_solution(problem, outcome.assignment)
        validate_solution(solution, strict=True)
        quality.add_solution(solution)

    def counters(self) -> dict[str, int]:
        return {"class_rows": self.compilation.cache_stats()["n_classes"]}


WORKLOADS = {w.name: w for w in (CdnEpochs, Hierarchy)}
