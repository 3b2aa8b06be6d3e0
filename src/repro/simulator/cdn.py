"""CDN-scale trace-driven simulation (Section 6.3).

The simulator builds a continental CDN fleet from the synthetic Akamai
footprint, generates application arrivals per placement epoch (optionally
population-weighted), and runs every policy under test on identical problem
instances per epoch — the fair comparison the paper's evaluation relies on.
Carbon accounting uses the epoch-mean carbon intensity of the hosting zone,
which (for constant-rate applications) equals integrating the hourly trace
over the epoch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.carbon.service import CarbonIntensityService
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.cluster.fleet import EdgeFleet, build_cdn_fleet
from repro.cluster.hardware import DEVICE_CATALOG
from repro.core.policies.base import PlacementPolicy
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.policies.energy_aware import EnergyAwarePolicy
from repro.core.policies.intensity_aware import IntensityAwarePolicy
from repro.core.policies.latency_aware import LatencyAwarePolicy
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.akamai import CDNFootprint, build_cdn_footprint
from repro.datasets.cities import default_city_catalog
from repro.datasets.electricity_maps import default_zone_catalog
from repro.network.latency import LatencyMatrix, build_latency_matrix
from repro.simulator.metrics import EpochRecord, SimulationResult
from repro.simulator.scenario import CDNScenario
from repro.solver.compile import (
    ScenarioCompilation,
    compile_placement,
    compile_scenario,
    scenario_tier_enabled,
)
from repro.workloads.demand import capacity_weights_from_population, population_weights
from repro.workloads.generator import ApplicationGenerator


def default_policies(solver: str = "greedy",
                     hierarchy_regions: int = 1,
                     refine_backend: str = "greedy") -> list[PlacementPolicy]:
    """The four policies the paper compares (Section 6.1.3).

    ``hierarchy_regions > 1`` routes every policy through the cluster-then-
    refine hierarchy instead (:mod:`repro.solver.hierarchy`) — a different
    solver tier that changes placements (the comparison stays fair because
    all policies go through the same tier).
    """
    knobs = dict(hierarchy_regions=hierarchy_regions, refine_backend=refine_backend)
    return [
        LatencyAwarePolicy(**knobs),
        EnergyAwarePolicy(solver=solver, **knobs),
        IntensityAwarePolicy(**knobs),
        CarbonEdgePolicy(solver=solver, **knobs),
    ]


def _build_substrate(scenario: CDNScenario, footprint: CDNFootprint | None
                     ) -> tuple[EdgeFleet, LatencyMatrix, CarbonIntensityService]:
    """Fleet, latency matrix, and carbon service of one scenario's footprint."""
    catalog = default_city_catalog()
    zone_catalog = default_zone_catalog()
    footprint = footprint or build_cdn_footprint(seed=scenario.seed)
    sites = [s for s in footprint.one_per_city() if s.continent == scenario.continent]
    if scenario.max_sites is not None and len(sites) > scenario.max_sites:
        # Keep the most populous cities so demand weighting stays meaningful.
        sites = sorted(sites, key=lambda s: -s.population_k)[: scenario.max_sites]
    if len(sites) < 2:
        raise ValueError("CDN scenario needs at least two sites")
    restricted = CDNFootprint(sites=tuple(sites))

    capacity_weights = None
    if scenario.capacity == "population":
        capacity_weights = capacity_weights_from_population(
            [s.city_name for s in sites], catalog)
    accelerator = DEVICE_CATALOG[scenario.accelerator]
    fleet = build_cdn_fleet(
        restricted,
        servers_per_site=scenario.servers_per_site,
        accelerator=accelerator,
        accelerator_mix=list(scenario.accelerator_mix) if scenario.accelerator_mix else None,
        capacity_weights=capacity_weights,
        seed=scenario.seed,
    )

    site_names = fleet.sites()
    cities = [catalog.get(name) for name in site_names]
    latency = build_latency_matrix(
        site_names, catalog.coordinates_array(site_names),
        countries=[c.state or c.country for c in cities])

    zone_ids = sorted({dc.zone_id for dc in fleet})
    traces = SyntheticTraceGenerator(seed=scenario.seed).generate_set(
        zone_catalog.get(z) for z in zone_ids)
    carbon = CarbonIntensityService(traces=traces)
    return fleet, latency, carbon


#: Scenario-substrate cache: scenario variants that share a footprint (same
#: continent/sites/capacity/hardware/seed, e.g. a latency-limit sweep) reuse
#: one fleet + latency matrix + year of traces instead of rebuilding them per
#: variant. Keyed on exactly the scenario fields the substrate depends on;
#: bounded LRU so long sweep sessions keep bounded memory.
_SUBSTRATE_CACHE: OrderedDict[tuple, tuple[EdgeFleet, LatencyMatrix,
                                           CarbonIntensityService]] = OrderedDict()
_SUBSTRATE_CACHE_MAX: int = 8


def _substrate_key(scenario: CDNScenario) -> tuple:
    return (
        scenario.continent,
        scenario.max_sites,
        scenario.capacity,
        scenario.servers_per_site,
        scenario.accelerator,
        tuple(scenario.accelerator_mix) if scenario.accelerator_mix else None,
        scenario.seed,
    )


def scenario_substrate(scenario: CDNScenario, footprint: CDNFootprint | None = None
                       ) -> tuple[EdgeFleet, LatencyMatrix, CarbonIntensityService]:
    """The (possibly cached) substrate shared by scenario variants.

    Safe to share across sequential simulations: :meth:`CDNSimulator.epoch_problem`
    resets all fleet allocation/power state before every problem build, so the
    substrate carries no simulation history between runs. An explicitly
    supplied footprint bypasses the cache (its identity is not part of the key).
    """
    if footprint is not None:
        return _build_substrate(scenario, footprint)
    key = _substrate_key(scenario)
    if key in _SUBSTRATE_CACHE:
        _SUBSTRATE_CACHE.move_to_end(key)
        return _SUBSTRATE_CACHE[key]
    value = _build_substrate(scenario, None)
    _SUBSTRATE_CACHE[key] = value
    while len(_SUBSTRATE_CACHE) > _SUBSTRATE_CACHE_MAX:
        _SUBSTRATE_CACHE.popitem(last=False)
    return value


def clear_substrate_cache() -> None:
    """Drop every cached scenario substrate (and the scenario compilations
    keyed by them — the compilation tier pins its substrate objects, so both
    caches must drop together for the memory to actually be released)."""
    _SUBSTRATE_CACHE.clear()
    from repro.solver.compile import clear_scenario_compilations
    clear_scenario_compilations()


def build_epoch_record(problem: PlacementProblem, compilation, solution,
                       epoch: int, start_hour: int,
                       record_assignments: bool = False) -> EpochRecord:
    """Assemble one policy's :class:`EpochRecord` from a solved epoch.

    This is the single definition of what an epoch decision *is* — shared by
    the batch loop (:meth:`CDNSimulator.run`) and the online placement
    service (:mod:`repro.serving.service`), so the replay-parity contract
    byte-diffs two runs of the same record builder rather than two
    hand-maintained copies of it.
    """
    if solution.placements:
        j_arr = np.fromiter(solution.placements.values(), dtype=np.intp,
                            count=len(solution.placements))
        hosting_intensities = problem.intensity[j_arr].tolist()
    else:
        hosting_intensities = []
    assignments: dict[str, str] = {}
    if record_assignments:
        assignments = {app_id: problem.servers[j].server_id
                       for app_id, j in solution.placements.items()}
    return EpochRecord(
        epoch=epoch,
        start_hour=start_hour,
        policy=solution.policy_name,
        carbon_g=solution.total_carbon_g(),
        energy_j=solution.total_energy_j(),
        mean_one_way_latency_ms=solution.mean_latency_ms(),
        latency_increase_one_way_ms=solution.latency_increase_ms(),
        n_placed=solution.n_placed,
        n_unplaced=len(solution.unplaced),
        apps_per_site=solution.apps_per_site(),
        hosting_intensities=hosting_intensities,
        solve_time_s=solution.solve_time_s,
        n_nearest_unreachable=compilation.n_nearest_unreachable,
        wave_count=solution.wave_count,
        revalidation_rate=solution.revalidation_rate,
        assignments=assignments,
    )


@dataclass
class CDNSimulator:
    """Year-long CDN simulation for one scenario."""

    scenario: CDNScenario
    footprint: CDNFootprint | None = None
    fleet: EdgeFleet = field(init=False)
    latency: LatencyMatrix = field(init=False)
    carbon: CarbonIntensityService = field(init=False)
    generator: ApplicationGenerator = field(init=False)

    def __post_init__(self) -> None:
        scenario = self.scenario
        catalog = default_city_catalog()
        self.fleet, self.latency, self.carbon = scenario_substrate(
            scenario, self.footprint)
        # The substrate may be shared with a previous simulator of the same
        # key; restore the freshly-built fleet baseline (no allocations, all
        # servers on) so the constructor contract is cache-independent.
        self.fleet.reset_allocations()
        for server in self.fleet.servers():
            server.power_on()
        site_names = self.fleet.sites()

        site_weights = None
        if scenario.demand == "population":
            weights = population_weights(site_names, catalog)
            site_weights = [weights[name] for name in site_names]
        self.generator = ApplicationGenerator(
            sites=site_names,
            site_weights=site_weights,
            workload_mix=dict(scenario.workload_mix),
            mean_arrivals_per_batch=scenario.apps_per_site_per_epoch * len(site_names),
            latency_slo_ms=scenario.latency_limit_ms,
            request_rate_rps=scenario.request_rate_rps,
            duration_hours=float(scenario.hours_per_epoch),
            seed=scenario.seed,
        )

    # -- simulation -------------------------------------------------------------

    def scenario_compilation(self) -> ScenarioCompilation | None:
        """The scenario-lifetime compilation tier backing every epoch's build.

        Built once per substrate (and shared — through
        :func:`repro.solver.compile.compile_scenario`'s substrate-keyed cache
        — with every other simulator over the same fleet/latency/carbon
        objects, e.g. the variants of a latency-limit sweep). Returns ``None``
        when the tier is force-disabled
        (:func:`repro.solver.compile.scenario_tier_enabled`), which sends
        :meth:`epoch_problem` down the cold per-epoch rebuild path the tier
        is contractually bit-identical to.
        """
        if not scenario_tier_enabled():
            return None
        return compile_scenario(self.fleet.servers(), self.latency, self.carbon)

    def epoch_problem(self, epoch: int) -> PlacementProblem:
        """Build the placement problem for one epoch (fresh fleet state)."""
        scenario = self.scenario
        start_hour = scenario.epoch_start_hour(epoch)
        batch = self.generator.generate_batch(epoch, start_hour)
        if len(batch) == 0:
            raise ValueError(f"epoch {epoch} generated no applications")
        self.fleet.reset_allocations()
        for server in self.fleet.servers():
            server.power_on()
        # The batch goes through columnar: the substrate consumes its class
        # table directly (per-object view stays unmaterialised unless the
        # CARBON_EDGE_DISABLE_COLUMNAR kill-switch or a cold rebuild needs it).
        return PlacementProblem.build(
            applications=batch,
            servers=self.fleet.servers(),
            latency=self.latency,
            carbon=self.carbon,
            hour=start_hour,
            horizon_hours=float(scenario.hours_per_epoch),
            substrate=self.scenario_compilation(),
        )

    def run(self, policies: list[PlacementPolicy] | None = None,
            validate: bool = True, record_assignments: bool = False) -> SimulationResult:
        """Run the full scenario for every policy and collect epoch records.

        Each epoch's problem is assembled from the scenario-lifetime
        compilation (:meth:`scenario_compilation` — static substrate tensors
        built once, per-epoch deltas gathered from class rows) and compiled
        exactly once (:func:`repro.solver.compile.compile_placement`); the
        feasibility report, objective coefficient matrices, dense cost
        tensors, and nearest-feasible-server latencies are then shared
        read-only by all policies under test and by the metrics collection
        below — the fair comparison the paper's evaluation relies on, without
        each policy paying for its own copy of the same precomputation.
        """
        policies = policies if policies is not None else default_policies(
            self.scenario.solver, self.scenario.hierarchy_regions,
            self.scenario.refine_backend)
        result = SimulationResult(scenario_name=f"CDN-{self.scenario.continent}")
        plan = None
        if any(p.solver_config().hierarchy_regions > 1 for p in policies):
            from repro.solver.hierarchy import build_region_plan

            plan = build_region_plan(
                self.fleet.sites(), self.fleet.site_coordinates(),
                max(p.solver_config().hierarchy_regions for p in policies),
                seed=self.scenario.seed)
        for epoch in range(self.scenario.n_epochs):
            problem = self.epoch_problem(epoch)
            # Apps with no feasible server at all: no policy can place them
            # and they have no nearest-feasible latency baseline. Reported
            # per epoch (the count is a property of the problem, so it is the
            # same for every policy) instead of silently skewing the
            # latency-increase mean as the seed's fallback did.
            compilation = compile_placement(problem)
            for policy in policies:
                if plan is not None and policy.solver_config().hierarchy_regions > 1:
                    solution = self._hierarchical_place(policy, problem, plan, epoch)
                else:
                    solution = policy.timed_place(problem)
                if validate:
                    validate_solution(solution, strict=True)
                result.add(build_epoch_record(
                    problem, compilation, solution, epoch,
                    self.scenario.epoch_start_hour(epoch),
                    record_assignments=record_assignments))
        return result

    def _hierarchical_place(self, policy: PlacementPolicy,
                            problem: PlacementProblem, plan, epoch: int):
        """Route one policy's epoch through the cluster-then-refine tier.

        The hierarchy solves against the scenario compilation (it never
        materialises the flat apps×servers tensors), then the assignment
        vector is decoded against the already-built epoch problem so the
        record/validation path is identical to the flat branch.
        """
        import time

        from repro.solver.compile import assignment_to_solution
        from repro.solver.hierarchy import solve_hierarchical
        from repro.workloads.generator import LazyApplications

        substrate = compile_scenario(self.fleet.servers(), self.latency, self.carbon)
        manage_power = getattr(policy, "manage_power", True)
        # A problem assembled from a columnar batch hands the batch itself to
        # the hierarchy (class table intact); object-built problems pass the
        # application list as before.
        apps = problem.applications
        apps = apps.batch if isinstance(apps, LazyApplications) else list(apps)
        start = time.monotonic()
        outcome = solve_hierarchical(
            substrate, apps, plan,
            hour=self.scenario.epoch_start_hour(epoch),
            horizon_hours=float(self.scenario.hours_per_epoch),
            objective=policy.objective_kind,
            alpha=getattr(policy, "alpha", 0.0),
            manage_power=manage_power,
            config=policy.solver_config(),
            seed=self.scenario.seed)
        solution = assignment_to_solution(problem, outcome.assignment,
                                          manage_power=manage_power)
        solution.solve_time_s = time.monotonic() - start
        solution.policy_name = policy.name
        return solution


def run_cdn_simulation(scenario: CDNScenario,
                       policies: list[PlacementPolicy] | None = None,
                       footprint: CDNFootprint | None = None,
                       validate: bool = True) -> SimulationResult:
    """Convenience wrapper: build a :class:`CDNSimulator` and run it."""
    simulator = CDNSimulator(scenario=scenario, footprint=footprint)
    return simulator.run(policies=policies, validate=validate)
