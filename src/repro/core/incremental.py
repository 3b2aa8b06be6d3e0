"""Incremental placement (Algorithm 1).

:class:`IncrementalPlacer` is the paper's placement service loop: applications
arrive in batches (the prototype batches deployment requests every few
minutes); for every batch it

1. computes the application–server latency matrix (line 1–6),
2. filters servers violating latency constraints (line 7 — done inside the
   policies via the feasibility mask),
3. reads server telemetry — available capacity, base power, current power
   state — and the forecast mean carbon intensity (line 8),
4. solves the placement optimisation (line 9),
5. commits the resource allocation and power-state transitions so the next
   batch sees the updated state (line 10).

The placer owns no policy logic; it wires fleet state, the carbon-intensity
service, and the latency matrix into :class:`~repro.core.problem.PlacementProblem`
instances and applies the returned solutions to the fleet.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.carbon.service import CarbonIntensityService
from repro.cluster.fleet import EdgeFleet
from repro.cluster.resources import ResourceVector
from repro.core.policies.base import PlacementPolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.core.validation import validate_solution
from repro.network.latency import LatencyMatrix
from repro.workloads.application import Application
from repro.workloads.generator import ApplicationBatch

logger = logging.getLogger(__name__)

#: Failure types an epoch re-solve is *expected* to raise (problem assembly
#: and solution validation report through these); anything else is logged as
#: unexpected before the fleet state is restored and the error re-raised.
EXPECTED_RESOLVE_ERRORS: tuple[type[BaseException], ...] = (ValueError, KeyError)


@dataclass
class PlacementRound:
    """Record of one incremental placement round."""

    hour: int
    solution: PlacementSolution
    committed: bool
    #: "batch" for a new-arrivals round, "resolve" for an epoch re-solve of
    #: already-running applications.
    kind: str = "batch"


@dataclass
class IncrementalPlacer:
    """Drives a placement policy over batches of arriving applications.

    Parameters
    ----------
    fleet:
        The edge fleet whose servers receive the applications; its allocation
        and power state is mutated as batches commit.
    latency:
        One-way latency matrix covering all fleet sites and application source
        sites.
    carbon:
        Carbon-intensity service for Ī_j.
    policy:
        The placement policy to run each round.
    horizon_hours:
        Placement horizon handed to the problem builder.
    validate:
        Validate every solution against the constraints before committing.
    """

    fleet: EdgeFleet
    latency: LatencyMatrix
    carbon: CarbonIntensityService
    policy: PlacementPolicy
    horizon_hours: float = 1.0
    validate: bool = True
    use_forecast: bool = True
    history: list[PlacementRound] = field(default_factory=list)
    #: Applications committed through this placer, by id (the epoch re-solve
    #: needs the full Application objects to rebuild the problem).
    active_apps: dict[str, Application] = field(default_factory=dict)

    def build_problem(self, applications: "list[Application] | ApplicationBatch",
                      hour: int) -> PlacementProblem:
        """Assemble the placement problem for one batch from current fleet state.

        Accepts either a list of applications or a columnar
        :class:`~repro.workloads.generator.ApplicationBatch`.
        :meth:`PlacementProblem.build` gathers it from the memoised
        scenario-lifetime compilation of this placer's fleet, latency matrix
        and carbon service, so every batch and epoch re-solve assembles only
        its delta — including the warm-start allocation state, which the
        delta reads live from the fleet because committed batches leave it
        anything but pristine. A list is wrapped in a batch once, and the
        problem's ``applications`` are the caller's objects by identity.
        """
        return PlacementProblem.build(
            applications=applications,
            servers=self.fleet.servers(),
            latency=self.latency,
            carbon=self.carbon,
            hour=hour,
            horizon_hours=self.horizon_hours,
            use_forecast=self.use_forecast,
        )

    def place_batch(self, applications: "list[Application] | ApplicationBatch",
                    hour: int, commit: bool = True) -> PlacementSolution:
        """Place one batch of applications and (optionally) commit it to the fleet."""
        if len(applications) == 0:
            raise ValueError("place_batch requires at least one application")
        problem = self.build_problem(applications, hour)
        solution = self.policy.timed_place(problem)
        if self.validate:
            validate_solution(solution, strict=True)
        if commit:
            self.commit(solution)
        self.history.append(PlacementRound(hour=hour, solution=solution, committed=commit))
        return solution

    def resolve_epoch(self, hour: int) -> PlacementSolution | None:
        """Re-solve the placement of every currently running application.

        This is the epoch re-solve path: carbon intensities move between
        epochs, so a placement that was optimal an hour ago may no longer be.
        The placer rebuilds one problem over all applications currently
        allocated on the fleet, *warm-starts* the policy's solver backend from
        their current servers (so the heuristic backend only has to improve
        incrementally), releases the old allocations, and commits the new
        placement. Returns ``None`` when nothing is running.
        """
        current: dict[str, str] = {}  # app_id -> hosting server_id
        for server in self.fleet.servers():
            for app_id in server.allocations:
                if app_id in self.active_apps:
                    current[app_id] = server.server_id
        if not current:
            return None
        apps = [self.active_apps[app_id] for app_id in current]
        # Free the capacity the running applications hold so the re-solve can
        # move them; the commit below re-allocates at the chosen servers. The
        # freed vectors are kept so a failed re-solve restores the fleet
        # bit-for-bit.
        freed: dict[str, ResourceVector] = {}
        for server in self.fleet.servers():
            for app_id in list(server.allocations):
                if app_id in current:
                    freed[app_id] = server.release(app_id)
        try:
            problem = self.build_problem(apps, hour)
            server_index = {s.server_id: j for j, s in enumerate(problem.servers)}
            warm_start = {app_id: server_index[server_id]
                          for app_id, server_id in current.items()}
            solution = self.policy.timed_place(problem, warm_start=warm_start)
            if self.validate:
                validate_solution(solution, strict=True)
        except BaseException as exc:
            # Expected failures (infeasible problems, validation errors)
            # surface as-is; anything else is logged first so an unexpected
            # solver bug is never silently indistinguishable from a routine
            # validation failure. Either way the released allocations are
            # restored so a failed re-solve leaves the fleet exactly as it
            # was (matching deployments and bindings), and the error always
            # propagates to the caller.
            if not isinstance(exc, EXPECTED_RESOLVE_ERRORS):
                logger.exception(
                    "unexpected %s during epoch re-solve at hour %d "
                    "(policy %s, %d applications); fleet state restored",
                    type(exc).__name__, hour, self.policy.name, len(apps))
            for app_id, server_id in current.items():
                self.fleet.server(server_id).allocate(app_id, freed[app_id])
            raise
        self.commit(solution)
        # An app the re-solve could not keep placed no longer holds capacity;
        # drop it from the active set (the orchestrator tears down its
        # deployment and binding in reoptimize()).
        for app_id in solution.unplaced:
            self.active_apps.pop(app_id, None)
        self.history.append(PlacementRound(hour=hour, solution=solution,
                                           committed=True, kind="resolve"))
        return solution

    def commit(self, solution: PlacementSolution) -> None:
        """Apply a solution's power and allocation decisions to the fleet."""
        problem = solution.problem
        # Power transitions first so allocation on newly-on servers succeeds.
        for j, server in enumerate(problem.servers):
            if solution.power_on[j] > 0.5 and not server.is_on:
                server.power_on()
        keys, block = problem.resource_keys, problem.class_block[problem.row_class]
        for app_id, j in solution.placements.items():
            i = problem.app_index(app_id)
            demand = ResourceVector(dict(zip(keys, problem.demand[block[i], j].tolist())))
            problem.servers[j].allocate(app_id, demand)
            self.active_apps[app_id] = problem.applications[i]

    def release_all(self) -> None:
        """Release every allocation committed through this placer (keeps power states)."""
        for server in self.fleet.servers():
            for app_id in list(server.allocations):
                server.release(app_id)
        self.active_apps.clear()

    def live_solution(self) -> PlacementSolution | None:
        """The most recently committed solution (``None`` before any commit).

        After an epoch re-solve this covers *every* running application, so
        its metrics describe the placement currently live on the fleet —
        the number to read when quantifying what :meth:`resolve_epoch` saved.
        """
        for placement_round in reversed(self.history):
            if placement_round.committed:
                return placement_round.solution
        return None

    def total_placed(self) -> int:
        """Number of applications placed across all committed arrival batches.

        Epoch re-solves re-place applications that were already counted, so
        they are excluded here.
        """
        return sum(r.solution.n_placed for r in self.history
                   if r.committed and r.kind == "batch")

    def total_carbon_g(self) -> float:
        """Total Equation-6 carbon across all committed arrival batches, grams.

        This is *arrival accounting*: each batch's carbon as it was placed,
        summed over batches (and excluding re-solve rounds, which re-place
        applications already counted). It intentionally does not reflect
        later epoch re-solves — for the current live footprint use
        :meth:`live_solution` after a re-solve.
        """
        return sum(r.solution.total_carbon_g() for r in self.history
                   if r.committed and r.kind == "batch")
