"""Placement solutions and their carbon / energy / latency accounting.

A :class:`PlacementSolution` holds the committed decisions (which server each
application goes to, which servers are powered on) and evaluates the paper's
three metrics (Section 6.1.4) against the problem it solves:

* carbon emissions (Equation 6: operational + newly-activated base power),
* energy consumption (dynamic + newly-activated base power),
* latency (per-application one-way latency to the chosen server, plus the
  increase relative to placing at the nearest feasible server).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.objective import ObjectiveKind, raw_values
from repro.core.problem import PlacementProblem


@dataclass(frozen=True)
class Assignment:
    """One application-to-server assignment with its per-assignment metrics."""

    app_id: str
    server_id: str
    site: str
    zone_id: str
    one_way_latency_ms: float
    operational_carbon_g: float
    energy_j: float


@dataclass
class PlacementSolution:
    """The outcome of placing one batch of applications."""

    problem: PlacementProblem
    #: app_id -> server index (only placed applications appear).
    placements: dict[str, int] = field(default_factory=dict)
    #: (S,) final power decision y_j (1 = on).
    power_on: np.ndarray = field(default_factory=lambda: np.array([]))
    #: Application ids that could not be placed (no feasible server).
    unplaced: list[str] = field(default_factory=list)
    #: Wall-clock seconds the policy spent producing this solution.
    solve_time_s: float = 0.0
    #: Name of the policy that produced the solution.
    policy_name: str = ""
    #: Optimality gap reported by the solver (0 when exact, NaN when unknown).
    solver_gap: float = float("nan")
    #: Canonical name of the solver backend that produced the solution
    #: (empty when the solution did not come through the backend registry).
    backend_name: str = ""
    #: Number of batched wave commits the reconciliation replay executed
    #: (:class:`repro.solver.compile.FillStats`). Execution diagnostics only:
    #: the value describes how the replay ran, not which placements it made.
    #: ``None`` when the backend does not run the greedy kernel.
    wave_count: int | None = None
    #: Fraction of replayed applications that took the exact per-application
    #: step instead of a batched wave commit (1.0 when the naive loop ran,
    #: near 0.0 when the wave replay settles almost everything). ``None``
    #: when the backend does not run the greedy kernel.
    revalidation_rate: float | None = None
    #: Best proven lower bound reported by the solver (the exact tier's
    #: certificate; NaN when the backend proves none). It bounds the
    #: tie-broken objective every backend minimises — ``DenseCosts.cost`` of
    #: the placements plus the activation of newly powered servers — not the
    #: raw objective, which can sit slightly below it.
    solver_bound: float = float("nan")
    #: Exact solver parameters of the run that produced this solution (time
    #: and node limits, status, node count) — recorded so every exact-tier
    #: artifact states how its incumbent was obtained. Empty for backends
    #: without tunable solver parameters.
    solver_params: dict = field(default_factory=dict)
    #: Number of malformed warm-start hints (departed applications, unknown
    #: server indices) the request sanitization dropped before solving.
    warm_hints_dropped: int = 0
    #: True when the construction phase hit the request's ``time_budget_s``
    #: deadline and returned early — the solution is valid but may leave
    #: placeable applications unplaced.
    construction_truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.power_on) == 0:
            self.power_on = self.problem.current_power.copy()
        self.power_on = np.asarray(self.power_on, dtype=float)
        if self.power_on.shape != (self.problem.n_servers,):
            raise ValueError("power_on must have one entry per server")

    # -- structure ---------------------------------------------------------------

    @property
    def n_placed(self) -> int:
        """Number of successfully placed applications."""
        return len(self.placements)

    @property
    def all_placed(self) -> bool:
        """Whether every application in the batch was placed."""
        return not self.unplaced and self.n_placed == self.problem.n_applications

    def server_of(self, app_id: str) -> str:
        """Server id hosting the given application."""
        if app_id not in self.placements:
            raise KeyError(f"application {app_id!r} was not placed")
        return self.problem.servers[self.placements[app_id]].server_id

    def assignments(self) -> list[Assignment]:
        """Per-application assignment records."""
        out: list[Assignment] = []
        _, c_arr, j_arr = self._placement_arrays()
        op_carbon = self._operational_carbon(c_arr, j_arr).tolist()
        for app_id, c, j, carbon in zip(self.placements, c_arr.tolist(),
                                        j_arr.tolist(), op_carbon):
            server = self.problem.servers[j]
            out.append(Assignment(
                app_id=app_id,
                server_id=server.server_id,
                site=server.site,
                zone_id=server.zone_id,
                one_way_latency_ms=float(self.problem.latency_ms[c, j]),
                operational_carbon_g=carbon,
                energy_j=float(self.problem.energy_j[c, j]),
            ))
        return out

    def apps_per_server(self) -> dict[str, int]:
        """Number of applications placed on each server (by server id)."""
        counts: dict[str, int] = {s.server_id: 0 for s in self.problem.servers}
        for j in self.placements.values():
            counts[self.problem.servers[j].server_id] += 1
        return counts

    def apps_per_site(self) -> dict[str, int]:
        """Number of applications placed at each site."""
        counts: dict[str, int] = {}
        for j in self.placements.values():
            site = self.problem.servers[j].site
            counts[site] = counts.get(site, 0) + 1
        return counts

    # -- metrics -------------------------------------------------------------------

    def _placement_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P,) application, class and server index arrays over the placed
        applications; the class tables are read at ``[class, server]``.

        Recomputed per call (the registry may extend ``placements`` after
        construction); each lookup is O(1) through the problem's index map.
        """
        if not self.placements:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty, empty
        i_arr = self.problem.app_indices(list(self.placements))
        j_arr = np.fromiter(self.placements.values(), dtype=np.intp,
                            count=len(self.placements))
        return i_arr, self.problem.row_class[i_arr], j_arr

    def _operational_carbon(self, c_arr: np.ndarray, j_arr: np.ndarray) -> np.ndarray:
        """(P,) operational emissions of the (class, server) pairs, grams: the
        carbon objective's coefficients, gathered pair by pair."""
        problem = self.problem
        return raw_values(ObjectiveKind.CARBON, problem.energy_j[c_arr, j_arr],
                          problem.latency_ms[c_arr, j_arr], problem.intensity[j_arr])

    def newly_activated(self) -> np.ndarray:
        """(S,) indicator of servers switched on by this placement (y_j - y^curr_j)."""
        return np.clip(self.power_on - self.problem.current_power, 0.0, 1.0)

    def operational_carbon_g(self) -> float:
        """Total operational emissions of the placed applications, grams."""
        return float(sum(self._operational_carbon(*self._placement_arrays()[1:]).tolist()))

    def activation_carbon_g(self) -> float:
        """Emissions from newly activated servers' base power, grams."""
        return float(np.dot(self.newly_activated(), self.problem.activation_carbon_g()))

    def total_carbon_g(self) -> float:
        """Equation 6: operational + activation emissions, grams."""
        return self.operational_carbon_g() + self.activation_carbon_g()

    def dynamic_energy_j(self) -> float:
        """Dynamic energy of the placed applications, joules."""
        _, c_arr, j_arr = self._placement_arrays()
        return float(sum(self.problem.energy_j[c_arr, j_arr].tolist()))

    def activation_energy_j(self) -> float:
        """Base-power energy of newly activated servers over the horizon, joules."""
        return float(np.dot(self.newly_activated(), self.problem.activation_energy_j()))

    def total_energy_j(self) -> float:
        """Dynamic + activation energy, joules."""
        return self.dynamic_energy_j() + self.activation_energy_j()

    def mean_latency_ms(self) -> float:
        """Mean one-way latency of the placed applications."""
        if not self.placements:
            return 0.0
        _, c_arr, j_arr = self._placement_arrays()
        return float(np.mean(self.problem.latency_ms[c_arr, j_arr]))

    def max_latency_ms(self) -> float:
        """Worst-case one-way latency of the placed applications."""
        if not self.placements:
            return 0.0
        _, c_arr, j_arr = self._placement_arrays()
        return float(np.max(self.problem.latency_ms[c_arr, j_arr]))

    def latency_increase_ms(self) -> float:
        """Mean one-way latency increase vs. each application's nearest feasible server.

        This is the "Increased Latency" metric the paper reports (relative to
        the Latency-aware baseline, which always picks the nearest feasible
        server). An application with no feasible server at all cannot be
        placed by the validated pipeline, so every placed application
        normally has a finite nearest-server latency; should one appear
        anyway, it is excluded from the mean (the same rule the CDN
        simulator's metrics loop applies) rather than contributing its raw
        latency.
        """
        if not self.placements:
            return 0.0
        problem = self.problem
        nearest = problem.nearest_feasible_ms()
        i_arr, c_arr, j_arr = self._placement_arrays()
        reachable = np.isfinite(nearest[i_arr])
        increases = (problem.latency_ms[c_arr, j_arr] - nearest[i_arr])[reachable]
        return float(np.mean(increases)) if increases.size else 0.0

    def summary(self) -> dict[str, float]:
        """Compact metric summary used by the experiment reports."""
        return {
            "placed": float(self.n_placed),
            "unplaced": float(len(self.unplaced)),
            "carbon_g": self.total_carbon_g(),
            "operational_carbon_g": self.operational_carbon_g(),
            "activation_carbon_g": self.activation_carbon_g(),
            "energy_j": self.total_energy_j(),
            "mean_latency_ms": self.mean_latency_ms(),
            "latency_increase_ms": self.latency_increase_ms(),
            "solve_time_s": self.solve_time_s,
        }
