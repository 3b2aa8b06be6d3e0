"""The carbon-aware placement problem instance.

A :class:`PlacementProblem` bundles everything Table 2 of the paper lists as
inputs: the applications to place, the candidate servers with their available
capacities C^k_j, base powers B_j and current power states y^curr_j, the
per-pair latencies L_ij, the per-pair resource demands R^k_ij and energies
E_ij, and the (forecast-averaged) carbon intensities Ī_j. Every quantity is a
dense NumPy array with one row per application class: latency, energy and
support are (C, S) tables read through the (A,) ``row_class``, and demand is
one (B, S, K) table of (workload, rate) block rows read through the (C,)
``class_block``: application ``i`` reads ``demand[class_block[row_class[i]]]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.carbon.service import CarbonIntensityService
from repro.cluster.server import EdgeServer
from repro.core.filters import within_slo
from repro.core.objective import activation_rows
from repro.network.latency import LatencyMatrix
from repro.workloads.application import Application
from repro.workloads.generator import ApplicationBatch, LazyApplications
from repro.workloads.profiles import get_profile

if TYPE_CHECKING:  # typing only: a problem holds resources as dense tables
    from repro.cluster.resources import ResourceVector

#: Large latency assigned to (application, server) pairs with no usable profile.
INFEASIBLE_LATENCY_MS: float = 1e9

#: Default budget on flat ``n_applications × n_servers`` dense cells. A flat
#: build's tables hold one row per class, but the ``highs`` pair enumeration
#: (``mask[row_class]``) and the greedy kernel's per-application order still
#: scale with that product.
#: Beyond it the flat path is refused and the hierarchical tier is the
#: supported route. Override with ``CARBON_EDGE_MAX_DENSE_CELLS``.
DEFAULT_MAX_DENSE_CELLS: int = 150_000_000


def max_dense_cells() -> int:
    """Configured budget on flat dense cells (``CARBON_EDGE_MAX_DENSE_CELLS``).

    Raises ``ValueError`` naming the variable when it is set to anything but
    a positive integer.
    """
    raw = os.environ.get("CARBON_EDGE_MAX_DENSE_CELLS", "").strip()
    if not raw:
        return DEFAULT_MAX_DENSE_CELLS
    if not raw.isdecimal() or int(raw) <= 0:
        raise ValueError(
            f"CARBON_EDGE_MAX_DENSE_CELLS must be a positive integer, got {raw!r}")
    return int(raw)


#: What a refused flat build should do instead: the hierarchical solver tier,
#: whose pair arrays are bounded by the largest region, or a larger budget.
_FLAT_BUILD_REMEDY: str = (
    "Use the hierarchical solver tier instead — "
    "repro.solver.hierarchy.solve_hierarchical over an N-region plan, "
    "as planetary_sweep runs it for each of its hierarchy_regions "
    "values (carbon-edge experiments run planetary_sweep "
    "--hierarchy-regions N) — or raise CARBON_EDGE_MAX_DENSE_CELLS if "
    "the machine really has the memory for per-pair arrays at this scale.")


def ensure_dense_cell_budget(n_applications: int, n_servers: int,
                             context: str = "flat placement build",
                             remedy: str = _FLAT_BUILD_REMEDY) -> None:
    """Refuse dense-tensor builds past the configured cell budget.

    The refusal names ``context`` and the caller's ``remedy``; the default
    is the flat build's escape hatches: the hierarchical solver tier
    (:func:`repro.solver.hierarchy.solve_hierarchical` over a region plan,
    as ``planetary_sweep`` runs it for each of its ``hierarchy_regions``
    values) or a larger ``CARBON_EDGE_MAX_DENSE_CELLS`` budget on a machine
    with the memory to match.
    """
    budget = max_dense_cells()
    cells = int(n_applications) * int(n_servers)
    if cells > budget:
        raise ValueError(
            f"{context}: {n_applications} applications x {n_servers} servers = "
            f"{cells} dense cells exceeds the CARBON_EDGE_MAX_DENSE_CELLS budget "
            f"of {budget}. {remedy}")


def _resolve_profile(workload: str, accelerator_name: str | None, cpu_name: str):
    """Profile for a workload on a device class (accelerator first, CPU fallback)."""
    for device in ([accelerator_name] if accelerator_name else []) + [cpu_name]:
        try:
            return get_profile(workload, device)
        except KeyError:
            continue
    return None


def _demand_for(rate: float, profile) -> ResourceVector:
    """Demand of one application at a request rate: the profile's demand times
    the replicas the rate needs."""
    replicas = max(1, int(-(-rate // profile.max_request_rate())))
    return profile.resource_demand * float(replicas)


@dataclass
class PlacementProblem:
    """One batch-placement instance.

    Use :meth:`build` to construct instances from library objects; the raw
    constructor expects pre-computed arrays (mostly useful in tests).
    """

    applications: list[Application]
    servers: list[EdgeServer]
    #: (C, S) one-way latency between each class's source and each server.
    latency_ms: np.ndarray
    #: (C, S) dynamic energy E_ij in joules over the placement horizon.
    energy_j: np.ndarray
    #: (S,) forecast-average carbon intensity Ī_j, g CO2eq/kWh.
    intensity: np.ndarray
    #: The K resource dimensions (sorted names) of ``capacity`` and ``demand``.
    resource_keys: tuple[str, ...]
    #: (S, K) available capacity C^k_j per server.
    capacity: np.ndarray
    #: (B, S, K) resource demands R^k_ij of each block, zero outside ``supported``.
    demand: np.ndarray
    #: (S,) base power B_j in watts.
    base_power_w: np.ndarray = field(default_factory=lambda: np.array([]))
    #: (S,) current power state y^curr_j (1 = on).
    current_power: np.ndarray = field(default_factory=lambda: np.array([]))
    #: Placement horizon in hours (used for activation energy).
    horizon_hours: float = 1.0
    #: (C, S) support mask: True where the workload has a profile on the server.
    supported: np.ndarray | None = None
    #: (A,) each application's class row; one class per application by default.
    row_class: np.ndarray | None = None
    #: (C,) each class's block row in ``demand``; one block per class by default.
    class_block: np.ndarray | None = None
    # -- lazily built caches (the problem is immutable once constructed) --------
    _app_ids: tuple[str, ...] | None = field(default=None, init=False,
                                             repr=False, compare=False)
    _app_index_map: dict[str, int] | None = field(default=None, init=False,
                                                  repr=False, compare=False)
    _server_index_map: dict[str, int] | None = field(default=None, init=False,
                                                     repr=False, compare=False)
    _feasible_mask: np.ndarray | None = field(default=None, init=False,
                                              repr=False, compare=False)
    _nearest_feasible: np.ndarray | None = field(default=None, init=False,
                                                 repr=False, compare=False)
    #: Per-problem :class:`repro.solver.compile.EpochCompilation` memo.
    _compilation: object | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self) -> None:
        a, s = len(self.applications), len(self.servers)
        self.latency_ms = np.asarray(self.latency_ms, dtype=float)
        self.energy_j = np.asarray(self.energy_j, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        self.resource_keys = tuple(self.resource_keys)
        self.capacity = np.asarray(self.capacity, dtype=float)
        self.demand = np.asarray(self.demand, dtype=float)
        self.base_power_w = np.asarray(self.base_power_w, dtype=float)
        self.current_power = np.asarray(self.current_power, dtype=float)
        self.row_class = np.arange(a) if self.row_class is None \
            else np.asarray(self.row_class, dtype=np.intp)
        self.class_block = np.arange(len(self.latency_ms)) if self.class_block is None \
            else np.asarray(self.class_block, dtype=np.intp)
        c, n_blocks, k = len(self.class_block), len(self.demand), len(self.resource_keys)
        self.supported = np.ones((c, s), dtype=bool) if self.supported is None \
            else np.asarray(self.supported, dtype=bool)
        expected = {"latency_ms": (c, s), "energy_j": (c, s), "supported": (c, s),
                    "intensity": (s,), "base_power_w": (s,), "current_power": (s,),
                    "capacity": (s, k), "demand": (n_blocks, s, k),
                    "row_class": (a,), "class_block": (c,)}
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        for name, rows in (("row_class", c), ("class_block", n_blocks)):
            if np.any((getattr(self, name) < 0) | (getattr(self, name) >= rows)):
                raise ValueError(f"{name} entries must lie in [0, {rows})")
        if self.horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        if np.any(self.intensity < 0):
            raise ValueError("carbon intensities must be non-negative")

    # -- sizes ------------------------------------------------------------------

    @property
    def n_applications(self) -> int:
        """Number of applications in the batch."""
        return len(self.applications)

    @property
    def n_servers(self) -> int:
        """Number of candidate servers."""
        return len(self.servers)

    # -- derived matrices ---------------------------------------------------------

    def feasible_mask(self) -> np.ndarray:
        """(C, S) mask of class rows satisfying the latency constraint and profile support.

        The latency constraint compares the *round-trip* network latency
        (2 × one-way) against the SLO of each class's first application (none:
        an empty row), matching the paper's use of round-trip limits in the
        evaluation. The mask is computed once and cached (problems are
        immutable once built); callers that want to edit it must copy first.
        """
        if self._feasible_mask is None:
            slos = np.full(len(self.class_block), np.nan)
            present, first = np.unique(self.row_class, return_index=True)
            slos[present] = [self.applications[i].latency_slo_ms for i in first.tolist()]
            self._feasible_mask = within_slo(self.latency_ms, slos[:, None]) & self.supported
        return self._feasible_mask

    def nearest_feasible_ms(self) -> np.ndarray:
        """(A,) one-way latency to each application's nearest feasible server.

        Feasibility is the latency-SLO + support mask (not the capacity
        filter), matching the Latency-aware baseline's candidate set — this
        is the baseline of the paper's "increased latency" metric.
        Applications with no feasible server get ``+inf``; consumers must
        count those out explicitly rather than folding them into means.
        Computed once and cached.
        """
        if self._nearest_feasible is None:
            self._nearest_feasible = np.where(self.feasible_mask(), self.latency_ms,
                                              np.inf).min(axis=1)[self.row_class]
        return self._nearest_feasible

    def activation_carbon_g(self) -> np.ndarray:
        """(S,) emissions of newly activating each server: B_j × horizon × Ī_j, grams."""
        return activation_rows(self.base_power_w, self.horizon_hours, self.intensity)[0]

    def activation_energy_j(self) -> np.ndarray:
        """(S,) energy of keeping each server on for the horizon, joules."""
        return activation_rows(self.base_power_w, self.horizon_hours, self.intensity)[1]

    def app_ids(self) -> tuple[str, ...]:
        """Application ids in row order, computed once.

        A problem assembled from a columnar batch reads the batch's id tuple,
        so no per-app ``Application`` object is built for it.
        """
        if self._app_ids is None:
            apps = self.applications
            if isinstance(apps, LazyApplications):
                self._app_ids = apps.batch.app_ids()
            else:
                self._app_ids = tuple(app.app_id for app in apps)
        return self._app_ids

    def _index_map(self) -> dict[str, int]:
        """Application id -> row index (lazily built, cached)."""
        if self._app_index_map is None:
            self._app_index_map = {app_id: i for i, app_id in enumerate(self.app_ids())}
        return self._app_index_map

    def app_index(self, app_id: str) -> int:
        """Index of an application by id (O(1) via a lazily built map)."""
        try:
            return self._index_map()[app_id]
        except KeyError:
            raise KeyError(f"unknown application {app_id!r}") from None

    def app_indices(self, app_ids: Sequence[str]) -> np.ndarray:
        """(len(app_ids),) int array of application indices (vectorised lookup)."""
        index = self._index_map()
        try:
            return np.fromiter((index[a] for a in app_ids), dtype=np.intp,
                               count=len(app_ids))
        except KeyError as exc:
            raise KeyError(f"unknown application {exc.args[0]!r}") from None

    def server_index(self, server_id: str) -> int:
        """Index of a server by id (O(1) via a lazily built map)."""
        if self._server_index_map is None:
            self._server_index_map = {s.server_id: j for j, s in enumerate(self.servers)}
        try:
            return self._server_index_map[server_id]
        except KeyError:
            raise KeyError(f"unknown server {server_id!r}") from None

    # -- construction ---------------------------------------------------------------

    @classmethod
    def build(
        cls,
        applications: "Sequence[Application] | ApplicationBatch",
        servers: Sequence[EdgeServer],
        latency: LatencyMatrix,
        carbon: CarbonIntensityService,
        hour: int = 0,
        horizon_hours: float = 1.0,
        use_forecast: bool = True,
    ) -> "PlacementProblem":
        """Assemble a problem from library objects.

        The problem is gathered from the scenario-lifetime compilation of
        ``(servers, latency, carbon)``
        (:func:`repro.solver.compile.compile_scenario`, memoised on those
        objects), so it comes back with its row classes recorded and its
        epoch compilation seeded.

        Parameters
        ----------
        applications:
            Batch of applications to place: a sequence of ``Application``
            objects (kept by identity, so ``problem.applications[i] is
            applications[i]``) or a columnar ``ApplicationBatch``.
        servers:
            Candidate servers (their available capacity and power state are read
            at call time).
        latency:
            One-way latency matrix over sites; application source sites and
            server sites must both be present.
        carbon:
            Carbon-intensity service providing Ī_j (forecast mean over the
            horizon) or the instantaneous intensity.
        hour:
            Hour-of-year at which the placement happens.
        horizon_hours:
            Placement horizon (applications are assumed to run this long).
        use_forecast:
            Use the forecast mean (paper behaviour) instead of the
            instantaneous intensity; the ablation benchmark flips this.
        """
        # Imported here: repro.solver.compile imports this module.
        from repro.solver.compile import compile_scenario

        return compile_scenario(servers, latency, carbon).build_problem(
            applications, hour=hour, horizon_hours=horizon_hours,
            use_forecast=use_forecast)
