"""Cluster-then-refine hierarchical placement: the planetary-scale solver tier.

The flat compiled path materialises dense ``n_apps × n_servers`` tensors —
fine at the paper's 496-site footprint, tens of GiB at the ROADMAP's
planetary regime (10k sites × 10^5 apps). This tier keeps per-stage tensors at
``O(n_apps × n_regions + max_region²)`` instead:

1. **Region plan** (:func:`build_region_plan`): deterministic geographic
   clustering of the fleet's sites — seeded k-means on site coordinates with a
   fixed iteration count and tie-stable (lowest-index) assignment updates, or
   a grid-hash fallback when there are fewer distinct coordinates than
   requested regions. The plan carries region centroids and a deterministic
   neighbour order (ascending centroid distance, ties by region index).
2. **Coarse pass**: one ``n_apps × n_regions`` aggregate problem — per-region
   optimistic assignment costs (minimum over the region's feasible servers),
   optimistic demands (per-key minimum) and aggregate capacity (sum) — solved
   by the existing dense greedy kernel (:func:`repro.solver.compile.
   greedy_fill`) with a zero activation channel, so the cold batched schedule
   applies.
3. **Refine pass**: each region's restricted sub-problem (the apps the coarse
   pass routed there × the region's servers) is compiled through
   :meth:`ScenarioCompilation.region_slice` and solved through the backend
   registry (``refine_backend``), reusing warm starts; regions are refined
   one after another in region-index order.
4. **Spill**: apps a region's refinement could not fit (coarse aggregate
   capacity is optimistic) are re-routed in deterministic global order to
   neighbouring regions (centroid-distance order; coarse-unrouted apps try
   regions by ascending coarse cost), so served demand never silently drops.

The hierarchy deliberately changes placements versus the flat solve — the
coarse/refine objective gap is *recorded* on :class:`HierarchicalResult`,
never hidden — but within a fixed ``(plan, config)`` the artifacts are
byte-stable across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.objective import ObjectiveKind, apply_tie_break
from repro.network.geo import pairwise_distances_km
from repro.solver.compile import DenseCosts, GreedyState, ScenarioCompilation, greedy_fill
from repro.solver.config import DEFAULT_SOLVER_CONFIG, SolverConfig
from repro.solver.registry import solve as registry_solve
from repro.utils.rng import substream
from repro.utils.units import joules_to_kwh
from repro.workloads.generator import ApplicationBatch

if TYPE_CHECKING:  # typing only
    from repro.workloads.application import Application

#: Fixed k-means iteration count: enough to settle CDN-scale footprints, and a
#: constant so the plan is a pure function of (coords, n_regions, seed).
KMEANS_ITERATIONS: int = 8


@dataclass(frozen=True)
class RegionPlan:
    """Deterministic geographic partition of a fleet's sites into regions.

    Attributes
    ----------
    n_regions:
        Number of regions (clusters) in the plan.
    site_names:
        Site names, aligned with ``site_region``.
    site_region:
        (n_sites,) region index of each site.
    centroids:
        (R, 2) [lat, lon] centroid of each region.
    neighbor_order:
        (R, R) region indices sorted by ascending centroid distance from each
        region (self first; ties resolve to the lower region index). The
        spill pass walks rows of this table.
    method:
        ``"kmeans"`` or ``"grid"`` (the fallback for degenerate coordinates).
    seed:
        Seed of the k-means initialisation stream.
    """

    n_regions: int
    site_names: tuple
    site_region: np.ndarray
    centroids: np.ndarray
    neighbor_order: np.ndarray
    method: str
    seed: int

    def region_of(self, site: str) -> int:
        """Region index of a site name."""
        try:
            return int(self.site_region[self.site_names.index(site)])
        except ValueError:
            raise KeyError(f"unknown site {site!r}") from None

    def region_sizes(self) -> np.ndarray:
        """(R,) number of sites per region."""
        return np.bincount(self.site_region, minlength=self.n_regions)


def build_region_plan(site_names: Sequence[str], coords: np.ndarray,
                      n_regions: int, seed: int = 0) -> RegionPlan:
    """Cluster sites into ``n_regions`` geographic regions, deterministically.

    Seeded k-means over the site coordinates: the initial centroids are drawn
    (without replacement, from a named substream of ``seed``) from the
    *distinct* coordinate rows in their lexicographic order, the assignment
    step breaks distance ties to the lowest region index (``argmin``), the
    update step keeps an empty region's previous centroid, and the iteration
    count is fixed — so the plan is a pure function of its inputs. When there
    are fewer distinct coordinates than regions, k-means cannot seed and the
    grid-hash fallback partitions the bounding box into cells hashed onto the
    requested region count instead.
    """
    site_names = tuple(site_names)
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n = len(site_names)
    if coords.shape != (n, 2):
        raise ValueError(f"coords must have shape ({n}, 2), got {coords.shape}")
    if n_regions < 1:
        raise ValueError(f"n_regions must be >= 1, got {n_regions}")
    n_regions = min(n_regions, n)
    distinct = np.unique(coords, axis=0)
    if len(distinct) >= n_regions:
        labels, centroids = _kmeans(coords, distinct, n_regions, seed)
        method = "kmeans"
    else:
        labels, centroids = _grid_hash(coords, n_regions)
        method = "grid"
    return RegionPlan(n_regions=n_regions, site_names=site_names,
                      site_region=labels, centroids=centroids,
                      neighbor_order=_neighbor_order(centroids),
                      method=method, seed=seed)


def _kmeans(coords: np.ndarray, distinct: np.ndarray, n_regions: int,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-iteration, tie-stable k-means (see :func:`build_region_plan`)."""
    rng = substream(seed, "hierarchy-regions", n_regions)
    pick = np.sort(rng.choice(len(distinct), size=n_regions, replace=False))
    centroids = distinct[pick].copy()
    labels = np.zeros(len(coords), dtype=int)
    for _ in range(KMEANS_ITERATIONS):
        # argmin resolves equidistant sites to the lowest region index.
        labels = np.argmin(pairwise_distances_km(coords, centroids), axis=1)
        for r in range(n_regions):
            members = labels == r
            if members.any():
                centroids[r] = coords[members].mean(axis=0)
    labels = np.argmin(pairwise_distances_km(coords, centroids), axis=1)
    return labels.astype(int), centroids


def _grid_hash(coords: np.ndarray, n_regions: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounding-box grid cells hashed onto ``n_regions`` (degenerate fallback)."""
    g = int(np.ceil(np.sqrt(n_regions)))
    lo = coords.min(axis=0)
    span = np.maximum(coords.max(axis=0) - lo, 1e-12)
    cell = np.clip(((coords - lo) / span * g).astype(int), 0, g - 1)
    labels = (cell[:, 0] * g + cell[:, 1]) % n_regions
    centroids = np.zeros((n_regions, 2))
    overall = coords.mean(axis=0)
    for r in range(n_regions):
        members = labels == r
        centroids[r] = coords[members].mean(axis=0) if members.any() else overall
    return labels.astype(int), centroids


def _neighbor_order(centroids: np.ndarray) -> np.ndarray:
    """(R, R) ascending-centroid-distance neighbour table (stable index ties)."""
    dist = pairwise_distances_km(centroids, centroids)
    return np.argsort(dist, axis=1, kind="stable").astype(int)


def region_server_columns(plan: RegionPlan,
                          servers: Sequence) -> list[np.ndarray]:
    """Global server-column arrays per region (fleet order within a region)."""
    region_of = {name: int(r) for name, r in zip(plan.site_names, plan.site_region)}
    cols: list[list[int]] = [[] for _ in range(plan.n_regions)]
    for j, srv in enumerate(servers):
        try:
            cols[region_of[srv.site]].append(j)
        except KeyError:
            raise KeyError(
                f"server {srv.server_id!r} at site {srv.site!r} is not covered "
                f"by the region plan") from None
    return [np.asarray(c, dtype=np.intp) for c in cols]


@dataclass
class HierarchicalResult:
    """Outcome of one hierarchical solve.

    ``coarse_objective`` and ``refined_objective`` are in the same raw
    objective units (grams for carbon, joules for energy, ms for latency,
    normalised blend units for multi), so their difference is the recorded
    coarse/refine gap: the coarse value is the optimistic aggregate bound,
    the refined value what the per-region solves actually achieved.
    """

    #: (A,) global server index per application, -1 when unplaced.
    assignment: np.ndarray
    #: Optimistic objective of the coarse apps×regions pass.
    coarse_objective: float
    #: Raw objective of the final (refined + spilled) placements.
    refined_objective: float
    #: Applications the coarse pass could not route to any region.
    n_coarse_unrouted: int
    #: Applications placed by the spill pass (refinement could not fit them).
    n_spilled: int
    #: Applications left unplaced after refinement and spill.
    n_unplaced: int
    #: Apps routed to each *effective* (server-bearing) region by the coarse pass.
    region_app_counts: tuple
    #: Servers per effective region.
    region_server_counts: tuple
    #: The plan the solve ran against.
    plan: RegionPlan

    @property
    def n_placed(self) -> int:
        return int((self.assignment >= 0).sum())

    @property
    def objective_gap(self) -> float:
        """Refined minus coarse objective (>= 0 when coarse was optimistic)."""
        return self.refined_objective - self.coarse_objective


def _region_reduce(row: np.ndarray, feas: np.ndarray, perm: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Per-region minimum of ``row`` over feasible servers (+inf when none)."""
    return np.minimum.reduceat(np.where(feas, row, np.inf)[perm], starts)


def _refine_region(compilation: ScenarioCompilation, cols: np.ndarray,
                   apps: list, *, hour: int,
                   horizon_hours: float, use_forecast: bool,
                   objective: ObjectiveKind, alpha: float, manage_power: bool,
                   refine_backend: str, seed: int, config: SolverConfig,
                   warm_start: dict | None):
    """Solve one region's restricted sub-problem through the backend registry.

    Returns ``(local_assignment, remaining_capacities)`` — the remaining
    per-server capacities feed the spill pass.
    """
    sub = compilation.region_slice(cols)
    problem = sub.build_problem(apps, hour=hour, horizon_hours=horizon_hours,
                                use_forecast=use_forecast)
    local_warm = None
    if warm_start:
        global_to_local = {int(c): l for l, c in enumerate(cols)}
        local_warm = {app.app_id: global_to_local[warm_start[app.app_id]]
                      for app in apps
                      if app.app_id in warm_start
                      and int(warm_start[app.app_id]) in global_to_local}
        local_warm = local_warm or None
    solution = registry_solve(problem, backend=refine_backend,
                              objective=objective, alpha=alpha,
                              manage_power=manage_power, seed=seed,
                              warm_start=local_warm, config=config)
    local = np.full(len(apps), -1, dtype=int)
    remaining = [cap for cap in problem.capacities]
    for app_id, j in solution.placements.items():
        i = problem.app_index(app_id)
        local[i] = int(j)
        remaining[j] = remaining[j] - problem.demands[i][j]
    return local, remaining


def solve_hierarchical(
    compilation: ScenarioCompilation,
    applications: "Sequence[Application] | ApplicationBatch",
    plan: RegionPlan,
    *,
    hour: int = 0,
    horizon_hours: float = 1.0,
    use_forecast: bool = True,
    objective: ObjectiveKind = ObjectiveKind.CARBON,
    alpha: float = 0.0,
    manage_power: bool = True,
    config: SolverConfig = DEFAULT_SOLVER_CONFIG,
    seed: int = 0,
    warm_start: dict | None = None,
) -> HierarchicalResult:
    """Cluster-then-refine placement of one batch over a compiled scenario.

    The fleet never materialises an ``n_apps × n_servers`` tensor: the coarse
    pass works on per-class ``(S,)`` rows reduced to ``(R,)`` aggregates, and
    each refinement solves against a :meth:`ScenarioCompilation.region_slice`
    view bounded by its region. See the module docstring for the four stages
    and the determinism contract.
    """
    # Columnar batches stay columnar: the coarse pass below works entirely on
    # class rows and index arrays, so per-app Application objects are only
    # materialised (per region / per spilled app) where the refinement and
    # spill passes genuinely consume them.
    batch = applications if isinstance(applications, ApplicationBatch) else None
    if batch is None:
        applications = list(applications)
    n_apps = len(batch) if batch is not None else len(applications)
    if n_apps == 0:
        raise ValueError("cannot solve an empty application batch")
    servers = compilation.servers

    # -- epoch delta: class rows, epoch-mean intensities, capacities ------------
    delta = compilation.epoch_delta(batch if batch is not None else applications,
                                    hour, horizon_hours, use_forecast)
    intensity = delta.intensity
    class_idx = delta.class_indices
    uniq, inverse = np.unique(class_idx, return_inverse=True)

    # -- effective regions (server-bearing) -------------------------------------
    all_cols = region_server_columns(plan, servers)
    eff_regions = [r for r in range(plan.n_regions) if len(all_cols[r])]
    if not eff_regions:
        raise ValueError("region plan covers no servers")
    cols = [all_cols[r] for r in eff_regions]
    coarse_of_plan = {r: k for k, r in enumerate(eff_regions)}
    n_eff = len(cols)
    perm = np.concatenate(cols)
    starts = np.cumsum([0] + [len(c) for c in cols])[:-1]

    # -- per-class raw assignment rows (objective coefficients over servers) ----
    keys = compilation._epoch_keys([compilation._class_keys[k] for k in uniq])
    horizon = float(horizon_hours)
    act_carbon = compilation.base_power_w * horizon / 1000.0 * intensity
    act_energy = compilation.base_power_w * horizon * 3600.0

    def energy_row(k: int) -> np.ndarray:
        _, workload, rate, _ = compilation._class_keys[k]
        return compilation._energy_row(workload, rate, horizon)

    norm: dict[str, tuple[float, float]] = {}
    if objective is ObjectiveKind.MULTI:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        # Mirror the flat _minmax_normalize pools: feasible assignment entries
        # (class rows replicate per app, which leaves min/max unchanged) plus
        # every activation coefficient.
        pools = {"carbon": [act_carbon], "energy": [act_energy]}
        any_feas = False
        for k in uniq:
            feas = compilation._feas_rows[k]
            e_row = energy_row(k)
            c_row = joules_to_kwh(e_row) * intensity
            if feas.any():
                any_feas = True
                pools["carbon"].append(c_row[feas])
                pools["energy"].append(e_row[feas])
            else:
                pools["carbon"].append(c_row)
                pools["energy"].append(e_row)
        del any_feas
        for name, parts in pools.items():
            pool = np.concatenate([np.ravel(p) for p in parts])
            lo, hi = float(pool.min()), float(pool.max())
            norm[name] = (lo, hi - lo)

    def assign_row(k: int) -> np.ndarray:
        """Raw (S,) assignment coefficient row of one class for the objective."""
        if objective is ObjectiveKind.LATENCY:
            return compilation._lat_rows[k]
        if objective is ObjectiveKind.INTENSITY:
            return intensity
        e_row = energy_row(k)
        if objective is ObjectiveKind.ENERGY:
            return e_row
        c_row = joules_to_kwh(e_row) * intensity
        if objective is ObjectiveKind.CARBON:
            return c_row
        (c_lo, c_span), (e_lo, e_span) = norm["carbon"], norm["energy"]
        c_hat = (c_row - c_lo) / c_span if c_span > 0 else np.zeros_like(c_row)
        e_hat = (e_row - e_lo) / e_span if e_span > 0 else np.zeros_like(e_row)
        return alpha * e_hat + (1.0 - alpha) * c_hat

    def tie_row(k: int) -> np.ndarray:
        if objective is ObjectiveKind.LATENCY:
            return joules_to_kwh(energy_row(k)) * intensity
        return compilation._lat_rows[k]

    # -- coarse aggregate tensors, one class at a time (never (C, S) at once) ---
    n_classes = len(uniq)
    class_cost = np.empty((n_classes, n_eff))
    class_tie = np.empty((n_classes, n_eff))
    class_energy = np.empty((n_classes, n_eff))
    class_mask = np.empty((n_classes, n_eff), dtype=bool)
    class_demand = np.empty((n_classes, n_eff, len(keys)))
    for c, k in enumerate(uniq):
        feas = compilation._feas_rows[k]
        feas_any = np.bitwise_or.reduceat(feas[perm], starts)
        class_mask[c] = feas_any
        class_cost[c] = _region_reduce(assign_row(k), feas, perm, starts)
        class_tie[c] = np.where(feas_any, _region_reduce(tie_row(k), feas, perm, starts), 0.0)
        class_energy[c] = np.where(
            feas_any, _region_reduce(energy_row(k), feas, perm, starts), 0.0)
        _, workload, rate, _ = compilation._class_keys[k]
        dem = compilation._dense_row(workload, rate, keys)
        region_dem = np.minimum.reduceat(
            np.where(feas[:, None], dem, np.inf)[perm], starts, axis=0)
        class_demand[c] = np.where(feas_any[:, None], region_dem, 0.0)
    class_cost[~class_mask] = 0.0  # masked out below; keep the tensor finite

    if delta.baseline_capacity:
        cap_dense = compilation._capacity_dense(keys)
    else:
        cap_dense = compilation._capacity_dense(keys, list(delta.capacities))
    cap_region = np.add.reduceat(cap_dense[perm], starts, axis=0)

    # -- the coarse apps×regions greedy pass ------------------------------------
    raw_cost = class_cost[inverse]
    mask = class_mask[inverse]
    cost = np.where(mask, apply_tie_break(raw_cost, mask, class_tie[inverse]), np.inf)
    dense = DenseCosts(keys=list(keys), demand=class_demand[inverse],
                       capacity=cap_region, mask=mask, cost=cost,
                       raw_assign=raw_cost, activation=np.zeros(n_eff),
                       initially_on=np.ones(n_eff, dtype=bool))
    state = GreedyState(dense)
    greedy_fill(state, class_energy[inverse])
    routed = state.assignment
    placed_coarse = routed >= 0
    coarse_objective = float(raw_cost[np.flatnonzero(placed_coarse),
                                      routed[placed_coarse]].sum())
    n_coarse_unrouted = int((~placed_coarse).sum())

    # -- per-region refinement through the backend registry ---------------------
    region_config = replace(config, hierarchy_regions=1)
    region_app_counts = [0] * n_eff
    assignment = np.full(n_apps, -1, dtype=int)
    remaining: dict[int, list] = {}
    for r in range(n_eff):
        idx_r = np.flatnonzero(routed == r)
        region_app_counts[r] = len(idx_r)
        if not len(idx_r):
            continue
        apps_r = batch.subset(idx_r) if batch is not None \
            else [applications[i] for i in idx_r]
        local, remaining[r] = _refine_region(
            compilation, cols[r], apps_r,
            hour=hour, horizon_hours=horizon_hours, use_forecast=use_forecast,
            objective=objective, alpha=alpha, manage_power=manage_power,
            refine_backend=config.refine_backend, seed=seed,
            config=region_config, warm_start=warm_start)
        placed = local >= 0
        assignment[idx_r[placed]] = cols[r][local[placed]]

    # -- spill: deterministic re-routing of everything still unplaced -----------
    n_spilled = 0
    for i in np.flatnonzero(assignment < 0):
        app = batch.application(int(i)) if batch is not None else applications[i]
        home = int(routed[i]) if routed[i] >= 0 else None
        if home is not None:
            order = [coarse_of_plan[int(p)]
                     for p in plan.neighbor_order[eff_regions[home]]
                     if int(p) in coarse_of_plan and coarse_of_plan[int(p)] != home]
        else:
            finite = np.where(mask[i], raw_cost[i], np.inf)
            order = [int(r) for r in np.argsort(finite, kind="stable")
                     if np.isfinite(finite[r])]
        for r in order:
            if not mask[i, r]:
                continue
            if _spill_into(compilation, cols[r], app, intensity, horizon,
                           objective, remaining, r, assignment, i):
                n_spilled += 1
                break

    # -- raw objective of the final placements ----------------------------------
    refined_objective = 0.0
    placed_final = assignment >= 0
    for c, k in enumerate(uniq):
        members = np.flatnonzero((inverse == c) & placed_final)
        if len(members):
            refined_objective += float(assign_row(k)[assignment[members]].sum())

    return HierarchicalResult(
        assignment=assignment,
        coarse_objective=coarse_objective,
        refined_objective=refined_objective,
        n_coarse_unrouted=n_coarse_unrouted,
        n_spilled=n_spilled,
        n_unplaced=int((~placed_final).sum()),
        region_app_counts=tuple(region_app_counts),
        region_server_counts=tuple(len(c) for c in cols),
        plan=plan,
    )


def _spill_into(compilation: ScenarioCompilation, region_cols: np.ndarray,
                app, intensity: np.ndarray, horizon: float,
                objective: ObjectiveKind, remaining: dict,
                r: int, assignment: np.ndarray, i: int) -> bool:
    """Try to place one spilled app in one region; True when committed.

    Feasibility is the region slice's SLO + support row; capacity is checked
    against the region's live remaining capacities (seeded by the refinement
    results). The candidate server is the minimum raw-objective-coefficient
    feasible fit, ties to the lowest server index.
    """
    sub = compilation.region_slice(region_cols)
    k = sub._class_of(app)
    feas = sub._feas_rows[k]
    if not feas.any():
        return False
    rem = remaining.get(r)
    if rem is None:
        rem = list(sub._baseline())
        remaining[r] = rem
    block = sub._block(app.workload, app.request_rate_rps)
    fits = np.fromiter(
        (feas[j] and block.demand_row[j].fits_within(rem[j])
         for j in range(len(region_cols))), dtype=bool, count=len(region_cols))
    if not fits.any():
        return False
    row = _spill_cost_row(sub, app, intensity[region_cols], horizon, objective)
    cost = np.where(fits, row, np.inf)
    j = int(np.argmin(cost))
    if not np.isfinite(cost[j]):
        return False
    assignment[i] = int(region_cols[j])
    rem[j] = rem[j] - block.demand_row[j]
    return True


def _spill_cost_row(sub: ScenarioCompilation, app, intensity_r: np.ndarray,
                    horizon: float, objective: ObjectiveKind) -> np.ndarray:
    """Raw per-server objective row of one app over a region slice.

    The multi objective spills by its carbon component — spill is a capacity
    escape hatch, and re-deriving the global min-max normalisation per
    candidate region would couple regions for no placement benefit.
    """
    k = sub._class_of(app)
    if objective is ObjectiveKind.LATENCY:
        return sub._lat_rows[k]
    if objective is ObjectiveKind.INTENSITY:
        return intensity_r
    e_row = sub._energy_row(app.workload, app.request_rate_rps, horizon)
    if objective is ObjectiveKind.ENERGY:
        return e_row
    return joules_to_kwh(e_row) * intensity_r
