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
   applies. The aggregates are class quantities: they are reduced for a
   block of application classes at a time, and the kernel reads them as
   its class rows.
3. **Refine pass**: each region's restricted sub-problem (the apps the coarse
   pass routed there × the region's servers) is solved by the greedy kernel
   on class tables cut from the rows this function already holds: the
   scenario tier's latency and feasibility rows of the region's classes and
   the epoch's per-block energy and demand rows, restricted to the region's
   server columns and fitted against the epoch's capacity table, then
   priced by :func:`repro.solver.compile.class_costs`, the builder the flat
   epoch's dense views use. These are the tables the ``greedy`` backend
   would build for the region's own problem, bit for bit; no per-region
   problem, sub-batch or solution is assembled. Regions are refined one
   after another in region-index order.
4. **Spill**: apps a region's refinement could not fit (coarse aggregate
   capacity is optimistic) are re-routed in deterministic global order to
   neighbouring regions (centroid-distance order; coarse-unrouted apps try
   regions by ascending coarse cost), so served demand never silently drops.
   A spilled app is read by its scenario class and block, so the tier never
   builds an ``Application`` object.

The hierarchy deliberately changes placements versus the flat solve — the
coarse/refine objective gap is *recorded* on :class:`HierarchicalResult`,
never hidden — but within a fixed ``(plan, config)`` the artifacts are
byte-stable across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.filters import capacity_fits
from repro.core.objective import (
    ObjectiveKind,
    activation_rows,
    apply_tie_break,
    minmax_pools,
    raw_values,
    tie_values,
)
from repro.core.problem import ensure_dense_cell_budget
from repro.network.geo import pairwise_distances_km
from repro.solver.compile import (
    DenseCosts,
    GreedyState,
    ScenarioCompilation,
    class_costs,
    greedy_fill,
)
from repro.solver.config import DEFAULT_SOLVER_CONFIG, SolverConfig
from repro.utils.rng import substream

if TYPE_CHECKING:  # typing only
    from repro.workloads.application import Application
    from repro.workloads.generator import ApplicationBatch

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


#: Cells (classes x servers) the coarse pass gathers and reduces at once, the
#: way :data:`repro.network.geo.CHUNK_ROWS` bounds a distance block: a block
#: holds ``COARSE_BLOCK_CELLS // n_servers`` classes (at least one).
COARSE_BLOCK_CELLS: int = 1 << 18


#: What a region refused by the dense-cell budget should do instead: it is
#: already inside the hierarchical tier, so a finer plan or a larger budget.
_REGION_REMEDY: str = (
    "Use a region plan with more regions (build_region_plan(..., n_regions), "
    "or carbon-edge experiments run planetary_sweep --hierarchy-regions N), "
    "so no region's routed applications x servers cross the budget, or raise "
    "CARBON_EDGE_MAX_DENSE_CELLS if the machine has the memory for it.")


def _remaining_capacities(capacity: np.ndarray, local: np.ndarray,
                          demand: np.ndarray, app_block: np.ndarray) -> np.ndarray:
    """(S_r, K) capacities a region's refinement left, seeding the spill
    pass. ``capacity`` is the region's rows of the epoch's capacity table
    (updated in place), ``local`` each region app's server column (-1 when
    unplaced), ``demand`` the epoch's (blocks, S_r, K) table over the
    region's columns and ``app_block`` each region app's row in it. Every
    server sees its placements in ascending app order, clamped at zero as
    ``ResourceVector.__sub__`` does, one placement depth at a time."""
    apps = np.flatnonzero(local >= 0)
    servers = local[apps]
    order = np.argsort(servers, kind="stable")
    servers, rows = servers[order], demand[app_block[apps[order]], servers[order]]
    depth = np.arange(len(servers)) - np.searchsorted(servers, servers)
    for level in range(int(depth.max(initial=-1)) + 1):
        at = depth == level
        capacity[servers[at]] = np.maximum(capacity[servers[at]] - rows[at], 0.0)
    return capacity


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
) -> HierarchicalResult:
    """Cluster-then-refine placement of one batch over a compiled scenario.

    The fleet never materialises an ``n_apps × n_servers`` tensor: the coarse
    pass reduces blocks of class rows (at most :data:`COARSE_BLOCK_CELLS`
    cells each) to ``(R,)`` aggregates per class, and each region is refined
    by the greedy kernel on (region classes × region servers) tables
    (:func:`repro.solver.compile.class_costs`), each region held to the
    dense-cell budget as its own problem would be (routed apps × its
    servers). The regions come from ``plan``. Greedy
    refinement is the one route, so ``config`` (validated on construction)
    and ``seed`` change nothing. See the module docstring for the four
    stages and the determinism contract.
    """
    if len(applications) == 0:
        raise ValueError("cannot solve an empty application batch")
    servers = compilation.servers

    # -- epoch delta: class tables, epoch-mean intensities, capacities ----------
    # The delta carries the arrivals as a columnar batch (a list is wrapped
    # once, keeping its objects) and the epoch's class tables: ``uniq`` are
    # the batch's scenario classes, ``inverse`` each app's position among
    # them and ``class_block`` each class's row of the (workload, rate)
    # blocks' energy and demand tables. Every pass below works on class rows
    # and index arrays, so no Application object is built.
    delta = compilation.epoch_delta(applications, hour, horizon_hours, use_forecast)
    intensity = delta.intensity
    class_idx = delta.class_indices
    n_apps = len(class_idx)
    uniq, inverse, class_block = delta.classes, delta.app_class, delta.class_block
    keys, energy, demand, cap_dense = delta.keys, delta.energy, delta.demand, delta.capacity

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

    # -- activation rows and the fleet-wide multi-objective pool ---------------
    act_carbon, act_energy = activation_rows(compilation.base_power_w,
                                             delta.horizon_hours, intensity)
    n_classes = len(uniq)
    step = max(1, COARSE_BLOCK_CELLS // len(servers))
    spans = [slice(lo, lo + step) for lo in range(0, n_classes, step)]

    norm: dict[str, tuple[float, float]] | None = None
    if objective is ObjectiveKind.MULTI:
        norm = minmax_pools(
            ((compilation._feas[uniq[rows]], energy[class_block[rows]]) for rows in spans),
            intensity, act_carbon, act_energy)

    # -- coarse aggregate tensors, a block of classes at a time -----------------
    # A block gathers its classes' feasibility rows with the server axis in
    # region order, so each (class, region) cell's feasible servers are one
    # run of the block's feasible pairs and each aggregate is one reduction
    # per run. Infeasible pairs are never read; empty cells stay zero, masked.
    n_servers = len(servers)
    class_cost, class_tie, class_energy = (np.zeros((n_classes, n_eff)) for _ in range(3))
    class_demand = np.zeros((n_classes, n_eff, len(keys)))
    class_mask = np.zeros((n_classes, n_eff), dtype=bool)
    for rows in spans:
        ks = uniq[rows]
        feas = compilation._feas[ks][:, perm]
        counts = np.add.reduceat(feas, starts, axis=1, dtype=np.intp)
        row = np.repeat(np.arange(len(ks)), counts.sum(axis=1))
        j = perm[np.flatnonzero(feas) - row * n_servers]
        counts = counts.ravel()
        runs, cells = (np.cumsum(counts) - counts)[counts > 0], np.flatnonzero(counts)
        cells += rows.start * n_eff
        block_col = class_block[rows][row] * n_servers + j
        e, lat = energy.ravel()[block_col], compilation._lat.ravel()[ks[row] * n_servers + j]
        class_mask.flat[cells] = True
        class_cost.flat[cells] = np.minimum.reduceat(
            raw_values(objective, e, lat, intensity[j], norm, alpha), runs)
        class_tie.flat[cells] = np.minimum.reduceat(
            tie_values(objective, e, lat, intensity[j]), runs)
        class_energy.flat[cells] = np.minimum.reduceat(e, runs)
        for k in range(len(keys)):
            class_demand[..., k].flat[cells] = np.minimum.reduceat(
                demand[..., k].ravel()[block_col], runs)

    cap_region = np.add.reduceat(cap_dense[perm], starts, axis=0)

    # -- the coarse apps×regions greedy pass ------------------------------------
    # Costs are tie-broken on the class rows (every class has an app, so the
    # epsilon's scales see the same values); ``inverse`` maps apps to rows.
    class_tie_broken = np.where(
        class_mask, apply_tie_break(class_cost, class_mask, class_tie), np.inf)
    dense = DenseCosts(keys=list(keys), demand=class_demand,
                       capacity=cap_region, mask=class_mask,
                       cost=class_tie_broken, raw_assign=class_cost,
                       energy=class_energy, activation=np.zeros(n_eff),
                       initially_on=np.ones(n_eff, dtype=bool), row_class=inverse,
                       class_block=np.arange(n_classes))
    state = GreedyState(dense)
    greedy_fill(state)
    routed = state.assignment
    placed_coarse = np.flatnonzero(routed >= 0)
    coarse_objective = float(class_cost[inverse[placed_coarse],
                                        routed[placed_coarse]].sum())
    n_coarse_unrouted = n_apps - len(placed_coarse)

    # -- per-region refinement on the class tables ------------------------------
    # A region's classes are the rows of ``uniq`` its apps use, and the
    # kernel reads its apps in ascending index order, as the region's own
    # problem lists them. Block rows are cut to the region's columns, fitted
    # there and passed as the region's demand table, so no gather spans the
    # fleet. The epoch's key axis is a superset of a region problem's: a key
    # the region lacks has zero demand and zero capacity there, so no fit
    # changes.
    region_app_counts = [0] * n_eff
    assignment = np.full(n_apps, -1, dtype=int)
    refined: dict[int, tuple] = {}
    for r in range(n_eff):
        idx_r = np.flatnonzero(routed == r)
        region_app_counts[r] = len(idx_r)
        if not len(idx_r):
            continue
        c = cols[r]
        ensure_dense_cell_budget(len(idx_r), len(c), context="hierarchy region refinement",
                                 remedy=_REGION_REMEDY)
        rows_r, row_class = np.unique(inverse[idx_r], return_inverse=True)
        blocks_r, region = class_block[rows_r], np.ix_(uniq[rows_r], c)
        feas, block_demand, cap = compilation._feas[region], demand[:, c], cap_dense[c]
        mask = feas & capacity_fits(block_demand, cap)[blocks_r]
        state = GreedyState(class_costs(
            compilation._lat[region], feas, mask, energy[np.ix_(blocks_r, c)],
            block_demand, cap, keys=keys, intensity=intensity[c],
            act_carbon=act_carbon[c], act_energy=act_energy[c],
            current_power=delta.current_power[c], objective=objective,
            alpha=alpha, manage_power=manage_power, row_class=row_class,
            class_block=blocks_r))
        greedy_fill(state)
        local = state.assignment
        refined[r] = (local, idx_r)
        placed = local >= 0
        assignment[idx_r[placed]] = c[local[placed]]

    # -- spill: deterministic re-routing of everything still unplaced -----------
    # The multi objective spills by its carbon component: spill is a capacity
    # escape hatch, and re-deriving the normalisation per candidate region
    # would couple regions for no placement benefit.
    n_spilled = 0
    unplaced = np.flatnonzero(assignment < 0)
    remaining: dict[int, np.ndarray] = {}
    if len(unplaced):
        remaining = {r: _remaining_capacities(cap_dense[cols[r]], local,
                                              demand[:, cols[r]],
                                              class_block[inverse[idx_r]])
                     for r, (local, idx_r) in refined.items()}
    spill_objective = ObjectiveKind.CARBON if objective is ObjectiveKind.MULTI \
        else objective
    for i in unplaced:
        reachable = class_mask[inverse[i]]
        home = int(routed[i]) if routed[i] >= 0 else None
        if home is not None:
            order = [coarse_of_plan[int(p)]
                     for p in plan.neighbor_order[eff_regions[home]]
                     if int(p) in coarse_of_plan and coarse_of_plan[int(p)] != home]
        else:
            finite = np.where(reachable, class_cost[inverse[i]], np.inf)
            order = [int(r) for r in np.argsort(finite, kind="stable")
                     if np.isfinite(finite[r])]
        for r in order:
            if not reachable[r]:
                continue
            if _spill_into(compilation, cols[r], class_idx[i],
                           class_block[inverse[i]], energy, demand, cap_dense,
                           intensity, spill_objective, remaining, r,
                           assignment, i):
                n_spilled += 1
                break

    # -- raw objective of the final placements ----------------------------------
    # Per-app coefficients, summed per class (classes in order, apps in
    # ascending index within a class) and accumulated across classes: the
    # order, and so the float, of a class-by-class row sum.
    placed_final = assignment >= 0
    placed = np.flatnonzero(placed_final)
    placed = placed[np.argsort(inverse[placed], kind="stable")]
    j = assignment[placed]
    values = raw_values(objective, energy[class_block[inverse[placed]], j],
                        compilation._lat[class_idx[placed], j], intensity[j],
                        norm, alpha)
    refined_objective = _sum_by_part(values, np.flatnonzero(np.diff(inverse[placed])) + 1)

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


def _sum_by_part(values: np.ndarray, cuts: np.ndarray) -> float:
    """The float ``total += float(part.sum())`` gives over the parts
    ``np.split(values, cuts)``, starting from ``0.0``, with numpy calls per
    distinct part length instead of per part.

    The parts of one length are gathered into the rows of one C-contiguous
    array: a row sum runs numpy's pairwise summation over one contiguous
    row, as a part's own ``sum`` does, so each part sum keeps its bits. The
    running total is the last element of a ``cumsum``, which adds left to
    right.
    """
    starts = np.concatenate(([0], cuts))
    lengths = np.diff(np.append(starts, len(values)))
    sums = np.zeros(len(starts) + 1)
    for length in np.unique(lengths).tolist():
        at = np.flatnonzero(lengths == length)
        sums[at + 1] = values[starts[at, None] + np.arange(length)].sum(axis=1)
    return float(np.cumsum(sums)[-1])


def _spill_into(compilation: ScenarioCompilation, region_cols: np.ndarray,
                k: int, b: int, energy: np.ndarray, demand: np.ndarray,
                cap_dense: np.ndarray, intensity: np.ndarray,
                objective: ObjectiveKind, remaining: dict, r: int,
                assignment: np.ndarray, i: int) -> bool:
    """Try to place spilled app ``i`` in one region; True when committed.

    The app is read by its scenario class ``k`` and its row ``b`` of the
    epoch's ``energy`` and ``demand`` tables. Feasibility is the class's
    SLO + support row over the region's columns; capacity is checked
    against the region's remaining capacities over the epoch's keys, seeded
    by its refinement, else by a copy of its rows of ``cap_dense`` (the
    epoch's live or baseline capacity table). The candidate server is the
    minimum raw ``objective`` coefficient feasible fit, ties to the lowest
    index.
    """
    feas = compilation._feas[k, region_cols]
    if not feas.any():
        return False
    rem = remaining.get(r)
    if rem is None:
        rem = remaining[r] = cap_dense[region_cols]  # a gather: a fresh copy
    need = demand[b][region_cols]
    fits = feas & capacity_fits(need, rem)
    if not fits.any():
        return False
    row = raw_values(objective, energy[b, region_cols],
                     compilation._lat[k, region_cols], intensity[region_cols])
    cost = np.where(fits, row, np.inf)
    j = int(np.argmin(cost))
    if not np.isfinite(cost[j]):
        return False
    assignment[i] = int(region_cols[j])
    rem[j] = np.maximum(rem[j] - need[j], 0.0)
    return True
