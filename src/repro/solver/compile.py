"""Two-tier scenario compilation: one dense placement kernel shared across all policies.

The compilation layer is split along the epoch-invariance boundary:

* :class:`ScenarioCompilation` (**scenario lifetime**) — built once per
  substrate (servers + latency matrix + carbon service) through
  :func:`compile_scenario`: static latency/feasibility rows, per-device-class
  energy and demand blocks, capacity tensors, and nearest-feasible latencies,
  all keyed by application class. Each epoch then contributes only an
  :class:`EpochDelta` (epoch-mean intensities, the arrival batch, warm-start
  allocation state) whose class tables become the problem of an
  :class:`EpochCompilation` as they are — read per application, they are
  bit-identical to filling every application's rows one by one (see the
  scenario-lifetime section below). It is the only way
  :meth:`PlacementProblem.build` assembles a problem.
* :class:`EpochCompilation` (**one epoch**) — everything the epoch's policies
  share, computed once per problem.

At CDN scale the same :class:`~repro.core.problem.PlacementProblem` is solved
by four policies per epoch, and before this layer existed each of them
independently re-derived the candidate mask, the objective coefficient
matrices, and the dense cost/demand tensors. An :class:`EpochCompilation`
computes each of those at most once per problem and hands the read-only
results to every consumer — the solver backends (through
:class:`~repro.solver.backend.SolveRequest`), the baseline policies, and the
CDN simulator's metrics loop:

* :class:`DenseCosts` tensors, cached by ``(objective, alpha, manage_power)``
  and priced by :func:`class_costs`, the one cost builder, which the
  hierarchy's region refinement calls too;
* the candidate mask every dense view shares (latency SLO + profile
  support + standalone capacity, Algorithm 1 line 7): one row per
  application class, whose row counts times the class sizes are the
  candidate pairs the ``auto`` backend rule counts.

**Cache keys and invalidation.** The compilation is memoised on the problem
instance (``compile_placement`` returns the same object for the same
problem). Problems are immutable once built — each simulation epoch
constructs a fresh problem from fleet state, which naturally invalidates
everything. Code that mutates a problem in place (tests, mostly) must call
:func:`clear_compilation` afterwards.

**The one greedy kernel.** :func:`greedy_fill` is the single greedy placement
engine in the tree: most-constrained application first (fewest candidate
servers, larger maximum energy first among equals), each placed at the server
minimising the marginal augmented cost (assignment cost plus the activation
cost of switching a currently-off server on). Tie-breaking is by an epsilon
perturbation of the cost matrix (see :func:`repro.core.objective.apply_tie_break`):
objective-equal servers are ordered by the tie-break matrix — one-way latency
for the carbon/energy/intensity objectives, operational carbon for the
latency objective — and remaining exact ties resolve to the lowest server
index. This replaces the seed's object-based ``greedy_place`` engine, whose
lexicographic ``(cost, tie)`` rule it reproduces up to that epsilon (a frozen
copy of the old engine served as a parity oracle for one release and has
since been retired).

**Wave-vectorised reconciliation.** When the activation channel is cold,
the kernel picks every application's capacity-oblivious winner with one
batched row argmin and replays the winners into the shared state in
*waves*: maximal serial-order prefixes whose capacity dependencies are
provably settled commit as one dense batched operation
(:meth:`GreedyState.place_batch`). The first round that settles under half
of what it scanned hands the rest to one forward-only cursor per class over
the class's ranked candidates (:func:`_replay_classes`). Both arms are
bit-identical to the naive per-row loop; the hypothesis suite (against a
per-application replay of :func:`_replay_step`), the golden artifact digests
and the pinned conflict-tail placements hold the contract.

**Class rows.** The kernels read one table row per application class:
:class:`DenseCosts` holds (C, S) cost, mask and energy tables, and its (A,)
``row_class`` maps each application to its row. Demand depends on the class
only through its (workload, request rate) *block*, so it is one (B, S, K)
table of block rows and the (C,) ``class_block`` gives each class its row:
application ``i`` reads ``demand[class_block[row_class[i]]]``. A
:class:`~repro.core.problem.PlacementProblem` has the same layout, and its
dense views keep its ``row_class`` and ``class_block``: a scenario-tier
epoch's classes and blocks are its :class:`EpochDelta`'s, a hierarchy
region's are the delta's over the region's servers, the hierarchy's coarse
pass is one block per class, and a raw-constructed problem is by default
one class per application and one block per class.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.filters import FIT_SLACK, capacity_fits, within_slo
from repro.core.objective import (
    ObjectiveKind,
    activation_values,
    apply_tie_break,
    minmax_pools,
    raw_values,
    tie_values,
)
from repro.core.problem import (
    INFEASIBLE_LATENCY_MS,
    PlacementProblem,
    _demand_for,
    _resolve_profile,
    ensure_dense_cell_budget,
)
from repro.core.solution import PlacementSolution
from repro.workloads.generator import ApplicationBatch, LazyApplications

if TYPE_CHECKING:  # typing only — no runtime dependency on these layers
    from repro.carbon.service import CarbonIntensityService
    from repro.cluster.server import EdgeServer
    from repro.network.latency import LatencyMatrix
    from repro.workloads.application import Application

@dataclass
class DenseCosts:
    """Dense numpy view of a placement instance for the vectorised kernels,
    one table row per application class.

    Applications of one class have identical cost, mask, demand and energy
    rows, so the tables hold each class's row once and :attr:`row_class`
    maps every application to its row: application ``i``'s cost at server
    ``j`` is ``cost[row_class[i], j]``. Classes of one (workload, request
    rate) block share their demand row, so ``demand`` holds each block's
    row once and :attr:`class_block` maps every class to it: application
    ``i``'s demand at server ``j`` is
    ``demand[class_block[row_class[i]], j]``. A gather is exact, so reading
    through the indices is the per-application tensor bit for bit. The
    fill orders, ranks and takes its speculative winners once per class
    (:func:`_pending_order`, :func:`_argmin_chunk`) and the replay's
    conflict tail runs one cursor per class, sharing each block's demand
    row and full-server marks across its classes (:func:`_replay_classes`).

    Attributes
    ----------
    keys:
        Resource dimensions, the K axis of ``demand`` / ``capacity``.
    demand:
        (B, S, K) per-pair resource demands of each block (zero outside the
        support mask).
    capacity:
        (S, K) available capacity per server.
    mask:
        (C, S) candidate mask: latency SLO, profile support and the
        standalone capacity fit.
    cost:
        (C, S) assignment cost including the deterministic epsilon tie-break;
        ``+inf`` outside the mask.
    raw_assign:
        (C, S) un-augmented assignment coefficients (for reporting).
    energy:
        (C, S) dynamic energy, the fill order's secondary key.
    activation:
        (S,) activation cost of switching a server on (zero when power is
        unmanaged).
    initially_on:
        (S,) bool, servers already on (all True when power is unmanaged).
    row_class:
        (A,) int, each application's row in the class tables.
    class_block:
        (C,) int, each class's row in ``demand``.
    """

    keys: list[str]
    demand: np.ndarray
    capacity: np.ndarray
    mask: np.ndarray
    cost: np.ndarray
    raw_assign: np.ndarray
    energy: np.ndarray
    activation: np.ndarray
    initially_on: np.ndarray
    row_class: np.ndarray
    class_block: np.ndarray

    @classmethod
    def from_matrices(cls, problem: PlacementProblem, mask: np.ndarray,
                      assign: np.ndarray) -> "DenseCosts":
        """Dense tensors for caller-supplied (A, S) assignment costs over the
        (A, S) candidate ``mask``, one class per application: the cost and
        mask tables are the per-application matrices themselves, with no
        tie-break perturbation (exact ties resolve to the lowest server
        index) and a zero activation channel.

        The demand and capacity tables are shared read-only with the
        problem; the energy rows are gathered per application.
        """
        return cls(keys=list(problem.resource_keys), demand=problem.demand,
                   capacity=problem.capacity, mask=mask,
                   cost=cls._tie_broken(assign, mask, None),
                   raw_assign=assign, energy=problem.energy_j[problem.row_class],
                   activation=np.zeros(problem.n_servers),
                   initially_on=problem.current_power > 0.5,
                   row_class=np.arange(problem.n_applications),
                   class_block=problem.class_block[problem.row_class])

    @staticmethod
    def _tie_broken(assign: np.ndarray, mask: np.ndarray,
                    tie: np.ndarray | None) -> np.ndarray:
        """Assignment cost with the epsilon tie-break perturbation.

        The rule and epsilon live in :func:`repro.core.objective.apply_tie_break`
        and are shared with the MILP builder, so every backend minimises the
        same augmented objective and cross-backend comparisons are apples to
        apples.
        """
        cost = assign.astype(float, copy=True)
        if tie is not None:
            cost = apply_tie_break(cost, mask, tie)
        return np.where(mask, cost, np.inf)

    def fits(self, i: int, capacity_left: np.ndarray) -> np.ndarray:
        """(S,) bool: servers with room for application ``i`` given remaining capacity."""
        return capacity_fits(self.demand[self.class_block[self.row_class[i]]],
                             capacity_left)


def class_costs(lat: np.ndarray, feas: np.ndarray, mask: np.ndarray,
                energy: np.ndarray, demand: np.ndarray, capacity: np.ndarray, *,
                keys: Sequence[str], intensity: np.ndarray,
                act_carbon: np.ndarray, act_energy: np.ndarray,
                current_power: np.ndarray, objective: ObjectiveKind,
                alpha: float, manage_power: bool,
                row_class: np.ndarray, class_block: np.ndarray) -> DenseCosts:
    """The one cost builder: :class:`DenseCosts` of some application classes
    over some servers, priced by :mod:`repro.core.objective`'s formulas.

    ``lat``, ``feas`` (SLO + support), ``mask`` (the candidate mask: ``feas``
    and the standalone capacity fit) and ``energy`` are the classes' (C, S)
    rows, ``demand`` the (B, S, K) rows of their blocks over ``keys`` and
    ``capacity`` the servers' (S, K) table; ``intensity``, the activation
    carbon and energy rows and ``current_power`` are (S,); ``row_class``
    gives each application's class and ``class_block`` each class's block.
    The multi objective pools its min-max over these
    classes' feasible entries and these servers' activation rows, so a
    hierarchy region normalises over its own pairs as the flat epoch does
    over the fleet's. Power left unmanaged zeroes the activation channel and
    treats every server as on. The caller holds the rows to its dense-cell
    budget; the builder checks none.
    """
    norm = None
    if objective is ObjectiveKind.MULTI:
        norm = minmax_pools([(feas, energy)], intensity, act_carbon, act_energy)
    inten = np.broadcast_to(intensity, lat.shape)
    raw = raw_values(objective, energy, lat, inten, norm, alpha)
    initially_on = current_power > 0.5 if manage_power \
        else np.ones(len(current_power), dtype=bool)
    return DenseCosts(
        keys=list(keys), demand=demand, capacity=capacity, mask=mask,
        cost=DenseCosts._tie_broken(raw, mask, tie_values(objective, energy, lat, inten)),
        raw_assign=raw, energy=energy,
        activation=activation_values(objective, act_carbon, act_energy,
                                     manage_power, norm, alpha),
        initially_on=initially_on, row_class=row_class, class_block=class_block)


#: The construction deadline is polled every this many applications inside
#: the per-application loops (matching the local-search stride), so the
#: budget check costs one clock read per stride instead of per placement.
_DEADLINE_STRIDE: int = 64


def _expired(deadline: float | None) -> bool:
    """Whether an (optional) absolute monotonic deadline has passed."""
    return deadline is not None and time.monotonic() >= deadline


@dataclass
class FillStats:
    """Execution telemetry of the greedy fills run against one state.

    Pure diagnostics, never inputs: the numbers describe *how* the replay
    executed (how much of it committed in waves) while the placements stay
    bit-identical to the naive loop. Accumulated on :attr:`GreedyState.stats`
    and surfaced as ``wave_count`` / ``revalidation_rate`` on
    :class:`~repro.core.solution.PlacementSolution` and ``EpochRecord``.
    """

    waves: int = 0
    wave_placements: int = 0
    serial_steps: int = 0
    invalidations: int = 0
    pending: int = 0
    #: True when a construction deadline expired mid-fill and the kernel
    #: returned early — the partial assignment is valid (every committed
    #: placement is the serial kernel's own choice) but applications past the
    #: cut-off were left unplaced. Surfaced as
    #: ``PlacementSolution.construction_truncated``.
    truncated: bool = False

    @property
    def revalidation_rate(self) -> float:
        """Fraction of processed applications that took the exact
        per-application step instead of a batched wave commit."""
        if self.pending == 0:
            return 0.0
        return self.serial_steps / self.pending


class GreedyState:
    """Mutable assignment state shared by the construction and search phases."""

    def __init__(self, dense: DenseCosts) -> None:
        self.dense = dense
        self.assignment = np.full(len(dense.row_class), -1, dtype=int)
        self.capacity_left = dense.capacity.copy()
        self.served = np.zeros(dense.mask.shape[1], dtype=int)
        self.stats = FillStats()

    def would_activate(self) -> np.ndarray:
        """(S,) bool: servers an assignment would newly switch on right now."""
        return (self.served == 0) & ~self.dense.initially_on

    def place(self, i: int, j: int) -> None:
        """Commit application ``i`` to server ``j``."""
        dense = self.dense
        self.assignment[i] = j
        self.capacity_left[j] -= dense.demand[dense.class_block[dense.row_class[i]], j]
        self.served[j] += 1

    def place_batch(self, apps: np.ndarray, servers: np.ndarray) -> None:
        """Commit one wave of placements with dense batched operations.

        ``apps`` / ``servers`` are parallel index arrays in the serial
        kernel's processing order. ``np.ufunc.at`` applies repeated indices
        sequentially in order of appearance, so the per-server float
        subtraction sequence — and therefore ``capacity_left``, byte for
        byte — is identical to issuing the same :meth:`place` calls one at a
        time (the hypothesis suite pins this). Callers are responsible for
        only batching placements whose validity cannot depend on each other
        (see :func:`_replay_waves`).
        """
        if len(apps) == 0:
            return
        dense = self.dense
        self.assignment[apps] = servers
        np.subtract.at(self.capacity_left, servers,
                       dense.demand[dense.class_block[dense.row_class[apps]], servers])
        np.add.at(self.served, servers, 1)
        self.stats.waves += 1
        self.stats.wave_placements += int(len(apps))

    def move(self, i: int, j0: int, j1: int) -> None:
        """Relocate application ``i`` from server ``j0`` to ``j1``."""
        dense = self.dense
        self.capacity_left[j0] += dense.demand[dense.class_block[dense.row_class[i]], j0]
        self.served[j0] -= 1
        self.place(i, j1)


def _pending_order(state: GreedyState) -> np.ndarray:
    """Still-unassigned applications in the kernel's processing order.

    Most-constrained first: fewest candidate servers, then larger maximum
    energy among equals; the stable sort resolves remaining ties by
    application index. Implemented as a stable ``np.lexsort`` over the same
    keys the original per-application tuple sort compared, so the order is
    unchanged — and fully vectorised (no per-application Python loop), which
    matters at 10^6 applications. The keys are computed once per class row
    and gathered per application.
    """
    dense = state.dense
    pending = np.flatnonzero(state.assignment < 0)
    if len(pending) <= 1:
        return pending
    of_pending = dense.row_class[pending]
    counts = dense.mask.sum(axis=1)[of_pending]
    max_energy = dense.energy.max(axis=1, initial=0.0)[of_pending]
    return pending[np.lexsort((-max_energy, counts))]


def greedy_fill(state: GreedyState, deadline: float | None = None) -> None:
    """THE greedy placement kernel (every policy and backend routes here).

    Places each still-unassigned application at its cheapest marginal-cost
    server: most-constrained application first (fewest candidates, then
    larger maximum energy so heavy applications grab green capacity before it
    fills up), marginal cost = tie-broken assignment cost plus the activation
    cost when the assignment would switch the server on. ``np.argmin`` picks
    the lowest server index among exact ties. Every still-unassigned
    application is processed; warm-started ones keep their seat.

    An application is only ever placed at a *finite* marginal cost: when every
    feasible candidate costs ``+inf`` (possible only for hand-built cost
    matrices — the compiled objective coefficients are finite inside the
    mask), the application stays unplaced instead of landing on ``argmin``'s
    arbitrary index-0 tie, which could fall outside the candidate mask.

    When the activation channel is provably cold (every server is initially
    on, already serving, or free to activate), the kernel runs the
    speculate-and-revalidate schedule (:func:`_greedy_fill_cold`): one
    batched row-argmin picks every application's capacity-oblivious winner,
    and the wave replay (:func:`_replay_waves`) commits them. Otherwise the
    marginal-cost row genuinely changes as servers switch on, and the naive
    per-row loop (:func:`_greedy_fill_live`) runs. The placements — and the
    float arithmetic order of the shared state — are identical for both
    schedules by the certificate documented on :func:`_greedy_fill_cold`.

    ``deadline`` (absolute monotonic seconds) makes the construction itself
    anytime: the fill polls it at coarse boundaries (every
    :data:`_DEADLINE_STRIDE` applications, or per replay round) and returns
    early with :attr:`FillStats.truncated` set when it expires. Every
    placement committed before the cut-off is exactly the serial kernel's
    own choice, so the partial assignment is valid — applications past the
    cut-off simply stay unplaced. ``deadline=None`` (every bit-identity
    consumer) leaves the schedule untouched.
    """
    dense = state.dense
    order = _pending_order(state)
    if not len(order):
        return
    if _expired(deadline):
        state.stats.truncated = True
        return
    activation_coupled = (dense.activation != 0.0) & ~dense.initially_on \
        & (state.served == 0)
    # The finiteness guard keeps the cold certificate exact even for
    # pathological hand-built inputs: a non-finite activation cost on a
    # never-activating server still poisons the naive loop's marginal row
    # (inf * 0.0 is NaN), which the static cost row would not reproduce.
    if not activation_coupled.any() and np.isfinite(dense.activation).all():
        _greedy_fill_cold(state, order, deadline)
        return
    _greedy_fill_live(state, order, deadline)


def _greedy_fill_live(state: GreedyState, order: Sequence[int],
                      deadline: float | None = None) -> None:
    """The naive per-row schedule: full feasibility scan and marginal-cost
    row per application. Required when the activation channel is live (the
    marginal row genuinely changes as servers switch on); also the reference
    arm of the kernel benchmark."""
    dense = state.dense
    state.stats.pending += len(order)
    for k, i in enumerate(order):
        if deadline is not None and k % _DEADLINE_STRIDE == 0 \
                and time.monotonic() >= deadline:
            state.stats.truncated = True
            return
        state.stats.serial_steps += 1
        c = dense.row_class[i]
        feasible = dense.mask[c] & dense.fits(i, state.capacity_left)
        if not feasible.any():
            continue
        marginal = dense.cost[c] + dense.activation * state.would_activate()
        marginal = np.where(feasible, marginal, np.inf)
        j = int(np.argmin(marginal))
        if np.isfinite(marginal[j]):
            state.place(i, j)


def _greedy_fill_cold(state: GreedyState, order: Sequence[int],
                      deadline: float | None = None) -> None:
    """Speculate-and-revalidate fill for a cold activation channel.

    With every server initially on, already serving, or free to activate,
    the marginal-cost row of each application is exactly its static
    ``dense.cost`` row at every point of the fill. Its *speculative winner*
    — the cheapest masked candidate, ignoring capacity — is therefore the
    serial choice whenever it still fits at the application's turn: the
    naive loop minimises the same row over a subset of the mask (the
    candidates that fit then), so a fitting winner has the same minimum and
    the same lowest-index tie. Capacity only ever shrinks during a fill, so
    the replay only has to re-check each winner's own fit — an O(K) test —
    and re-runs the exact serial step when it fails. Placements go through
    the same ``place`` arithmetic in the same order as the naive loop, so
    the shared state matches it byte for byte. NOTE for maintainers: the
    revalidation is load-bearing — the speculation never looked at capacity.
    """
    order = np.asarray(order, dtype=int)
    choices = _argmin_chunk(state.dense, order)
    state.stats.pending += len(order)
    _replay_waves(state, order, choices, deadline)


def _argmin_chunk(dense: DenseCosts, apps: np.ndarray) -> np.ndarray:
    """Batched speculative winners: one static-cost row argmin per application.

    Same values, same lowest-index ties and the same skip on an infinite
    minimum as the naive loop's ``argmin(where(feasible, marginal, inf))``
    whenever the activation term vanishes on the row. ``-1`` marks
    applications with no finite-cost candidate, which the naive loop
    provably leaves unplaced. The argmin runs once per class row and is
    gathered back per application.
    """
    rows = dense.cost
    choice = np.argmin(rows, axis=1).astype(int)
    finite = np.isfinite(rows[np.arange(len(rows)), choice])
    return np.where(finite, choice, -1)[dense.row_class[apps]]


def _replay_step(state: GreedyState, i: int, j: int) -> None:
    """The exact per-application replay step for one speculative winner.

    O(K) revalidation of the winner against the evolving capacity (the same
    comparison ``DenseCosts.fits`` performs), falling back to the exact
    serial step — full feasibility scan plus static-cost argmin — when the
    winner was invalidated. The wave replay commits its boundaries with it,
    and a loop of it over the processing order is the per-application
    reference the wave replay and the class tail are tested against.
    """
    dense = state.dense
    c = dense.row_class[i]
    demand, capacity_left = dense.demand[dense.class_block[c]], state.capacity_left
    state.stats.serial_steps += 1
    if j < 0:
        # No finite-cost candidate at all: the exact step provably leaves
        # the application unplaced (its feasible set is a subset).
        return
    if capacity_fits(demand[j], capacity_left[j]):
        state.place(i, j)
        return
    # Invalidated winner: exact serial step for this row.
    state.stats.invalidations += 1
    feasible = dense.mask[c] & capacity_fits(demand, capacity_left)
    if not feasible.any():
        return
    marginal = np.where(feasible, dense.cost[c], np.inf)
    j2 = int(np.argmin(marginal))
    if np.isfinite(marginal[j2]):
        state.place(i, j2)


#: The ranked list of a class without a speculative winner.
_NO_CANDIDATES: np.ndarray = np.empty(0, dtype=np.intp)


def _replay_classes(state: GreedyState, order: np.ndarray,
                    choices: np.ndarray,
                    deadline: float | None = None) -> None:
    """The conflict tail replayed with one forward-only cursor per class.

    Each class gets one list of its candidate servers — finite cost, which
    is masked — ranked by (cost, server index), and a cursor into it. At an
    application's turn the cursor skips the servers that no longer fit the
    class's demand and the application goes to the first one that does.
    The classes of one demand block share two things: one flat Python list
    of the block's demand row, and one mark per server that has failed the
    block's fit test.

    Exactness: on a cold channel capacity only shrinks, and the classes of
    a block share one demand row, so a server that failed the fit test for
    one class of a block fails it for every later class of that block: a
    cursor never moves back, and a marked server is skipped untested. The
    first fitting server is therefore the argmin the naive loop (and
    :func:`_replay_step`) takes over the fitting candidates, lowest index
    among ties included; a class whose speculative winner is ``-1`` stays
    unplaced exactly as :func:`_replay_step` leaves it. An application
    whose cursor has left its speculative winner, tested or marked, counts
    the invalidation :func:`_replay_step` counts for a winner that no
    longer fits. Placements subtract in processing order, so the state
    matches a :func:`_replay_step` loop over the same order bit for bit.

    A class's list is ranked at its first turn, from its class row alone
    (:func:`_ranked_candidates`), and read in place with ``.item``: cursors
    touch a small prefix of most lists, so no Python object per (class,
    candidate) pair is ever built. Capacity lives in one flat Python float
    list, written back once. The deadline is polled once per
    :data:`_DEADLINE_STRIDE` applications.
    """
    n = len(order)
    if n == 0:
        return
    dense = state.dense
    n_servers, n_keys = dense.capacity.shape
    keys = range(n_keys)
    slack = FIT_SLACK
    tail_class = dense.row_class[order]
    live = np.zeros(len(dense.cost), dtype=bool)
    live[tail_class] = choices >= 0  # one winner per class
    live = live.tolist()
    # Per class: [ranked servers, cursor, list length, block demand, block marks].
    entries: list = [None] * len(live)
    blocks: dict[int, tuple] = {}
    capacity = state.capacity_left.ravel().tolist()  # (S * K,) flat
    apps: list[int] = []
    servers: list[int] = []
    invalidations = 0
    stats = state.stats
    turns = list(zip(order.tolist(), tail_class.tolist()))
    for lo in range(0, n, _DEADLINE_STRIDE):
        if _expired(deadline):
            stats.truncated = True
            break
        chunk = turns[lo:lo + _DEADLINE_STRIDE]
        stats.serial_steps += len(chunk)
        for i, c in chunk:
            entry = entries[c]
            if entry is None:
                b = int(dense.class_block[c])
                shared = blocks.get(b)
                if shared is None:
                    shared = blocks[b] = (dense.demand[b].ravel().tolist(),
                                          bytearray(n_servers))
                ranked = _ranked_candidates(dense, c) if live[c] else _NO_CANDIDATES
                entry = entries[c] = [ranked, 0, len(ranked), *shared]
            ranked, p, stop, need, full = entry
            while p < stop:
                j = ranked.item(p)
                if not full[j]:
                    at = j * n_keys
                    for t in keys:  # the fit test of capacity_fits, per key
                        if not need[at + t] <= capacity[at + t] + slack:
                            full[j] = 1
                            break
                    else:
                        break
                p += 1
            if p:
                entry[1] = p
                invalidations += 1  # the speculative winner no longer fits
            if p == stop:
                continue
            for t in keys:
                capacity[at + t] -= need[at + t]
            apps.append(i)
            servers.append(j)
    stats.invalidations += invalidations
    state.capacity_left[...] = np.reshape(capacity, state.capacity_left.shape)
    state.assignment[apps] = servers
    np.add.at(state.served, np.asarray(servers, dtype=int), 1)


def _ranked_candidates(dense: DenseCosts, row: int) -> np.ndarray:
    """The finite-cost candidate servers of a row with a speculative winner,
    ranked.

    Cost is ``+inf`` outside the mask, so the finite entries are masked
    candidates, and a row with a winner holds no NaN or ``-inf`` (its
    argmin would have picked one), so ``cost < inf`` keeps exactly its
    finite entries. Ordered by (cost, server index): ``nonzero`` yields
    ascending indices and the stable sort keeps them among equal costs, so
    the head is the row's lowest-index argmin.
    """
    cost = dense.cost[row]
    candidates = (cost < np.inf).nonzero()[0]
    return candidates[cost[candidates].argsort(kind="stable")]


def _replay_waves(state: GreedyState, order: np.ndarray,
                  choices: np.ndarray,
                  deadline: float | None = None) -> None:
    """Wave-vectorised reconciliation replay of speculative winners.

    Partitions the replay order into *waves* — maximal serial-order prefixes
    of placements whose capacity dependencies are already settled — commits
    each wave with one dense batched operation
    (:meth:`GreedyState.place_batch`), and drops to the exact
    per-application step (:func:`_replay_step`) only at wave boundaries.
    A round that commits fewer than half of the rows it scanned hands the
    rest, its boundary included, to the conflict tail
    (:func:`_replay_classes`): on a hierarchy region fill the first round
    commits 10-15% of the rows and further rounds add little, while a CDN
    epoch commits everything in its first wave. The hand-off also bounds
    the planning work: the rounds before it each commit at least half of
    what they scan, so together they scan under twice the pending count.

    **Wave construction rule.** Within the remaining replay order, group the
    winners by target server and take per-server *prefix sums* of their
    demand in processing order. A placement is *settled* when its inclusive
    prefix sum fits the server's current remaining capacity with slack to
    spare: every earlier winner on that server then also fits at its own
    turn (smaller prefix), so no interleaving within the wave can invalidate
    it, and the speculative certificate (see :func:`_greedy_fill_cold`)
    makes each such winner the serial kernel's own choice. The wave is the maximal
    prefix of the order consisting of settled placements (winnerless rows
    commit nothing and never bound a wave); the first unsettled placement is
    the boundary, re-derived by the exact per-application step — its
    fallback may land anywhere, which is why the next round recomputes the
    prefix sums against the updated capacity.

    Commit order — waves in prefix order, placements in processing order
    within each wave, boundaries in between — is exactly the serial kernel's
    processing order, so the per-server float subtraction sequence is
    reproduced byte for byte (see :meth:`GreedyState.place_batch`). Within a
    wave the *choice* of each placement is order-immaterial by the
    certificate above; only the arithmetic order is preserved, for free, by
    committing in processing order.

    The slack covers the gap between the certificate's vectorised cumulative
    sums and what the serial kernel computes by sequential subtraction: the
    relative terms cover float reassociation
    drift (of both the capacity row and the cumulative sums the segmented
    prefix trick subtracts) and the absolute term covers the per-placement
    fit tolerance accumulated over a server's winners. Overshooting the
    slack only shrinks waves — never changes placements.
    """
    n = len(order)
    if n == 0:
        return
    dense = state.dense
    capacity_left = state.capacity_left            # live view, mutated by commits
    has_winner = choices >= 0
    targets = np.where(has_winner, choices, 0)
    # Winner demand rows aligned with the replay order ((P, K); zero for
    # winnerless rows so they never perturb a prefix sum).
    wdemand = np.where(has_winner[:, None],
                       dense.demand[dense.class_block[dense.row_class[order]], targets],
                       0.0)
    pos = 0
    while pos < n:
        if _expired(deadline):  # polled once per wave round
            state.stats.truncated = True
            return
        r = n - pos
        t = targets[pos:]
        w = wdemand[pos:]
        hw = has_winner[pos:]
        # Segmented per-server prefix sums of winner demand in processing
        # order: the stable argsort groups equal targets while preserving
        # replay order inside each group, so the inclusive cumulative sum at
        # each position is exactly the demand the serial kernel would have
        # subtracted from that server up to and including that placement.
        by_server = np.argsort(t, kind="stable")
        sorted_t = t[by_server]
        sorted_w = w[by_server]
        cum = np.cumsum(sorted_w, axis=0)
        group_start = np.empty(r, dtype=bool)
        group_start[0] = True
        group_start[1:] = sorted_t[1:] != sorted_t[:-1]
        start_idx = np.maximum.accumulate(
            np.where(group_start, np.arange(r), 0))
        base = cum[start_idx] - sorted_w[start_idx]
        prefix = cum - base                         # (r, K) inclusive, per server
        counts = np.bincount(t[hw], minlength=len(capacity_left))
        cap_row = capacity_left[sorted_t]
        slack = (FIT_SLACK * (counts[sorted_t][:, None] + 1)
                 + 1e-7 * np.abs(cap_row)
                 + 1e-7 * np.abs(base))             # cumsum-cancellation guard
        settled_sorted = np.all(prefix <= cap_row - slack, axis=-1) | ~hw[by_server]
        settled = np.empty(r, dtype=bool)
        settled[by_server] = settled_sorted
        unsettled = np.flatnonzero(~settled)
        cut = int(unsettled[0]) if len(unsettled) else r
        if cut:
            wave = slice(pos, pos + cut)
            winners = has_winner[wave]
            state.place_batch(order[wave][winners], choices[wave][winners])
            pos += cut
        if pos >= n:
            return
        if 2 * cut < r:
            # Hand-off: a round that settles under half of what it scanned
            # is in the conflict-dense part of the fill, where one cursor
            # per class beats another dense planning pass. The boundary
            # goes with the rest; the class tail re-derives it.
            _replay_classes(state, order[pos:], choices[pos:], deadline)
            return
        # Boundary: the first placement the certificate could not settle.
        _replay_step(state, int(order[pos]), int(choices[pos]))
        pos += 1


def assignment_to_solution(problem: PlacementProblem, assignment: np.ndarray,
                           manage_power: bool = True) -> PlacementSolution:
    """Decode an (A,) assignment vector (server index or -1) into a solution."""
    placements: dict[str, int] = {}
    unplaced: list[str] = []
    for app_id, j in zip(problem.app_ids(), np.asarray(assignment).tolist()):
        if j >= 0:
            placements[app_id] = int(j)
        else:
            unplaced.append(app_id)
    if manage_power:
        power_on = problem.current_power.copy()
        for j in set(placements.values()):
            power_on[j] = 1.0
    else:
        power_on = np.ones(problem.n_servers)
    return PlacementSolution(problem=problem, placements=placements,
                             power_on=power_on, unplaced=unplaced)


def dense_greedy_solution(problem: PlacementProblem,
                          assign: np.ndarray) -> PlacementSolution:
    """One-shot greedy placement for an arbitrary (A, S) cost matrix.

    Used by policies whose objective is not an :class:`ObjectiveKind` (the
    Random baseline's sampled costs). Reads the compiled class candidate
    mask, gathered per application, and the problem's resource tables;
    only the cost matrix is built fresh (:meth:`DenseCosts.from_matrices`).
    """
    mask = compile_placement(problem).candidate_mask()
    dense = DenseCosts.from_matrices(problem, mask[problem.row_class], assign)
    state = GreedyState(dense)
    greedy_fill(state)
    return assignment_to_solution(problem, state.assignment)


@dataclass
class EpochCompilation:
    """Everything an epoch's policies share, computed once per problem.

    All attributes are lazy: the first consumer pays for a tensor, every
    later consumer reads the cache. The object must be treated as read-only.
    """

    problem: PlacementProblem
    _mask: np.ndarray | None = field(default=None, repr=False)
    _dense: dict = field(default_factory=dict, repr=False)

    @property
    def n_nearest_unreachable(self) -> int:
        """Applications with no feasible server at all (their
        :meth:`PlacementProblem.nearest_feasible_ms` is +inf)."""
        return int(np.isinf(self.problem.nearest_feasible_ms()).sum())

    def candidate_mask(self) -> np.ndarray:
        """(C, S) candidate mask, built once and shared by every dense view:
        the problem's SLO + support mask and-ed with the standalone capacity
        fit, which runs on the (B, S, K) block demand rows."""
        if self._mask is None:
            problem = self.problem
            self._mask = problem.feasible_mask() & capacity_fits(
                problem.demand, problem.capacity)[problem.class_block]
        return self._mask

    def dense(self, objective: ObjectiveKind = ObjectiveKind.CARBON,
              alpha: float = 0.0, manage_power: bool = True) -> DenseCosts:
        """Dense cost tensors for an objective, cached per (kind, alpha, power),
        on the problem's class tables as they are (the compilation keeps no
        copy of them)."""
        key = (objective, float(alpha), bool(manage_power))
        if key not in self._dense:
            problem = self.problem
            self._dense[key] = class_costs(
                problem.latency_ms, problem.feasible_mask(), self.candidate_mask(),
                problem.energy_j, problem.demand, problem.capacity,
                keys=problem.resource_keys, intensity=problem.intensity,
                act_carbon=problem.activation_carbon_g(),
                act_energy=problem.activation_energy_j(),
                current_power=problem.current_power, objective=objective,
                alpha=alpha, manage_power=manage_power,
                row_class=problem.row_class, class_block=problem.class_block)
        return self._dense[key]


def compile_placement(problem: PlacementProblem) -> EpochCompilation:
    """The (memoised) compilation of a placement problem.

    Returns the same :class:`EpochCompilation` for repeated calls on the same
    problem instance — this is how the four policies, the solver registry,
    and the simulator's metrics loop end up sharing one set of tensors.
    """
    compilation = getattr(problem, "_compilation", None)
    if compilation is None:
        compilation = EpochCompilation(problem=problem)
        problem._compilation = compilation
    return compilation


def clear_compilation(problem: PlacementProblem) -> None:
    """Drop every cache derived from a problem's arrays.

    Call after mutating a problem in place, so nothing solves against stale
    tables. Clears the memoised :class:`EpochCompilation` (its candidate
    mask and dense views) *and* the problem-level caches it builds on
    (feasibility mask, nearest-feasible latencies, id index maps); the next
    compilation derives them again from the problem's class tables, keeping
    its ``row_class`` and ``class_block``.
    """
    problem._compilation = None
    problem._feasible_mask = None
    problem._nearest_feasible = None
    problem._app_ids = None
    problem._app_index_map = None
    problem._server_index_map = None


# -- scenario-lifetime compilation ---------------------------------------------
#
# The per-epoch tier above rebuilds nothing *within* an epoch, but until this
# tier existed every epoch still paid for a full problem construction — even
# though the latency geometry, fleet capacities, device-class energy/demand
# blocks, and feasibility masks are invariant for a scenario's lifetime and
# only carbon intensities, arrivals, and allocation state move between epochs.
#
# A :class:`ScenarioCompilation` hoists everything epoch-invariant to scenario
# scope, keyed by **application class** — the (source site, workload, request
# rate, latency SLO) tuple, the only fields any class or block row reads (an
# application's duration reads none, so live arrivals that each draw their own
# lifetime share their class). Arrivals are drawn from a small class
# population (sites x workloads for the CDN scenarios), so each class's
# latency row, support row, energy row, demand row, SLO-feasibility row,
# nearest-feasible latency, dense demand row, and baseline capacity-fit row are
# computed exactly once per scenario and every epoch's tensors are assembled by
# row *gather* instead of rebuild. The class-specific rows sit in contiguous
# class tables indexed by scenario class id, filled in bulk for a batch's
# unseen classes; the rows a class shares with its (workload, rate) block sit
# in keyed dicts, read once per block per epoch. Both live as long as the
# compilation: their size is the fleet's sites times the (workload, rate, SLO)
# combinations the traffic uses, and no caller draws per-app rates or SLOs.
# The per-epoch remainder is the
# :class:`EpochDelta`: the epoch-mean intensity vector (one memoised forecast
# integral per zone), the arrival batch with its class indices, the
# warm-start allocation state (live capacities and power when the fleet is
# not pristine), and the epoch's class tables — its classes, their blocks,
# the blocks' energy and demand rows and the capacity table — which both the
# flat epoch (:meth:`compile_epoch`) and the hierarchy
# (:func:`repro.solver.hierarchy.solve_hierarchical`) start from. The flat
# epoch's problem holds those tables as they are, so nothing is gathered per
# application but the nearest-feasible latencies, and the epoch tier costs
# one row per class (:meth:`EpochCompilation.dense`). Every delta carries a
# columnar :class:`~repro.workloads.generator.ApplicationBatch`; a plain
# application sequence is wrapped once on the way in
# (:meth:`ApplicationBatch.from_applications`, which keeps the caller's objects
# by identity), so there is one assembly path.
#
# **Bit-identity contract.** For every delta, the assembled
# :class:`PlacementProblem` tables and the :class:`EpochCompilation` candidate
# mask and dense tables, each read per application through ``row_class`` (and
# ``class_block`` for demand), and therefore every placement and experiment
# artifact are byte-identical to a per-object build of the same epoch, one
# (workload, rate) x device-class block at a time: each cached row is
# produced by the same float expressions, in the same association order, as
# that build's block fills (see the row builders below, each annotated with
# the expression it mirrors). The golden artifact digests pin the assembled output, and the
# test suite compares the tier epoch by epoch against the per-object
# reference build (``tests/conftest.py::cold_build``).
#
# **Cache keys and invalidation.** Scenario compilations are memoised on the
# substrate identity — the (latency matrix, carbon service) object pair plus
# element-wise server identity — which is exactly what the CDN scenario-
# substrate cache (:func:`repro.simulator.cdn.scenario_substrate`) shares
# between scenario variants, so a latency-limit sweep reuses one scenario tier
# across all its variants. Epoch compilations are not memoised: every delta
# is assembled afresh from the class tables. Static rows never go stale:
# device catalogues and the latency matrix are immutable, and a hit also
# requires each server's site, zone, CPU and accelerator to be the ones the
# rows were derived from (:meth:`ScenarioCompilation.matches`), so a server
# changed in place gets a fresh compilation. Allocation state is *not*
# cached — a delta away from baseline capacity reads live capacities, and
# its candidate fit runs against them.


#: Cells (classes x servers) of class-table rows filled at once, bounding the
#: temporaries of a batch that brings many new classes.
CLASS_FILL_CELLS: int = 1 << 20


#: The server attributes every static row is derived from.
_SERVER_STATIC = attrgetter("site", "zone_id", "cpu", "accelerator")


def _grown(table: np.ndarray, used: int, rows: int) -> np.ndarray:
    """``table`` reallocated to ``rows`` rows, keeping its first ``used``."""
    grown = np.empty((rows,) + table.shape[1:], dtype=table.dtype)
    grown[:used] = table[:used]
    return grown


@dataclass(frozen=True)
class EpochDelta:
    """Everything that changes between two epochs of one scenario.

    Attributes
    ----------
    horizon_hours:
        The epoch's placement horizon.
    applications:
        The epoch's arrivals as a columnar batch.
    class_indices:
        (A,) index of each application's class in the scenario's class table
        (append-only, so the indices never go stale).
    intensity:
        (S,) epoch-mean carbon intensities Ī_j (the forecast integral,
        computed once per zone and gathered per server).
    current_power:
        Warm-start power state: each server's power at the epoch's start.
    classes / app_class:
        The epoch's class tables' rows: (C,) the batch's scenario classes in
        ascending order and (A,) each application's class (the problem's
        ``row_class``).
    blocks / class_block:
        The classes' (workload, rate) blocks, ascending by block id, and
        (C,) each class's block.
    keys / energy / demand / capacity:
        The epoch's resource keys, the blocks' (B, S) dynamic energy and
        (B, S, K) demand rows, and the (S, K) available-capacity table: live
        when any server holds allocations, else the cached baseline of each
        server's total capacity.
    """

    horizon_hours: float
    applications: ApplicationBatch
    class_indices: np.ndarray
    intensity: np.ndarray
    current_power: np.ndarray
    classes: np.ndarray
    app_class: np.ndarray
    blocks: tuple
    class_block: np.ndarray
    keys: tuple
    energy: np.ndarray
    demand: np.ndarray
    capacity: np.ndarray


@dataclass
class _WorkloadBlock:
    """Static per-(workload, request rate) rows over the server axis."""

    #: (S,) bool — servers with a usable profile for the workload.
    supported: np.ndarray
    #: Union of the demand vectors' resource keys.
    demand_keys: frozenset
    #: (cols, profile, demand vec) per supported device-class group.
    groups: list


class ScenarioCompilation:
    """The scenario-lifetime tier: static substrate tensors plus class rows.

    Built once per (servers, latency matrix, carbon service) substrate —
    normally through :func:`compile_scenario` — and reused across every epoch
    (and every scenario variant sharing the substrate). See the section
    comment above for the architecture and the bit-identity contract.
    """

    def __init__(self, servers: Sequence["EdgeServer"], latency: "LatencyMatrix",
                 carbon: "CarbonIntensityService") -> None:
        self.servers: list = list(servers)
        if not self.servers:
            raise ValueError("cannot compile a scenario with no servers")
        self.latency = latency
        self.carbon = carbon
        self._server_static = list(map(_SERVER_STATIC, self.servers))
        #: Latency-matrix column of each server's site.
        self.server_cols = np.asarray(
            [latency.index_of(srv.site) for srv in self.servers], dtype=np.intp)
        self.base_power_w = np.array([srv.base_power_w for srv in self.servers])
        self._zones = [srv.zone_id for srv in self.servers]
        # Device-class groups in first-occurrence order, exactly as the
        # per-object build's server_classes dict iterates them.
        classes: dict[tuple, list[int]] = {}
        for j, srv in enumerate(self.servers):
            accel = srv.accelerator.name if srv.accelerator is not None else None
            classes.setdefault((accel, srv.cpu.name), []).append(j)
        self._server_classes = {key: np.asarray(cols, dtype=np.intp)
                                for key, cols in classes.items()}
        #: Resource keys of the servers' total capacities (static hardware).
        self._capacity_keys = frozenset(
            key for srv in self.servers for key in srv.total_capacity.keys())
        #: Pristine-fleet capacity tables, keyed by an epoch's resource keys.
        self._baseline_capacity_dense: dict[tuple, np.ndarray] = {}
        # Class tables (see _register_classes) and the keyed block row
        # caches. The class tables are append-only: row k belongs to
        # scenario class k, the first _n_classes rows are live and the rest
        # is growth room.
        self._class_index: dict[tuple, int] = {}
        self._block_index: dict[tuple, int] = {}
        #: (workload, rate) of each block id in ``_class_block``.
        self._block_keys: list[tuple] = []
        self._n_classes: int = 0
        s = len(self.servers)
        self._lat = np.empty((0, s))
        self._feas = np.empty((0, s), dtype=bool)
        self._near = np.empty(0)
        self._class_block = np.empty(0, dtype=np.intp)
        self._blocks: dict[tuple, _WorkloadBlock] = {}
        self._energy_rows: dict[tuple, np.ndarray] = {}
        self._dense_rows: dict[tuple, np.ndarray] = {}

    # -- substrate identity ------------------------------------------------------

    def matches(self, servers: Sequence["EdgeServer"], latency: "LatencyMatrix",
                carbon: "CarbonIntensityService") -> bool:
        """Whether this compilation was built over exactly these objects, with
        every server still on the site, zone and hardware its rows were
        derived from (``EdgeServer`` is mutable)."""
        return latency is self.latency and carbon is self.carbon \
            and len(servers) == len(self.servers) \
            and all(a is b for a, b in zip(servers, self.servers)) \
            and list(map(_SERVER_STATIC, servers)) == self._server_static

    # -- static row builders (each mirrors one per-object build expression) -----

    def _block(self, workload: str, rate: float) -> _WorkloadBlock:
        """Support/demand rows for one (workload, request rate) pair."""
        key = (workload, rate)
        block = self._blocks.get(key)
        if block is None:
            s = len(self.servers)
            supported = np.zeros(s, dtype=bool)
            demand_keys: set[str] = set()
            groups: list = []
            for (accel, cpu), cols in self._server_classes.items():
                profile = _resolve_profile(workload, accel, cpu)
                if profile is None:
                    continue
                supported[cols] = True
                vec = _demand_for(rate, profile)
                demand_keys.update(vec.keys())
                groups.append((cols, profile, vec))
            block = _WorkloadBlock(supported=supported,
                                   demand_keys=frozenset(demand_keys), groups=groups)
            self._blocks[key] = block
        return block

    def _energy_row(self, workload: str, rate: float, horizon_hours: float) -> np.ndarray:
        """(S,) dynamic energy E_ij of one class over the placement horizon.

        Mirrors the per-object build's
        ``profile.energy_per_request_j * rates * 3600.0 * horizon_hours``
        block fill — same factors, same association order, so the values are
        bit-identical.
        """
        key = (workload, rate, float(horizon_hours))
        row = self._energy_rows.get(key)
        if row is None:
            row = np.zeros(len(self.servers))
            for cols, profile, _ in self._block(workload, rate).groups:
                per_app = profile.energy_per_request_j * np.full(1, rate) \
                    * 3600.0 * horizon_hours
                row[cols] = per_app[0]
            self._energy_rows[key] = row
        return row

    def _dense_row(self, workload: str, rate: float, keys: tuple) -> np.ndarray:
        """(S, K) dense demand row of one class over an epoch's resource keys."""
        cache_key = (workload, rate, keys)
        row = self._dense_rows.get(cache_key)
        if row is None:
            row = np.zeros((len(self.servers), len(keys)))
            for cols, _, vec in self._block(workload, rate).groups:
                row[cols] = np.array([vec.get(key) for key in keys])
            self._dense_rows[cache_key] = row
        return row

    def _capacity_dense(self, keys: tuple, capacities: list | None = None) -> np.ndarray:
        """(S, K) capacity table over ``keys`` of the ``capacities`` vectors,
        by default the pristine fleet's: each server's ``total_capacity``,
        cached per ``keys`` (what ``available_capacity`` reads on a server
        with no allocations, since subtracting nothing changes no amount).

        The reshape keeps a zero-width resource axis well-formed.
        """
        if capacities is None:
            cached = self._baseline_capacity_dense.get(keys)
            if cached is None:
                cached = self._baseline_capacity_dense[keys] = self._capacity_dense(
                    keys, [srv.total_capacity for srv in self.servers])
            return cached
        return np.array([[cap.get(key) for key in keys] for cap in capacities],
                        dtype=float).reshape(len(self.servers), len(keys))

    # -- class tables ------------------------------------------------------------
    #
    # Row k of ``_lat`` / ``_feas`` / ``_near`` / ``_class_block`` holds the
    # static rows of scenario class k: its (S,) one-way latencies (with the
    # INFEASIBLE fill on unsupported servers), its SLO + support feasibility,
    # its nearest-feasible latency, and the id of its (workload, rate) block,
    # whose rows (support, demand, energy, dense demand) live in the keyed
    # block caches. An epoch's class tables are one fancy-index gather of
    # its classes' rows from these tables plus one row per block.

    def _block_id(self, workload: str, rate: float) -> int:
        """Id of a (workload, rate) block, numbered on first sight."""
        key = (workload, rate)
        b = self._block_index.get(key)
        if b is None:
            b = self._block_index[key] = len(self._block_keys)
            self._block_keys.append(key)
        return b

    def _register_classes(self, keys: Sequence[tuple]) -> np.ndarray:
        """Scenario class ids of (site, workload, rate, slo) keys.

        Unseen classes are numbered in the order given and their rows are
        filled in bulk (:meth:`_fill_class_rows`), so a batch pays one
        dictionary lookup per class and one gather for all of its new ones.
        They enter the index only once their rows are filled, so a key that
        cannot be built (an unknown site) registers nothing.
        """
        ids = np.empty(len(keys), dtype=np.intp)
        fresh: dict[tuple, int] = {}
        index = self._class_index
        for n, key in enumerate(keys):
            k = index.get(key)
            ids[n] = fresh.setdefault(key, self._n_classes + len(fresh)) \
                if k is None else k
        if fresh:
            self._fill_class_rows(list(fresh))
            index.update(fresh)
        return ids

    def _fill_class_rows(self, fresh: list[tuple]) -> None:
        """Append the static rows of newly numbered classes to the tables.

        Mirrors the per-object build's latency gather + INFEASIBLE fill and the
        feasible_mask / nearest_feasible_ms expressions, row-wise: every
        element goes through the same float operations as a one-row build.
        Rows are filled :data:`CLASS_FILL_CELLS` cells at a time, so the
        temporaries stay small however many classes a batch brings.
        """
        n = len(fresh)
        blocks = np.fromiter((self._block_id(w, r) for _, w, r, _ in fresh),
                             dtype=np.intp, count=n)
        sites = np.fromiter((self.latency.index_of(site) for site, *_ in fresh),
                            dtype=np.intp, count=n)
        slo = np.fromiter((key[3] for key in fresh), dtype=float, count=n)
        used, local = np.unique(blocks, return_inverse=True)
        block_supported = np.stack([self._block(*self._block_keys[b]).supported
                                    for b in used.tolist()])
        lo, hi = self._n_classes, self._n_classes + n
        if hi > len(self._near):
            # Geometric growth: a stream of small batches reallocates
            # O(log n) times, a first big batch exactly once.
            size = max(hi, 2 * len(self._near))
            self._lat = _grown(self._lat, lo, size)
            self._feas = _grown(self._feas, lo, size)
            self._near = _grown(self._near, lo, size)
            self._class_block = _grown(self._class_block, lo, size)
        self._class_block[lo:hi] = blocks
        step = max(1, CLASS_FILL_CELLS // len(self.servers))
        for a in range(0, n, step):
            rows = slice(a, a + step)
            table = slice(lo + a, lo + min(a + step, n))
            lat, feas = self._lat[table], self._feas[table]  # filled in place
            np.take(self.latency.matrix_ms[sites[rows]], self.server_cols, axis=1, out=lat)
            supported = block_supported[local[rows]]
            lat[~supported] = INFEASIBLE_LATENCY_MS
            within_slo(lat, slo[rows, None], out=feas)
            feas &= supported
            self._near[table] = np.min(lat, axis=1, where=feas, initial=np.inf)
        self._n_classes = hi

    def _batch_class_indices(self, batch: ApplicationBatch) -> np.ndarray:
        """(A,) scenario class indices of a columnar batch's applications.

        Registers the batch's unique classes in **first-arrival order** — the
        order a per-application loop over the batch would first encounter
        them — so the class table (and every downstream float accumulation
        keyed on it) does not depend on the batch's class-table sort. Batch
        classes that differ only in duration share one scenario class.
        """
        order = np.argsort(batch.class_first_occurrence(), kind="stable")
        sites, workloads = batch.site_names, batch.workload_names
        keys = [(sites[s], workloads[w], rate, slo)
                for s, w, rate, slo in zip(
                    batch.class_site_idx[order].tolist(),
                    batch.class_workload_idx[order].tolist(),
                    batch.class_rate_rps[order].tolist(),
                    batch.class_slo_ms[order].tolist())]
        scen = np.empty(batch.n_classes, dtype=np.intp)
        scen[order] = self._register_classes(keys)
        return scen[batch.class_idx]

    def cache_stats(self) -> dict:
        """Size telemetry for the per-class caches (diagnostics, benches).

        Kept off the experiment artifacts on purpose: cache occupancy is
        per-process (it differs across ``--workers`` splits), so recording it
        there would break the byte-identity contract.
        """
        n = self._n_classes
        row_bytes = self._lat[:n].nbytes + self._feas[:n].nbytes
        row_bytes += sum(r.nbytes for r in self._energy_rows.values())
        row_bytes += sum(r.nbytes for r in self._dense_rows.values())
        return {
            "n_classes": n,
            "n_blocks": len(self._blocks),
            "n_energy_rows": len(self._energy_rows),
            "n_dense_rows": len(self._dense_rows),
            "row_bytes": int(row_bytes),
        }

    # -- the per-epoch delta -----------------------------------------------------

    def epoch_delta(self, applications: "Sequence[Application] | ApplicationBatch",
                    hour: int, horizon_hours: float = 1.0,
                    use_forecast: bool = True) -> EpochDelta:
        """Capture one epoch's moving parts against this scenario's substrate.

        Classes register once per unique class of the batch (in first-arrival
        order) and the per-app index vector is one gather; the class tables
        fetch one energy and one demand row per block. A sequence of
        ``Application`` objects is wrapped in a batch first
        (:meth:`ApplicationBatch.from_applications`), which keeps the objects
        by identity: the assembled problem hands back the caller's instances.
        """
        if isinstance(applications, ApplicationBatch):
            batch = applications
        else:
            batch = ApplicationBatch.from_applications(applications)
        if len(batch) == 0:
            raise ValueError("cannot build a placement problem with no applications")
        class_indices = self._batch_class_indices(batch)
        classes, app_class = np.unique(class_indices, return_inverse=True)
        block_ids, class_block = np.unique(self._class_block[classes],
                                           return_inverse=True)
        blocks = tuple(self._block_keys[b] for b in block_ids.tolist())
        keys = self._epoch_keys([self._block(w, r) for w, r in blocks])
        horizon_hours = float(horizon_hours)
        if all(not srv.allocations for srv in self.servers):
            capacity = self._capacity_dense(keys)
        else:
            capacity = self._capacity_dense(
                keys, [srv.available_capacity for srv in self.servers])
        current_power = np.array([1.0 if srv.is_on else 0.0 for srv in self.servers])
        if use_forecast:
            horizon = int(np.ceil(horizon_hours))
            by_zone = {zone: self.carbon.forecast_mean(zone, hour, horizon)
                       for zone in dict.fromkeys(self._zones)}
        else:
            by_zone = {zone: self.carbon.current_intensity(zone, hour)
                       for zone in dict.fromkeys(self._zones)}
        intensity = np.array([by_zone[zone] for zone in self._zones])
        return EpochDelta(
            horizon_hours=horizon_hours, applications=batch,
            class_indices=class_indices, intensity=intensity,
            current_power=current_power, classes=classes,
            app_class=app_class, blocks=blocks,
            class_block=class_block, keys=keys,
            energy=np.stack([self._energy_row(w, r, horizon_hours) for w, r in blocks]),
            demand=np.stack([self._dense_row(w, r, keys) for w, r in blocks]),
            capacity=capacity)

    # -- assembly ----------------------------------------------------------------

    def compile_epoch(self, delta: EpochDelta) -> EpochCompilation:
        """Assemble the epoch compilation for one delta.

        Every call gathers a fresh problem from the class tables; its dense
        views read the problem's class and block rows.
        """
        problem = self._assemble_problem(delta)
        compilation = EpochCompilation(problem=problem)
        problem._compilation = compilation
        return compilation

    def build_problem(self, applications: "Sequence[Application] | ApplicationBatch",
                      hour: int, horizon_hours: float = 1.0,
                      use_forecast: bool = True) -> PlacementProblem:
        """One epoch's problem, gathered from this substrate's class rows.

        :meth:`PlacementProblem.build` is this method on the memoised
        compilation of its servers, latency matrix and carbon service.
        """
        delta = self.epoch_delta(applications, hour, horizon_hours, use_forecast)
        return self.compile_epoch(delta).problem

    def _assemble_problem(self, delta: EpochDelta) -> PlacementProblem:
        """One epoch's problem on the delta's class tables, gathering nothing
        per application but the nearest-feasible latencies.

        Class rows come from the class tables, energy and support rows from
        each class's block (support is one row-cache lookup per block); the
        demand, keys, capacity table, ``row_class`` (the delta's
        ``app_class``) and ``class_block`` are the delta's.
        """
        ensure_dense_cell_budget(len(delta.applications), len(self.servers),
                                 context="ScenarioCompilation epoch assembly")
        classes, class_block = delta.classes, delta.class_block
        problem = PlacementProblem(
            applications=LazyApplications(delta.applications),
            servers=list(self.servers),
            latency_ms=self._lat[classes],
            energy_j=delta.energy[class_block],
            intensity=delta.intensity,
            resource_keys=delta.keys,
            capacity=delta.capacity,
            demand=delta.demand,
            base_power_w=self.base_power_w.copy(),
            current_power=delta.current_power,
            horizon_hours=delta.horizon_hours,
            supported=np.stack([self._block(w, r).supported
                                for w, r in delta.blocks])[class_block],
            row_class=delta.app_class,
            class_block=class_block,
        )
        # Seed the lazy problem caches the problem would derive from the same
        # rows: the SLO+support mask and the nearest-feasible latencies.
        problem._feasible_mask = self._feas[classes]
        problem._nearest_feasible = self._near[delta.class_indices]
        return problem

    def _epoch_keys(self, blocks: Sequence[_WorkloadBlock]) -> tuple:
        """Sorted resource keys spanning the servers' capacities and the
        epoch's demand blocks."""
        key_set = set(self._capacity_keys)
        for block in blocks:
            key_set.update(block.demand_keys)
        return tuple(sorted(key_set))


#: Scenario-compilation cache: keyed on the substrate identity — the latency
#: matrix + carbon service objects plus the server objects themselves (so two
#: fleets sharing one latency/carbon pair hold separate entries instead of
#: evicting each other), validated on every hit by
#: :meth:`ScenarioCompilation.matches` (element-wise server identity, and each
#: server's site, zone and hardware). The cached compilation pins its
#: substrate objects, so the ids in the key can never be recycled while the
#: entry lives. Bounded LRU mirroring the CDN scenario-substrate cache.
_SCENARIO_CACHE: OrderedDict[tuple, ScenarioCompilation] = OrderedDict()
_SCENARIO_CACHE_MAX: int = 8


def compile_scenario(servers: Sequence["EdgeServer"], latency: "LatencyMatrix",
                     carbon: "CarbonIntensityService") -> ScenarioCompilation:
    """The (memoised) scenario-lifetime compilation of one substrate.

    Returns the same :class:`ScenarioCompilation` for repeated calls over the
    same substrate objects — this is how every scenario variant sharing a CDN
    footprint (and every epoch of every simulation over it) ends up sharing
    one set of static tensors and class rows.
    """
    key = (id(latency), id(carbon), tuple(map(id, servers)))
    cached = _SCENARIO_CACHE.get(key)
    if cached is not None and cached.matches(servers, latency, carbon):
        _SCENARIO_CACHE.move_to_end(key)
        return cached
    compilation = ScenarioCompilation(servers, latency, carbon)
    _SCENARIO_CACHE[key] = compilation
    _SCENARIO_CACHE.move_to_end(key)
    while len(_SCENARIO_CACHE) > _SCENARIO_CACHE_MAX:
        _SCENARIO_CACHE.popitem(last=False)
    return compilation


def clear_scenario_compilations() -> None:
    """Drop every cached scenario compilation, with its class tables and row
    caches."""
    _SCENARIO_CACHE.clear()
