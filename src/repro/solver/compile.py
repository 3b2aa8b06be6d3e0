"""Two-tier scenario compilation: one dense placement kernel shared across all policies.

The compilation layer is split along the epoch-invariance boundary:

* :class:`ScenarioCompilation` (**scenario lifetime**) — built once per
  substrate (servers + latency matrix + carbon service) through
  :func:`compile_scenario`: static latency/feasibility rows, per-device-class
  energy and demand blocks, capacity tensors, and nearest-feasible latencies,
  all keyed by application class. Each epoch then contributes only an
  :class:`EpochDelta` (epoch-mean intensities, the arrival batch, warm-start
  allocation state) that is assembled into an :class:`EpochCompilation` by
  row gathers — bit-identical to a cold rebuild (see the scenario-lifetime
  section below).
* :class:`EpochCompilation` (**one epoch**) — everything the epoch's policies
  share, computed once per problem.

At CDN scale the same :class:`~repro.core.problem.PlacementProblem` is solved
by four policies per epoch, and before this layer existed each of them
independently re-derived the feasibility report, the objective coefficient
matrices, and the dense cost/demand tensors. An :class:`EpochCompilation`
precomputes all of that exactly once per problem and hands the read-only
results to every consumer — the solver backends (through
:class:`~repro.solver.backend.SolveRequest`), the baseline policies, and the
CDN simulator's metrics loop:

* the feasibility report (latency SLO + profile support + standalone capacity);
* per-objective coefficient matrices (carbon / energy / latency / intensity,
  plus the multi-objective blend), cached by ``(objective, alpha)``;
* :class:`DenseCosts` tensors, cached by ``(objective, alpha, manage_power)``;
* the epoch-mean carbon intensities Ī_j (the problem's ``intensity`` vector);
* each application's nearest-feasible-server latency (the baseline for the
  paper's "increased latency" metric).

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
perturbation of the cost matrix (see :meth:`DenseCosts.from_matrices`):
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
(:meth:`GreedyState.place_batch`), and only the residual conflicting tail
drops to the exact per-application step. The wave replay is bit-identical
to the per-application replay and to the naive per-row loop; the hypothesis
suite and the golden artifact digests pin the contract.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.filters import FeasibilityReport, filter_feasible_servers
from repro.core.objective import (
    ObjectiveKind,
    apply_tie_break,
    objective_coefficients,
    tie_break_matrix,
)
from repro.core.problem import (
    _EMPTY_DEMAND,
    INFEASIBLE_LATENCY_MS,
    PlacementProblem,
    _demand_for,
    _resolve_profile,
    ensure_dense_cell_budget,
)
from repro.cluster.resources import ResourceVector
from repro.core.solution import PlacementSolution
from repro.workloads.generator import (
    ApplicationBatch,
    LazyApplications,
    columnar_enabled,
)

if TYPE_CHECKING:  # typing only — no runtime dependency on these layers
    from repro.carbon.service import CarbonIntensityService
    from repro.cluster.server import EdgeServer
    from repro.network.latency import LatencyMatrix
    from repro.workloads.application import Application

@dataclass
class DenseCosts:
    """Dense numpy view of a placement instance for the vectorised kernels.

    Attributes
    ----------
    keys:
        Resource dimensions, the K axis of ``demand`` / ``capacity``.
    demand:
        (A, S, K) per-pair resource demands (zero outside the support mask).
    capacity:
        (S, K) available capacity per server.
    mask:
        (A, S) candidate mask from the feasibility report.
    cost:
        (A, S) assignment cost including the deterministic epsilon tie-break;
        ``+inf`` outside the mask.
    raw_assign:
        (A, S) un-augmented assignment coefficients (for reporting).
    activation:
        (S,) activation cost of switching a server on (zero when power is
        unmanaged).
    initially_on:
        (S,) bool, servers already on (all True when power is unmanaged).
    """

    keys: list[str]
    demand: np.ndarray
    capacity: np.ndarray
    mask: np.ndarray
    cost: np.ndarray
    raw_assign: np.ndarray
    activation: np.ndarray
    initially_on: np.ndarray

    @classmethod
    def from_matrices(
        cls,
        problem: PlacementProblem,
        report: FeasibilityReport,
        assign: np.ndarray,
        activation: np.ndarray | None = None,
        manage_power: bool = True,
        tie_breaker: np.ndarray | None = None,
    ) -> "DenseCosts":
        """Assemble dense tensors for arbitrary assignment/activation costs.

        The demand and capacity tensors are shared read-only with the problem
        (built once per epoch); only the cost matrix is objective-specific.
        ``tie_breaker`` is an optional (A, S) secondary cost: objective-equal
        candidates order by it through an epsilon perturbation scaled so the
        perturbation never exceeds ``1e-5`` of the largest feasible
        assignment cost. ``None`` disables the perturbation (exact ties then
        resolve to the lowest server index).
        """
        mask = report.mask
        s = problem.n_servers
        if activation is None:
            activation = np.zeros(s)
        cost = cls._tie_broken(assign, mask, tie_breaker)
        initially_on = (problem.current_power > 0.5) if manage_power \
            else np.ones(s, dtype=bool)
        return cls(keys=list(problem.resource_keys()),
                   demand=problem.demand_dense(),
                   capacity=problem.capacity_dense(),
                   mask=mask, cost=cost,
                   raw_assign=assign, activation=np.asarray(activation, dtype=float),
                   initially_on=initially_on)

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
        return bool_all(self.demand[i] <= capacity_left + 1e-9)


def bool_all(fits_per_key: np.ndarray) -> np.ndarray:
    """All-dimensions reduction that tolerates a zero-width resource axis."""
    if fits_per_key.shape[-1] == 0:
        return np.ones(fits_per_key.shape[:-1], dtype=bool)
    return np.all(fits_per_key, axis=-1)


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
        n_apps, n_servers = dense.mask.shape
        self.assignment = np.full(n_apps, -1, dtype=int)
        self.capacity_left = dense.capacity.copy()
        self.served = np.zeros(n_servers, dtype=int)
        self.stats = FillStats()

    def would_activate(self) -> np.ndarray:
        """(S,) bool: servers an assignment would newly switch on right now."""
        return (self.served == 0) & ~self.dense.initially_on

    def place(self, i: int, j: int) -> None:
        """Commit application ``i`` to server ``j``."""
        self.assignment[i] = j
        self.capacity_left[j] -= self.dense.demand[i, j]
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
        self.assignment[apps] = servers
        np.subtract.at(self.capacity_left, servers,
                       self.dense.demand[apps, servers])
        np.add.at(self.served, servers, 1)
        self.stats.waves += 1
        self.stats.wave_placements += int(len(apps))

    def move(self, i: int, j0: int, j1: int) -> None:
        """Relocate application ``i`` from server ``j0`` to ``j1``."""
        self.capacity_left[j0] += self.dense.demand[i, j0]
        self.served[j0] -= 1
        self.place(i, j1)


def _pending_order(state: GreedyState, energy_j: np.ndarray) -> np.ndarray:
    """Still-unassigned applications in the kernel's processing order.

    Most-constrained first: fewest candidate servers, then larger maximum
    energy among equals; the stable sort resolves remaining ties by
    application index. Implemented as a stable ``np.lexsort`` over the same
    keys the original per-application tuple sort compared, so the order is
    unchanged — and fully vectorised (no per-application Python loop), which
    matters at 10^6 applications.
    """
    dense = state.dense
    pending = np.flatnonzero(state.assignment < 0)
    if len(pending) <= 1:
        return pending
    counts = dense.mask[pending].sum(axis=1)
    max_energy = energy_j[pending].max(axis=1, initial=0.0)
    return pending[np.lexsort((-max_energy, counts))]


def greedy_fill(state: GreedyState, energy_j: np.ndarray,
                deadline: float | None = None) -> None:
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
    order = _pending_order(state, energy_j)
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
        feasible = dense.mask[i] & dense.fits(i, state.capacity_left)
        if not feasible.any():
            continue
        marginal = dense.cost[i] + dense.activation * state.would_activate()
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
    provably leaves unplaced.
    """
    rows = dense.cost[apps]
    choice = np.argmin(rows, axis=1).astype(int)
    finite = np.isfinite(rows[np.arange(len(apps)), choice])
    return np.where(finite, choice, -1)


def _replay_step(state: GreedyState, i: int, j: int) -> None:
    """The exact per-application replay step for one speculative winner.

    O(K) revalidation of the winner against the evolving capacity (the same
    comparison ``DenseCosts.fits`` performs), falling back to the exact
    serial step — full feasibility scan plus static-cost argmin — when the
    winner was invalidated. The single place the per-application replay and
    the wave replay's boundary handling share, so both arms perform the same
    arithmetic in the same order.
    """
    dense = state.dense
    demand, capacity_left = dense.demand, state.capacity_left
    state.stats.serial_steps += 1
    if j < 0:
        # No finite-cost candidate at all: the exact step provably leaves
        # the application unplaced (its feasible set is a subset).
        return
    if bool(np.all(demand[i, j] <= capacity_left[j] + 1e-9)):
        state.place(i, j)
        return
    # Invalidated winner: exact serial step for this row.
    state.stats.invalidations += 1
    feasible = dense.mask[i] & bool_all(demand[i] <= capacity_left + 1e-9)
    if not feasible.any():
        return
    marginal = np.where(feasible, dense.cost[i], np.inf)
    j2 = int(np.argmin(marginal))
    if np.isfinite(marginal[j2]):
        state.place(i, j2)


def _replay_per_app(state: GreedyState, order: np.ndarray,
                    choices: np.ndarray,
                    deadline: float | None = None) -> None:
    """The per-application reconciliation replay.

    Runs :func:`_replay_step` for every application in processing order.
    It is the conflict-tail fallback of :func:`_replay_waves`, and the
    reference the wave replay is tested and benchmarked against.
    """
    for k, i in enumerate(order):
        if deadline is not None and k % _DEADLINE_STRIDE == 0 \
                and time.monotonic() >= deadline:
            state.stats.truncated = True
            return
        _replay_step(state, int(i), int(choices[k]))


#: The wave replay falls back to the per-application tail once it has scanned
#: this many multiples of the pending-application count across its rounds, so
#: adversarially conflicting instances pay at most a few dense passes of
#: planning overhead on top of the serial work they genuinely need.
_WAVE_SCAN_BUDGET_FACTOR: int = 8


def _replay_waves(state: GreedyState, order: np.ndarray,
                  choices: np.ndarray,
                  deadline: float | None = None) -> None:
    """Wave-vectorised reconciliation replay of speculative winners.

    Partitions the replay order into *waves* — maximal serial-order prefixes
    of placements whose capacity dependencies are already settled — commits
    each wave with one dense batched operation
    (:meth:`GreedyState.place_batch`), and drops to the exact
    per-application step (:func:`_replay_step`) only at wave boundaries: the
    residual conflicting tail.

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
    wdemand = np.where(has_winner[:, None], dense.demand[order, targets], 0.0)
    budget = _WAVE_SCAN_BUDGET_FACTOR * n
    pos = 0
    while pos < n:
        if _expired(deadline):  # polled once per wave round
            state.stats.truncated = True
            return
        r = n - pos
        budget -= r
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
        slack = (1e-9 * (counts[sorted_t][:, None] + 1)
                 + 1e-7 * np.abs(cap_row)
                 + 1e-7 * np.abs(base))             # cumsum-cancellation guard
        settled_sorted = bool_all(prefix <= cap_row - slack) | ~hw[by_server]
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
        # Boundary: the first placement the certificate could not settle.
        _replay_step(state, int(order[pos]), int(choices[pos]))
        pos += 1
        if budget <= 0:
            # Productivity guard: conflicts are too dense for wave planning
            # to pay — finish the tail with the per-application replay.
            _replay_per_app(state, order[pos:], choices[pos:], deadline)
            return


def assignment_to_solution(problem: PlacementProblem, assignment: np.ndarray,
                           manage_power: bool = True) -> PlacementSolution:
    """Decode an (A,) assignment vector (server index or -1) into a solution."""
    placements: dict[str, int] = {}
    unplaced: list[str] = []
    for i, app in enumerate(problem.applications):
        j = int(assignment[i])
        if j >= 0:
            placements[app.app_id] = j
        else:
            unplaced.append(app.app_id)
    if manage_power:
        power_on = problem.current_power.copy()
        for j in set(placements.values()):
            power_on[j] = 1.0
    else:
        power_on = np.ones(problem.n_servers)
    return PlacementSolution(problem=problem, placements=placements,
                             power_on=power_on, unplaced=unplaced)


def dense_greedy_solution(
    problem: PlacementProblem,
    assign: np.ndarray,
    activation: np.ndarray | None = None,
    tie_breaker: np.ndarray | None = None,
) -> PlacementSolution:
    """One-shot greedy placement for an arbitrary cost matrix.

    Used by policies whose objective is not one of the registered
    :class:`ObjectiveKind` coefficient builders (e.g. the Random baseline's
    sampled costs). Shares the compiled feasibility report and resource
    tensors; only the cost matrix is built fresh.
    """
    compilation = compile_placement(problem)
    dense = DenseCosts.from_matrices(problem, compilation.report, assign,
                                     activation, tie_breaker=tie_breaker)
    state = GreedyState(dense)
    greedy_fill(state, problem.energy_j)
    return assignment_to_solution(problem, state.assignment)


@dataclass
class EpochCompilation:
    """Everything an epoch's policies share, computed once per problem.

    All attributes are lazy: the first consumer pays for a tensor, every
    later consumer reads the cache. The object must be treated as read-only.
    """

    problem: PlacementProblem
    _report: FeasibilityReport | None = field(default=None, repr=False)
    _coefficients: dict = field(default_factory=dict, repr=False)
    _dense: dict = field(default_factory=dict, repr=False)

    @property
    def report(self) -> FeasibilityReport:
        """Feasibility report (latency SLO + profile support + capacity filter)."""
        if self._report is None:
            self._report = filter_feasible_servers(self.problem)
        return self._report

    @property
    def epoch_mean_intensity(self) -> np.ndarray:
        """(S,) epoch-mean (forecast-average) carbon intensities Ī_j."""
        return self.problem.intensity

    @property
    def nearest_feasible_ms(self) -> np.ndarray:
        """(A,) one-way latency to each application's nearest feasible server.

        Delegates to :meth:`PlacementProblem.nearest_feasible_ms` — the single
        cached vector that also backs
        :meth:`PlacementSolution.latency_increase_ms`, so the simulator's
        metrics and per-solution accounting always agree.
        """
        return self.problem.nearest_feasible_ms()

    @property
    def n_nearest_unreachable(self) -> int:
        """Applications with no feasible server at all (``nearest`` is +inf)."""
        return int(np.isinf(self.nearest_feasible_ms).sum())

    def coefficients(self, objective: ObjectiveKind,
                     alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(assign, activation) objective coefficients, cached per (kind, alpha)."""
        key = (objective, float(alpha))
        if key not in self._coefficients:
            self._coefficients[key] = objective_coefficients(self.problem, objective, alpha)
        return self._coefficients[key]

    def tie_break_for(self, objective: ObjectiveKind) -> np.ndarray:
        """Documented default tie-break matrix for an objective.

        Delegates to :func:`repro.core.objective.tie_break_matrix`, the
        single source of the rule shared with the MILP builder.
        """
        return tie_break_matrix(self.problem, objective)

    def dense(self, objective: ObjectiveKind = ObjectiveKind.CARBON,
              alpha: float = 0.0, manage_power: bool = True) -> DenseCosts:
        """Dense cost tensors for an objective, cached per (kind, alpha, power)."""
        key = (objective, float(alpha), bool(manage_power))
        if key not in self._dense:
            assign, activation = self.coefficients(objective, alpha)
            if not manage_power:
                activation = np.zeros_like(activation)
            self._dense[key] = DenseCosts.from_matrices(
                self.problem, self.report, assign, activation,
                manage_power=manage_power, tie_breaker=self.tie_break_for(objective))
        return self._dense[key]


def compile_placement(problem: PlacementProblem,
                      previous: EpochCompilation | None = None) -> EpochCompilation:
    """The (memoised) compilation of a placement problem.

    Returns the same :class:`EpochCompilation` for repeated calls on the same
    problem instance — this is how the four policies, the solver registry,
    and the simulator's metrics loop end up sharing one set of tensors.

    ``previous`` enables warm-started epoch re-solves
    (:meth:`repro.core.incremental.IncrementalPlacer.resolve_epoch`): when the
    new problem covers the same applications and servers with an unchanged
    latency matrix, the previous epoch's nearest-feasible-server latencies
    are carried over instead of recomputed. Objective coefficients and the
    feasibility report are never carried over — intensities and capacities
    move between epochs.
    """
    compilation = getattr(problem, "_compilation", None)
    if compilation is None:
        compilation = EpochCompilation(problem=problem)
        if previous is not None and _layout_unchanged(problem, previous.problem):
            problem._nearest_feasible = previous.problem._nearest_feasible
        problem._compilation = compilation
    return compilation


def clear_compilation(problem: PlacementProblem) -> None:
    """Drop every cache derived from a problem's arrays.

    Call after mutating a problem in place (so nothing solves against stale
    tensors), or to time an uncompiled solve fairly. Clears the memoised
    :class:`EpochCompilation` *and* the problem-level caches it builds on
    (feasibility mask, dense resource tensors, id index maps).
    """
    problem._compilation = None
    problem._feasible_mask = None
    problem._nearest_feasible = None
    problem._dense_resources = None
    problem._app_index_map = None
    problem._server_index_map = None


def _layout_unchanged(new: PlacementProblem, old: PlacementProblem) -> bool:
    """Same apps, servers, SLOs, and latencies — the nearest-server geometry."""
    if new.n_applications != old.n_applications or new.n_servers != old.n_servers:
        return False
    if any(a is not b for a, b in zip(new.applications, old.applications)):
        return False
    if any(a is not b for a, b in zip(new.servers, old.servers)):
        return False
    return np.array_equal(new.latency_ms, old.latency_ms) and \
        np.array_equal(new.supported, old.supported)


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
# rate, latency SLO, duration) tuple that determines every per-pair quantity of
# an application. Arrivals are drawn from a small class population (sites x
# workloads for the CDN scenarios), so each class's latency row, support row,
# energy row, demand row, SLO-feasibility row, nearest-feasible latency, dense
# demand row, and baseline capacity-fit row are computed exactly once per
# scenario and every epoch's tensors are assembled by row *gather* instead of
# rebuild. The per-epoch remainder is the :class:`EpochDelta`: the epoch-mean
# intensity vector (one memoised forecast integral per zone), the arrival list
# with its class indices, and the warm-start allocation state (live capacities
# and power when the fleet is not pristine).
#
# **Bit-identity contract.** For every delta, the assembled
# :class:`PlacementProblem` tensors, the :class:`EpochCompilation` report and
# dense tensors, and therefore every placement and experiment artifact are
# byte-identical to a cold :meth:`PlacementProblem.build` of the same epoch:
# each cached row is produced by the same float expressions, in the same
# association order, as the cold builder's block fills (see the row builders
# below, each annotated with the cold expression it mirrors). A CI job byte-
# diffs fig11 artifacts with the tier force-disabled versus enabled
# (:func:`scenario_tier_enabled`), and the benchmark suite asserts the same
# identity per epoch.
#
# **Cache keys and invalidation.** Scenario compilations are memoised on the
# substrate identity — the (latency matrix, carbon service) object pair plus
# element-wise server identity — which is exactly what the CDN scenario-
# substrate cache (:func:`repro.simulator.cdn.scenario_substrate`) shares
# between scenario variants, so a latency-limit sweep reuses one scenario tier
# across all its variants. Epoch compilations are memoised on (substrate,
# epoch delta) for pristine deltas, so re-running the same scenario skips
# assembly entirely. Static rows never go stale (device catalogues and the
# latency matrix are immutable); allocation state is *not* cached — non-
# pristine deltas read live capacities and recompute the capacity-dependent
# report per epoch.


#: Environment kill-switch for the scenario tier (used by the delta-vs-cold
#: determinism CI job): set to ``1`` to force every consumer onto the cold
#: per-epoch rebuild path.
SCENARIO_TIER_ENV: str = "CARBON_EDGE_DISABLE_SCENARIO_TIER"


def scenario_tier_enabled() -> bool:
    """Whether consumers should use the scenario-lifetime compilation tier."""
    return os.environ.get(SCENARIO_TIER_ENV, "").strip().lower() not in (
        "1", "true", "yes", "on")


#: Per-scenario class caches are dropped wholesale beyond this many distinct
#: application classes (unbounded only for adversarial streams of distinct
#: request rates; catalogue workloads stay tiny). The same limit caps each of
#: the keyed row caches (blocks / energy / dense / fit rows) individually, as
#: an LRU instead of a wholesale drop. Overridable per process through
#: :data:`CLASS_CACHE_ENV` — a 10k-site planetary run wants it raised (so one
#: epoch's classes stay resident), a memory-tight soak wants it lowered.
_CLASS_CACHE_LIMIT: int = 4096

#: Environment override for :data:`_CLASS_CACHE_LIMIT` (positive integer).
CLASS_CACHE_ENV: str = "CARBON_EDGE_CLASS_CACHE_LIMIT"


def class_cache_limit() -> int:
    """The effective per-scenario class-cache bound (env override or default)."""
    raw = os.environ.get(CLASS_CACHE_ENV, "").strip()
    if not raw:
        return _CLASS_CACHE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        return _CLASS_CACHE_LIMIT
    return limit if limit > 0 else _CLASS_CACHE_LIMIT


#: Pristine epoch compilations memoised per scenario (LRU).
_EPOCH_MEMO_LIMIT: int = 64


@dataclass(frozen=True)
class EpochDelta:
    """Everything that changes between two epochs of one scenario.

    Attributes
    ----------
    hour / horizon_hours / use_forecast:
        The epoch's position and horizon (inputs of the intensity integral).
    applications:
        The epoch's arrival batch.
    class_indices:
        (A,) index of each application's class in the scenario's class table
        (valid for the table generation stamped in ``class_generation``).
    intensity:
        (S,) epoch-mean carbon intensities Ī_j (the forecast integral,
        computed once per zone and gathered per server).
    capacities / current_power:
        Warm-start allocation state: per-server available capacity and power
        at the epoch's start. For a pristine fleet these are the scenario
        baselines (all capacity free, every server on).
    baseline_capacity:
        Capacities equal the scenario baseline (enables the cached
        capacity-fit report rows).
    pristine:
        Fully pristine fleet state (baseline capacity *and* every server on)
        — the precondition for memoising the assembled compilation.
    """

    hour: int
    horizon_hours: float
    use_forecast: bool
    #: The epoch's arrivals: a tuple of ``Application`` objects (object path)
    #: or a columnar :class:`~repro.workloads.generator.ApplicationBatch`.
    applications: "tuple | ApplicationBatch"
    class_indices: np.ndarray
    intensity: np.ndarray
    capacities: tuple
    current_power: np.ndarray
    baseline_capacity: bool
    pristine: bool
    #: Generation of the scenario's class table these indices point into
    #: (the table is dropped wholesale past its cache limit; a delta held
    #: across such a trim must have its indices re-derived, not trusted).
    class_generation: int = 0

    def memo_key(self) -> tuple | None:
        """Hashable identity of a pristine delta (``None`` when not memoisable)."""
        if not self.pristine:
            return None
        apps = self.applications
        if isinstance(apps, ApplicationBatch):
            # Formulaic batch ids are fully determined by (interval, count) —
            # no per-app tuple needed; the class indices capture the content.
            ids: tuple = (apps.interval_index, len(apps)) \
                if apps.explicit_ids is None else apps.explicit_ids
            return ("columnar", self.hour, float(self.horizon_hours),
                    self.use_forecast, ids, self.class_indices.tobytes())
        return (self.hour, float(self.horizon_hours), self.use_forecast,
                tuple(app.app_id for app in apps),
                tuple(int(k) for k in self.class_indices))


@dataclass
class _WorkloadBlock:
    """Static per-(workload, request rate) rows over the server axis."""

    #: (S,) bool — servers with a usable profile for the workload.
    supported: np.ndarray
    #: (S,) shared demand vectors (``_EMPTY_DEMAND`` where unsupported).
    demand_row: list
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
        #: Latency-matrix column of each server's site.
        self.server_cols = np.asarray(
            [latency.index_of(srv.site) for srv in self.servers], dtype=np.intp)
        self.base_power_w = np.array([srv.base_power_w for srv in self.servers])
        self._zones = [srv.zone_id for srv in self.servers]
        # Device-class groups in first-occurrence order, exactly as the cold
        # builder's server_classes dict iterates them.
        classes: dict[tuple, list[int]] = {}
        for j, srv in enumerate(self.servers):
            accel = srv.accelerator.name if srv.accelerator is not None else None
            classes.setdefault((accel, srv.cpu.name), []).append(j)
        self._server_classes = {key: np.asarray(cols, dtype=np.intp)
                                for key, cols in classes.items()}
        # Lazily captured pristine-fleet baselines.
        self._baseline_capacities: list | None = None
        self._baseline_capacity_dense: dict[tuple, np.ndarray] = {}
        # Class tables (see _class_of) and derived row caches. The keyed row
        # caches are individually LRU-bounded at class_cache_limit(); the
        # positional class tables are append-only (indices reference
        # positions) and dropped wholesale by _trim_class_caches instead.
        self._class_index: dict[tuple, int] = {}
        self._class_keys: list[tuple] = []
        self._lat_rows: list[np.ndarray] = []
        self._feas_rows: list[np.ndarray] = []
        self._near: list[float] = []
        self._blocks: OrderedDict[tuple, _WorkloadBlock] = OrderedDict()
        self._energy_rows: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._dense_rows: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._fits_rows: OrderedDict[tuple, np.ndarray] = OrderedDict()
        #: Keyed rows evicted by the LRU caps (telemetry; see cache_stats).
        self._row_evictions: int = 0
        self._epoch_memo: OrderedDict[tuple, EpochCompilation] = OrderedDict()
        #: Region-restricted child compilations (see :meth:`region_slice`).
        self._region_memo: dict[tuple, "ScenarioCompilation"] = {}
        #: Bumped whenever the class table is dropped wholesale, so deltas
        #: built against an older table are detected and re-derived.
        self._class_generation: int = 0

    # -- substrate identity ------------------------------------------------------

    def matches(self, servers: Sequence["EdgeServer"],
                latency: "LatencyMatrix | None" = None,
                carbon: "CarbonIntensityService | None" = None) -> bool:
        """Whether this compilation was built over exactly these objects."""
        if latency is not None and latency is not self.latency:
            return False
        if carbon is not None and carbon is not self.carbon:
            return False
        return len(servers) == len(self.servers) and \
            all(a is b for a, b in zip(servers, self.servers))

    # -- region slicing (the hierarchical tier's memory bound) -------------------

    def region_slice(self, cols: Sequence[int]) -> "ScenarioCompilation":
        """Child compilation restricted to a subset of server columns.

        The hierarchical tier (:mod:`repro.solver.hierarchy`) solves each
        region's refinement sub-problem against one of these views: the child
        compiles class rows over only the region's servers, so peak resident
        tensor memory during refinement is bounded by the largest region
        rather than the fleet. Children share the parent's latency matrix and
        carbon service objects (gathers index the same arrays; nothing is
        copied per region beyond the class rows the region actually uses) and
        are memoised per column set, so every epoch of a scenario reuses one
        child per region.
        """
        key = tuple(int(j) for j in cols)
        child = self._region_memo.get(key)
        if child is None:
            if not key:
                raise ValueError("region_slice requires at least one server column")
            child = ScenarioCompilation([self.servers[j] for j in key],
                                        self.latency, self.carbon)
            self._region_memo[key] = child
        return child

    # -- static row builders (each mirrors one cold-build expression) ------------

    def _lru_get(self, cache: OrderedDict, key: tuple):
        """Fetch from a keyed row cache, refreshing the entry's recency."""
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value

    def _lru_put(self, cache: OrderedDict, key: tuple, value) -> None:
        """Insert into a keyed row cache, evicting the oldest rows past the
        class-cache limit (a memo, not state — recomputation is bit-identical)."""
        cache[key] = value
        limit = class_cache_limit()
        while len(cache) > limit:
            cache.popitem(last=False)
            self._row_evictions += 1

    def _block(self, workload: str, rate: float) -> _WorkloadBlock:
        """Support/demand rows for one (workload, request rate) pair."""
        key = (workload, rate)
        block = self._lru_get(self._blocks, key)
        if block is None:
            s = len(self.servers)
            supported = np.zeros(s, dtype=bool)
            demand_row: list = [None] * s
            demand_keys: set[str] = set()
            groups: list = []
            for (accel, cpu), cols in self._server_classes.items():
                profile = _resolve_profile(workload, accel, cpu)
                if profile is None:
                    continue
                supported[cols] = True
                vec = _demand_for(workload, accel, cpu, rate, profile)
                demand_keys.update(vec.keys())
                groups.append((cols, profile, vec))
                for j in cols:
                    demand_row[j] = vec
            block = _WorkloadBlock(
                supported=supported,
                demand_row=[v if v is not None else _EMPTY_DEMAND for v in demand_row],
                demand_keys=frozenset(demand_keys),
                groups=groups)
            self._lru_put(self._blocks, key, block)
        return block

    def _energy_row(self, workload: str, rate: float, horizon_hours: float) -> np.ndarray:
        """(S,) dynamic energy E_ij of one class over the placement horizon.

        Mirrors the cold builder's
        ``profile.energy_per_request_j * rates * 3600.0 * horizon_hours``
        block fill — same factors, same association order, so the values are
        bit-identical.
        """
        key = (workload, rate, float(horizon_hours))
        row = self._lru_get(self._energy_rows, key)
        if row is None:
            row = np.zeros(len(self.servers))
            for cols, profile, _ in self._block(workload, rate).groups:
                per_app = profile.energy_per_request_j * np.full(1, rate) \
                    * 3600.0 * horizon_hours
                row[cols] = per_app[0]
            self._lru_put(self._energy_rows, key, row)
        return row

    def _dense_row(self, workload: str, rate: float, keys: tuple) -> np.ndarray:
        """(S, K) dense demand row of one class over an epoch's resource keys."""
        cache_key = (workload, rate, keys)
        row = self._lru_get(self._dense_rows, cache_key)
        if row is None:
            row = np.zeros((len(self.servers), len(keys)))
            for cols, _, vec in self._block(workload, rate).groups:
                row[cols] = np.array([vec.get(key) for key in keys])
            self._lru_put(self._dense_rows, cache_key, row)
        return row

    def _fits_row(self, workload: str, rate: float, keys: tuple) -> np.ndarray:
        """(S,) standalone capacity fit of one class at the *baseline* capacity.

        Mirrors ``filter_feasible_servers``'s
        ``np.all(demand <= capacity[None] + 1e-9, axis=-1)`` — only valid
        while the fleet holds no allocations.
        """
        cache_key = (workload, rate, keys)
        row = self._lru_get(self._fits_rows, cache_key)
        if row is None:
            capacity = self._capacity_dense(keys)
            row = np.all(self._dense_row(workload, rate, keys) <= capacity + 1e-9,
                         axis=-1)
            self._lru_put(self._fits_rows, cache_key, row)
        return row

    def _capacity_dense(self, keys: tuple, capacities: list | None = None) -> np.ndarray:
        """(S, K) capacity tensor over ``keys`` (baseline cached, live computed).

        Mirrors ``PlacementProblem._dense_frame`` including the reshape that
        keeps a zero-width resource axis well-formed.
        """
        if capacities is None:
            cached = self._baseline_capacity_dense.get(keys)
            if cached is not None:
                return cached
            capacities = self._baseline()
            dense = np.array([[cap.get(key) for key in keys] for cap in capacities],
                             dtype=float).reshape(len(self.servers), len(keys))
            self._baseline_capacity_dense[keys] = dense
            return dense
        return np.array([[cap.get(key) for key in keys] for cap in capacities],
                        dtype=float).reshape(len(self.servers), len(keys))

    def _baseline(self) -> list:
        """Pristine-fleet available capacities.

        Derived from ``total_capacity`` (not a live ``available_capacity``
        snapshot) so the baseline is correct no matter what allocation state
        the fleet is in when first consulted. The expression mirrors what
        ``EdgeServer.available_capacity`` evaluates to on an unallocated
        server — ``total - zeros(total.keys())`` — so the values are
        bit-identical to a cold build over a pristine fleet.
        """
        if self._baseline_capacities is None:
            baseline = []
            for srv in self.servers:
                total = srv.total_capacity
                baseline.append(total - ResourceVector.zeros(tuple(total.keys())))
            self._baseline_capacities = baseline
        return self._baseline_capacities

    def _class_of(self, app: "Application") -> int:
        """Index of an application's class, registering it on first sight."""
        return self._register_class(app.source_site, app.workload,
                                    app.request_rate_rps, app.latency_slo_ms,
                                    app.duration_hours)

    def _register_class(self, source_site: str, workload: str, rate: float,
                        slo_ms: float, duration_hours: float) -> int:
        """Index of one (site, workload, rate, slo, duration) class,
        registering its static rows on first sight."""
        key = (source_site, workload, rate, slo_ms, duration_hours)
        k = self._class_index.get(key)
        if k is None:
            block = self._block(workload, rate)
            # Mirrors the cold builder's latency gather + INFEASIBLE fill and
            # the feasible_mask / nearest_feasible_ms expressions row-wise.
            lat = self.latency.matrix_ms[
                self.latency.index_of(source_site), self.server_cols].astype(float)
            lat[~block.supported] = INFEASIBLE_LATENCY_MS
            feas = (2.0 * lat <= slo_ms + 1e-9) & block.supported
            near = float(np.where(feas, lat, np.inf).min())
            k = len(self._class_keys)
            self._class_index[key] = k
            self._class_keys.append((source_site, workload, rate, slo_ms))
            self._lat_rows.append(lat)
            self._feas_rows.append(feas)
            self._near.append(near)
        return k

    def _batch_class_indices(self, batch: ApplicationBatch) -> np.ndarray:
        """(A,) scenario class indices of a columnar batch's applications.

        Registers the batch's unique classes in **first-arrival order** — the
        order a per-application loop over the batch would first encounter
        them — so the resulting indices (and every downstream float
        accumulation keyed on them) are bit-identical to the object path's.
        One loop over C unique classes replaces A per-app lookups.
        """
        order = np.argsort(batch.class_first_occurrence(), kind="stable")
        scen = np.empty(batch.n_classes, dtype=np.intp)
        sites, workloads = batch.site_names, batch.workload_names
        for c in order:
            c = int(c)
            scen[c] = self._register_class(
                sites[int(batch.class_site_idx[c])],
                workloads[int(batch.class_workload_idx[c])],
                float(batch.class_rate_rps[c]),
                float(batch.class_slo_ms[c]),
                float(batch.class_duration_h[c]))
        return scen[batch.class_idx]

    def _trim_class_caches(self) -> None:
        """Wholesale drop of the class tables past the cache limit (a memo,
        not state — recomputation is cheap and bit-identical)."""
        if len(self._class_index) < class_cache_limit():
            return
        self._class_generation += 1
        self._class_index.clear()
        self._class_keys.clear()
        self._lat_rows.clear()
        self._feas_rows.clear()
        self._near.clear()
        self._dense_rows.clear()
        self._fits_rows.clear()
        self._energy_rows.clear()
        self._blocks.clear()
        self._epoch_memo.clear()

    def cache_stats(self) -> dict:
        """Size telemetry for the per-class caches (diagnostics, benches).

        Kept off the experiment artifacts on purpose: cache occupancy is
        per-process (it differs across ``--workers`` splits), so recording it
        there would break the byte-identity contract.
        """
        row_bytes = sum(r.nbytes for r in self._lat_rows)
        row_bytes += sum(r.nbytes for r in self._feas_rows)
        row_bytes += sum(r.nbytes for r in self._energy_rows.values())
        row_bytes += sum(r.nbytes for r in self._dense_rows.values())
        row_bytes += sum(r.nbytes for r in self._fits_rows.values())
        return {
            "n_classes": len(self._class_keys),
            "n_blocks": len(self._blocks),
            "n_energy_rows": len(self._energy_rows),
            "n_dense_rows": len(self._dense_rows),
            "n_fits_rows": len(self._fits_rows),
            "row_bytes": int(row_bytes),
            "row_evictions": int(self._row_evictions),
            "class_generation": int(self._class_generation),
            "cache_limit": class_cache_limit(),
        }

    # -- the per-epoch delta -----------------------------------------------------

    def epoch_delta(self, applications: "Sequence[Application] | ApplicationBatch",
                    hour: int, horizon_hours: float = 1.0,
                    use_forecast: bool = True) -> EpochDelta:
        """Capture one epoch's moving parts against this scenario's substrate.

        Columnar batches take the class-table fast path: classes register per
        unique class (in first-arrival order, so the indices are bit-identical
        to the per-object walk) and the per-app index vector is one gather.
        ``CARBON_EDGE_DISABLE_COLUMNAR`` forces the per-object path.
        """
        batch = applications if isinstance(applications, ApplicationBatch) else None
        if batch is not None and not columnar_enabled():
            applications, batch = tuple(batch.applications), None
        if batch is None and not isinstance(applications, tuple):
            applications = tuple(applications)
        if len(applications) == 0:
            raise ValueError("cannot build a placement problem with no applications")
        self._trim_class_caches()
        if batch is not None:
            class_indices = self._batch_class_indices(batch)
        else:
            class_indices = np.fromiter(
                (self._class_of(app) for app in applications),
                dtype=np.intp, count=len(applications))
        unallocated = all(not srv.allocations for srv in self.servers)
        all_on = all(srv.is_on for srv in self.servers)
        if unallocated:
            capacities = tuple(self._baseline())
        else:
            capacities = tuple(srv.available_capacity for srv in self.servers)
        current_power = np.array([1.0 if srv.is_on else 0.0 for srv in self.servers])
        if use_forecast:
            horizon = int(np.ceil(horizon_hours))
            by_zone = {zone: self.carbon.forecast_mean(zone, hour, horizon)
                       for zone in dict.fromkeys(self._zones)}
        else:
            by_zone = {zone: self.carbon.current_intensity(zone, hour)
                       for zone in dict.fromkeys(self._zones)}
        intensity = np.array([by_zone[zone] for zone in self._zones])
        return EpochDelta(hour=int(hour), horizon_hours=float(horizon_hours),
                          use_forecast=use_forecast, applications=applications,
                          class_indices=class_indices, intensity=intensity,
                          capacities=capacities, current_power=current_power,
                          baseline_capacity=unallocated,
                          pristine=unallocated and all_on,
                          class_generation=self._class_generation)

    # -- assembly ----------------------------------------------------------------

    def compile_epoch(self, delta: EpochDelta) -> EpochCompilation:
        """Assemble (or recall) the epoch compilation for one delta.

        Pristine deltas are memoised on (substrate, delta), so re-running an
        identical epoch — the same arrivals against the same pristine fleet —
        returns the previously assembled problem and all of its lazily built
        tensors.
        """
        if delta.class_generation != self._class_generation:
            # The class table was dropped (cache-limit trim) after this delta
            # was captured: its indices point into a table that no longer
            # exists. Re-derive them against the current table rather than
            # gathering silently wrong rows.
            delta = self.epoch_delta(delta.applications, delta.hour,
                                     delta.horizon_hours, delta.use_forecast)
        key = delta.memo_key()
        if key is not None:
            memoised = self._epoch_memo.get(key)
            if memoised is not None:
                self._epoch_memo.move_to_end(key)
                return memoised
        problem = self._assemble_problem(delta)
        compilation = EpochCompilation(problem=problem)
        if delta.baseline_capacity:
            compilation._report = self._assemble_report(problem, delta)
        problem._compilation = compilation
        if key is not None:
            self._epoch_memo[key] = compilation
            while len(self._epoch_memo) > _EPOCH_MEMO_LIMIT:
                self._epoch_memo.popitem(last=False)
        return compilation

    def build_problem(self, applications: Sequence["Application"], hour: int,
                      horizon_hours: float = 1.0,
                      use_forecast: bool = True) -> PlacementProblem:
        """The substrate-backed fast path behind :meth:`PlacementProblem.build`."""
        delta = self.epoch_delta(applications, hour, horizon_hours, use_forecast)
        return self.compile_epoch(delta).problem

    def _assemble_problem(self, delta: EpochDelta) -> PlacementProblem:
        """Gather one epoch's problem tensors from the class rows.

        Columnar deltas build each tensor once per *unique class* and expand
        to per-application rows with a single fancy-index gather — elementwise
        the same rows the per-app stacks below copy, so both paths are
        bit-identical (the gather and the stack both materialise fresh copies
        of the same cached class rows).
        """
        ensure_dense_cell_budget(len(delta.applications), len(self.servers),
                                 context="ScenarioCompilation epoch assembly")
        idx = delta.class_indices
        batch = delta.applications \
            if isinstance(delta.applications, ApplicationBatch) else None
        if batch is not None:
            uniq, inverse = np.unique(idx, return_inverse=True)
            uniq_keys = [self._class_keys[k] for k in uniq]
            latency_ms = np.stack([self._lat_rows[k] for k in uniq])[inverse]
            supported = np.stack(
                [self._block(w, r).supported for _, w, r, _ in uniq_keys])[inverse]
            energy_j = np.stack(
                [self._energy_row(w, r, delta.horizon_hours)
                 for _, w, r, _ in uniq_keys])[inverse]
            uniq_demand_rows = [self._block(w, r).demand_row
                                for _, w, r, _ in uniq_keys]
            demands = [uniq_demand_rows[c] for c in inverse]
            applications: "Sequence[Application]" = LazyApplications(batch)
            epoch_key_source = uniq_keys
        else:
            class_keys = [self._class_keys[k] for k in idx]
            latency_ms = np.stack([self._lat_rows[k] for k in idx])
            supported = np.stack(
                [self._block(w, r).supported for _, w, r, _ in class_keys])
            energy_j = np.stack([self._energy_row(w, r, delta.horizon_hours)
                                 for _, w, r, _ in class_keys])
            demands = [self._block(w, r).demand_row for _, w, r, _ in class_keys]
            applications = list(delta.applications)
            epoch_key_source = class_keys
        problem = PlacementProblem(
            applications=applications,
            servers=list(self.servers),
            latency_ms=latency_ms,
            energy_j=energy_j,
            demands=demands,
            intensity=delta.intensity,
            capacities=list(delta.capacities),
            base_power_w=self.base_power_w.copy(),
            current_power=delta.current_power,
            horizon_hours=delta.horizon_hours,
            supported=supported,
        )
        # Seed every lazy problem cache the cold path would derive from the
        # same rows: the SLO+support mask, the nearest-feasible latencies, and
        # the dense resource tensors.
        keys = self._epoch_keys(epoch_key_source)
        if batch is not None:
            problem._feasible_mask = np.stack(
                [self._feas_rows[k] for k in uniq])[inverse]
            problem._nearest_feasible = np.array(
                [self._near[k] for k in uniq])[inverse]
            demand_dense = np.stack(
                [self._dense_row(w, r, keys) for _, w, r, _ in uniq_keys])[inverse]
        else:
            problem._feasible_mask = np.stack([self._feas_rows[k] for k in idx])
            problem._nearest_feasible = np.array([self._near[k] for k in idx])
            demand_dense = np.stack(
                [self._dense_row(w, r, keys) for _, w, r, _ in class_keys])
        if delta.baseline_capacity:
            capacity_dense = self._capacity_dense(keys)
        else:
            capacity_dense = self._capacity_dense(keys, list(delta.capacities))
        problem._dense_resources = (keys, capacity_dense, demand_dense)
        return problem

    def _epoch_keys(self, class_keys: list) -> tuple:
        """Sorted resource keys spanning the baseline capacities and the
        epoch's demand blocks (mirrors ``PlacementProblem._dense_frame``)."""
        key_set: set[str] = set()
        for cap in self._baseline():
            key_set.update(cap.keys())
        for _, workload, rate, _ in class_keys:
            key_set.update(self._block(workload, rate).demand_keys)
        return tuple(sorted(key_set))

    def _assemble_report(self, problem: PlacementProblem,
                         delta: EpochDelta) -> FeasibilityReport:
        """Gather the feasibility report from the cached class + fit rows.

        Only valid at baseline capacity (the fit rows are); non-pristine
        deltas leave the report to the lazy vectorised filter, which reads
        the seeded dense tensors against the live capacities.
        """
        keys, _, _ = problem._dense_resources
        feasible = problem._feasible_mask
        if len(keys):
            if isinstance(delta.applications, ApplicationBatch):
                uniq, inverse = np.unique(delta.class_indices, return_inverse=True)
                fits = np.stack(
                    [self._fits_row(w, r, keys)
                     for _, w, r, _ in (self._class_keys[k] for k in uniq)])[inverse]
            else:
                class_keys = [self._class_keys[k] for k in delta.class_indices]
                fits = np.stack(
                    [self._fits_row(w, r, keys) for _, w, r, _ in class_keys])
            mask = feasible & fits
        else:
            mask = feasible.copy()
        unplaceable = np.flatnonzero(~mask.any(axis=1)).tolist()
        useful = sorted(set(np.flatnonzero(mask.any(axis=0)).tolist()))
        return FeasibilityReport(mask=mask, unplaceable=unplaceable,
                                 useful_servers=useful)


#: Scenario-compilation cache: keyed on the substrate identity — the latency
#: matrix + carbon service objects plus the server objects themselves (so two
#: fleets sharing one latency/carbon pair hold separate entries instead of
#: evicting each other), validated against element-wise server identity on
#: every hit. The cached compilation pins its substrate objects, so the ids
#: in the key can never be recycled while the entry lives. Bounded LRU
#: mirroring the CDN scenario-substrate cache.
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
    """Drop every cached scenario compilation (and their epoch memos)."""
    _SCENARIO_CACHE.clear()
