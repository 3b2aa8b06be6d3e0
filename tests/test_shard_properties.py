"""Property-based invariants of the greedy placement kernel (hypothesis).

The kernel (:func:`repro.solver.compile.greedy_fill`) runs one of two
schedules: the speculate-and-revalidate schedule with its wave replay when the
activation channel is cold, and the naive per-row loop otherwise. Both carry a
hard determinism contract: the batched schedule must be *bit-identical* to the
naive loop — same assignment, same remaining capacity down to float arithmetic
order, same served counts. These tests hammer that contract plus the physical
invariants every fill must uphold (capacity never exceeded, demand
conservation) on randomized dense instances and on randomized
:class:`~repro.core.problem.PlacementProblem`\\ s. The replay's conflict tail
runs one cursor per class; it is held to a per-application replay of
:func:`_replay_step` (:func:`_replay_per_app`, the reference kept here) on
instances whose applications share a few class rows and whose classes share
a few demand blocks, and its premise (a class row, and a class's block row,
reads like each of its applications' rows) is checked on every producer of
class tables.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import TraceSet
from repro.cluster.fleet import build_regional_fleet
from repro.core.filters import capacity_fits
from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.datasets.cities import default_city_catalog
from repro.datasets.regions import CENTRAL_EU
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.network.latency import build_latency_matrix
from repro.simulator.cdn import CDNSimulator
from repro.simulator.scenario import CDNScenario
from repro.solver import compile as compile_module
from repro.solver import hierarchy
from repro.solver.backend import SolveRequest
from repro.solver.compile import (
    DenseCosts,
    GreedyState,
    ScenarioCompilation,
    _argmin_chunk,
    _greedy_fill_live,
    _pending_order,
    _replay_classes,
    _replay_step,
    _replay_waves,
    compile_placement,
    greedy_fill,
)
from repro.solver.config import SolverConfig
from repro.solver.registry import get_backend
from repro.workloads.application import Application
from repro.workloads.generator import ApplicationGenerator

from tests.conftest import cold_build, cold_builds

# -- randomized dense instances ------------------------------------------------


@st.composite
def dense_instances(draw):
    """A random warm-started GreedyState over one-class-per-app DenseCosts.

    Deliberately adversarial for the kernel: contended capacity,
    initially-off servers with nonzero (even negative) activation costs,
    occasional ``inf`` costs inside the mask, and zero-width resource axes.
    """
    n_apps = draw(st.integers(1, 10))
    n_servers = draw(st.integers(1, 6))
    n_keys = draw(st.integers(0, 2))
    mask = draw(hnp.arrays(bool, (n_apps, n_servers)))
    capacity = draw(hnp.arrays(
        float, (n_servers, n_keys),
        elements=st.floats(0.0, 8.0, allow_nan=False, width=32)))
    demand = draw(hnp.arrays(
        float, (n_apps, n_servers, n_keys),
        elements=st.floats(0.0, 5.0, allow_nan=False, width=32)))
    finite_cost = draw(hnp.arrays(
        float, (n_apps, n_servers),
        elements=st.floats(-5.0, 5.0, allow_nan=False, width=32)))
    inf_spots = draw(hnp.arrays(bool, (n_apps, n_servers)))
    inject_inf = draw(st.booleans())
    cost = np.where(mask, finite_cost, np.inf)
    if inject_inf:
        cost = np.where(inf_spots, np.inf, cost)
    activation = draw(hnp.arrays(
        float, (n_servers,),
        elements=st.floats(-2.0, 4.0, allow_nan=False, width=32)))
    initially_on = draw(hnp.arrays(bool, (n_servers,)))
    energy = draw(hnp.arrays(
        float, (n_apps, n_servers),
        elements=st.floats(0.0, 9.0, allow_nan=False, width=32)))
    dense = DenseCosts(keys=[f"r{k}" for k in range(n_keys)], demand=demand,
                       capacity=capacity.astype(float), mask=mask, cost=cost,
                       raw_assign=cost, energy=energy, activation=activation,
                       initially_on=initially_on, row_class=np.arange(n_apps),
                       class_block=np.arange(n_apps))
    state = GreedyState(dense)
    warm = draw(st.lists(
        st.tuples(st.integers(0, n_apps - 1), st.integers(0, n_servers - 1)),
        max_size=n_apps))
    for i, j in warm:
        if mask[i, j] and state.assignment[i] < 0 and \
                capacity_fits(demand[i, j], state.capacity_left[j]):
            state.place(i, j)
    return state


COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])


def _replay_per_app(state: GreedyState, order: np.ndarray,
                    choices: np.ndarray) -> None:
    """The per-application reference replay: the exact replay step for every
    application in processing order."""
    for i, j in zip(order, choices):
        _replay_step(state, int(i), int(j))


def _per_app(dense: DenseCosts) -> DenseCosts:
    """The same instance with its class and block tables expanded to one row
    per application (one class and one block per application)."""
    rc = dense.row_class
    return replace(dense, demand=dense.demand[dense.class_block[rc]],
                   mask=dense.mask[rc], cost=dense.cost[rc],
                   raw_assign=dense.raw_assign[rc], energy=dense.energy[rc],
                   row_class=np.arange(len(rc)), class_block=np.arange(len(rc)))


def _assert_same_state(reference: GreedyState, arm: GreedyState) -> None:
    assert np.array_equal(reference.assignment, arm.assignment)
    # Bit-equal, not allclose: same float subtractions in the same order.
    assert np.array_equal(reference.capacity_left, arm.capacity_left)
    assert np.array_equal(reference.served, arm.served)


@settings(max_examples=120, **COMMON)
@given(dense_instances())
def test_fill_never_exceeds_capacity(instance):
    state = instance
    greedy_fill(state)
    dense = state.dense
    used = np.zeros_like(dense.capacity)
    for i, j in enumerate(state.assignment):
        if j >= 0:
            used[j] += dense.demand[i, j]
    # The kernel tolerates 1e-9 per placement; allow the accumulated slack.
    tolerance = 1e-9 * max(1, len(state.assignment))
    assert np.all(used <= dense.capacity + tolerance)


@settings(max_examples=120, **COMMON)
@given(dense_instances())
def test_fill_conserves_demand_and_state(instance):
    """Every application is assigned at most once, within its mask, and the
    shared state is exactly the ledger of the placements made."""
    state = instance
    greedy_fill(state)
    dense = state.dense
    n_servers = dense.capacity.shape[0]
    expected_capacity = dense.capacity.copy()
    expected_served = np.zeros(n_servers, dtype=int)
    for i, j in enumerate(state.assignment):
        assert -1 <= j < n_servers
        if j >= 0:
            assert dense.mask[i, j], "placement outside the candidate mask"
            expected_capacity[j] -= dense.demand[i, j]
            expected_served[j] += 1
    np.testing.assert_allclose(state.capacity_left, expected_capacity,
                               rtol=1e-9, atol=1e-9)
    assert np.array_equal(state.served, expected_served)


# -- randomized placement problems --------------------------------------------

_CATALOG = default_city_catalog()
_CITIES = CENTRAL_EU.cities(_CATALOG)
_NAMES = [c.name for c in _CITIES]
_LATENCY = build_latency_matrix(_NAMES, _CATALOG.coordinates_array(_NAMES),
                                countries=[c.country for c in _CITIES])

app_strategy = st.builds(
    dict,
    workload=st.sampled_from(["ResNet50", "EfficientNetB0", "YOLOv4", "Sci"]),
    source=st.sampled_from(_NAMES),
    slo_ms=st.sampled_from([6.0, 12.0, 20.0, 40.0]),
    rate_rps=st.floats(min_value=1.0, max_value=40.0),
)

intensity_strategy = st.lists(st.floats(min_value=10.0, max_value=900.0),
                              min_size=5, max_size=5)


def _build_problem(app_specs, intensities):
    fleet = build_regional_fleet(CENTRAL_EU)
    traces = TraceSet.from_mapping({
        zone: np.full(24, value)
        for zone, value in zip(CENTRAL_EU.zone_ids(_CATALOG), intensities)
    })
    carbon = CarbonIntensityService(traces=traces)
    apps = [Application(app_id=f"app-{k}", workload=spec["workload"],
                        source_site=spec["source"], latency_slo_ms=spec["slo_ms"],
                        request_rate_rps=spec["rate_rps"], duration_hours=1.0)
            for k, spec in enumerate(app_specs)]
    return PlacementProblem.build(apps, fleet.servers(), _LATENCY, carbon, hour=0,
                                  horizon_hours=1.0)


@settings(max_examples=20, **COMMON)
@given(st.lists(app_strategy, min_size=1, max_size=10), intensity_strategy)
def test_local_search_objective_monotone(app_specs, intensities):
    """Objective monotonicity: local search only ever improves on the greedy
    construction it starts from (same placements count, lower-or-equal raw
    objective), and both answers pass the solution validator."""
    from repro.solver.backend import raw_objective_value

    problem = _build_problem(app_specs, intensities)
    greedy = get_backend("greedy").solve(SolveRequest(problem=problem))
    improved = get_backend("heuristic").solve(SolveRequest(problem=problem))
    assert validate_solution(greedy) == []
    assert validate_solution(improved) == []
    assert improved.n_placed >= greedy.n_placed
    if improved.n_placed == greedy.n_placed:
        request = SolveRequest(problem=problem)
        assert raw_objective_value(request, improved) <= \
            raw_objective_value(request, greedy) + 1e-9


@settings(max_examples=150, **COMMON)
@given(dense_instances())
def test_cold_speculative_schedule_is_bit_identical_to_naive_loop(instance):
    """The serial kernel's speculate-and-revalidate fast path must reproduce
    the naive per-row schedule exactly on every instance it dispatches for.

    ``greedy_fill`` auto-routes cold activation channels onto the batched
    schedule; this test pins the naive loop as the reference arm explicitly
    (adversarial inf-costs-inside-the-mask, warm starts, and zero-width
    resource axes included).
    """
    state = instance
    naive = deepcopy(state)
    _greedy_fill_live(naive, _pending_order(naive))
    auto = deepcopy(state)
    greedy_fill(auto)
    assert np.array_equal(naive.assignment, auto.assignment)
    # Bit-equal, not allclose: the replay must reproduce the naive loop's
    # float subtraction sequence exactly.
    assert np.array_equal(naive.capacity_left, auto.capacity_left)
    assert np.array_equal(naive.served, auto.served)


# -- wave-vectorised reconciliation -------------------------------------------


@settings(max_examples=100, **COMMON)
@given(dense_instances())
def test_wave_replay_matches_per_app_replay_and_live_loop(instance):
    """Wave commits and the per-application replay are the same program: for
    the same speculative winners both reproduce each other bit-for-bit —
    assignment, remaining capacity down to float arithmetic order, and served
    counts. On a cold activation channel both also equal the naive loop."""
    state = instance
    dense = state.dense
    order = _pending_order(state)
    choices = _argmin_chunk(dense, order)
    per_app = deepcopy(state)
    _replay_per_app(per_app, order, choices)
    wave = deepcopy(state)
    _replay_waves(wave, order, choices)
    _assert_same_state(per_app, wave)
    cold = not ((dense.activation != 0.0) & ~dense.initially_on
                & (state.served == 0)).any() and np.isfinite(dense.activation).all()
    if cold:
        live = deepcopy(state)
        _greedy_fill_live(live, order)
        _assert_same_state(live, wave)
    filled = deepcopy(state)
    greedy_fill(filled)
    assert 0.0 <= filled.stats.revalidation_rate <= 1.0


@settings(max_examples=100, **COMMON)
@given(dense_instances(), st.randoms(use_true_random=False))
def test_place_batch_replays_sequential_place_exactly(instance, rnd):
    """A batched wave commit is arithmetically *the same program* as the
    per-placement loop: ``np.subtract.at`` applies repeated server indices in
    order of appearance, so remaining capacity matches bit-for-bit even when
    a wave lands several placements on one server."""
    state = instance
    n_apps, n_servers = state.dense.mask.shape
    pending = [i for i in range(n_apps) if state.assignment[i] < 0]
    rnd.shuffle(pending)
    apps = pending[:rnd.randint(0, len(pending))]
    servers = [rnd.randrange(n_servers) for _ in apps]

    loop = deepcopy(state)
    for i, j in zip(apps, servers):
        loop.place(int(i), int(j))
    batch = deepcopy(state)
    batch.place_batch(np.asarray(apps, dtype=int),
                      np.asarray(servers, dtype=int))
    assert np.array_equal(loop.assignment, batch.assignment)
    assert np.array_equal(loop.capacity_left, batch.capacity_left)
    assert np.array_equal(loop.served, batch.served)


# -- the per-class conflict tail ------------------------------------------------


@st.composite
def class_instances(draw):
    """A random cold-channel DenseCosts whose applications share a few
    class rows, and whose classes share a few demand blocks.

    Each application draws one of a few class rows (cost, mask, energy) and
    ``row_class`` records the draw; each class draws one of a few block
    demand rows and ``class_block`` records that draw, so several classes
    read one demand row. Otherwise as adversarial as
    :func:`dense_instances`: contended capacity, ``inf`` costs inside the
    mask, zero-width resource axes and warm starts.
    """
    n_classes = draw(st.integers(1, 4))
    n_blocks = draw(st.integers(1, n_classes))
    n_apps = draw(st.integers(1, 14))
    n_servers = draw(st.integers(1, 6))
    n_keys = draw(st.integers(0, 2))
    class_mask = draw(hnp.arrays(bool, (n_classes, n_servers)))
    class_block = draw(hnp.arrays(np.int64, (n_classes,),
                                  elements=st.integers(0, n_blocks - 1)))
    # Decimal fractions leave float residue after subtraction (0.3 - 0.1 is
    # just under 0.2), which is what the fit test's FIT_SLACK absorbs.
    decimals = st.sampled_from([0.1, 0.2, 0.3, 0.7])
    block_demand = draw(hnp.arrays(
        float, (n_blocks, n_servers, n_keys),
        elements=st.floats(0.0, 5.0, allow_nan=False, width=32) | decimals))
    finite_cost = draw(hnp.arrays(
        float, (n_classes, n_servers),
        elements=st.floats(-5.0, 5.0, allow_nan=False, width=32)))
    class_cost = np.where(class_mask, finite_cost, np.inf)
    if draw(st.booleans()):
        inf_spots = draw(hnp.arrays(bool, (n_classes, n_servers)))
        class_cost = np.where(inf_spots, np.inf, class_cost)
    class_energy = draw(hnp.arrays(
        float, (n_classes, n_servers),
        elements=st.floats(0.0, 9.0, allow_nan=False, width=32)))
    capacity = draw(hnp.arrays(
        float, (n_servers, n_keys),
        elements=st.floats(0.0, 8.0, allow_nan=False, width=32) | decimals))
    row_class = draw(hnp.arrays(np.int64, (n_apps,),
                                elements=st.integers(0, n_classes - 1)))
    dense = DenseCosts(keys=[f"r{k}" for k in range(n_keys)],
                       demand=block_demand, capacity=capacity,
                       mask=class_mask, cost=class_cost, raw_assign=class_cost,
                       energy=class_energy, activation=np.zeros(n_servers),
                       initially_on=np.ones(n_servers, dtype=bool),
                       row_class=row_class, class_block=class_block)
    state = GreedyState(dense)
    warm = draw(st.lists(
        st.tuples(st.integers(0, n_apps - 1), st.integers(0, n_servers - 1)),
        max_size=n_apps))
    for i, j in warm:
        c = row_class[i]
        if class_mask[c, j] and state.assignment[i] < 0 and \
                capacity_fits(block_demand[class_block[c], j], state.capacity_left[j]):
            state.place(i, j)
    return state


@settings(max_examples=200, **COMMON)
@given(class_instances())
def test_class_tail_matches_per_app_replay(instance):
    """The per-class cursor tail and the per-application tail are the same
    program on the same order: assignment, remaining capacity bit for bit,
    served counts and the replay telemetry. Both equal the naive loop; the
    class-row processing order and winners equal the per-row ones, and a
    full fill on the class tables equals one on their per-application
    expansion."""
    state = instance
    order = _pending_order(state)
    choices = _argmin_chunk(state.dense, order)
    # The order and the winners, computed once per class, are the per-row ones.
    per_row = deepcopy(state)
    per_row.dense = _per_app(state.dense)
    assert np.array_equal(order, _pending_order(per_row))
    assert np.array_equal(choices, _argmin_chunk(per_row.dense, order))
    per_app = deepcopy(state)
    _replay_per_app(per_app, order, choices)
    classes = deepcopy(state)
    _replay_classes(classes, order, choices)
    _assert_same_state(per_app, classes)
    assert classes.stats.serial_steps == per_app.stats.serial_steps
    assert classes.stats.invalidations == per_app.stats.invalidations
    live = deepcopy(state)
    _greedy_fill_live(live, order)
    _assert_same_state(live, classes)
    # An expired deadline stops both arms before their first step.
    expired = deepcopy(state)
    _replay_classes(expired, order, choices, deadline=0.0)
    assert expired.stats.truncated == (len(order) > 0)
    _assert_same_state(state, expired)
    filled = deepcopy(state)
    greedy_fill(filled)
    greedy_fill(per_row)
    _assert_same_state(per_row, filled)


@settings(max_examples=150, **COMMON)
@given(class_instances())
def test_greedy_fill_hands_conflicting_rounds_to_class_tail(instance):
    """On instances whose applications share class rows, where a wave round
    that settles under half of what it scanned hands the rest to the class
    tail, the fill equals the naive loop."""
    state = instance
    naive = deepcopy(state)
    _greedy_fill_live(naive, _pending_order(naive))
    filled = deepcopy(state)
    greedy_fill(filled)
    _assert_same_state(naive, filled)


def test_class_tail_is_reached_through_greedy_fill():
    """Six applications of one class rank server 0 first; it holds two. The
    first wave settles only the first application (the second's prefix sum
    meets the capacity exactly, inside the slack), so the round commits one
    of six and hands the rest, boundary included, to the class tail, which
    fills server 0 and places the others on server 1."""
    n_apps = 6
    dense = DenseCosts(keys=["cpu"], demand=np.ones((1, 2, 1)),
                       capacity=np.array([[2.0], [10.0]]),
                       mask=np.ones((1, 2), dtype=bool),
                       cost=np.array([[1.0, 2.0]]),
                       raw_assign=np.array([[1.0, 2.0]]),
                       energy=np.zeros((1, 2)), activation=np.zeros(2),
                       initially_on=np.ones(2, dtype=bool),
                       row_class=np.zeros(n_apps, dtype=np.int64),
                       class_block=np.zeros(1, dtype=np.int64))
    state = GreedyState(dense)
    naive = deepcopy(state)
    _greedy_fill_live(naive, _pending_order(naive))
    with mock.patch.object(compile_module, "_replay_classes",
                           wraps=_replay_classes) as tail:
        greedy_fill(state)
    assert tail.call_count == 1
    assert len(tail.call_args.args[1]) == n_apps - 1
    assert state.stats.waves == 1 and state.stats.wave_placements == 1
    assert state.assignment.tolist() == [0, 0, 1, 1, 1, 1]
    assert state.capacity_left.tolist() == [[0.0], [6.0]]
    assert state.served.tolist() == [2, 4]
    assert state.stats.invalidations == 4
    _assert_same_state(naive, state)


def test_class_tail_shares_full_server_marks_within_a_block_only():
    """Server 0 holds two of block 0's demand 2 and then stops fitting it.
    Class 1 reads block 0 too, so its application skips server 0 untested
    and still counts the invalidation its winner's failed fit costs; class
    2 reads block 1, whose demand 1 still fits server 0, and lands there."""
    dense = DenseCosts(keys=["cpu"], demand=np.array([[[2.0], [2.0]], [[1.0], [1.0]]]),
                       capacity=np.array([[5.0], [10.0]]),
                       mask=np.ones((3, 2), dtype=bool),
                       cost=np.array([[1.0, 2.0], [1.5, 3.0], [1.0, 2.0]]),
                       raw_assign=np.array([[1.0, 2.0], [1.5, 3.0], [1.0, 2.0]]),
                       energy=np.zeros((3, 2)), activation=np.zeros(2),
                       initially_on=np.ones(2, dtype=bool),
                       row_class=np.array([0, 0, 0, 1, 2]),
                       class_block=np.array([0, 0, 1]))
    order = np.arange(5)
    choices = _argmin_chunk(dense, order)
    assert choices.tolist() == [0] * 5
    per_app = GreedyState(dense)
    _replay_per_app(per_app, order, choices)
    tail = GreedyState(dense)
    _replay_classes(tail, order, choices)
    assert tail.assignment.tolist() == [0, 0, 1, 1, 0]
    assert tail.capacity_left.tolist() == [[0.0], [6.0]]
    assert tail.served.tolist() == [3, 2]
    assert tail.stats.invalidations == 2 and tail.stats.serial_steps == 5
    _assert_same_state(per_app, tail)
    assert tail.stats.invalidations == per_app.stats.invalidations
    filled = GreedyState(dense)
    greedy_fill(filled)
    _assert_same_state(per_app, filled)


def _assert_class_tables(dense: DenseCosts) -> None:
    """Every table holds one row per class, each class has an application,
    some class repeats, and every class has a row of the demand table."""
    n_classes = len(dense.cost)
    assert np.array_equal(np.unique(dense.row_class), np.arange(n_classes))
    assert n_classes < len(dense.row_class), "no class repeats: the check is vacuous"
    for name in ("mask", "raw_assign", "energy", "class_block"):
        assert len(getattr(dense, name)) == n_classes, name
    assert 0 <= dense.class_block.min() and dense.class_block.max() < len(dense.demand)


def _assert_rows_share_class(dense: DenseCosts, problem: PlacementProblem,
                             cold: PlacementProblem) -> None:
    """The class tables of a compiled problem, read through ``row_class``
    (and the demand blocks through ``class_block``), are the per-object
    reference build's per-application demand, energy and candidate rows;
    the epoch's classes share blocks."""
    _assert_class_tables(dense)
    assert np.array_equal(dense.row_class, problem.row_class)
    assert len(dense.cost) == len(problem.latency_ms)
    rc = dense.row_class
    assert len(dense.demand) < len(dense.cost), "no block repeats: the check is vacuous"
    assert np.array_equal(dense.demand[dense.class_block[rc]], cold.demand)
    assert np.array_equal(dense.energy[rc], cold.energy_j)
    assert np.array_equal(dense.mask[rc], _candidate_mask(cold))


def _candidate_mask(cold: PlacementProblem) -> np.ndarray:
    """The per-application candidate mask of a cold build (one class and one
    block per application): SLO + support and the standalone capacity fit
    of its (A, S, K) demand."""
    return cold.feasible_mask() & capacity_fits(cold.demand, cold.capacity)


def _cold_twin(problem: PlacementProblem, simulator: CDNSimulator, hour: int,
               horizon_hours: float = 1.0) -> PlacementProblem:
    """The per-object reference build of a tier problem's epoch, over the
    simulator's fleet as it stands."""
    return cold_build(list(problem.applications), simulator.fleet.servers(),
                      simulator.latency, simulator.carbon, hour=hour,
                      horizon_hours=horizon_hours)


@pytest.fixture(scope="module")
def cdn_epoch_problem():
    """A scenario-tier CDN epoch (columnar batch, class-table assembly) and
    its per-object reference build."""
    scenario = CDNScenario(continent="EU", n_epochs=1, max_sites=8, seed=0)
    simulator = CDNSimulator(scenario=scenario)
    problem = simulator.epoch_problem(0)
    return problem, _cold_twin(problem, simulator, scenario.epoch_start_hour(0),
                               float(scenario.hours_per_epoch))


@pytest.fixture(scope="module")
def cdn_live_epoch_problem():
    """The same epoch's applications over an allocated fleet with one server
    off, and its reference build: the candidate mask reads live capacities,
    not the pristine fit rows."""
    simulator = CDNSimulator(scenario=CDNScenario(
        continent="EU", n_epochs=1, max_sites=8, seed=0))
    problem = simulator.epoch_problem(0)
    pristine = _cold_twin(problem, simulator, hour=7)
    servers = simulator.fleet.servers()
    first = servers[int(np.flatnonzero(problem.supported[problem.row_class[0]])[0])]
    demand = problem.applications[0].resource_demand_on(first)
    for srv in servers[:3]:
        while srv.can_host(demand):
            srv.allocate(f"filler-{srv.server_id}-{len(srv.allocations)}", demand)
    servers[3].power_off()
    live = simulator.scenario_compilation().build_problem(
        list(problem.applications), hour=7)
    cold = _cold_twin(live, simulator, hour=7)
    assert len(np.unique(live.row_class)) < live.n_applications
    assert not np.array_equal(_candidate_mask(cold), _candidate_mask(pristine))
    return live, cold


def _assert_class_rows_cost_like_apps(problems, objective, manage_power) -> None:
    """Costing one row per class builds exactly the per-application tensors
    read through ``row_class``, and the processing order and speculative
    winners match the per-application ones. The reference is the compiled
    per-object build of the same epoch: one class per application."""
    problem, cold = problems
    alpha = 0.5 if objective is ObjectiveKind.MULTI else 0.0
    dense = compile_placement(problem).dense(objective, alpha=alpha,
                                             manage_power=manage_power)
    _assert_rows_share_class(dense, problem, cold)

    reference = compile_placement(cold).dense(
        objective, alpha=alpha, manage_power=manage_power)
    assert np.array_equal(reference.row_class, np.arange(problem.n_applications))
    assert np.array_equal(reference.class_block, np.arange(problem.n_applications))
    for name in ("cost", "raw_assign", "mask", "energy"):
        assert np.array_equal(getattr(dense, name)[dense.row_class],
                              getattr(reference, name)), name
    assert np.array_equal(dense.demand[dense.class_block[dense.row_class]],
                          reference.demand)
    for name in ("activation", "initially_on"):
        assert np.array_equal(getattr(dense, name), getattr(reference, name)), name

    apps = _pending_order(GreedyState(dense))
    assert np.array_equal(apps, _pending_order(GreedyState(reference)))
    assert np.array_equal(_argmin_chunk(dense, apps), _argmin_chunk(reference, apps))


@pytest.mark.parametrize("manage_power", [True, False])
@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_cdn_epoch_rows_share_their_class(cdn_epoch_problem, objective,
                                          manage_power):
    _assert_class_rows_cost_like_apps(cdn_epoch_problem, objective, manage_power)


@pytest.mark.parametrize("manage_power", [True, False])
@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_cdn_live_epoch_rows_share_their_class(cdn_live_epoch_problem, objective,
                                               manage_power):
    _assert_class_rows_cost_like_apps(cdn_live_epoch_problem, objective,
                                      manage_power)


def test_cdn_epoch_fills_in_one_wave(cdn_epoch_problem):
    """A CDN epoch's speculative winners all fit: the first wave commits
    every placement and the class tail never runs."""
    problem, _ = cdn_epoch_problem
    state = GreedyState(compile_placement(problem).dense())
    with mock.patch.object(compile_module, "_replay_classes",
                           side_effect=AssertionError("class tail")):
        greedy_fill(state)
    assert state.stats.waves == 1
    assert state.stats.wave_placements == state.stats.pending
    assert state.stats.serial_steps == 0


def test_cold_build_is_one_class_per_application():
    """Without the scenario tier nothing records classes: each application
    is its own class and the tables are the per-application matrices."""
    with cold_builds():
        problem = CDNSimulator(scenario=CDNScenario(
            continent="EU", n_epochs=1, max_sites=8, seed=0)).epoch_problem(0)
    n_apps = problem.n_applications
    dense = compile_placement(problem).dense()
    assert np.array_equal(dense.row_class, np.arange(n_apps))
    assert dense.cost.shape == dense.mask.shape == (n_apps, problem.n_servers)


@pytest.mark.parametrize("columnar", [True, False])
def test_hierarchy_rows_share_their_class(columnar):
    """The coarse pass's DenseCosts and every region refinement's, built from
    a columnar batch or from an application list (which the delta wraps in a
    batch), hold one row per class."""
    fleet, latency, carbon = build_planetary_substrate(32, seed=0)
    plan = hierarchy.build_region_plan(fleet.sites(), fleet.site_coordinates(),
                                       2, seed=0)
    batch = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=40.0, mean_arrivals_per_batch=320.0,
        seed=0).generate_batch(0, 4700, n_arrivals=320)
    apps = batch if columnar else list(batch.applications)
    with mock.patch.object(hierarchy, "greedy_fill",
                           wraps=hierarchy.greedy_fill) as fill:
        outcome = hierarchy.solve_hierarchical(
            ScenarioCompilation(fleet.servers(), latency, carbon), apps, plan,
            hour=4700, config=SolverConfig(hierarchy_regions=2), seed=0)
    regions_with_apps = sum(1 for n in outcome.region_app_counts if n)
    assert fill.call_count == 1 + regions_with_apps == 3
    for call in fill.call_args_list:
        _assert_class_tables(call.args[0].dense)