"""The solver-backend registry and its front-door :func:`solve`.

One problem description, interchangeable backends::

    from repro.solver import solve

    solution = solve(problem)                               # auto-select
    solution = solve(problem, backend="heuristic",          # fast path
                     time_budget_s=0.05)
    solution = solve(problem, backend="exact",              # exact, warm data
                     warm_start=previous.placements)

Backends register themselves with :func:`register_backend` (the built-ins do
so when :mod:`repro.solver.backends` is imported, which happens lazily on
first use); external packages can call it at import time and become
addressable by name with no further wiring. The built-ins are ``highs`` (alias
``exact``; the Equations 1–7 MILP solved by scipy's HiGHS), ``heuristic``,
``greedy`` and ``lp-round``. Loading them imports :mod:`scipy.optimize`, so a
process's first registry call pays for that import.

For backends that cannot guarantee a complete answer (the exact and
LP-rounding backends), ``solve`` also computes the deterministic heuristic
solution as a baseline: it is the fallback when the requested backend fails
or its budget expires, it fills in applications an exhausted incumbent left
out, and the better of (requested, baseline) under the *raw* objective is
returned — so the exact path is never reported worse than the heuristic it
could have used. Heuristic-family backends (``heuristic``, ``greedy``) are
complete by construction and skip the baseline.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.filters import FIT_SLACK, capacity_fits
from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver.config import AUTO_EXACT_PAIR_LIMIT, AUTO_MIN_EXACT_BUDGET_S

if TYPE_CHECKING:  # imported lazily at runtime: backend -> compile -> core ->
    # policies -> registry would otherwise cycle on first import
    from repro.solver.backend import PlacementSolver, SolveRequest

_BACKENDS: dict[str, Callable[[], PlacementSolver]] = {}
_ALIASES: dict[str, str] = {}
_builtins_loaded: bool = False


def register_backend(name: str, aliases: Iterable[str] = ()) -> Callable[[type], type]:
    """Class decorator registering a :class:`PlacementSolver` implementation.

    The class must be constructible with no arguments; ``solve`` instantiates
    a fresh backend per call so backends may keep per-solve state.
    """

    def decorate(cls: type) -> type:
        if name in _BACKENDS:
            raise ValueError(f"solver backend {name!r} is already registered")
        taken = [a for a in aliases if a in _ALIASES or a in _BACKENDS]
        if taken:
            raise ValueError(f"solver backend aliases already registered: {taken}")
        _BACKENDS[name] = cls
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in backend modules (registering them) exactly once.

    Guarded by an explicit flag rather than ``_BACKENDS`` being empty, so an
    external package registering its own backend first does not suppress the
    built-ins.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        import repro.solver.backends  # noqa: F401  (import side effect: registration)
        _builtins_loaded = True  # only after the import succeeds, so failures retry


def available_backends() -> tuple[str, ...]:
    """Canonical names of every registered backend, sorted."""
    _ensure_builtins()
    return tuple(sorted(_BACKENDS))


def backend_names(include_auto: bool = True) -> tuple[str, ...]:
    """Every accepted backend spelling: canonical names, aliases, and ``auto``."""
    _ensure_builtins()
    names = set(_BACKENDS) | set(_ALIASES)
    if include_auto:
        names.add("auto")
    return tuple(sorted(names))


def get_backend(name: str) -> PlacementSolver:
    """Instantiate a backend by canonical name or alias.

    Raises :class:`ValueError` for unknown names (``"auto"`` included — it is
    a selection rule, not a backend; resolve it through :func:`solve`).
    """
    _ensure_builtins()
    canonical = _ALIASES.get(name, name)
    if canonical not in _BACKENDS:
        raise ValueError(
            f"unknown solver backend {name!r}; available backends: "
            f"{', '.join(available_backends())} (plus aliases "
            f"{', '.join(sorted(_ALIASES))} and 'auto')")
    return _BACKENDS[canonical]()


def resolve_backend_name(backend: str, request: SolveRequest) -> str:
    """Resolve ``backend`` (possibly ``"auto"``) to a canonical backend name."""
    _ensure_builtins()
    if backend != "auto":
        canonical = _ALIASES.get(backend, backend)
        if canonical not in _BACKENDS:
            get_backend(backend)  # raises with the full message
        return canonical
    if request.time_budget_s is not None and request.time_budget_s < AUTO_MIN_EXACT_BUDGET_S:
        return "heuristic"
    if _candidate_pairs(request) <= AUTO_EXACT_PAIR_LIMIT:
        return "highs"
    return "heuristic"


def _candidate_pairs(request: SolveRequest) -> int:
    """(application, server) pairs left by the candidate filter: each class's
    mask row count times the applications in that class."""
    dense = request.dense()
    sizes = np.bincount(dense.row_class, minlength=len(dense.mask))
    return int(np.count_nonzero(dense.mask, axis=1) @ sizes)


def solve(
    problem: PlacementProblem,
    backend: str = "auto",
    *,
    objective: ObjectiveKind = ObjectiveKind.CARBON,
    alpha: float = 0.0,
    manage_power: bool = True,
    time_budget_s: float | None = None,
    warm_start: dict[str, int] | None = None,
    max_nodes: int | None = None,
    seed: int = 0,
) -> PlacementSolution:
    """Solve a placement problem with the requested backend.

    Parameters
    ----------
    problem:
        The placement problem instance.
    backend:
        Canonical backend name, alias, or ``"auto"`` (exact for small
        instances with enough budget, heuristic otherwise).
    objective / alpha / manage_power:
        Objective selection, forwarded to every backend.
    time_budget_s:
        Wall-clock budget shared by the whole solve (baseline included).
    warm_start:
        Previous placement (app id -> server index) seeding the heuristic —
        the incremental epoch re-solve path.
    max_nodes:
        Branch-and-bound node limit for the ``highs`` backend.
    seed:
        Seed for the randomised backends.

    Returns
    -------
    PlacementSolution
        Always a solution (empty when nothing is placeable); its
        ``backend_name`` records which backend actually produced it.
    """
    from repro.solver.backend import SolveRequest

    start = time.monotonic()
    request = SolveRequest(problem=problem, objective=objective, alpha=alpha,
                           manage_power=manage_power, time_budget_s=time_budget_s,
                           warm_start=warm_start, max_nodes=max_nodes, seed=seed,
                           started_at=start)
    name = resolve_backend_name(backend, request)
    solver = get_backend(name)

    # The requested backend runs first so it receives the full time budget.
    primary = solver.solve(request)
    if primary is not None and not getattr(solver, "needs_fallback", True):
        # Heuristic-family backends always return a complete feasible answer
        # on their own; a baseline run would be redundant work (and would
        # silently substitute local-search results for a pure-greedy request).
        primary.backend_name = name
        primary.solve_time_s = time.monotonic() - start
        primary.warm_hints_dropped = request.warm_hints_dropped
        return primary

    # The heuristic baseline runs on whatever budget remains (both its greedy
    # construction and its local search respect the request deadline — an
    # expired budget yields a valid solution flagged construction_truncated)
    # and serves as fallback, gap-filler, and quality floor.
    baseline = get_backend("heuristic").solve(request)
    assert baseline is not None  # the heuristic always returns a solution
    baseline.backend_name = "heuristic"

    chosen = baseline
    if primary is not None:
        primary.backend_name = name
        _fill_missing(request, primary, baseline)
        chosen = _better(request, primary, baseline)
    chosen.solve_time_s = time.monotonic() - start
    chosen.warm_hints_dropped = request.warm_hints_dropped
    return chosen


def _fill_missing(request: SolveRequest, primary: PlacementSolution,
                  baseline: PlacementSolution) -> None:
    """Fill applications the primary backend left out from the baseline.

    An exhausted node/time budget can return an incumbent that covers only
    part of the batch; the deterministic heuristic's choices complete it so
    callers always see every placeable application handled. A baseline choice
    is only adopted when the incumbent's remaining capacity actually fits it
    — the heuristic may have loaded that server differently — otherwise the
    application is reported unplaced (and ``_better`` then usually prefers
    the complete baseline solution).
    """
    problem = request.problem
    placed, unplaced = primary.placements, set(primary.unplaced)
    missing = [app_id for app_id in problem.app_ids()
               if app_id not in placed and app_id not in unplaced]
    if not missing:
        return
    demand, remaining = problem.demand, problem.capacity.copy()
    block = problem.class_block[problem.row_class]  # each application's block

    def take(i: int, j: int) -> None:
        left = remaining[j] - demand[block[i], j]
        # An incumbent that overloads j closes it: never add there.
        remaining[j] = 0.0 if np.any(left < -FIT_SLACK) else np.maximum(left, 0.0)

    for app_id, j in placed.items():
        take(problem.app_index(app_id), j)
    for app_id in missing:
        j = baseline.placements.get(app_id)
        i = problem.app_index(app_id)
        if j is None or not capacity_fits(demand[block[i], j], remaining[j]):
            primary.unplaced.append(app_id)
            continue
        take(i, j)
        placed[app_id] = j
        if request.manage_power:
            primary.power_on = np.asarray(primary.power_on, dtype=float)
            primary.power_on[j] = 1.0


def _better(request: SolveRequest, primary: PlacementSolution,
            baseline: PlacementSolution) -> PlacementSolution:
    """The better of two solutions: more placements, then lower raw objective."""
    from repro.solver.backend import raw_objective_value

    if baseline.n_placed > primary.n_placed:
        return baseline
    if baseline.n_placed == primary.n_placed and \
            raw_objective_value(request, baseline) < raw_objective_value(request, primary) - 1e-9:
        return baseline
    return primary
