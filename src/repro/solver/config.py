"""Dependency-free solver-layer constants and configuration.

These live in their own module (importing nothing from the rest of the
package) so that both the backend registry and the policy layer can read them
without creating an import cycle between :mod:`repro.solver` and
:mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: "auto" switches from the exact to the heuristic backend above this number
#: of candidate (application, server) pairs.
AUTO_EXACT_PAIR_LIMIT: int = 4000

#: "auto" never picks the exact backend with less than this much budget (s).
AUTO_MIN_EXACT_BUDGET_S: float = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Which solver tier answers a solve, and how wide its exact search runs.

    The objective, budgets and warm starts — the knobs that state *what* is
    solved — live on :class:`~repro.solver.backend.SolveRequest`. Every field
    here can change the answer, each in a documented way:

    * The *hierarchy* knobs (``hierarchy_regions``, ``refine_backend``)
      select the cluster-then-refine tier of :mod:`repro.solver.hierarchy`,
      which deliberately trades optimality for memory and scale. Within a
      fixed hierarchy configuration the answer is a pure function of the
      inputs (worker counts never change it), and the coarse/refine
      objective gap versus flat is recorded, never hidden.
      Backends never see these knobs: the hierarchy consumes them above the
      backend layer and hands each region's restricted sub-problem to the
      registry with ``hierarchy_regions=1``.
    * ``num_search_workers`` widens the anytime exact backends'
      (``cpsat``/``milp``) search. Under a *finite* time budget the incumbent
      held at the deadline may differ between worker counts (a run to proven
      optimality returns the same objective regardless). The recorded
      ``solver_params`` on the solution always state the worker count used,
      so artifacts remain attributable. The heuristic-family backends ignore
      the knob entirely.

    Parameters
    ----------
    hierarchy_regions:
        Number of geographic regions for the cluster-then-refine hierarchy.
        ``1`` keeps the flat solve; higher values cluster the fleet into that
        many regions, run a coarse apps×regions pass, and refine each region
        independently.
    refine_backend:
        Registry backend name used for each region's refinement sub-solve
        when ``hierarchy_regions > 1`` (e.g. ``"greedy"``, ``"auto"``).
    num_search_workers:
        Parallel search workers for the anytime exact backends (CP-SAT's
        portfolio search; the MILP wrapper's thread count where supported).
        ``1`` keeps the single-worker search.
    """

    hierarchy_regions: int = 1
    refine_backend: str = "greedy"
    num_search_workers: int = 1

    def __post_init__(self) -> None:
        if self.num_search_workers < 1:
            raise ValueError(
                f"num_search_workers must be >= 1, got {self.num_search_workers}")
        if self.hierarchy_regions < 1:
            raise ValueError(
                f"hierarchy_regions must be >= 1, got {self.hierarchy_regions}")
        if not self.refine_backend or not isinstance(self.refine_backend, str):
            raise ValueError(
                f"refine_backend must be a non-empty backend name, "
                f"got {self.refine_backend!r}")


#: Shared default configuration (flat solve).
DEFAULT_SOLVER_CONFIG = SolverConfig()
