"""Dependency-free solver-layer constants and the hierarchy's configuration.

These live in their own module (importing nothing from the rest of the
package) so that the backend registry and the hierarchy can read them without
creating an import cycle between :mod:`repro.solver` and :mod:`repro.core`.
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
    """Configuration of one :func:`~repro.solver.hierarchy.solve_hierarchical` call.

    The cluster-then-refine tier trades optimality for memory and scale.
    Within a fixed (region plan, configuration) the answer is a pure function
    of the inputs (worker counts never change it), and the coarse/refine
    objective gap is recorded, never hidden. Policies and flat registry solves
    take no configuration. ``solve_hierarchical`` reads neither field: both
    are only validated.

    Parameters
    ----------
    hierarchy_regions:
        Region count the caller plans for. ``solve_hierarchical`` takes the
        regions from its :class:`~repro.solver.hierarchy.RegionPlan`, so
        callers build the plan with this many regions (``planetary_sweep``
        does).
    refine_backend:
        How each region's refinement sub-problem is solved. ``"greedy"`` is
        the only value: the tier runs the greedy kernel on the region's class
        tables, and any other name is refused.
    """

    hierarchy_regions: int = 1
    refine_backend: str = "greedy"

    def __post_init__(self) -> None:
        if self.hierarchy_regions < 1:
            raise ValueError(
                f"hierarchy_regions must be >= 1, got {self.hierarchy_regions}")
        if self.refine_backend != "greedy":
            raise ValueError(
                f"refine_backend must be 'greedy' (regions are refined by the "
                f"greedy kernel on class tables), got {self.refine_backend!r}")


#: Shared default configuration (greedy refinement).
DEFAULT_SOLVER_CONFIG = SolverConfig()
