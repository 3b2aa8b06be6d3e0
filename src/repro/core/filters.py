"""Feasible-server filtering (Algorithm 1, line 7).

Before solving the optimisation, CarbonEdge prunes servers that cannot host an
application: pairs violating the latency SLO, pairs without a workload profile
for the server's device, and (optionally) pairs whose demand exceeds the
server's available capacity on its own. The filter also reports applications
with an empty candidate set, which the policies record as unplaceable rather
than failing the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import PlacementProblem

#: Per-dimension slack of every capacity fit test: it absorbs the float
#: residue subtraction leaves (0.3 - 0.1 is just under 0.2), so a demand
#: that fills what is left still fits.
FIT_SLACK: float = 1e-9


def capacity_fits(demand: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Whether ``demand`` fits ``capacity`` on every resource dimension (the
    last axis, broadcast), each within :data:`FIT_SLACK`. A zero-width
    resource axis fits everywhere: ``np.all`` over an empty axis is True."""
    return np.all(demand <= capacity + FIT_SLACK, axis=-1)


@dataclass
class FeasibilityReport:
    """Outcome of feasible-server filtering for one problem."""

    #: (A, S) mask of pairs that remain candidates.
    mask: np.ndarray
    #: Indices of applications with no candidate server at all.
    unplaceable: list[int]
    #: Indices of servers that are a candidate for at least one application.
    useful_servers: list[int]

    @property
    def n_candidate_pairs(self) -> int:
        """Number of (application, server) pairs that survived the filter."""
        return int(self.mask.sum())

    def candidates_for(self, app_index: int) -> np.ndarray:
        """Server indices that are candidates for one application."""
        return np.flatnonzero(self.mask[app_index])


def filter_feasible_servers(problem: PlacementProblem,
                            check_capacity: bool = True) -> FeasibilityReport:
    """Apply latency, profile-support, and (optional) standalone capacity filters.

    Parameters
    ----------
    problem:
        The placement problem.
    check_capacity:
        Also drop pairs whose single-application demand already exceeds the
        server's available capacity. (Aggregate capacity is still enforced by
        the optimisation; this filter just shrinks the search space.)
    """
    mask = problem.feasible_mask().copy()
    if check_capacity:
        # Vectorised equivalent of demand.fits_within(capacity) per candidate
        # pair: compare the dense (A, S, K) demand tensor against capacity with
        # the same per-dimension slack. Pairs outside the mask have zero
        # demand rows, so restricting afterwards gives identical results.
        mask &= capacity_fits(problem.demand_dense(), problem.capacity_dense())
    unplaceable = np.flatnonzero(~mask.any(axis=1)).tolist()
    useful = np.flatnonzero(mask.any(axis=0)).tolist()  # ascending, unique
    return FeasibilityReport(mask=mask, unplaceable=unplaceable, useful_servers=useful)
