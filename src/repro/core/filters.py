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
        demand = problem.demand_dense()
        capacity = problem.capacity_dense()
        if demand.shape[-1]:
            fits = np.all(demand <= capacity[None, :, :] + 1e-9, axis=-1)
            mask &= fits
    unplaceable = np.flatnonzero(~mask.any(axis=1)).tolist()
    useful = np.flatnonzero(mask.any(axis=0)).tolist()  # ascending, unique
    return FeasibilityReport(mask=mask, unplaceable=unplaceable, useful_servers=useful)
