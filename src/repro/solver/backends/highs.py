"""Exact backend: the placement MILP of Equations 1–7 solved by HiGHS.

The model is built once per request from the candidate pairs of
:meth:`SolveRequest.dense() <repro.solver.backend.SolveRequest.dense>` as
vectorised sparse matrices, so it minimises exactly the tie-broken objective
every other backend minimises:

* one binary ``x`` per candidate ``(i, j)`` pair, costed by application
  ``i``'s class row, ``dense.cost[dense.row_class[i], j]``,
  then one binary ``y`` per server, costed ``dense.activation[j]`` unless the
  server is already on;
* Equation 3: ``Σ_j x_ij == 1`` for every application with a candidate;
* Equation 1: ``Σ_i demand_ijk·x_ij − capacity_jk·y_j <= 0`` per resource
  ``k`` and loaded server ``j``;
* Equation 5: ``x_ij − y_j <= 0``;
* Equation 4: ``y_j`` is bounded below by ``dense.initially_on`` (every
  server, when power is unmanaged).

``highs`` solves it with :func:`scipy.optimize.milp` under the request's time
budget and node limit and returns the best incumbent with HiGHS's gap and
dual bound; ``lp-round`` solves the same model with integrality off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import coo_matrix

from repro.core.solution import PlacementSolution
from repro.solver.backend import SolveRequest, solution_from_assignment
from repro.solver.compile import DenseCosts
from repro.solver.registry import register_backend

#: Branch-and-bound node limit when the request carries none.
DEFAULT_MAX_NODES: int = 200

#: Wall-clock budget when the request carries none.
DEFAULT_TIME_LIMIT_S: float = 30.0


@dataclass(frozen=True)
class PlacementModel:
    """The Equations 1–7 MILP over the candidate pairs of one request.

    Variables are ordered ``x`` (one per pair, row-major over the
    per-application mask) then ``y`` (one per server).
    """

    #: (P,) application and server index of every ``x`` variable.
    apps: np.ndarray
    servers: np.ndarray
    #: (A, S) of the request.
    shape: tuple[int, int]
    cost: np.ndarray
    constraints: LinearConstraint
    bounds: Bounds

    @classmethod
    def build(cls, dense: DenseCosts) -> "PlacementModel":
        apps, servers = np.nonzero(dense.mask[dense.row_class])
        pair_class = dense.row_class[apps]
        n_servers = dense.mask.shape[1]
        n_pairs = len(apps)
        pair = np.arange(n_pairs)
        activation = np.where(dense.initially_on, 0.0, dense.activation)

        # Equation 3: one equality row per application with a candidate.
        placeable, eq_row = np.unique(apps, return_inverse=True)
        rows, cols, vals = [eq_row], [pair], [np.ones(n_pairs)]
        n_rows = len(placeable)
        lower, upper = [np.ones(n_rows)], [np.ones(n_rows)]

        # Equation 1: per resource, one row per server some pair loads.
        pair_demand = dense.demand[dense.class_block[pair_class], servers]
        for k in range(len(dense.keys)):
            demand = pair_demand[:, k]
            loaded = demand > 0
            used, row = np.unique(servers[loaded], return_inverse=True)
            rows += [n_rows + row, n_rows + np.arange(len(used))]
            cols += [pair[loaded], n_pairs + used]
            vals += [demand[loaded], -dense.capacity[used, k]]
            n_rows += len(used)

        # Equation 5: x_ij - y_j <= 0.
        rows += [n_rows + pair, n_rows + pair]
        cols += [pair, n_pairs + servers]
        vals += [np.ones(n_pairs), -np.ones(n_pairs)]
        n_rows += n_pairs
        n_ineq = n_rows - len(lower[0])
        lower.append(np.full(n_ineq, -np.inf))
        upper.append(np.zeros(n_ineq))

        matrix = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_rows, n_pairs + n_servers)).tocsr()
        return cls(
            apps=apps, servers=servers, shape=(len(dense.row_class), n_servers),
            cost=np.concatenate([dense.cost[pair_class, servers], activation]),
            constraints=LinearConstraint(matrix, np.concatenate(lower),
                                         np.concatenate(upper)),
            bounds=Bounds(np.concatenate([np.zeros(n_pairs),
                                          dense.initially_on.astype(float)]), 1.0))

    def solve(self, integral: bool = True, **options) -> tuple[OptimizeResult, float]:
        """Solve with HiGHS; returns the result and the factor its objective
        values (``fun``, ``mip_dual_bound``) must be multiplied by.

        The objective is divided by its largest absolute coefficient first:
        at the raw scale HiGHS's presolve drops the tie-break differences
        between small MULTI costs and can return a placement whose tie-broken
        objective is higher than the optimum's.
        """
        scale = float(np.abs(self.cost).max(initial=0.0)) or 1.0
        integrality = np.full(len(self.cost), 1 if integral else 0)
        result = milp(self.cost / scale, constraints=self.constraints,
                      bounds=self.bounds, integrality=integrality, options=options)
        return result, scale

    def fractions(self, x: np.ndarray) -> np.ndarray:
        """(A, S) non-negative ``x`` values scattered back onto the pairs."""
        out = np.zeros(self.shape)
        out[self.apps, self.servers] = np.maximum(x[:len(self.apps)], 0.0)
        return out

    def assignment(self, x: np.ndarray) -> np.ndarray:
        """(A,) server index per application (``-1`` unplaced) from ``x > 0.5``."""
        chosen = x[:len(self.apps)] > 0.5
        out = np.full(self.shape[0], -1, dtype=int)
        out[self.apps[chosen]] = self.servers[chosen]
        return out


@register_backend("highs", aliases=("exact",))
@dataclass
class HighsBackend:
    """The placement MILP solved to proven optimality by HiGHS branch and cut."""

    name: str = "highs"

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        model = PlacementModel.build(request.dense())
        options = {"time_limit": request.remaining_s(default=DEFAULT_TIME_LIMIT_S),
                   "node_limit": request.max_nodes or DEFAULT_MAX_NODES,
                   "mip_rel_gap": 0.0}
        result, scale = model.solve(**options)
        if result.x is None:
            return None
        solution = solution_from_assignment(request, model.assignment(result.x))
        solution.solver_gap = float(result.mip_gap)
        solution.solver_bound = float(result.mip_dual_bound) * scale
        solution.solver_params = {"backend": self.name, **options,
                                  "status": result.message,
                                  "nodes": int(result.mip_node_count)}
        return solution
