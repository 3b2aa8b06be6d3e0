"""Feasible-server filtering (Algorithm 1, line 7).

Before solving the optimisation, CarbonEdge prunes servers that cannot host an
application: pairs violating the latency SLO (:func:`within_slo`), pairs
without a workload profile for the server's device, and pairs whose demand
exceeds the server's available capacity on its own (:func:`capacity_fits`).
The candidate mask is those three tests and-ed together; the epoch
compilation builds it once per application class
(:class:`repro.solver.compile.EpochCompilation`), and an application with an
empty row is left unplaced rather than failing the whole batch.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import FIT_SLACK

#: Slack of the latency-SLO test, in milliseconds: it absorbs float residue
#: so a round trip exactly at the SLO is feasible.
SLO_SLACK_MS: float = 1e-9


def within_slo(latency_ms: np.ndarray, slo_ms: np.ndarray | float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Whether twice the one-way ``latency_ms`` (the round trip) is within
    ``slo_ms`` (broadcast), up to :data:`SLO_SLACK_MS`; written into ``out``
    when given."""
    return np.less_equal(2.0 * latency_ms, slo_ms + SLO_SLACK_MS, out=out)


def capacity_fits(demand: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Whether ``demand`` fits ``capacity`` on every resource dimension (the
    last axis, broadcast), each within :data:`FIT_SLACK`. A zero-width
    resource axis fits everywhere: ``np.all`` over an empty axis is True."""
    return np.all(demand <= capacity + FIT_SLACK, axis=-1)
