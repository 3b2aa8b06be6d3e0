"""Network substrate: geography, latency modelling and latency traces.

The paper uses WonderNetwork ping traces for pairwise city latencies. We model
one-way latency from geodesic distance (fibre propagation + routing inflation +
jitter), calibrated against the values the paper reports in Table 1, and expose
the same interfaces the placement policies need: pairwise latency matrices and
per-application-to-server latency lookups.
"""

from repro.network.geo import haversine_km, pairwise_distances_km, bounding_box
from repro.network.latency import (
    LatencyModel,
    LatencyMatrix,
    build_latency_matrix,
    latency_for_distance_km,
)
from repro.network.traces import LatencyTrace, generate_latency_trace

__all__ = [
    "haversine_km",
    "pairwise_distances_km",
    "bounding_box",
    "LatencyModel",
    "LatencyMatrix",
    "build_latency_matrix",
    "latency_for_distance_km",
    "LatencyTrace",
    "generate_latency_trace",
]
