"""Placement policies: CarbonEdge and the paper's baselines (Section 6.1.3)."""

from repro.core.policies.base import PlacementPolicy
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.policies.latency_aware import LatencyAwarePolicy
from repro.core.policies.energy_aware import EnergyAwarePolicy
from repro.core.policies.intensity_aware import IntensityAwarePolicy

__all__ = [
    "PlacementPolicy",
    "CarbonEdgePolicy",
    "LatencyAwarePolicy",
    "EnergyAwarePolicy",
    "IntensityAwarePolicy",
]
