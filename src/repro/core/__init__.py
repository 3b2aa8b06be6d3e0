"""CarbonEdge core: the carbon-aware placement problem, policies, and algorithm.

This package is the paper's primary contribution (Section 4):

* :mod:`repro.core.problem` — the placement problem instance (applications,
  servers, latency/energy/intensity matrices; Table 2 inputs).
* :mod:`repro.core.solution` — placement/power decisions plus their carbon,
  energy, and latency accounting (Equation 6).
* :mod:`repro.core.objective` — the carbon, energy, multi-objective
  (Equation 8), latency and intensity objective formulas.
* :mod:`repro.core.filters` — feasible-server filtering (Algorithm 1, line 7).
* :mod:`repro.core.policies` — CarbonEdge and the paper's baselines
  (Latency-aware, Energy-aware, Intensity-aware).
* :mod:`repro.core.incremental` — the incremental placement loop (Algorithm 1).
* :mod:`repro.core.validation` — solution validation against the constraints.
"""

from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution, Assignment
from repro.core.objective import ObjectiveKind
from repro.core.validation import validate_solution, ValidationError
from repro.core.incremental import IncrementalPlacer, PlacementRound
from repro.core.policies import (
    PlacementPolicy,
    CarbonEdgePolicy,
    LatencyAwarePolicy,
    EnergyAwarePolicy,
    IntensityAwarePolicy,
)

__all__ = [
    "PlacementProblem",
    "PlacementSolution",
    "Assignment",
    "ObjectiveKind",
    "validate_solution",
    "ValidationError",
    "IncrementalPlacer",
    "PlacementRound",
    "PlacementPolicy",
    "CarbonEdgePolicy",
    "LatencyAwarePolicy",
    "EnergyAwarePolicy",
    "IntensityAwarePolicy",
]
