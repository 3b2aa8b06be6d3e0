"""Built-in solver backends.

Importing this package registers every built-in backend with the registry;
:mod:`repro.solver.registry` does so on first use, so external code never
needs to import these modules directly.
"""

from repro.solver.backends import heuristic, highs, lp_rounding

__all__ = ["heuristic", "highs", "lp_rounding"]
