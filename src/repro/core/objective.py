"""The objective formulas of the placement model, elementwise.

Five objectives are supported:

* **carbon** (Equation 6): operational emissions of every assignment plus the
  activation emissions of newly powered-on servers;
* **energy**: the same structure with energy instead of emissions (the
  Energy-aware baseline of Section 6.1.3);
* **multi-objective** (Equation 8): ``α·p + (1-α)·f`` over min-max normalised
  energy (p) and carbon (f) coefficients, which is how the paper explores the
  carbon-energy trade-off in Section 6.4;
* **latency** and **intensity**: the Latency-aware and Intensity-aware
  baselines (one-way latency, the hosting zone's intensity Ī_j), with no
  activation term.

Every formula here reads arrays of (application class, server) pairs — their
dynamic energy E_ij, one-way latency and server intensity — and never a
problem object, so the flat epoch (:meth:`repro.solver.compile.
EpochCompilation.dense`), each hierarchy region and the hierarchy's coarse
pass all price placements through the same code
(:func:`repro.solver.compile.class_costs`).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

import numpy as np

from repro.utils.units import joules_to_kwh


class ObjectiveKind(Enum):
    """Which objective the placement model minimises."""

    CARBON = "carbon"
    ENERGY = "energy"
    MULTI = "multi"
    LATENCY = "latency"
    INTENSITY = "intensity"


def minmax_pools(parts: Iterable[tuple[np.ndarray, np.ndarray]],
                 intensity: np.ndarray, act_carbon: np.ndarray,
                 act_energy: np.ndarray) -> dict:
    """(lo, span) of Equation 8's carbon and energy min-max normalisation.

    The pool is every feasible assignment entry when any entry is feasible,
    else every entry, plus every activation coefficient. ``parts`` yields
    ``(feasible, energy)`` class rows over the servers of ``intensity`` and
    the activation rows, so the pool can be read class block by class block;
    ``feasible`` is the SLO + support mask, not the capacity fit. Class rows
    replicate per application, which leaves the minimum and maximum
    unchanged.
    """
    feasible: dict[str, list] = {"carbon": [], "energy": []}
    everything: dict[str, list] = {"carbon": [], "energy": []}
    for feas, e in parts:
        for name, values in (("carbon", joules_to_kwh(e) * intensity), ("energy", e)):
            everything[name] += [values.min(), values.max()]
            if feas.any():
                feasible[name] += [values[feas].min(), values[feas].max()]
    pools = feasible if feasible["carbon"] else everything
    norm = {}
    for name, activation in (("carbon", act_carbon), ("energy", act_energy)):
        lo = float(min(activation.min(), *pools[name]))
        hi = float(max(activation.max(), *pools[name]))
        norm[name] = (lo, hi - lo)
    return norm


def blend(norm: dict, alpha: float, c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Equation 8's ``α·ê + (1-α)·ĉ`` of carbon ``c`` and energy ``e`` under a
    :func:`minmax_pools` normalisation (a zero span normalises to zero).

    ``alpha = 0`` is the vanilla CarbonEdge (carbon-only) objective and
    ``alpha = 1`` the Energy-aware one; anything outside [0, 1] is refused.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    (c_lo, c_span), (e_lo, e_span) = norm["carbon"], norm["energy"]
    c_hat = (c - c_lo) / c_span if c_span > 0 else np.zeros_like(c)
    e_hat = (e - e_lo) / e_span if e_span > 0 else np.zeros_like(e)
    return alpha * e_hat + (1.0 - alpha) * c_hat


def raw_values(objective: ObjectiveKind, e: np.ndarray, lat: np.ndarray,
               inten: np.ndarray, norm: dict | None = None,
               alpha: float = 0.0) -> np.ndarray:
    """Raw assignment coefficients of (class, server) pairs, given their
    energy (J), one-way latency (ms) and server intensity (g/kWh),
    elementwise; carbon is ``E_ij (kWh) × Ī_j`` grams, and the multi
    objective blends under ``norm``."""
    if objective is ObjectiveKind.LATENCY:
        return lat
    if objective is ObjectiveKind.INTENSITY:
        return inten
    if objective is ObjectiveKind.ENERGY:
        return e
    c = joules_to_kwh(e) * inten
    if objective is ObjectiveKind.CARBON:
        return c
    return blend(norm, alpha, c, e)


def tie_values(objective: ObjectiveKind, e: np.ndarray, lat: np.ndarray,
               inten: np.ndarray) -> np.ndarray:
    """Tie-break values of (class, server) pairs, elementwise: operational
    carbon for the latency objective (equal-latency choices prefer the
    greener server), one-way latency for every other (greener-but-equidistant
    choices prefer proximity)."""
    if objective is ObjectiveKind.LATENCY:
        return joules_to_kwh(e) * inten
    return lat


def activation_rows(base_power_w: np.ndarray, horizon_hours: float,
                    intensity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S,) activation carbon and energy of each server: keeping it on for
    the horizon emits ``B_j × horizon × Ī_j`` grams (its base power in kWh
    times its intensity) and uses ``B_j × horizon × 3600`` joules."""
    activation_kwh = base_power_w * horizon_hours / 1000.0
    return activation_kwh * intensity, base_power_w * horizon_hours * 3600.0


def activation_values(objective: ObjectiveKind, act_carbon: np.ndarray,
                      act_energy: np.ndarray, manage_power: bool,
                      norm: dict | None = None, alpha: float = 0.0) -> np.ndarray:
    """(S,) cost of switching each server on: its activation carbon or
    energy, their blend for the multi objective, and zero for the latency
    and intensity objectives or when power is unmanaged."""
    if not manage_power or objective in (ObjectiveKind.LATENCY, ObjectiveKind.INTENSITY):
        return np.zeros(len(act_carbon))
    if objective is ObjectiveKind.MULTI:
        return blend(norm, alpha, act_carbon, act_energy)
    return act_carbon if objective is ObjectiveKind.CARBON else act_energy


def apply_tie_break(assign: np.ndarray, mask: np.ndarray,
                    tie: np.ndarray) -> np.ndarray:
    """``assign`` plus an epsilon perturbation of ``tie`` over the mask.

    The epsilon is scaled so the perturbation never exceeds ``1e-5`` of the
    largest feasible assignment cost — enough to order objective-equal
    candidates deterministically, negligible against the real objective.
    """
    feasible_vals = assign[mask] if mask.any() else assign
    scale = float(np.abs(feasible_vals).max()) if feasible_vals.size else 1.0
    tie_scale = float(tie[mask].max()) if mask.any() else 1.0
    if scale > 0 and tie_scale > 0:
        epsilon = 1e-5 * scale / tie_scale
        return assign + epsilon * np.where(mask, tie, 0.0)
    return assign
