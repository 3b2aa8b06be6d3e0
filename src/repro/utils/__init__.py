"""Shared utilities for the CarbonEdge reproduction.

The utilities here are deliberately dependency-free (NumPy only) and are used by
every other subpackage:

* :mod:`repro.utils.units` — unit conversions (energy, power, carbon, distance, time).
* :mod:`repro.utils.rng` — deterministic, named random substreams.
* :mod:`repro.utils.timeutils` — the simulation calendar (hour-of-year arithmetic).
"""

from repro.utils.units import (
    JOULES_PER_KWH,
    HOURS_PER_YEAR,
    joules_to_kwh,
    kwh_to_joules,
    watts_to_kw,
    grams_to_tonnes,
    tonnes_to_grams,
    ms_to_seconds,
    seconds_to_ms,
    km_to_m,
    m_to_km,
)
from repro.utils.rng import substream, spawn_seed
from repro.utils.timeutils import (
    SimClock,
    hour_of_day,
    day_of_year,
    month_of_hour,
    hours_in_month,
    month_slice,
    MONTH_NAMES,
)

__all__ = [
    "JOULES_PER_KWH",
    "HOURS_PER_YEAR",
    "joules_to_kwh",
    "kwh_to_joules",
    "watts_to_kw",
    "grams_to_tonnes",
    "tonnes_to_grams",
    "ms_to_seconds",
    "seconds_to_ms",
    "km_to_m",
    "m_to_km",
    "substream",
    "spawn_seed",
    "SimClock",
    "hour_of_day",
    "day_of_year",
    "month_of_hour",
    "hours_in_month",
    "month_slice",
    "MONTH_NAMES",
]
