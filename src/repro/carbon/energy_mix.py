"""Time-varying generation-mix model.

The synthetic carbon traces are driven by a physically-motivated model of how
a zone's generation mix changes over the year:

* **Solar** output follows a diurnal bell curve (zero at night, peaking around
  13:00 local) scaled by a seasonal envelope (longer/stronger summer days).
* **Wind** output follows a mean-reverting AR(1) process (multi-day weather
  systems) clipped to a physical range.
* **Hydro** has a mild seasonal swing (spring melt).
* **Demand** follows a diurnal + weekly shape; whatever renewables cannot
  cover is served by the zone's dispatchable sources (nuclear first, then the
  fossil sources in merit order), which is what produces the carbon-intensity
  "duck curve" shape visible in the paper's Figure 1b and Figure 4a.

Everything is vectorised over the hour axis except the wind AR(1) recursion,
the one sequential step: each hour depends on the one before. It steps over a
Python float list, whose per-step arithmetic is the same IEEE multiply then
add, in the same order, as a loop over numpy scalars, so the output is the
same byte for byte at about a third of the cost. It needs no import beyond
numpy: ``scipy.signal.lfilter`` would be exact too, but its import alone costs
more than a hundred zones' worth of steps.

The zone-independent arrays of a trace window (the wrapped hours, demand,
hydro and solar's two hour-only terms) live in :class:`HourProfiles`, so a
trace set builds them once and every zone reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.electricity_maps import SOURCE_INTENSITY, ZoneSpec
from repro.utils.rng import substream
from repro.utils.timeutils import day_of_year, hour_of_day
from repro.utils.units import HOURS_PER_YEAR

#: Dispatch order of non-variable sources (greenest dispatched first).
DISPATCH_ORDER: tuple[str, ...] = ("nuclear", "geothermal", "biomass", "gas", "oil", "coal")


def solar_capacity_factor(hours: np.ndarray, seasonality: float) -> np.ndarray:
    """Normalized solar output (0–1) per hour of year.

    The diurnal component is a raised cosine centred at 13:00; the seasonal
    envelope scales between ``1 - seasonality`` (winter solstice) and ``1``
    (summer solstice).
    """
    hours = np.asarray(hours)
    return _solar_output(_solar_diurnal(hours), _solar_season(hours), seasonality)


def _solar_diurnal(hours: np.ndarray) -> np.ndarray:
    """Raised cosine centred at 13:00, zero at night."""
    hod = hour_of_day(hours).astype(float)
    return np.clip(np.cos((hod - 13.0) / 7.0 * (np.pi / 2.0)), 0.0, None)


def _solar_season(hours: np.ndarray) -> np.ndarray:
    """``1 - cos`` of the day's angle from the summer solstice (day 172): 0 there, 2 at midwinter."""
    doy = day_of_year(hours).astype(float)
    return 1.0 - np.cos(2.0 * np.pi * (doy - 172.0) / 365.0)


def _solar_output(diurnal: np.ndarray, season: np.ndarray, seasonality: float) -> np.ndarray:
    """Diurnal curve under the seasonal envelope, which drops to (1 - seasonality) at midwinter."""
    return diurnal * (1.0 - float(seasonality) * 0.5 * season)


def wind_capacity_factor(n_hours: int, volatility: float, rng: np.random.Generator) -> np.ndarray:
    """Normalized wind output (0.1–1) as a mean-reverting AR(1) process."""
    if n_hours <= 0:
        raise ValueError(f"n_hours must be positive, got {n_hours}")
    phi = 0.985  # ~3-day decorrelation time
    noise = rng.normal(0.0, float(volatility) * np.sqrt(1 - phi**2), size=n_hours)
    # x[t] = phi * x[t-1] + noise[t], stepped on Python floats (see the module
    # docstring); x[0] is drawn after the noise and replaces noise[0].
    x = noise.tolist()
    x[0] = prev = rng.normal(0.0, float(volatility))
    for t in range(1, n_hours):
        x[t] = prev = phi * prev + x[t]
    return np.clip(0.55 + np.array(x, dtype=float), 0.1, 1.0)


def hydro_capacity_factor(hours: np.ndarray) -> np.ndarray:
    """Normalized hydro output with a mild spring-melt seasonal swing."""
    doy = day_of_year(np.asarray(hours)).astype(float)
    return 0.85 + 0.15 * np.sin(2.0 * np.pi * (doy - 80.0) / 365.0)


def demand_profile(hours: np.ndarray) -> np.ndarray:
    """Normalized electricity demand per hour (diurnal + weekly shape), mean ~1."""
    hours = np.asarray(hours)
    hod = hour_of_day(hours).astype(float)
    dow = (day_of_year(hours) % 7).astype(float)
    diurnal = 1.0 + 0.18 * np.sin(2.0 * np.pi * (hod - 9.0) / 24.0) \
        + 0.07 * np.sin(4.0 * np.pi * (hod - 19.0) / 24.0)
    weekend = np.where(dow >= 5, 0.93, 1.0)
    return diurnal * weekend


@dataclass(frozen=True, eq=False)
class HourProfiles:
    """The zone-independent hourly arrays of one trace window.

    Every array depends on the hour of year alone, so one instance serves every
    zone of a trace set. The arrays are read-only: a zone's expansion builds
    new arrays from them and never writes into them.
    """

    start_hour: int
    hours: np.ndarray
    demand: np.ndarray
    demand_mean: float
    hydro: np.ndarray
    solar_diurnal: np.ndarray
    solar_season: np.ndarray

    @classmethod
    def build(cls, n_hours: int, start_hour: int = 0) -> HourProfiles:
        """Profiles of the ``n_hours`` hours from ``start_hour``, wrapping at year end."""
        if n_hours <= 0:
            raise ValueError(f"n_hours must be positive, got {n_hours}")
        hours = (int(start_hour) + np.arange(int(n_hours))) % HOURS_PER_YEAR
        demand = demand_profile(hours)
        profiles = cls(start_hour=int(start_hour), hours=hours, demand=demand,
                       demand_mean=float(demand.mean()),
                       hydro=hydro_capacity_factor(hours),
                       solar_diurnal=_solar_diurnal(hours),
                       solar_season=_solar_season(hours))
        for array in (profiles.hours, profiles.demand, profiles.hydro,
                      profiles.solar_diurnal, profiles.solar_season):
            array.flags.writeable = False
        return profiles

    @property
    def n_hours(self) -> int:
        """Number of hours covered."""
        return len(self.hours)

    def solar(self, seasonality: float) -> np.ndarray:
        """:func:`solar_capacity_factor` over these hours."""
        return _solar_output(self.solar_diurnal, self.solar_season, seasonality)


@dataclass
class MixTimeSeries:
    """Hourly generation shares per source for one zone.

    ``shares`` maps each source name to an array of length ``n_hours``; at each
    hour the shares sum to 1.
    """

    zone_id: str
    shares: dict[str, np.ndarray]

    @property
    def n_hours(self) -> int:
        """Number of hours covered."""
        return len(next(iter(self.shares.values()))) if self.shares else 0

    def intensity(self) -> np.ndarray:
        """Hourly carbon intensity implied by the mix, g CO2eq/kWh."""
        total = np.zeros(self.n_hours)
        for source, share in self.shares.items():
            total += share * SOURCE_INTENSITY[source]
        return total

    def mean_shares(self) -> dict[str, float]:
        """Annual-average share per source."""
        return {source: float(arr.mean()) for source, arr in self.shares.items()}

    def validate(self, atol: float = 1e-6) -> None:
        """Check that the shares are non-negative and sum to ~1 at every hour."""
        total = np.zeros(self.n_hours)
        for source, arr in self.shares.items():
            if np.any(arr < -atol):
                raise ValueError(f"{self.zone_id}: negative share for {source}")
            total += arr
        if not np.allclose(total, 1.0, atol=1e-3):
            worst = float(np.abs(total - 1.0).max())
            raise ValueError(f"{self.zone_id}: hourly shares do not sum to 1 (max err {worst:.4f})")


def hourly_mix_profile(
    spec: ZoneSpec,
    n_hours: int = HOURS_PER_YEAR,
    seed: int = 0,
    start_hour: int = 0,
) -> MixTimeSeries:
    """Expand a zone's annual mix into an hourly generation-mix time series.

    The annual shares in ``spec.mix`` are treated as capacity-weighted targets:
    variable sources (solar, wind, hydro) produce according to their capacity
    factors, and dispatchable sources fill the residual demand in merit order.
    The resulting annual-average shares stay close to the spec's shares while
    exhibiting realistic diurnal/seasonal structure.
    """
    return expand_mix(spec, HourProfiles.build(n_hours, start_hour), seed=seed)


def expand_mix(spec: ZoneSpec, profiles: HourProfiles, seed: int = 0) -> MixTimeSeries:
    """:func:`hourly_mix_profile` over the hours of prebuilt ``profiles``."""
    n_hours = profiles.n_hours
    mix = spec.normalized_mix
    demand = profiles.demand
    demand_mean = profiles.demand_mean

    # Variable generation in demand units. Capacities are scaled so the annual
    # mean production of each variable source matches its target share. A
    # source the zone lacks is never computed: the zone's "mix" substream
    # feeds wind alone, so skipping its draws moves nothing else.
    factors = {
        "solar": lambda: profiles.solar(spec.solar_seasonality),
        "wind": lambda: wind_capacity_factor(n_hours, spec.wind_volatility,
                                             substream(seed, "mix", spec.zone_id)),
        "hydro": lambda: profiles.hydro,
    }
    production: dict[str, np.ndarray] = {}
    for source, factor in factors.items():
        target = mix.get(source, 0.0)
        if target <= 0.0:
            continue
        cf = factor()
        mean_cf = float(cf.mean())
        scale = target * demand_mean / mean_cf if mean_cf > 0 else 0.0
        production[source] = cf * scale

    variable_total = sum(production.values()) if production else np.zeros(n_hours)
    # Renewables never exceed 95% of instantaneous demand (grid stability floor
    # for dispatchable generation); excess is curtailed.
    cap = 0.95 * demand
    over = variable_total > cap
    if np.any(over) and production:
        scale_down = np.ones(n_hours)
        scale_down[over] = cap[over] / variable_total[over]
        for source in production:
            production[source] = production[source] * scale_down
        variable_total = sum(production.values())

    residual = np.clip(demand - variable_total, 0.0, None)

    # Dispatchable sources fill the residual in merit order, each limited by a
    # capacity slightly above its annual target share.
    dispatchable = {s: mix.get(s, 0.0) for s in DISPATCH_ORDER if mix.get(s, 0.0) > 0.0}
    total_dispatch_target = sum(dispatchable.values())
    remaining = residual.copy()
    for source in DISPATCH_ORDER:
        target = dispatchable.get(source, 0.0)
        if target <= 0.0:
            continue
        if total_dispatch_target > 0:
            capacity = target / total_dispatch_target * residual * 1.0
        else:
            capacity = np.zeros(n_hours)
        # Baseload sources (nuclear, geothermal) run flat at their target output.
        if source in ("nuclear", "geothermal"):
            flat = np.full(n_hours, target * demand_mean)
            produced = np.minimum(flat, remaining)
        else:
            produced = np.minimum(capacity * 1.25, remaining)
        production[source] = production.get(source, np.zeros(n_hours)) + produced
        remaining = remaining - produced

    # Any leftover residual goes to the marginal fossil source (or gas).
    if np.any(remaining > 1e-9):
        marginal = "gas"
        for source in reversed(DISPATCH_ORDER):
            if mix.get(source, 0.0) > 0.0:
                marginal = source
                break
        production[marginal] = production.get(marginal, np.zeros(n_hours)) + remaining

    total = sum(production.values())
    shares = {source: prod / total for source, prod in production.items() if np.any(prod > 0)}
    series = MixTimeSeries(zone_id=spec.zone_id, shares=shares)
    series.validate()
    return series
