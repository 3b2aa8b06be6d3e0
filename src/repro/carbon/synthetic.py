"""Synthetic carbon-intensity trace generation (Electricity Maps stand-in).

:class:`SyntheticTraceGenerator` turns :class:`~repro.datasets.electricity_maps.ZoneSpec`
objects into hourly :class:`~repro.carbon.traces.CarbonIntensityTrace` series by
expanding the annual generation mix into an hourly mix (see
:mod:`repro.carbon.energy_mix`), computing the mix-weighted intensity, and
adding a small amount of measurement noise. Generation is deterministic in the
(seed, zone id) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.carbon.energy_mix import HourProfiles, MixTimeSeries, expand_mix
from repro.carbon.traces import CarbonIntensityTrace, TraceSet
from repro.datasets.electricity_maps import ZoneCatalog, ZoneSpec, default_zone_catalog
from repro.utils.rng import substream
from repro.utils.units import HOURS_PER_YEAR


@dataclass
class SyntheticTraceGenerator:
    """Generates hourly carbon-intensity traces from zone specifications.

    Parameters
    ----------
    seed:
        Root seed; traces are deterministic in (seed, zone id).
    n_hours:
        Length of the generated traces (default: one full year).

    Every zone of a window shares one read-only
    :class:`~repro.carbon.energy_mix.HourProfiles`: the wrapped hours, the
    demand profile and its mean, hydro's capacity factor and solar's two
    hour-only terms. The generator builds it for the first zone of a start
    hour and keeps it until a zone asks for another start hour, so a trace
    set pays for it once; zones differ only in their mix, their wind draws
    and their noise. The output is the same byte for byte as expanding each
    zone alone with :func:`~repro.carbon.energy_mix.hourly_mix_profile`.
    """

    seed: int = 0
    n_hours: int = HOURS_PER_YEAR
    _profiles: HourProfiles | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def _hour_profiles(self, start_hour: int = 0) -> HourProfiles:
        """The shared hour profiles of the window that starts at ``start_hour``."""
        profiles = self._profiles
        if (profiles is None or profiles.start_hour != int(start_hour)
                or profiles.n_hours != self.n_hours):
            profiles = self._profiles = HourProfiles.build(self.n_hours, start_hour)
        return profiles

    def mix_profile(self, spec: ZoneSpec, start_hour: int = 0) -> MixTimeSeries:
        """Hourly generation-mix series for a zone."""
        return expand_mix(spec, self._hour_profiles(start_hour), seed=self.seed)

    def generate(self, spec: ZoneSpec, start_hour: int = 0) -> CarbonIntensityTrace:
        """Generate the hourly carbon-intensity trace for one zone."""
        mix = self.mix_profile(spec, start_hour=start_hour)
        intensity = mix.intensity()
        rng = substream(self.seed, "intensity-noise", spec.zone_id)
        noise = rng.normal(1.0, spec.noise_scale, size=self.n_hours)
        values = np.clip(intensity * noise, 1.0, None)
        return CarbonIntensityTrace(zone_id=spec.zone_id, values=values)

    def generate_set(self, specs: Iterable[ZoneSpec], start_hour: int = 0) -> TraceSet:
        """Generate traces for several zones into a :class:`TraceSet`."""
        ts = TraceSet()
        for spec in specs:
            ts.add(self.generate(spec, start_hour=start_hour))
        return ts

    def generate_catalog(self, catalog: ZoneCatalog | None = None,
                         zone_ids: list[str] | None = None) -> TraceSet:
        """Generate traces for (a subset of) a zone catalogue."""
        catalog = catalog or default_zone_catalog()
        if zone_ids is None:
            specs: list[ZoneSpec] = list(catalog)
        else:
            specs = [catalog.get(z) for z in zone_ids]
        return self.generate_set(specs)


def generate_trace(zone_id: str, seed: int = 0, n_hours: int = HOURS_PER_YEAR,
                   catalog: ZoneCatalog | None = None) -> CarbonIntensityTrace:
    """Convenience helper: generate the trace for a single catalogue zone."""
    catalog = catalog or default_zone_catalog()
    gen = SyntheticTraceGenerator(seed=seed, n_hours=n_hours)
    return gen.generate(catalog.get(zone_id))


def generate_traces(zone_ids: list[str], seed: int = 0, n_hours: int = HOURS_PER_YEAR,
                    catalog: ZoneCatalog | None = None) -> TraceSet:
    """Convenience helper: generate traces for several catalogue zones."""
    catalog = catalog or default_zone_catalog()
    gen = SyntheticTraceGenerator(seed=seed, n_hours=n_hours)
    return gen.generate_set(catalog.get(z) for z in zone_ids)
