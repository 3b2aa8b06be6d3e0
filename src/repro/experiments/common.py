"""Shared helpers for the experiment runners.

Trace generation for a full year is the dominant cost of several experiments,
so the helpers here cache generated trace sets, latency matrices, and CDN
footprints within the process.

Every cache is keyed on *normalised explicit* arguments: the public functions
resolve defaults (``seed=None`` -> :data:`EXPERIMENT_SEED`) and coerce types
before touching the memoised builders, so ``region_traces("Florida")``,
``region_traces("Florida", seed=7)`` and ``region_traces("Florida", 7, 8760)``
all hit the same entry. (The previous arrangement baked ``EXPERIMENT_SEED``
into ``lru_cache`` defaults, so spec-level seed overrides silently created
duplicate entries.) :func:`clear_caches` drops everything — the sharded
scenario runner calls it between experiments so long ``run --all`` sessions
keep bounded memory.
"""

from __future__ import annotations

from functools import lru_cache

from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.carbon.traces import TraceSet
from repro.datasets.akamai import CDNFootprint, build_cdn_footprint
from repro.datasets.cities import default_city_catalog
from repro.datasets.electricity_maps import default_zone_catalog
from repro.datasets.regions import MesoscaleRegion, region_by_name
from repro.network.latency import LatencyMatrix, build_latency_matrix

#: Default seed used by every experiment unless overridden.
EXPERIMENT_SEED: int = 7

#: Default trace horizon (one year of hourly samples).
DEFAULT_TRACE_HOURS: int = 8760


def _seed(seed: int | None) -> int:
    return EXPERIMENT_SEED if seed is None else int(seed)


def region_traces(region_name: str, seed: int | None = None,
                  n_hours: int = DEFAULT_TRACE_HOURS) -> TraceSet:
    """Year-long traces for the zones of one mesoscale region (cached)."""
    return _region_traces(str(region_name), _seed(seed), int(n_hours))


@lru_cache(maxsize=16)
def _region_traces(region_name: str, seed: int, n_hours: int) -> TraceSet:
    region = region_by_name(region_name)
    catalog = default_city_catalog()
    zone_catalog = default_zone_catalog()
    generator = SyntheticTraceGenerator(seed=seed, n_hours=n_hours)
    return generator.generate_set(zone_catalog.get(z) for z in region.zone_ids(catalog))


def zone_traces(zone_ids: tuple[str, ...], seed: int | None = None,
                n_hours: int = DEFAULT_TRACE_HOURS) -> TraceSet:
    """Year-long traces for an arbitrary tuple of zone ids (cached)."""
    return _zone_traces(tuple(zone_ids), _seed(seed), int(n_hours))


@lru_cache(maxsize=8)
def _zone_traces(zone_ids: tuple[str, ...], seed: int, n_hours: int) -> TraceSet:
    zone_catalog = default_zone_catalog()
    generator = SyntheticTraceGenerator(seed=seed, n_hours=n_hours)
    return generator.generate_set(zone_catalog.get(z) for z in zone_ids)


def region_latency(region_name: str) -> LatencyMatrix:
    """Pairwise one-way latency matrix over one region's cities (cached)."""
    return _region_latency(str(region_name))


@lru_cache(maxsize=8)
def _region_latency(region_name: str) -> LatencyMatrix:
    region = region_by_name(region_name)
    catalog = default_city_catalog()
    cities = region.cities(catalog)
    names = [c.name for c in cities]
    return build_latency_matrix(names, catalog.coordinates_array(names),
                                countries=[c.state or c.country for c in cities])


def cdn_footprint(seed: int | None = None, n_sites: int = 496) -> CDNFootprint:
    """The synthetic CDN footprint (cached)."""
    return _cdn_footprint(_seed(seed), int(n_sites))


@lru_cache(maxsize=4)
def _cdn_footprint(seed: int, n_sites: int) -> CDNFootprint:
    return build_cdn_footprint(n_sites=n_sites, seed=seed)


def footprint_traces(seed: int | None = None, n_sites: int = 496,
                     n_hours: int = DEFAULT_TRACE_HOURS) -> TraceSet:
    """Year-long traces for every zone covered by the CDN footprint (cached)."""
    return _footprint_traces(_seed(seed), int(n_sites), int(n_hours))


@lru_cache(maxsize=4)
def _footprint_traces(seed: int, n_sites: int, n_hours: int) -> TraceSet:
    footprint = _cdn_footprint(seed, n_sites)
    zone_catalog = default_zone_catalog()
    generator = SyntheticTraceGenerator(seed=seed, n_hours=n_hours)
    return generator.generate_set(zone_catalog.get(z) for z in footprint.zone_ids())


#: The memoised builders, in one place so they can be cleared together.
_CACHES = (_region_traces, _zone_traces, _region_latency, _cdn_footprint,
           _footprint_traces)


def clear_caches() -> None:
    """Drop every experiment-level cache (traces, latencies, footprints).

    Also clears the CDN simulator's scenario-substrate cache. The sharded
    runner calls this in each worker process
    when it moves from one experiment's work units to another's, bounding
    resident memory across a ``run --all`` session without giving up
    within-experiment reuse.
    """
    for cache in _CACHES:
        cache.cache_clear()
    from repro.simulator.cdn import clear_substrate_cache
    clear_substrate_cache()


def region(name: str) -> MesoscaleRegion:
    """Shorthand for :func:`repro.datasets.regions.region_by_name`."""
    return region_by_name(name)
