"""Application arrival generation for the trace-driven simulations.

In the CDN scenario "edge applications arrive at edge data centers over time"
(Section 6.3); CarbonEdge batches newly arriving applications and places each
batch incrementally (Algorithm 1). :class:`ApplicationGenerator` produces those
batches: the number of arrivals per batch follows a Poisson distribution, the
source site of each application is drawn from a (possibly population-weighted)
site distribution, and the workload type from a configurable mix.

Batches are **columnar** (struct-of-arrays): :class:`ApplicationBatch` holds
per-application index/value arrays plus a deduplicated **class table** — one
row per unique ``(site, workload, slo, rate, duration)`` combination — so the
compilation tier can build tensors per unique class and expand them with one
fancy-index gather instead of iterating applications. Per-app
:class:`~repro.workloads.application.Application` objects remain available as
a lazy compatibility view (``batch.applications``) that the decision path
never materialises. The batch is the compilation tier's only input type: a
caller holding a list of objects is wrapped once
(:meth:`ApplicationBatch.from_applications`), and the wrapped batch hands
back the caller's objects by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.utils.rng import substream
from repro.workloads.application import Application


def app_id_pad_width(count: int) -> int:
    """Zero-pad width for formulaic per-batch app ids.

    Wide enough that lexicographic id order equals arrival order for any batch
    size; never narrower than the historical ``:04d`` so every batch of fewer
    than 10^4+1 arrivals keeps its exact historical ids (artifact stability).
    """
    return max(4, len(str(max(count - 1, 0))))


def _as_per_app(values: float | np.ndarray, count: int, name: str) -> np.ndarray:
    """Broadcast a scalar (or validate an array) to a per-app float column."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(count, float(arr))
    if arr.shape != (count,):
        raise ValueError(f"{name} must be scalar or shape ({count},), got {arr.shape}")
    return arr


@dataclass(eq=False)
class ApplicationBatch:
    """A batch of applications arriving in one placement interval, columnar.

    Per-application state lives in parallel arrays (``site_idx``,
    ``workload_idx``, ``latency_slo_ms``, ``request_rate_rps``,
    ``duration_hours``; all length ``len(self)``), with names interned once in
    ``site_names``/``workload_names``. The **class table** dedupes those rows:
    ``class_idx[k]`` maps application ``k`` to its row in the
    ``class_site_idx``/``class_workload_idx``/``class_slo_ms``/
    ``class_rate_rps``/``class_duration_h`` columns, and ``class_counts`` is
    the per-class histogram. Class rows are sorted lexicographically by
    ``(site_idx, workload_idx, slo, rate, duration)``.

    ``applications`` materialises the per-object view on first access (cached);
    consumers that only need ids (:meth:`app_ids`), counts or the class
    partition should stay on the arrays.
    """

    interval_index: int
    hour_of_year: int
    site_names: tuple[str, ...]
    workload_names: tuple[str, ...]
    site_idx: np.ndarray
    workload_idx: np.ndarray
    latency_slo_ms: np.ndarray
    request_rate_rps: np.ndarray
    duration_hours: np.ndarray
    class_idx: np.ndarray
    class_site_idx: np.ndarray
    class_workload_idx: np.ndarray
    class_slo_ms: np.ndarray
    class_rate_rps: np.ndarray
    class_duration_h: np.ndarray
    class_counts: np.ndarray
    #: Explicit per-app ids (e.g. live arrivals); ``None`` means the formulaic
    #: ``app-{interval:05d}-{k:0{pad}d}`` scheme, which is fully determined by
    #: ``(interval_index, len(self))``.
    explicit_ids: tuple[str, ...] | None = None
    _apps: tuple[Application, ...] | None = field(
        default=None, repr=False, compare=False)
    _ids: tuple[str, ...] | None = field(default=None, repr=False, compare=False)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_columns(cls, *, interval_index: int, hour_of_year: int,
                     site_names: Sequence[str], workload_names: Sequence[str],
                     site_idx: np.ndarray, workload_idx: np.ndarray,
                     latency_slo_ms: float | np.ndarray,
                     request_rate_rps: float | np.ndarray,
                     duration_hours: float | np.ndarray,
                     explicit_ids: Sequence[str] | None = None,
                     ) -> "ApplicationBatch":
        """Build a batch from per-app columns, computing the class table."""
        site_idx = np.asarray(site_idx, dtype=np.int64)
        workload_idx = np.asarray(workload_idx, dtype=np.int64)
        count = len(site_idx)
        if len(workload_idx) != count:
            raise ValueError("site_idx and workload_idx must have equal length")
        if explicit_ids is not None and len(explicit_ids) != count:
            raise ValueError("explicit_ids must align with the per-app columns")
        slo = _as_per_app(latency_slo_ms, count, "latency_slo_ms")
        rate = _as_per_app(request_rate_rps, count, "request_rate_rps")
        dur = _as_per_app(duration_hours, count, "duration_hours")

        n_workloads = max(len(workload_names), 1)
        uniform_values = count > 0 and (
            np.ptp(slo) == 0.0 and np.ptp(rate) == 0.0 and np.ptp(dur) == 0.0)
        if count == 0:
            class_idx = np.zeros(0, dtype=np.int64)
            c_site = np.zeros(0, dtype=np.int64)
            c_workload = np.zeros(0, dtype=np.int64)
            c_slo = np.zeros(0)
            c_rate = np.zeros(0)
            c_dur = np.zeros(0)
            counts = np.zeros(0, dtype=np.int64)
        elif uniform_values:
            # Common case (all value columns scalar): dedupe on an integer
            # (site, workload) code — much faster than a row-wise unique, and
            # the sort order (lexicographic by site then workload) matches the
            # general path's because the trailing value columns are constant.
            code = site_idx * n_workloads + workload_idx
            uniq, class_idx, counts = np.unique(
                code, return_inverse=True, return_counts=True)
            c_site = uniq // n_workloads
            c_workload = uniq % n_workloads
            c_slo = np.full(len(uniq), slo[0])
            c_rate = np.full(len(uniq), rate[0])
            c_dur = np.full(len(uniq), dur[0])
        else:
            rows = np.column_stack(
                [site_idx.astype(float), workload_idx.astype(float), slo, rate, dur])
            uniq, class_idx, counts = np.unique(
                rows, axis=0, return_inverse=True, return_counts=True)
            class_idx = class_idx.reshape(count)
            c_site = uniq[:, 0].astype(np.int64)
            c_workload = uniq[:, 1].astype(np.int64)
            c_slo = uniq[:, 2].copy()
            c_rate = uniq[:, 3].copy()
            c_dur = uniq[:, 4].copy()
        return cls(
            interval_index=int(interval_index), hour_of_year=int(hour_of_year),
            site_names=tuple(str(s) for s in site_names),
            workload_names=tuple(str(w) for w in workload_names),
            site_idx=site_idx, workload_idx=workload_idx,
            latency_slo_ms=slo, request_rate_rps=rate, duration_hours=dur,
            class_idx=np.asarray(class_idx, dtype=np.int64),
            class_site_idx=c_site, class_workload_idx=c_workload,
            class_slo_ms=c_slo, class_rate_rps=c_rate, class_duration_h=c_dur,
            class_counts=np.asarray(counts, dtype=np.int64),
            explicit_ids=tuple(explicit_ids) if explicit_ids is not None else None,
        )

    @classmethod
    def from_applications(cls, applications: Sequence[Application],
                          interval_index: int = 0,
                          hour_of_year: int = 0) -> "ApplicationBatch":
        """Wrap existing per-object applications in a columnar batch.

        The original objects are kept as the materialised view, so
        ``batch.applications`` returns them *by identity* — consumers that
        round-trip through the batch (every list handed to the compilation
        tier, e.g. the serving service's arrivals) see the exact objects they
        put in.
        """
        apps = tuple(applications)
        site_table: dict[str, int] = {}
        workload_table: dict[str, int] = {}
        site_idx = np.fromiter(
            (site_table.setdefault(a.source_site, len(site_table)) for a in apps),
            dtype=np.int64, count=len(apps))
        workload_idx = np.fromiter(
            (workload_table.setdefault(a.workload, len(workload_table)) for a in apps),
            dtype=np.int64, count=len(apps))
        batch = cls.from_columns(
            interval_index=interval_index, hour_of_year=hour_of_year,
            site_names=tuple(site_table), workload_names=tuple(workload_table),
            site_idx=site_idx, workload_idx=workload_idx,
            latency_slo_ms=np.array([a.latency_slo_ms for a in apps]),
            request_rate_rps=np.array([a.request_rate_rps for a in apps]),
            duration_hours=np.array([a.duration_hours for a in apps]),
            explicit_ids=tuple(a.app_id for a in apps))
        batch._apps = apps
        return batch

    # -- size / identity -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.site_idx)

    @property
    def n_classes(self) -> int:
        """Number of unique application classes in the batch."""
        return len(self.class_counts)

    @property
    def id_pad_width(self) -> int:
        """Zero-pad width of the formulaic per-batch application ids."""
        return app_id_pad_width(len(self))

    def app_id(self, k: int) -> str:
        """Id of application ``k`` (explicit if provided, else formulaic)."""
        if self.explicit_ids is not None:
            return self.explicit_ids[k]
        return f"app-{self.interval_index:05d}-{k:0{self.id_pad_width}d}"

    def app_ids(self) -> tuple[str, ...]:
        """All application ids in arrival order (built once, cached)."""
        if self.explicit_ids is not None:
            return self.explicit_ids
        if self._ids is None:
            pad = self.id_pad_width
            prefix = f"app-{self.interval_index:05d}-"
            self._ids = tuple(f"{prefix}{k:0{pad}d}" for k in range(len(self)))
        return self._ids

    def class_first_occurrence(self) -> np.ndarray:
        """Index of the first application of each class, in class-table order.

        ``argsort`` of this array yields the classes in first-arrival order —
        the order a per-app loop over the batch would first encounter them,
        which the compilation tier registers classes in.
        """
        order = np.argsort(self.class_idx, kind="stable")
        starts = np.searchsorted(self.class_idx[order], np.arange(self.n_classes))
        return order[starts]

    # -- per-object compatibility view ---------------------------------------

    @property
    def applications(self) -> tuple[Application, ...]:
        """Per-object view of the batch (materialised on first access, cached)."""
        if self._apps is None:
            self._apps = tuple(self.application(k) for k in range(len(self)))
        return self._apps

    def application(self, k: int) -> Application:
        """Materialise the ``Application`` object for arrival ``k``."""
        if self._apps is not None:
            return self._apps[k]
        return Application(
            app_id=self.app_id(k),
            workload=self.workload_names[int(self.workload_idx[k])],
            source_site=self.site_names[int(self.site_idx[k])],
            latency_slo_ms=float(self.latency_slo_ms[k]),
            request_rate_rps=float(self.request_rate_rps[k]),
            duration_hours=float(self.duration_hours[k]),
        )


class LazyApplications(Sequence):
    """Sequence view over a batch's applications that defers materialisation.

    :class:`~repro.core.problem.PlacementProblem` instances assembled from a
    columnar batch carry this instead of a list, so the per-object view is
    only built if something actually indexes or iterates the applications
    (metrics formatting, cold fallbacks) — never during tensor assembly.
    """

    __slots__ = ("batch",)

    def __init__(self, batch: ApplicationBatch) -> None:
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self.batch.applications[index])
        return self.batch.applications[index]

    def __iter__(self) -> Iterator[Application]:
        return iter(self.batch.applications)


@dataclass
class ApplicationGenerator:
    """Generates batched application arrivals for a set of source sites.

    Parameters
    ----------
    sites:
        Candidate source sites (cities).
    site_weights:
        Optional arrival weights per site (e.g. population shares); uniform
        when omitted. Must align with ``sites``.
    workload_mix:
        Mapping of workload name to arrival probability (normalised).
    mean_arrivals_per_batch:
        Poisson mean of the number of applications arriving per batch.
    latency_slo_ms:
        Round-trip latency SLO given to every generated application.
    request_rate_rps:
        Request rate per application.
    duration_hours:
        Placement horizon passed to the applications.
    seed:
        Root seed of the deterministic generation stream.
    """

    sites: Sequence[str]
    site_weights: Sequence[float] | None = None
    workload_mix: dict[str, float] = field(default_factory=lambda: {"ResNet50": 1.0})
    mean_arrivals_per_batch: float = 10.0
    latency_slo_ms: float = 20.0
    request_rate_rps: float = 10.0
    duration_hours: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.sites = list(self.sites)
        if not self.sites:
            raise ValueError("ApplicationGenerator requires at least one site")
        if self.site_weights is not None:
            weights = np.asarray(list(self.site_weights), dtype=float)
            if len(weights) != len(self.sites):
                raise ValueError("site_weights must align with sites")
            if np.any(weights < 0) or weights.sum() <= 0:
                raise ValueError("site_weights must be non-negative with a positive sum")
            self._site_probs = weights / weights.sum()
        else:
            self._site_probs = np.full(len(self.sites), 1.0 / len(self.sites))
        if not self.workload_mix:
            raise ValueError("workload_mix must not be empty")
        mix_total = sum(self.workload_mix.values())
        if mix_total <= 0:
            raise ValueError("workload_mix probabilities must sum to a positive value")
        self._workloads = list(self.workload_mix)
        self._workload_probs = np.array(
            [self.workload_mix[w] / mix_total for w in self._workloads])
        if self.mean_arrivals_per_batch <= 0:
            raise ValueError("mean_arrivals_per_batch must be positive")
        self._site_names = tuple(str(s) for s in self.sites)
        self._workload_names = tuple(self._workloads)

    def generate_batch(self, interval_index: int, hour_of_year: int,
                       n_arrivals: int | None = None) -> ApplicationBatch:
        """Generate one arrival batch for the given placement interval.

        The rng draw sequence (Poisson count, then the site and workload
        ``choice`` vectors) is unchanged from the historical per-object
        generator, so the arrays — and the lazy per-object view built from
        them — are bit-identical to what the old loop produced.
        """
        rng = substream(self.seed, "arrivals", interval_index)
        count = int(n_arrivals) if n_arrivals is not None else int(
            rng.poisson(self.mean_arrivals_per_batch))
        if count > 0:
            site_idx = rng.choice(len(self.sites), size=count, p=self._site_probs)
            workload_idx = rng.choice(len(self._workloads), size=count,
                                      p=self._workload_probs)
        else:
            site_idx = np.zeros(0, dtype=np.int64)
            workload_idx = np.zeros(0, dtype=np.int64)
        return ApplicationBatch.from_columns(
            interval_index=interval_index, hour_of_year=hour_of_year,
            site_names=self._site_names, workload_names=self._workload_names,
            site_idx=site_idx, workload_idx=workload_idx,
            latency_slo_ms=self.latency_slo_ms,
            request_rate_rps=self.request_rate_rps,
            duration_hours=self.duration_hours)

    def generate_schedule(self, n_batches: int, start_hour: int = 0,
                          hours_per_batch: int = 1) -> list[ApplicationBatch]:
        """Generate a full schedule of ``n_batches`` consecutive arrival batches."""
        if n_batches <= 0:
            raise ValueError("n_batches must be positive")
        if hours_per_batch <= 0:
            raise ValueError("hours_per_batch must be positive")
        return [
            self.generate_batch(i, (start_hour + i * hours_per_batch) % 8760)
            for i in range(n_batches)
        ]
