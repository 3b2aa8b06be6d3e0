"""CDN simulation scenario configuration."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CDNScenario:
    """Configuration of one CDN-scale, trace-driven simulation.

    Parameters
    ----------
    continent:
        ``"US"`` or ``"EU"`` — which side of the CDN footprint to simulate.
    latency_limit_ms:
        Round-trip latency SLO given to every application (paper default 20 ms,
        roughly a 500 km radius).
    n_epochs:
        Number of placement epochs covering the year (12 = monthly, 52 = weekly).
    apps_per_site_per_epoch:
        Mean number of applications arriving per site per epoch.
    workload_mix:
        Arrival probability per workload name.
    demand:
        ``"homogeneous"`` (equal per site) or ``"population"`` (Section 6.3.4
        demand scenario).
    capacity:
        ``"homogeneous"`` or ``"population"`` (Section 6.3.4 capacity scenario).
    servers_per_site:
        Baseline number of servers per CDN site.
    accelerator:
        Accelerator name installed everywhere (ignored when ``accelerator_mix``
        is set).
    accelerator_mix:
        Optional list of accelerator names to mix across servers (Figure 15's
        "Hetero." configuration).
    request_rate_rps:
        Request rate per application.
    max_sites:
        Optional cap on the number of CDN cities simulated (keeps tests fast).
    solver:
        Solver strategy handed to the optimisation-based policies.
    hierarchy_regions:
        Number of geographic regions for the cluster-then-refine solver tier
        (:mod:`repro.solver.hierarchy`). ``1`` keeps the flat solve; higher
        values cluster the fleet, solve a coarse apps×regions pass, and
        refine per region. This knob *changes the answer* (the coarse/refine
        gap is recorded, never hidden), but for a fixed value the artifacts
        stay byte-stable across worker counts.
    refine_backend:
        Registry backend used for each region's refinement sub-solve when
        ``hierarchy_regions > 1``.
    seed:
        Root seed for arrivals and trace generation.
    """

    continent: str = "US"
    latency_limit_ms: float = 20.0
    n_epochs: int = 12
    apps_per_site_per_epoch: float = 2.0
    workload_mix: dict[str, float] = field(default_factory=lambda: {"ResNet50": 1.0})
    demand: str = "homogeneous"
    capacity: str = "homogeneous"
    servers_per_site: int = 1
    accelerator: str = "NVIDIA A2"
    accelerator_mix: tuple[str, ...] | None = None
    request_rate_rps: float = 10.0
    max_sites: int | None = None
    solver: str = "greedy"
    hierarchy_regions: int = 1
    refine_backend: str = "greedy"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.continent not in ("US", "EU"):
            raise ValueError(f"continent must be 'US' or 'EU', got {self.continent!r}")
        if self.latency_limit_ms <= 0:
            raise ValueError("latency_limit_ms must be positive")
        if self.n_epochs <= 0 or self.n_epochs > 8760:
            raise ValueError("n_epochs must be in 1..8760")
        if self.apps_per_site_per_epoch <= 0:
            raise ValueError("apps_per_site_per_epoch must be positive")
        if self.demand not in ("homogeneous", "population"):
            raise ValueError("demand must be 'homogeneous' or 'population'")
        if self.capacity not in ("homogeneous", "population"):
            raise ValueError("capacity must be 'homogeneous' or 'population'")
        if self.servers_per_site <= 0:
            raise ValueError("servers_per_site must be positive")
        if self.max_sites is not None and self.max_sites <= 1:
            raise ValueError("max_sites must be at least 2")
        if self.hierarchy_regions < 1:
            raise ValueError(
                f"hierarchy_regions must be >= 1, got {self.hierarchy_regions}")
        if not self.refine_backend or not isinstance(self.refine_backend, str):
            raise ValueError(
                f"refine_backend must be a non-empty backend name, "
                f"got {self.refine_backend!r}")

    @property
    def hours_per_epoch(self) -> int:
        """Length of one placement epoch in hours (the year divided evenly)."""
        return max(1, 8760 // self.n_epochs)

    def epoch_start_hour(self, epoch: int) -> int:
        """Hour-of-year at which the given epoch starts."""
        if not 0 <= epoch < self.n_epochs:
            raise ValueError(f"epoch must be in 0..{self.n_epochs - 1}")
        return epoch * self.hours_per_epoch
