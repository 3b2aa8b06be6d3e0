"""Per-epoch simulation records and their aggregation into paper metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.savings import carbon_savings_pct


@dataclass
class EpochRecord:
    """Metrics of one policy over one placement epoch."""

    epoch: int
    start_hour: int
    policy: str
    carbon_g: float
    energy_j: float
    mean_one_way_latency_ms: float
    latency_increase_one_way_ms: float
    n_placed: int
    n_unplaced: int
    apps_per_site: dict[str, int] = field(default_factory=dict)
    #: Carbon intensity of the zone hosting each placed application (Ī at placement).
    hosting_intensities: list[float] = field(default_factory=list)
    solve_time_s: float = 0.0
    #: Applications in this epoch's batch with no feasible server at all
    #: (no latency-increase baseline exists for them; they also show up in
    #: ``n_unplaced``). The count is a property of the epoch's problem, so it
    #: is identical across the policies of one epoch.
    n_nearest_unreachable: int = 0
    #: Full placement decision (app id -> hosting server id), populated only
    #: when the caller asks for it (``record_assignments``): the replay-parity
    #: harness byte-diffs these against the online serving loop's decisions.
    #: Empty by default so year-long simulations don't hold every epoch's
    #: assignment map in memory.
    assignments: dict[str, str] = field(default_factory=dict)


@dataclass
class SimulationResult:
    """All epoch records of one CDN simulation, keyed by policy."""

    scenario_name: str
    records: dict[str, list[EpochRecord]] = field(default_factory=dict)

    def policies(self) -> list[str]:
        """Policy names present in the result."""
        return list(self.records)

    def add(self, record: EpochRecord) -> None:
        """Append one epoch record."""
        self.records.setdefault(record.policy, []).append(record)

    def total_carbon_g(self, policy: str) -> float:
        """Total carbon of one policy across all epochs, grams."""
        return float(sum(r.carbon_g for r in self._of(policy)))

    def total_energy_j(self, policy: str) -> float:
        """Total energy of one policy across all epochs, joules."""
        return float(sum(r.energy_j for r in self._of(policy)))

    def carbon_savings_pct(self, policy: str, baseline: str = "Latency-aware") -> float:
        """Year-long carbon savings of ``policy`` relative to ``baseline``."""
        return carbon_savings_pct(self.total_carbon_g(baseline), self.total_carbon_g(policy))

    def mean_latency_increase_rtt_ms(self, policy: str) -> float:
        """Mean round-trip latency increase of a policy (placed-app weighted)."""
        records = self._of(policy)
        # Unreachable apps are never placed, so n_placed is exactly the
        # number of applications contributing to each epoch's mean.
        weights = np.array([r.n_placed for r in records], dtype=float)
        increases = np.array([r.latency_increase_one_way_ms for r in records])
        if weights.sum() == 0:
            return 0.0
        return float(2.0 * np.average(increases, weights=weights))

    def monthly_savings_pct(self, policy: str, baseline: str = "Latency-aware") -> list[float]:
        """Per-epoch carbon savings of a policy (the Figure 13a series)."""
        base = self._of(baseline)
        pol = self._of(policy)
        if len(base) != len(pol):
            raise ValueError("baseline and policy must cover the same epochs")
        return [carbon_savings_pct(b.carbon_g, p.carbon_g) for b, p in zip(base, pol)]

    def monthly_latency_increase_rtt_ms(self, policy: str) -> list[float]:
        """Per-epoch round-trip latency increase (the Figure 13b series)."""
        return [2.0 * r.latency_increase_one_way_ms for r in self._of(policy)]

    def hosting_intensity_distribution(self, policy: str) -> np.ndarray:
        """Carbon intensities at which applications executed (Figure 11c CDF data)."""
        values: list[float] = []
        for r in self._of(policy):
            values.extend(r.hosting_intensities)
        return np.asarray(values, dtype=float)

    def placements_per_site(self, policy: str) -> dict[str, list[int]]:
        """Per-site series of placed-application counts across epochs (Figure 13d)."""
        records = self._of(policy)
        sites: set[str] = set()
        for r in records:
            sites.update(r.apps_per_site)
        return {site: [r.apps_per_site.get(site, 0) for r in records] for site in sorted(sites)}

    def total_unplaced(self, policy: str) -> int:
        """Total applications the policy could not place."""
        return int(sum(r.n_unplaced for r in self._of(policy)))

    def total_nearest_unreachable(self, policy: str) -> int:
        """Applications without any feasible server, summed over epochs."""
        return int(sum(r.n_nearest_unreachable for r in self._of(policy)))

    def _of(self, policy: str) -> list[EpochRecord]:
        if policy not in self.records:
            raise KeyError(f"no records for policy {policy!r}; have {list(self.records)}")
        return self.records[policy]
