"""Replay-parity harness: online service vs. batch simulator, byte-diffed.

The correctness anchor of the serving mode is a *replay-parity contract*: a
:class:`~repro.serving.service.PlacementService` run driven by events derived
from a scenario must produce **bit-identical placement decisions** to the
batch :meth:`repro.simulator.cdn.CDNSimulator.run` loop over the same
scenario. This module canonicalises both sides' epoch records into compact
sorted-keys JSON (wall-clock fields excluded) and byte-diffs them —
:func:`check_replay_parity` is shared by the regression tests, the property
suite, and ``carbon-edge serve --replay-parity`` in CI, which runs it with
and without the scenario-tier kill-switch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.policies.base import PlacementPolicy
from repro.simulator.cdn import CDNSimulator, default_policies
from repro.simulator.metrics import SimulationResult
from repro.simulator.scenario import CDNScenario


def canonical_records(result: SimulationResult, policy: str) -> str:
    """Canonical JSON of one policy's epoch records — decisions, not timings.

    Everything deterministic goes in: the full (app → server) assignment
    maps, carbon/energy, latency metrics, per-site counts, hosting
    intensities. ``solve_time_s`` is the one wall-clock
    field and is excluded; two runs that made the same decisions must
    serialize to *identical bytes* here.
    """
    entries = [{
        "epoch": r.epoch,
        "start_hour": r.start_hour,
        "policy": r.policy,
        "carbon_g": r.carbon_g,
        "energy_j": r.energy_j,
        "mean_one_way_latency_ms": r.mean_one_way_latency_ms,
        "latency_increase_one_way_ms": r.latency_increase_one_way_ms,
        "n_placed": r.n_placed,
        "n_unplaced": r.n_unplaced,
        "apps_per_site": r.apps_per_site,
        "hosting_intensities": r.hosting_intensities,
        "n_nearest_unreachable": r.n_nearest_unreachable,
        "assignments": r.assignments,
    } for r in result.records[policy]]
    return json.dumps(entries, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ParityCheck:
    """Byte-diff outcome for one policy."""

    policy: str
    matches: bool
    service_json: str
    batch_json: str


@dataclass
class ParityReport:
    """Replay-parity outcome across a set of policies."""

    scenario: CDNScenario
    checks: list[ParityCheck]

    @property
    def ok(self) -> bool:
        """Whether every policy's decisions matched byte-for-byte."""
        return all(check.matches for check in self.checks)

    def summary(self) -> str:
        """One line per policy, CLI-friendly."""
        lines = []
        for check in self.checks:
            status = "OK" if check.matches else "MISMATCH"
            lines.append(f"  {check.policy}: {status}")
        return "\n".join(lines)


def check_replay_parity(scenario: CDNScenario,
                        policies: list[PlacementPolicy] | None = None,
                        validate: bool = True) -> ParityReport:
    """Run both loops over one scenario and byte-diff their decisions.

    The batch side is one :meth:`CDNSimulator.run` over all policies (with
    assignment recording on); the service side is one
    :meth:`~repro.serving.service.PlacementService.run_replay` per policy.
    Policies default to the simulator's standard comparison set.
    """
    from repro.serving.service import PlacementService, ServingConfig

    if policies is None:
        policies = default_policies(scenario.solver)
    batch = CDNSimulator(scenario=scenario).run(
        policies=policies, validate=validate, record_assignments=True)
    checks: list[ParityCheck] = []
    config = ServingConfig(horizon_hours=float(scenario.hours_per_epoch),
                           validate=validate)
    for policy in policies:
        service = PlacementService.from_scenario(scenario, policy=policy,
                                                 config=config)
        served = service.run_replay()
        service_json = canonical_records(served.result, policy.name)
        batch_json = canonical_records(batch, policy.name)
        checks.append(ParityCheck(policy=policy.name,
                                  matches=service_json == batch_json,
                                  service_json=service_json,
                                  batch_json=batch_json))
    return ParityReport(scenario=scenario, checks=checks)
