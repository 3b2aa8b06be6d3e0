"""Replay-parity regression: the service must reproduce the batch simulator.

The correctness anchor of the serving mode: a :class:`PlacementService` run
driven by events derived from a fig11-style scenario must produce
*bit-identical* placement decisions to the batch
:meth:`~repro.simulator.cdn.CDNSimulator.run` loop — across every default
policy, and with every problem built by the per-object reference build
instead of the scenario tier (parity must still hold).
"""

from __future__ import annotations

from repro.experiments.common import EXPERIMENT_SEED
from repro.serving.parity import canonical_records, check_replay_parity
from repro.serving.service import PlacementService
from repro.simulator.cdn import CDNSimulator
from repro.simulator.scenario import CDNScenario

from tests.conftest import cold_builds


def _smoke_scenario(n_epochs: int = 1) -> CDNScenario:
    """The fig11 smoke configuration (EU side), as used by CI."""
    return CDNScenario(continent="EU", n_epochs=n_epochs, max_sites=10,
                       apps_per_site_per_epoch=6.0, seed=EXPERIMENT_SEED)


def test_replay_parity_across_default_policies():
    """Byte-diff every default policy's decisions."""
    report = check_replay_parity(_smoke_scenario())
    assert [c.policy for c in report.checks] == [
        "Latency-aware", "Energy-aware", "Intensity-aware", "CarbonEdge"]
    for check in report.checks:
        assert check.service_json == check.batch_json, (
            f"{check.policy} decisions diverged from the batch loop")
        # The canonical payload must actually carry the decisions.
        assert '"assignments":{"' in check.service_json
    assert report.ok


def test_replay_parity_with_scenario_tier_disabled():
    """With both loops building every problem cold, parity holds."""
    with cold_builds():
        report = check_replay_parity(_smoke_scenario())
    assert report.ok, report.summary()


def test_replay_parity_over_multiple_epochs():
    """Decisions stay in parity across consecutive epochs."""
    report = check_replay_parity(_smoke_scenario(n_epochs=2))
    assert report.ok, report.summary()
    for check in report.checks:
        assert check.service_json.count('"epoch":') == 2


def test_canonical_records_exclude_wall_clock():
    """solve_time_s is measurement, not decision — it must not leak in."""
    scenario = _smoke_scenario()
    result = CDNSimulator(scenario=scenario).run(record_assignments=True)
    payload = canonical_records(result, "CarbonEdge")
    assert "solve_time_s" not in payload
    assert '"assignments"' in payload and '"hosting_intensities"' in payload


def test_replay_report_metrics_mirror_the_epochs():
    """Replay mode's ServingMetrics: one 'epoch' decision per scenario epoch."""
    scenario = _smoke_scenario(n_epochs=2)
    service = PlacementService.from_scenario(scenario)
    report = service.run_replay()
    assert report.metrics.n_events == 2
    assert [d.kind for d in report.metrics.decisions] == ["epoch", "epoch"]
    assert report.metrics.n_batch_solves == 2
    assert report.result is not None
    assert len(report.result.records[service.policy.name]) == 2
    # Digest is a pure function of the decisions: a fresh run reproduces it.
    again = PlacementService.from_scenario(scenario).run_replay()
    assert again.metrics.decision_digest() == report.metrics.decision_digest()
