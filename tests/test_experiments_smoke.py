"""Smoke tests of the experiment runners (small configurations).

The full-size experiments are exercised by the benchmark harness; these tests
run each experiment at a reduced scale to make sure the plumbing (run + report)
works and the headline relationships hold.
"""

import pytest

from repro.experiments import (
    fig01_energy_mix,
    fig02_snapshots,
    fig03_yearly,
    fig04_temporal,
    fig05_radius,
    fig07_profiles,
    fig08_florida,
    fig10_regional,
    fig11_cdn_year,
    fig12_latency_sweep,
    fig14_demand_capacity,
    fig16_tradeoff,
    fig17_scalability,
    table1_latency,
)


def test_fig01_runs_and_reports():
    result = fig01_energy_mix.run(n_days=1)
    assert result["means"]["EU-PL"] > result["means"]["CA-ON"]
    assert "Figure 1a" in fig01_energy_mix.report(result)
    with pytest.raises(ValueError):
        fig01_energy_mix.run(n_days=0)


def test_fig02_fig03_fig04_reports():
    assert "Figure 2" in fig02_snapshots.report(fig02_snapshots.run())
    assert "Figure 3" in fig03_yearly.report(fig03_yearly.run())
    assert "Figure 4" in fig04_temporal.report(fig04_temporal.run())


def test_table1_report_contains_pairs():
    result = table1_latency.run()
    report = table1_latency.report(result)
    assert "Jacksonville - Miami" in report
    assert "Graz - Lyon" in report or "Lyon - Graz" in report or "Graz" in report


def test_fig05_small_footprint():
    result = fig05_radius.run(n_sites=60, radii_km=(200.0, 1000.0))
    assert result["per_radius"][200.0]["n_sites"] == 60
    assert "Figure 5" in fig05_radius.report(result)


def test_fig07_report():
    assert "Figure 7" in fig07_profiles.report(fig07_profiles.run())


def test_fig08_short_run():
    result = fig08_florida.run(hours=6)
    assert "CarbonEdge" in result["runs"]
    assert "savings" in fig08_florida.report(result)


def test_fig10_single_workload():
    result = fig10_regional.run(hours=6, workloads=("ResNet50",))
    assert result["summary"]["Central EU"]["savings_pct"] > result["summary"]["Florida"][
        "savings_pct"] - 100.0
    assert "Figure 10" in fig10_regional.report(result)


def test_fig11_small_scale():
    result = fig11_cdn_year.run(n_epochs=1, max_sites=10, continents=("EU",))
    assert result["summary"]["EU"]["carbon_savings_pct"] > 0
    assert "Figure 11" in fig11_cdn_year.report(result)


def test_fig12_small_sweep():
    result = fig12_latency_sweep.run(n_epochs=1, limits_ms=(5.0, 30.0), max_sites=10,
                                     continents=("EU",))
    rows = result["rows"]
    assert rows[-1]["carbon_savings_pct"] >= rows[0]["carbon_savings_pct"] - 5.0
    assert "Figure 12" in fig12_latency_sweep.report(result)


def test_fig14_small_scale():
    result = fig14_demand_capacity.run(n_epochs=1, max_sites=10, continents=("EU",))
    assert len(result["rows"]) == 3
    assert "Figure 14" in fig14_demand_capacity.report(result)


def test_fig16_small_scale():
    result = fig16_tradeoff.run(alphas=(0.0, 1.0), n_sites=8)
    low = result["scenarios"]["low"]
    assert low["carbon_g"][0] <= low["carbon_g"][-1] + 1e-6
    assert "Figure 16" in fig16_tradeoff.report(result)


def test_fig17_small_scale():
    result = fig17_scalability.run(server_counts=(20,), app_counts=(10,), fixed_apps=10,
                                   fixed_servers=20)
    assert result["by_servers"][0]["time_s"] < 30.0
    assert "Figure 17" in fig17_scalability.report(result)


def test_backend_comparisons_time_the_scenario_tier_path():
    """Each timed arm solves a problem the scenario tier assembled, as
    production does: every dense view is of a problem an epoch compilation
    gathered from the class tables, never of one built another way."""
    from unittest import mock

    from repro.experiments import backend_tournament
    from repro.solver.compile import EpochCompilation, ScenarioCompilation

    assembled: list = []
    viewed: list = []
    compile_epoch, dense = ScenarioCompilation.compile_epoch, EpochCompilation.dense

    def spy_compile_epoch(scenario, delta):
        compilation = compile_epoch(scenario, delta)
        assembled.append(compilation.problem)
        return compilation

    def spy_dense(compilation, *args, **kwargs):
        viewed.append(compilation.problem)
        return dense(compilation, *args, **kwargs)

    with mock.patch.object(ScenarioCompilation, "compile_epoch", spy_compile_epoch), \
            mock.patch.object(EpochCompilation, "dense", spy_dense):
        rows = fig17_scalability.compare_backends(sizes=((20, 8),))
        result = backend_tournament.run(sizes=((20, 8),), time_budget_s=2.0)
    assert viewed and all(any(p is q for q in assembled) for p in viewed)
    assert {row["backend"] for row in rows} == {"highs", "heuristic"}
    assert len(result["arms"]) == 2
