"""Smoke tests of the ``carbon-edge`` CLI (experiments list / run)."""

import json

import pytest

from repro.cli import carbon_edge_main
from repro.experiments import registry
from repro.experiments.results import ARTIFACT_VERSION


def test_experiments_list_prints_every_spec(capsys):
    assert carbon_edge_main(["experiments", "list"]) == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert name in out
    assert "sweep" in out and "continents" in out


def test_experiments_run_writes_validated_artifacts(tmp_path, capsys):
    rc = carbon_edge_main(["experiments", "run", "fig07", "table1", "--smoke",
                           "--workers", "2", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ran 2 experiment(s) at smoke scale" in out
    for name in ("fig07", "table1"):
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        assert payload["version"] == ARTIFACT_VERSION
        assert payload["name"] == name
        assert payload["smoke"] is True
        assert payload["artifact"]


def test_experiments_run_no_write_leaves_no_artifacts(tmp_path, capsys):
    rc = carbon_edge_main(["experiments", "run", "fig07", "--smoke", "--no-write",
                           "--output-dir", str(tmp_path)])
    assert rc == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["experiments", "run"],                              # nothing selected
    ["experiments", "run", "fig99", "--smoke"],          # unknown name
    ["experiments", "run", "fig07", "--all", "--smoke"],  # names and --all
    ["experiments", "run", "fig07", "--workers", "0"],   # bad worker count
])
def test_experiments_run_rejects_bad_invocations(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        carbon_edge_main(argv)
    assert excinfo.value.code != 0


def test_unknown_experiment_error_names_the_registry(capsys):
    with pytest.raises(SystemExit):
        carbon_edge_main(["experiments", "run", "fig99", "--smoke"])
    err = capsys.readouterr().err
    assert "fig99" in err
    for name in ("fig11", "table1"):
        assert name in err  # the message lists what IS registered


def test_experiments_list_output_is_stable(capsys):
    """Two list invocations print byte-identical tables (no ordering or
    timing noise in the registry projection)."""
    assert carbon_edge_main(["experiments", "list"]) == 0
    first = capsys.readouterr().out
    assert carbon_edge_main(["experiments", "list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    header = first.splitlines()[0].split()
    assert header == ["name", "kind", "units", "sweep", "title"]


def test_quickstart_subcommand_places_applications(capsys):
    rc = carbon_edge_main(["quickstart", "--backend", "heuristic",
                           "--time-budget-s", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CarbonEdge placement" in out
    assert "savings" in out


@pytest.mark.parametrize("argv", [
    ["experiments", "run", "fig07", "--hierarchy-regions", "0"],
    ["experiments", "run", "fig07", "--hierarchy-regions", "-3"],
    ["experiments", "run", "fig07", "--merge", "mmap"],
    ["serve", "--max-sites", "1", "--smoke"],
    ["serve", "--max-sites", "0", "--smoke"],
])
def test_hierarchy_merge_and_serve_flag_validation(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        carbon_edge_main(argv)
    assert excinfo.value.code != 0


def test_merge_flag_is_refused(capsys):
    """Unit artifacts fold in memory, the only merge: ``--merge`` is an
    unknown argument."""
    with pytest.raises(SystemExit) as excinfo:
        carbon_edge_main(["experiments", "run", "fig07", "--merge", "stream"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --merge stream" in capsys.readouterr().err


def test_max_sites_error_names_the_flag(capsys):
    with pytest.raises(SystemExit):
        carbon_edge_main(["serve", "--max-sites", "1"])
    assert "--max-sites" in capsys.readouterr().err


def test_hierarchy_regions_is_a_recorded_override(tmp_path):
    """--hierarchy-regions reaches specs that take the parameter and is
    recorded in the artifact params (unlike the execution-only knobs)."""
    rc = carbon_edge_main(["experiments", "run", "planetary_sweep", "--smoke",
                           "--hierarchy-regions", "2",
                           "--output-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "planetary_sweep.json").read_text())
    assert payload["params"]["hierarchy_regions"] == 2
    assert set(payload["artifact"]["sweep"]) == {"2"}


def test_hierarchy_regions_needs_a_spec_that_takes_it(tmp_path, capsys):
    """--hierarchy-regions with no selected spec taking it is an error naming
    the specs that do, not a silent flat run."""
    with pytest.raises(SystemExit) as excinfo:
        carbon_edge_main(["experiments", "run", "fig11", "--smoke",
                          "--hierarchy-regions", "2",
                          "--output-dir", str(tmp_path)])
    assert excinfo.value.code != 0
    assert "planetary_sweep" in capsys.readouterr().err
