"""Benchmark: the compiled CDN epoch pipeline on fig11 scenarios.

Earlier revisions raced the compiled pipeline against an emulation of the
pre-compilation seed pipeline (frozen in ``tests/legacy_greedy.py``); that
oracle was kept for one release and has been retired, so the benchmark now
tracks the compiled pipeline's absolute wall-clock instead. Each run appends a
record to ``BENCH_cdn_pipeline.json`` (repo root) so the timing trajectory
stays visible across PRs — the historical records with ``seed_s``/``speedup``
fields document the original 3–8x compiled-vs-seed gain, and the plain
``compiled_s`` records without a ``tier`` field are the PR 4 era epoch-loop
baseline that the scenario-tier benchmark below measures against.

Load-bearing checks:

* the paper's orderings hold at benchmark scale (CarbonEdge saves carbon on
  every continent);
* the scenario-lifetime compilation tier is byte-identical to the cold
  per-epoch rebuild and makes the 4-policy fig11-scale epoch loop >= 1.5x
  faster than the PR 4 baseline recorded in the trajectory artifact;
* the speculative kernel schedule beats the naive per-row schedule >= 1.5x
  at fig17 scale, bit-identically;
* the wave-vectorised reconciliation replay beats the per-application replay
  >= 1.5x on a saturated fig17-scale epoch (~95% utilisation),
  bit-identically and with a near-zero revalidation rate;
* the exact backend is bit-deterministic: re-solving the same epoch problem
  after dropping its memoised compilation reproduces identical placements and
  objective values.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from bench_util import append_bench_record
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.validation import validate_solution
from repro.experiments.fig17_scalability import _build_problem
from repro.simulator.cdn import CDNSimulator, default_policies
from repro.simulator.scenario import CDNScenario
from repro.solver.compile import (
    SCENARIO_TIER_ENV,
    GreedyState,
    _argmin_chunk,
    _greedy_fill_live,
    _pending_order,
    _replay_per_app,
    _replay_waves,
    clear_compilation,
    clear_scenario_compilations,
    compile_placement,
    greedy_fill,
)

#: Where the timing trajectory is appended (repo root).
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_cdn_pipeline.json"

_SMOKE = os.environ.get("CDN_PIPELINE_BENCH_SCALE", "").lower() == "smoke"

#: Coarse absolute regression tripwire for the compiled pipeline, seconds.
#: Generous enough for slow CI machines; the trajectory artifact is the
#: fine-grained signal.
TIME_CEILING_S = 30.0 if _SMOKE else 120.0

#: Fig11 defaults: 12 epochs over the year, every CDN site of the continent.
SCENARIO_KWARGS = dict(
    n_epochs=4 if _SMOKE else 12,
    max_sites=45 if _SMOKE else None,
    seed=0,
)
CONTINENTS = ("EU",) if _SMOKE else ("US", "EU")


def _append_trajectory(benchmark: str, record: dict) -> None:
    append_bench_record(ARTIFACT, benchmark, record)


def _pr4_baseline_s() -> float | None:
    """Last PR 4 era full-scale epoch-loop wall-clock from the trajectory.

    PR 4 era records carry ``compiled_s`` with neither a ``benchmark`` nor a
    ``tier`` field; every record written by the current benchmark is marked,
    so the baseline stays frozen at the pre-scenario-tier measurement no
    matter how often the benchmarks re-run on this machine.
    """
    if not ARTIFACT.exists():
        return None
    try:
        history = json.loads(ARTIFACT.read_text())
    except (ValueError, OSError):
        return None
    baseline = None
    for record in history:
        if "compiled_s" in record and "benchmark" not in record \
                and "tier" not in record and record.get("scale") == "full":
            baseline = float(record["compiled_s"])
    return baseline


def test_bench_cdn_pipeline(bench_once):
    compiled_s = 0.0
    compiled_results = {}

    def run_all():
        nonlocal compiled_s
        for continent in CONTINENTS:
            scenario = CDNScenario(continent=continent, **SCENARIO_KWARGS)
            # Scenario setup (fleet, latency matrix, traces) is excluded from
            # the timed region: the epoch loop is what the compilation layers
            # optimise.
            simulator = CDNSimulator(scenario=scenario)
            t0 = time.monotonic()
            compiled_results[continent] = simulator.run()
            compiled_s += time.monotonic() - t0
        return compiled_s

    bench_once(run_all)
    print(f"\ncompiled pipeline: {compiled_s:.3f} s "
          f"(ceiling: {TIME_CEILING_S:.0f} s, scale: {'smoke' if _SMOKE else 'full'})")
    _append_trajectory("cdn_pipeline", {
        "scale": "smoke" if _SMOKE else "full",
        "tier": "scenario",
        "continents": list(CONTINENTS),
        "n_epochs": SCENARIO_KWARGS["n_epochs"],
        "max_sites": SCENARIO_KWARGS["max_sites"],
        "compiled_s": round(compiled_s, 4),
    })
    # Sanity: the compiled pipeline still produces the paper's orderings.
    for continent, result in compiled_results.items():
        assert result.carbon_savings_pct("CarbonEdge") > 0.0, continent
    assert compiled_s <= TIME_CEILING_S, (
        f"compiled pipeline took {compiled_s:.1f} s "
        f"(ceiling: {TIME_CEILING_S:.0f} s)")


#: Required epoch-loop speedup of the scenario-tier pipeline over the PR 4
#: baseline recorded in the trajectory artifact. Smoke scale (and machines
#: without a recorded baseline) only check the bit-identity contract.
TIER_SPEEDUP_FLOOR = 1.5


def _timed_epoch_loop(scenario: CDNScenario) -> tuple[float, float, list]:
    """One fig11 epoch loop, split into (compile_s, solve_s, placements).

    Mirrors :meth:`CDNSimulator.run`'s structure: per epoch, problem assembly
    + compilation (the *compile* region — what the scenario tier turns into
    delta gathers) followed by the four policies' solves (the *solve*
    region). The simulator is built outside the timed region, like the
    pipeline benchmark above.
    """
    simulator = CDNSimulator(scenario=scenario)
    policies = default_policies(scenario.solver)
    compile_s = solve_s = 0.0
    placements: list = []
    for epoch in range(scenario.n_epochs):
        t0 = time.monotonic()
        problem = simulator.epoch_problem(epoch)
        compilation = compile_placement(problem)
        compilation.report  # the shared tensors every policy reads
        t1 = time.monotonic()
        solutions = [policy.timed_place(problem) for policy in policies]
        solve_s += time.monotonic() - t1
        compile_s += t1 - t0
        placements.append([s.placements for s in solutions])
    return compile_s, solve_s, placements


def test_bench_scenario_tier_speedup(bench_once):
    """The scenario-lifetime compilation claim: the delta path is
    byte-identical to the cold per-epoch rebuild and >= 1.5x faster than the
    PR 4 baseline on the 4-policy fig11-scale epoch loop.

    Two arms run the same epoch loop: *delta* (scenario tier enabled, built
    fresh inside the timed region) and *cold* (tier force-disabled via the
    environment kill-switch — the per-epoch rebuild the tier contractually
    reproduces bit for bit). The delta arm runs first so it pays any
    first-touch trace-integration cost; the recorded compile fraction shows
    how much of each arm's epoch loop is problem assembly + compilation
    versus solving.
    """
    measured: dict[str, tuple[float, float, list]] = {}

    def run_all():
        for arm in ("delta", "cold"):
            if arm == "cold":
                os.environ[SCENARIO_TIER_ENV] = "1"
            else:
                os.environ.pop(SCENARIO_TIER_ENV, None)
            clear_scenario_compilations()
            try:
                compile_s = solve_s = 0.0
                placements = []
                for continent in CONTINENTS:
                    scenario = CDNScenario(continent=continent, **SCENARIO_KWARGS)
                    c, s, p = _timed_epoch_loop(scenario)
                    compile_s += c
                    solve_s += s
                    placements.append(p)
                measured[arm] = (compile_s, solve_s, placements)
            finally:
                os.environ.pop(SCENARIO_TIER_ENV, None)
        return measured

    bench_once(run_all)
    delta_compile, delta_solve, delta_placements = measured["delta"]
    cold_compile, cold_solve, cold_placements = measured["cold"]
    # The bit-identity contract: every policy's placements in every epoch are
    # identical whichever path assembled the problem.
    assert delta_placements == cold_placements, \
        "scenario-tier epoch loop diverged from the cold rebuild"

    delta_s = delta_compile + delta_solve
    cold_s = cold_compile + cold_solve
    pr4_s = _pr4_baseline_s()
    speedup = (pr4_s / delta_s) if pr4_s else None
    print(f"\nscenario tier (fig11-scale, {len(CONTINENTS)} continents): "
          f"delta {delta_s:.3f} s (compile fraction {delta_compile / delta_s:.0%}), "
          f"cold {cold_s:.3f} s (compile fraction {cold_compile / cold_s:.0%}), "
          f"tier speedup {cold_s / delta_s:.2f}x, "
          f"vs PR4 baseline {pr4_s}: "
          f"{f'{speedup:.2f}x' if speedup else 'n/a'}")
    _append_trajectory("scenario_tier", {
        "scale": "smoke" if _SMOKE else "full",
        "continents": list(CONTINENTS),
        "n_epochs": SCENARIO_KWARGS["n_epochs"],
        "delta_epoch_s": round(delta_s, 4),
        "cold_epoch_s": round(cold_s, 4),
        "compile_fraction_delta": round(delta_compile / delta_s, 4),
        "compile_fraction_cold": round(cold_compile / cold_s, 4),
        "tier_speedup": round(cold_s / delta_s, 2),
        "pr4_baseline_s": pr4_s,
        "speedup_vs_pr4": round(speedup, 2) if speedup else None,
    })
    if not _SMOKE and pr4_s is not None:
        assert speedup >= TIER_SPEEDUP_FLOOR, (
            f"fig11-scale epoch loop {delta_s:.3f} s is only {speedup:.2f}x the "
            f"PR 4 baseline {pr4_s:.3f} s (floor: {TIER_SPEEDUP_FLOOR}x)")


#: Required speedup of the speculative kernel schedule over the naive per-row
#: schedule at full scale: the kernel runs the batched
#: speculate-and-revalidate schedule whenever the activation channel is cold.
#: Smoke scale only checks the determinism contract.
SCHEDULE_SPEEDUP_FLOOR = 1.5

#: Fig17-scale epoch-loop instances: (n_servers, n_apps, repeats).
KERNEL_BENCH_SIZES = ((400, 140, 6), (400, 600, 3)) if not _SMOKE \
    else ((100, 60, 2),)


def test_bench_kernel_schedule_speedup(bench_once):
    """The speculative schedule claim: >= 1.5x over the naive per-row loop at
    fig17 scale, bit-identical state.

    The timed region is the greedy construction of the four paper policies'
    dense cost tensors on fig17-scale instances (400-server fleet), kernels
    called directly so the comparison isolates exactly the schedule.
    """
    naive_s = spec_s = 0.0

    def run_all():
        nonlocal naive_s, spec_s
        for n_servers, n_apps, repeats in KERNEL_BENCH_SIZES:
            problem = _build_problem(n_servers, n_apps, seed=1)
            compilation = compile_placement(problem)
            from repro.core.objective import ObjectiveKind
            denses = [compilation.dense(kind) for kind in
                      (ObjectiveKind.LATENCY, ObjectiveKind.ENERGY,
                       ObjectiveKind.INTENSITY, ObjectiveKind.CARBON)]
            for _ in range(repeats):
                for dense in denses:
                    naive = GreedyState(dense)
                    t0 = time.monotonic()
                    _greedy_fill_live(naive, _pending_order(naive, problem.energy_j))
                    naive_s += time.monotonic() - t0
                    spec = GreedyState(dense)
                    t0 = time.monotonic()
                    greedy_fill(spec, problem.energy_j)
                    spec_s += time.monotonic() - t0
                    # Bit-identity of the full mutable state, not just the
                    # assignment — local search consumes capacity_left.
                    assert np.array_equal(naive.assignment, spec.assignment)
                    assert np.array_equal(naive.capacity_left, spec.capacity_left)
                    assert np.array_equal(naive.served, spec.served)
        return naive_s, spec_s

    bench_once(run_all)
    speedup = naive_s / max(spec_s, 1e-9)
    print(f"\ngreedy kernel (fig17-scale): naive {naive_s:.3f} s, "
          f"speculative {spec_s:.3f} s, schedule speedup {speedup:.2f}x")
    _append_trajectory("kernel_schedule", {
        "scale": "smoke" if _SMOKE else "full",
        "sizes": [[s, a] for s, a, _ in KERNEL_BENCH_SIZES],
        "naive_kernel_s": round(naive_s, 4),
        "speculative_kernel_s": round(spec_s, 4),
        "schedule_speedup": round(speedup, 2),
    })
    if not _SMOKE:
        assert speedup >= SCHEDULE_SPEEDUP_FLOOR, (
            f"speculative schedule speedup {speedup:.2f}x is below the "
            f"{SCHEDULE_SPEEDUP_FLOOR}x floor")


#: Required speedup of the wave-vectorised reconciliation replay over the
#: PR 5 per-application replay on the saturated epoch below. Smoke scale only
#: checks the bit-identity and telemetry contracts.
WAVE_SPEEDUP_FLOOR = 1.5

#: Saturated-epoch instance of the wave benchmark: (n_servers, n_apps,
#: repeats). Fig17-scale fleet at full scale.
WAVE_BENCH_SIZE = (100, 300, 4) if _SMOKE else (400, 1200, 12)


def _saturated_epoch(n_servers: int, n_apps: int):
    """A fig17-scale epoch rescaled so every server runs near-full.

    The plain carbon objective concentrates winners on the greenest servers
    (product-form costs give every application the same server ranking), so
    an untouched fig17 instance is *conflict-dense*: most replayed
    applications are invalidated and the wave replay correctly degrades to
    the per-application loop. The saturated regime the wave replay targets is
    the opposite: capacity rescaled to just about the speculative winner load
    (a few servers 5% short, the rest 2% over), utilisation ~95%, few
    invalidations. Seeds pinned so the instance is identical across arms and
    runs.
    """
    import dataclasses

    from repro.core.objective import ObjectiveKind

    problem = _build_problem(n_servers, n_apps, seed=1)
    dense0 = compile_placement(problem).dense(ObjectiveKind.CARBON)
    rows = dense0.cost
    choice = np.argmin(rows, axis=1)
    finite = np.isfinite(rows[np.arange(len(choice)), choice])
    winner_load = np.zeros_like(dense0.capacity)
    np.add.at(winner_load, choice[finite],
              dense0.demand[np.flatnonzero(finite), choice[finite]])
    rng = np.random.default_rng(7)
    # The compiled tensor keeps only feasible servers, so size the headroom
    # off its capacity axis (a subset of the fleet's n_servers).
    headroom = np.where(rng.random(dense0.capacity.shape[0]) < 0.10,
                        0.95, 1.02)[:, None]
    capacity = np.maximum(winner_load * headroom, dense0.capacity * 1e-3)
    return dataclasses.replace(dense0, capacity=capacity), problem.energy_j


def test_bench_wave_reconcile_speedup(bench_once):
    """The wave-reconciliation claim: committing settled waves with dense
    batched operations beats the per-application replay >= 1.5x on a
    saturated fig17-scale epoch, bit-identically.

    Both arms replay the same speculative winners (one batched argmin,
    computed outside the timed region) into a fresh state; only the replay
    differs. The per-application arm runs one Python-level fit-check-and-place
    step per application. The wave arm must reproduce its full mutable state
    byte for byte while replacing almost every step with wave commits
    (telemetry asserted: waves happened, revalidation rate near zero)."""
    n_servers, n_apps, repeats = WAVE_BENCH_SIZE
    dense, energy = _saturated_epoch(n_servers, n_apps)
    order = _pending_order(GreedyState(dense), energy)
    choices = _argmin_chunk(dense, order)
    replays = {"serial": _replay_per_app, "wave": _replay_waves}
    times = {"serial": 0.0, "wave": 0.0}
    states: dict = {}

    def run_all():
        for mode, replay in replays.items():
            for _ in range(repeats):
                state = GreedyState(dense)
                state.stats.pending = len(order)
                t0 = time.monotonic()
                replay(state, order, choices)
                times[mode] += time.monotonic() - t0
                states[mode] = state
        return times

    bench_once(run_all)
    serial, wave = states["serial"], states["wave"]
    assert np.array_equal(serial.assignment, wave.assignment)
    assert np.array_equal(serial.capacity_left, wave.capacity_left)
    assert np.array_equal(serial.served, wave.served)
    # Telemetry: the serial arm replays per application, the wave arm settles
    # nearly everything in batched commits on this instance.
    assert serial.stats.waves == 0 and serial.stats.revalidation_rate == 1.0
    assert wave.stats.waves > 0
    assert wave.stats.revalidation_rate < 0.2

    speedup = times["serial"] / max(times["wave"], 1e-9)
    print(f"\nwave reconciliation (saturated {n_servers}x{n_apps}): "
          f"per-app {times['serial']:.3f} s, "
          f"wave {times['wave']:.3f} s, speedup {speedup:.2f}x, "
          f"revalidation rate {wave.stats.revalidation_rate:.3f}")
    _append_trajectory("wave_reconcile", {
        "scale": "smoke" if _SMOKE else "full",
        "size": [n_servers, n_apps],
        "per_app_replay_s": round(times["serial"], 4),
        "wave_replay_s": round(times["wave"], 4),
        "wave_speedup": round(speedup, 2),
        "waves": wave.stats.waves,
        "revalidation_rate": round(wave.stats.revalidation_rate, 4),
    })
    if not _SMOKE:
        assert speedup >= WAVE_SPEEDUP_FLOOR, (
            f"wave reconciliation speedup {speedup:.2f}x is below the "
            f"{WAVE_SPEEDUP_FLOOR}x floor")


def test_bench_exact_backend_is_deterministic(bench_once):
    """Recompiling and re-solving the same epoch problem is bit-identical."""

    def run():
        scenario = CDNScenario(continent="EU", n_epochs=1, max_sites=8, seed=3)
        simulator = CDNSimulator(scenario=scenario)
        problem = simulator.epoch_problem(0)
        policy = CarbonEdgePolicy(solver="exact")
        first = policy.place(problem)
        validate_solution(first, strict=True)
        # Drop the memoised compilation: the second solve re-derives the
        # feasibility report and dense tensors from scratch.
        clear_compilation(problem)
        second = policy.place(problem)
        validate_solution(second, strict=True)
        assert first.placements == second.placements
        assert first.total_carbon_g() == second.total_carbon_g()
        return first.total_carbon_g()

    bench_once(run)
