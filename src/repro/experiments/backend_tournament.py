"""Backend tournament: heuristic vs. exact solver comparison.

Runs the deterministic ``heuristic`` and the exact ``highs`` backend over
identical fig17-style instances at several sizes, recording per arm the
placement objective, wall-clock solve time, the bound the backend proved, and
its optimality gap. The rows quantify the heuristic-vs-exact gap the
registry's ``auto`` rule trades against speed.

Every arm goes through the registry front door (:func:`repro.solver.solve`)
on purpose: the recorded time includes the baseline/fallback machinery a real
caller pays for, and the recorded solution is exactly what that caller would
receive.
"""

from __future__ import annotations

import time

from repro.analysis.reporting import format_table
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.experiments.common import EXPERIMENT_SEED
from repro.experiments.fig17_scalability import _build_instance
from repro.experiments.registry import ExperimentSpec, RunContext, register
from repro.solver import solve

#: (n_servers, n_apps) instance sizes swept. Small enough that the exact
#: backends close the gap within the default budget, large enough that the
#: heuristic's speed advantage is visible.
TOURNAMENT_SIZES: tuple[tuple[int, int], ...] = ((40, 20), (100, 50), (200, 80))

#: Backends entered in the tournament.
TOURNAMENT_BACKENDS: tuple[str, ...] = ("heuristic", "highs")

#: Backends whose answers count as "exact" when computing the heuristic gap.
EXACT_BACKENDS: frozenset = frozenset({"highs"})


def _run_arm(instance: tuple, backend: str, time_budget_s: float | None,
             seed: int) -> dict[str, object]:
    """One (instance, backend) tournament arm through the registry front door."""
    # Each arm solves a freshly built problem (built outside the timer, cheap
    # through the memoised scenario tier) and pays for its own compilation,
    # so timings are self-contained.
    problem = PlacementProblem.build(*instance, hour=0, horizon_hours=1.0)
    start = time.monotonic()
    solution = solve(problem, backend=backend, time_budget_s=time_budget_s, seed=seed)
    elapsed = time.monotonic() - start
    validate_solution(solution)
    return {
        "backend": backend,
        "resolved_backend": solution.backend_name,
        "carbon_g": solution.total_carbon_g(),
        "time_s": elapsed,
        "placed": solution.n_placed,
        "bound": solution.solver_bound,
        "solver_gap": solution.solver_gap,
        "solver_params": dict(solution.solver_params),
    }


def run(seed: int = EXPERIMENT_SEED,
        sizes: tuple[tuple[int, int], ...] = TOURNAMENT_SIZES,
        backends: tuple[str, ...] = TOURNAMENT_BACKENDS,
        time_budget_s: float | None = 10.0) -> dict[str, object]:
    """Run the tournament: one row per (size, backend), plus per-size gaps."""
    rows: list[dict[str, object]] = []
    gaps: list[dict[str, object]] = []
    for n_servers, n_apps in sizes:
        instance = _build_instance(n_servers, n_apps, seed)
        size_rows = []
        for backend in backends:
            row = _run_arm(instance, backend, time_budget_s, seed)
            row.update({"n_servers": n_servers, "n_apps": n_apps})
            size_rows.append(row)
        rows.extend(size_rows)
        # Heuristic-vs-exact gap.
        exact = [r for r in size_rows if r["backend"] in EXACT_BACKENDS]
        heuristic = [r for r in size_rows if r["resolved_backend"] == "heuristic"]
        if exact and heuristic:
            best_exact = min(float(r["carbon_g"]) for r in exact)
            best_heur = min(float(r["carbon_g"]) for r in heuristic)
            gaps.append({
                "n_servers": n_servers, "n_apps": n_apps,
                "exact_carbon_g": best_exact,
                "heuristic_carbon_g": best_heur,
                "heuristic_gap": (best_heur - best_exact) / max(best_exact, 1e-12),
            })
    return {"arms": rows, "gaps": gaps}


def report(result: dict[str, object]) -> str:
    """Render tournament arms and heuristic-vs-exact gaps."""
    def fmt(rows, drop=()):
        return [{k: (round(v, 4) if isinstance(v, float) else v)
                 for k, v in row.items() if k not in drop} for row in rows]

    sections = [format_table(fmt(result["arms"], drop=("solver_params",)),
                             title="Backend tournament: one arm per (size, backend)")]
    if result["gaps"]:
        sections.append(format_table(fmt(result["gaps"]),
                                     title="Heuristic-vs-exact optimality gap per size"))
    return "\n\n".join(sections)


def compute(spec: ExperimentSpec, ctx: RunContext) -> dict[str, object]:
    """Registry entry point: run this experiment with the resolved parameters."""
    return run(**ctx.params)


SPEC = register(ExperimentSpec(
    name="backend_tournament",
    title="Solver backend tournament (heuristic vs. exact tier)",
    kind="table",
    compute=compute,
    report=report,
    params=dict(seed=EXPERIMENT_SEED, sizes=TOURNAMENT_SIZES,
                backends=TOURNAMENT_BACKENDS, time_budget_s=10.0),
    smoke_params=dict(sizes=((20, 8),), time_budget_s=2.0),
    schema=("arms", "gaps"),
    # Wall-clock rows (and incumbents held at a finite budget): inherently
    # machine-dependent, excluded from byte-identity.
    deterministic=False,
))


if __name__ == "__main__":
    print(report(run()))
