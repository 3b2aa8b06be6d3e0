"""Benchmark: solver-backend portfolio on the Figure-17 scalability instances.

Reports the trade the registry's ``auto`` rule exploits — the vectorised
greedy + local-search heuristic against the exact ``highs`` backend on the
fig17-size instances, with their speed ratio printed — and checks that the
heuristic stays within 5% of the exact objective on small instances.
"""

import time

from repro.core.validation import validate_solution
from repro.experiments.fig17_scalability import _build_problem, compare_backends
from repro.solver import solve


def test_bench_backend_portfolio_speed_and_quality(bench_once):
    rows = bench_once(compare_backends, sizes=((100, 50), (200, 100)))
    print("\nSolver-backend portfolio (fig17 instances): backend / time / carbon")
    for row in rows:
        print(f"  {row['n_servers']:4d} servers {row['n_apps']:4d} apps  "
              f"{row['backend']:10s} {row['time_s']:8.4f} s  "
              f"{row['carbon_g']:12.2f} g  {row['placed']} placed")
    by_size: dict[tuple[int, int], dict[str, dict]] = {}
    for row in rows:
        by_size.setdefault((row["n_servers"], row["n_apps"]), {})[row["backend"]] = row
    for size, backends in by_size.items():
        exact, heuristic = backends["highs"], backends["heuristic"]
        assert heuristic["placed"] == exact["placed"], size
        print(f"  {size}: heuristic {exact['time_s'] / max(heuristic['time_s'], 1e-9):.1f}x "
              f"faster than highs")


def test_bench_heuristic_within_5pct_on_small_instances(bench_once):
    def run_small():
        out = []
        for n_servers, n_apps in ((40, 20), (60, 20)):
            problem = _build_problem(n_servers, n_apps, seed=7)
            start = time.monotonic()
            exact = solve(problem, backend="highs")
            exact_s = time.monotonic() - start
            # The 5% gap is only meaningful against a genuine exact solve, not
            # a silent heuristic fallback.
            assert exact.backend_name == "highs", exact.backend_name
            start = time.monotonic()
            heuristic = solve(problem, backend="heuristic")
            heuristic_s = time.monotonic() - start
            validate_solution(exact)
            validate_solution(heuristic)
            out.append({"n_servers": n_servers, "n_apps": n_apps,
                        "exact_g": exact.total_carbon_g(),
                        "heuristic_g": heuristic.total_carbon_g(),
                        "exact_s": exact_s, "heuristic_s": heuristic_s})
        return out

    rows = bench_once(run_small)
    print("\nHeuristic vs exact on small instances (carbon, grams):")
    for row in rows:
        gap = row["heuristic_g"] / row["exact_g"] - 1.0 if row["exact_g"] else 0.0
        print(f"  {row['n_servers']:3d} servers {row['n_apps']:3d} apps  "
              f"exact {row['exact_g']:10.2f}  heuristic {row['heuristic_g']:10.2f}  "
              f"gap {gap * 100:+.2f}%")
        # Acceptance: objective within 5% of the exact solve on small instances.
        assert row["heuristic_g"] <= row["exact_g"] * 1.05 + 1e-9, row

