"""Benchmark: columnar workload substrate vs the per-object cold build.

The columnar substrate (PR 10) generates application batches as
struct-of-arrays with a compact class table and assembles epoch tensors by
computing one row per unique class and gathering with ``class_idx`` — the
per-object reference build (``tests/conftest.py::cold_build``) materialises
every :class:`Application` and fills its tensors from per-app Python loops.
This benchmark races the two on the same seed and substrate at 10^5
applications: the columnar arm runs batch generation plus epoch-problem
assembly through a *fresh* :class:`ScenarioCompilation` (the epoch memo would
otherwise hand a second run the finished tensors), the cold arm runs batch
generation, materialises the per-app objects and builds the problem with the
reference build.

The determinism contract makes the race honest: both arms must produce the
same application ids and bit-identical tensors (asserted here), so the
speedup is pure mechanics, not a different computation. The trajectory
record carries both times, the class-table compression ratio, the compilation
cache statistics, and the process peak RSS.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from bench_util import append_bench_record, peak_rss_mb
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.solver.compile import ScenarioCompilation
from repro.workloads.generator import ApplicationGenerator

from tests.conftest import cold_build

#: Where the timing trajectory is appended (repo root), shared with the
#: pipeline benchmarks.
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_cdn_pipeline.json"

_SMOKE = os.environ.get("CDN_PIPELINE_BENCH_SCALE", "").lower() == "smoke"

#: The issue's acceptance scale: 10^5 applications through generation +
#: assembly. The site count stays small so the apps-dimension work dominates
#: (the race measures the per-app Python overhead the class table removes).
N_SITES = 24 if _SMOKE else 48
N_APPS = 5_000 if _SMOKE else 100_000
HOUR = 4700

#: Required speedup of the columnar substrate over the per-object cold build
#: at full scale.
COLUMNAR_SPEEDUP_FLOOR = 5.0


def test_bench_columnar_vs_object(bench_once):
    fleet, latency, carbon = build_planetary_substrate(N_SITES, seed=0)
    servers = fleet.servers()

    def make_generator():
        return ApplicationGenerator(
            sites=fleet.sites(), latency_slo_ms=40.0,
            mean_arrivals_per_batch=float(N_APPS), duration_hours=1.0, seed=0)

    columnar_s = cold_build_s = 0.0
    columnar_problem = cold_problem = None
    columnar_comp = None
    n_classes = 0

    def run_both():
        nonlocal columnar_s, cold_build_s, columnar_problem, cold_problem
        nonlocal columnar_comp, n_classes
        # Columnar arm: the batch flows to the class-table fast path whole;
        # per-app objects are never materialised.
        columnar_comp = ScenarioCompilation(servers, latency, carbon)
        t0 = time.perf_counter()
        batch = make_generator().generate_batch(0, HOUR, n_arrivals=N_APPS)
        columnar_problem = columnar_comp.build_problem(batch, HOUR)
        columnar_s = time.perf_counter() - t0
        n_classes = batch.n_classes

        # Cold arm: same seed, no scenario tier — materialise every
        # Application and build the problem from per-app loops.
        t0 = time.perf_counter()
        apps = list(
            make_generator().generate_batch(0, HOUR, n_arrivals=N_APPS)
            .applications)
        cold_problem = cold_build(apps, servers, latency, carbon, hour=HOUR)
        cold_build_s = time.perf_counter() - t0

    bench_once(run_both)

    # The determinism contract: identical ids, bit-identical tensors.
    assert [a.app_id for a in columnar_problem.applications] == \
        [a.app_id for a in cold_problem.applications]
    np.testing.assert_array_equal(columnar_problem.latency_ms,
                                  cold_problem.latency_ms)
    np.testing.assert_array_equal(columnar_problem.energy_j,
                                  cold_problem.energy_j)

    speedup = cold_build_s / max(columnar_s, 1e-9)
    stats = columnar_comp.cache_stats()
    rss_mb = peak_rss_mb()
    print(f"\nworkload substrate ({N_SITES} servers x {N_APPS} apps, "
          f"{n_classes} classes): cold build {cold_build_s:.3f} s, "
          f"columnar {columnar_s:.3f} s, speedup {speedup:.2f}x")
    print(f"class compression {N_APPS / max(n_classes, 1):.0f}x, "
          f"cache {stats['row_bytes'] / 1e6:.1f} MB, peak RSS {rss_mb:.0f} MB")
    append_bench_record(ARTIFACT, "workload_substrate", {
        "scale": "smoke" if _SMOKE else "full",
        "size": [N_SITES, N_APPS],
        "n_classes": n_classes,
        "cold_build_s": round(cold_build_s, 4),
        "columnar_s": round(columnar_s, 4),
        "speedup": round(speedup, 2),
        "cache_row_bytes": stats["row_bytes"],
        "peak_rss_mb": round(rss_mb, 1),
    })

    assert n_classes < N_APPS
    if not _SMOKE:
        assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
            f"columnar substrate speedup {speedup:.2f}x is below the "
            f"{COLUMNAR_SPEEDUP_FLOOR}x floor at {N_APPS} apps")
