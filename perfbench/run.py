"""Benchmark of the CarbonEdge placement engine.

Run from the repository root::

    python3 perfbench/run.py --workload cdn --seed 1 --seconds 35 --trace 0

Each timed pass runs on a fresh instance of the workload. The first pass
makes decisions for a quarter of ``--seconds`` (or ``max_steps`` decisions,
if that comes first); every other pass replays exactly those decisions, and
there are as many passes as fill ``--seconds`` at the first pass's pace, at
least ``PASSES``. A decision's latency is its fastest pass: the speed of a
shared box drifts by tens of percent over a few seconds, and the minimum over
passes made seconds apart strips that drift while keeping the spread between
decisions. Replays must reproduce each decision's carbon exactly.

Every pass's instance, and a few more up to ``SETUPS``, is a timed set-up
that ends with one warm-up decision; ``setup_s`` is the fastest of them, for
the same reason a decision's latency is.

The first ``quality_steps`` decisions are also judged, outside the timer:
each placement is validated and its carbon is set next to the latency-aware
placement of the same applications, so a faster answer that emits more
carbon shows up as a worse ``carbon_ratio``.

``--trace 0`` reports the end-to-end metrics: decision latency median and
p90, carbon ratio, placed share and set-up time. ``--trace 1``
wraps the program's layer entry points in spans (see ``tracing.py``) and
reports per-decision self time per layer plus call and cache counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest independent instances per run, one timed pass each. A workload
#: whose ``max_steps`` ends the first pass early gets more passes, as many as
#: fill ``--seconds``.
PASSES = 4
#: Most passes per run; each costs a set-up, so a run of very fast decisions
#: measures for less than ``--seconds`` rather than set up without end.
MAX_PASSES = 40
#: Fewest set-ups per run; every pass's instance is one.
SETUPS = 8


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from tracing import DECISION, LAYERS, Tracer
    from workloads import WORKLOADS, Quality

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install_hooks()
        tracer.enabled = False

    setup_s: list[float] = []

    def set_up():
        """One timed set-up: a fresh instance with its warm-up decision made."""
        gc.collect()
        started = time.perf_counter()
        instance = workload_cls(args.seed)
        instance.decide(0)  # lazy set-up and first-touch caches belong here
        setup_s.append(time.perf_counter() - started)
        return instance

    def run_step(instance, k: int):
        """One timed step: (step, or None when it raised; wall seconds)."""
        started = time.perf_counter()
        try:
            if tracer is None:
                return instance.decide(k), time.perf_counter() - started
            tracer.enabled = True
            return tracer.span(DECISION, instance.decide, k), time.perf_counter() - started
        except Exception:  # a failed step is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.enabled = False

    # Passes run one instance at a time: the program memoises recent epochs,
    # so an instance holds memory in proportion to the decisions it made.
    quality = Quality()
    instance = set_up()
    carbon: list[float | None] = []  # the first pass's carbon per step
    latencies: list[float | None] = []  # per step, None once it failed
    failed = 0
    busy = 0.0
    k = 1
    while k <= instance.quality_steps or (busy < args.seconds / PASSES
                                          and k <= instance.max_steps):
        step, elapsed = run_step(instance, k)
        busy += elapsed
        carbon.append(None if step is None else step.carbon_g())
        latencies.append(None if step is None else elapsed)
        if step is None:
            failed += 1
        elif k <= instance.quality_steps:
            try:
                instance.assess(step, quality)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
        k += 1
    counters = instance.counters()

    # A fixed number of passes per run, so every run's minimum is taken over
    # about as many samples: enough for the passes to fill ``--seconds``.
    passes = min(MAX_PASSES, max(PASSES, math.ceil(args.seconds / max(busy, 1e-9))))
    for _ in range(passes - 1):
        instance = step = None
        instance = set_up()
        for i, base in enumerate(carbon):
            step, elapsed = run_step(instance, i + 1)
            if step is None:
                failed += 1
            if step is None or base is None or latencies[i] is None:
                latencies[i] = None
                continue
            if not math.isclose(step.carbon_g(), base, rel_tol=1e-9, abs_tol=1e-9):
                print(f"perfbench: replay of step {i + 1} made different decisions",
                      file=sys.stderr)
                failed += 1
                latencies[i] = None
                continue
            latencies[i] = min(latencies[i], elapsed)
    instance = step = None
    while len(setup_s) < SETUPS:
        set_up()

    decisions = [latency for latency in latencies if latency is not None]
    attempted = len(carbon) * passes  # every pass makes every decision
    if not decisions or quality.reference_g <= 0.0:
        print("perfbench: no decision could be timed and judged", file=sys.stderr)
        return 1

    # Carbon-aware placement must not emit more than latency-aware placement
    # of the same applications, nor leave more of them unplaced.
    correct = (failed == 0 and quality.carbon_g <= quality.reference_g
               and quality.n_placed >= quality.reference_placed)
    if not correct:
        print(f"perfbench: check failed: failed={failed} carbon={quality.carbon_g:.3f} g "
              f"vs latency-aware {quality.reference_g:.3f} g, placed {quality.n_placed} "
              f"vs {quality.reference_placed}", file=sys.stderr)

    def metric(value: float, unit: str) -> dict:
        return {"value": value, "unit": unit}

    median_ms = statistics.median(decisions) * 1e3
    if tracer is None:
        metrics = {
            "decision_ms": metric(median_ms, "ms"),
            "decision_p90_ms": metric(percentile(decisions, 90.0) * 1e3, "ms"),
            "carbon_ratio": metric(quality.carbon_g / quality.reference_g, "ratio"),
            "placed_share": metric(quality.n_placed / quality.n_apps, "ratio"),
            "setup_s": metric(min(setup_s), "s"),
        }
    else:
        # Spans cover every pass, so layer figures are per traced decision.
        traced = len(decisions) * passes
        metrics = {f"{layer}_ms": metric(tracer.self_ns[layer] / 1e6 / traced, "ms")
                   for layer in LAYERS}
        metrics["other_ms"] = metric(tracer.self_ns[DECISION] / 1e6 / traced, "ms")
        metrics["traced_decision_ms"] = metric(median_ms, "ms")
        for layer in ("compile", "construct"):
            metrics[f"{layer}_calls"] = metric(tracer.calls[layer] / traced, "1/decision")
        for name, value in counters.items():
            metrics[name] = metric(value, "count")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(decisions)} decisions "
          f"x {passes} passes, median {median_ms:.3f} ms", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
