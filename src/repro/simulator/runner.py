"""Sharded parallel scenario runner for the experiment registry.

The runner turns declarative :class:`~repro.experiments.registry.ExperimentSpec`
entries into **work units** — one per cell of the spec's sweep grid — and
executes them either inline or across a ``ProcessPoolExecutor``. Three
properties the rest of the tree relies on:

* **Determinism regardless of worker count.** Units are expanded in grid
  order, executed via an order-preserving map, and merged in expansion order;
  each unit's artifact is a pure function of its parameters. ``--workers 4``
  therefore produces byte-identical artifacts to ``--workers 1`` for every
  deterministic spec.
* **Per-process substrate reuse.** Worker processes keep the experiment-level
  caches (:mod:`repro.experiments.common`), the CDN scenario-substrate cache
  (:func:`repro.simulator.cdn.scenario_substrate`), and the scenario-lifetime
  compilation tier keyed by it
  (:func:`repro.solver.compile.compile_scenario`) warm across the units they
  execute: each worker builds the scenario tier once per work unit's
  substrate and reuses it across every epoch of the unit — and across later
  units sharing the substrate, so scenario variants that share a footprint —
  a latency-limit sweep over one continent, the demand/capacity scenarios of
  Figure 14 — pay for the fleet, the latency matrix, the year of carbon
  traces, *and* the static placement tensors once. When a worker crosses
  from one experiment to another it calls
  :func:`repro.experiments.common.clear_caches` (which drops the substrate
  and compilation caches together), bounding resident memory over a
  ``run --all`` session.
* **Unified results.** Every spec yields one versioned
  :class:`~repro.experiments.results.ExperimentResult` whose artifact is the
  schema-validated merge of its units' JSON projections.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.experiments import common
from repro.experiments import registry as experiment_registry
from repro.experiments.registry import ExperimentSpec, RunContext
from repro.experiments.results import ExperimentResult, jsonable

__all__ = [
    "WorkUnit",
    "ScenarioRunner",
    "expand_units",
    "merge_artifacts",
    "run_experiments",
]


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable slice of an experiment's sweep grid."""

    spec_name: str
    index: int
    n_units: int
    smoke: bool
    params: Mapping[str, object]


def expand_units(spec: ExperimentSpec, smoke: bool = False,
                 overrides: Mapping[str, object] | None = None) -> list[WorkUnit]:
    """Expand a spec's sweep grid into work units, in grid order.

    Each declared axis parameter is narrowed to a single-element tuple per
    unit; the cartesian product is taken with the first declared axis
    outermost, matching the experiment's own loop nesting so the merged
    artifact equals a sequential run's.
    """
    params = spec.resolved_params(smoke=smoke, overrides=overrides)
    axes: list[tuple[str, tuple[object, ...]]] = []
    for axis in spec.sweep:
        raw = params[axis.param]
        # An override may narrow a sweep axis to a single scalar (e.g.
        # --hierarchy-regions N against a spec that sweeps the region count).
        values = tuple(raw) if isinstance(raw, (list, tuple)) else (raw,)
        if not values:
            raise ValueError(
                f"experiment {spec.name!r}: sweep axis {axis.param!r} is empty")
        axes.append((axis.param, values))
    combos = list(itertools.product(*[values for _, values in axes])) or [()]
    units = []
    for index, combo in enumerate(combos):
        unit_params = dict(params)
        for (param, _), value in zip(axes, combo):
            unit_params[param] = (value,)
        units.append(WorkUnit(spec_name=spec.name, index=index,
                              n_units=len(combos), smoke=smoke,
                              params=unit_params))
    return units


def _merge(a: object, b: object, path: str = "$") -> object:
    """Merge two JSON fragments produced by adjacent work units.

    Mappings merge recursively (sweep results keyed by continent / region /
    pool); differing lists concatenate (per-unit row slices); equal values —
    sweep-invariant data recomputed identically by every unit — collapse to
    one copy. Anything else is a conflict, which means the spec sharded a
    quantity that is not actually per-unit (fix the spec's sweep or
    drop_keys).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = _merge(a[key], value, f"{path}.{key}") if key in a else value
        return out
    if isinstance(a, list) and isinstance(b, list):
        return a if a == b else a + b
    if a == b:
        return a
    raise ValueError(
        f"cannot merge sharded artifacts at {path}: {a!r} != {b!r} — the value "
        f"is neither per-unit nor sweep-invariant")


def merge_artifacts(parts: Sequence[Mapping[str, object]]) -> dict[str, object]:
    """Merge per-unit artifacts (already JSON-safe) in unit order."""
    if not parts:
        raise ValueError("no unit artifacts to merge")
    merged: object = parts[0]
    for part in parts[1:]:
        merged = _merge(merged, part)
    return dict(merged)


#: Name of the experiment the *current process* last executed a unit for.
#: Crossing experiments drops the substrate caches (see module docstring).
_LAST_SPEC: str | None = None


def _execute_unit(unit: WorkUnit) -> dict[str, object]:
    """Run one work unit and return its JSON-projected artifact fragment.

    Runs in a worker process (or inline for ``workers=1``); everything it
    touches beyond the unit itself is process-local module state.
    """
    global _LAST_SPEC
    if _LAST_SPEC is not None and _LAST_SPEC != unit.spec_name:
        common.clear_caches()
    _LAST_SPEC = unit.spec_name
    spec = experiment_registry.get(unit.spec_name)
    ctx = RunContext(params=dict(unit.params), smoke=unit.smoke,
                     unit_index=unit.index, n_units=unit.n_units)
    raw = spec.compute(spec, ctx)
    projected = {k: v for k, v in raw.items() if k not in spec.drop_keys}
    return jsonable(projected)


@dataclass
class ScenarioRunner:
    """Executes registered experiments, optionally sharded across processes.

    Parameters
    ----------
    workers:
        Number of worker processes. ``1`` executes inline (same code path as
        the pool workers, so results are identical by construction).
    smoke:
        Apply every spec's reduced-scale smoke overrides.
    seed:
        Optional seed broadcast to every selected spec that takes one.
    overrides:
        Extra parameter overrides broadcast the same way (unknown keys are
        ignored per spec).

    Every unit fragment stays resident until its spec's fragments are folded
    in grid order (:func:`merge_artifacts`).
    """

    workers: int = 1
    smoke: bool = False
    seed: int | None = None
    overrides: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def _overrides(self) -> dict[str, object]:
        overrides = dict(self.overrides or {})
        if self.seed is not None:
            overrides["seed"] = self.seed
        return overrides

    def run(self, names: Iterable[str]) -> dict[str, ExperimentResult]:
        """Run the named experiments; returns results keyed by name, in order."""
        specs = [experiment_registry.get(name) for name in names]
        if not specs:
            raise ValueError("no experiments selected")
        overrides = self._overrides()

        units: list[WorkUnit] = []
        spans: list[tuple[ExperimentSpec, int, int]] = []  # (spec, start, stop)
        for spec in specs:
            expanded = expand_units(spec, smoke=self.smoke, overrides=overrides)
            spans.append((spec, len(units), len(units) + len(expanded)))
            units.extend(expanded)

        start = time.perf_counter()
        if self.workers == 1 or len(units) == 1:
            fragments = [_execute_unit(unit) for unit in units]
        else:
            # Keep units in submission order (grid order, grouped by spec):
            # Executor.map preserves result order regardless of completion
            # order, and grouping gives workers runs of same-substrate units.
            with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(units))) as pool:
                fragments = list(pool.map(_execute_unit, units))
        elapsed = time.perf_counter() - start

        results: dict[str, ExperimentResult] = {}
        for spec, lo, hi in spans:
            result = ExperimentResult(
                name=spec.name,
                kind=spec.kind,
                params=jsonable(spec.resolved_params(smoke=self.smoke,
                                                     overrides=overrides)),
                artifact=merge_artifacts(fragments[lo:hi]),
                smoke=self.smoke,
                n_units=hi - lo,
                elapsed_s=elapsed if len(specs) == 1 else None,
            )
            result.validate(spec.schema)
            results[spec.name] = result
        return results

    def run_one(self, name: str) -> ExperimentResult:
        """Run a single experiment and return its result."""
        return self.run([name])[name]


def run_experiments(names: Iterable[str], workers: int = 1, smoke: bool = False,
                    seed: int | None = None) -> dict[str, ExperimentResult]:
    """Convenience wrapper: build a :class:`ScenarioRunner` and run it."""
    runner = ScenarioRunner(workers=workers, smoke=smoke, seed=seed)
    return runner.run(names)
