"""Span recorder for the traced (``--trace 1``) benchmark run.

Spans are recorded from the benchmark's side: :func:`install_hooks` wraps the
program's layer entry points (module functions, methods and classmethods) in
place, so every call into a layer opens a span, whoever the caller is. Each
span knows its parent through a per-thread stack; a layer's *self time* is
its span durations minus the time their child spans cover, so nested calls
(a registry solve inside a region refinement, a compile inside a solve) are
charged to the innermost layer and the self times add up to the traced
decision time.

Tracing is never installed for the end-to-end (``--trace 0``) run; the gap
between the two runs' decision times is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter

#: Layer name -> entry points charged to it, as ``"module:attr"`` (a module
#: function, patched in every module that imported it by name) or
#: ``"module:Class.method"`` (patched on the class, so subclasses and every
#: caller see it). Missing targets are reported and skipped, so a refactor
#: that renames one costs that span, not the run.
LAYERS: dict[str, tuple[str, ...]] = {
    "generate": (
        "repro.workloads.generator:ApplicationGenerator.generate_batch",
    ),
    "compile": (
        "repro.core.problem:PlacementProblem.build",
        "repro.solver.compile:compile_placement",
        "repro.solver.compile:ScenarioCompilation.epoch_delta",
        "repro.solver.compile:ScenarioCompilation.compile_epoch",
        "repro.solver.compile:ScenarioCompilation.region_slice",
        "repro.solver.compile:ScenarioCompilation.build_problem",
    ),
    "construct": (
        "repro.solver.compile:greedy_fill",
        "repro.solver.compile:greedy_fill_sharded",
    ),
    "solver": (
        "repro.solver.registry:solve",
        "repro.solver.hierarchy:solve_hierarchical",
    ),
}

#: The root span the benchmark opens around each decision; its self time is
#: what no layer above claimed: policy glue, validation (the hierarchy path
#: validates outside the decision, so it has no layer of its own), commits
#: and event handling.
DECISION = "decision"


class Tracer:
    """In-memory span accounting: self time and call count per layer."""

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: Off while the benchmark sets up and judges results, so only the
        #: timed decisions are charged.
        self.enabled = True
        self._local = threading.local()

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span charged to ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        frame = [0]  # nanoseconds covered by child spans
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            stack.pop()
            self.self_ns[layer] += duration - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += duration

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        return traced

    def install_hooks(self) -> None:
        """Wrap every entry point named in :data:`LAYERS`."""
        # Import every target module (and the backends, which bind kernel
        # functions by name) before patching, so no importer keeps an
        # untraced binding.
        for module_name in ["repro.solver.backends"] + [
                t.partition(":")[0] for ts in LAYERS.values() for t in ts]:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._install(layer, target):
                    print(f"perfbench: trace target {target} not found; "
                          f"layer {layer!r} loses that span", file=sys.stderr)

    def _install(self, layer: str, target: str) -> bool:
        module_name, _, path = target.partition(":")
        module = sys.modules.get(module_name)
        if module is None:
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(layer, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(layer, raw))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        traced = self.wrap(layer, original)
        # ``from module import fn`` copies the binding, so every loaded module
        # holding the original function (the benchmark's own included) gets
        # the traced one.
        for loaded in list(sys.modules.values()):
            if loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
        return True
