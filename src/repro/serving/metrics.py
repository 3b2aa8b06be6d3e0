"""Serving-mode telemetry: decision latencies, throughput, feed health.

:class:`ServingMetrics` is the sink the online placement service writes while
it runs. It separates two kinds of truth:

* the **canonical decision log** — every placement decision's sim-time, kind,
  and (app → server) assignment map, with *no wall-clock data* — which is a
  pure function of the event stream and therefore byte-comparable across runs
  (the replay-parity contract and the determinism property suite diff its
  canonical JSON);
* **timing telemetry** — wall-clock decision latencies (p50/p99), sustained
  placements/sec, warm re-solve vs full-solve counts, feed fallback events —
  which is measurement, never compared byte-for-byte.

Decision latencies are read off the decision log, which keeps every
decision, so p50/p99 are exact percentiles over all of them.

:meth:`ServingMetrics.to_artifact` emits the versioned JSON artifact the
``carbon-edge serve`` soak mode writes (and CI uploads).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Version stamp of the serving-metrics artifact layout.
SERVING_METRICS_VERSION: int = 2


@dataclass(frozen=True)
class DecisionRecord:
    """One placement decision of the serving loop (canonical-log entry).

    ``kind`` is ``"batch"`` (full solve of newly arrived applications),
    ``"resolve"`` (rolling-horizon warm re-solve of everything running), or
    ``"epoch"`` (replay-mode epoch decision). ``latency_s`` is wall-clock and
    excluded from the canonical log.
    """

    index: int
    kind: str
    time_s: float
    hour: int
    n_apps: int
    n_placed: int
    carbon_g: float
    assignments: dict[str, str]
    latency_s: float = 0.0


@dataclass
class ServingMetrics:
    """Accumulates serving-loop telemetry; one instance per service run."""

    decisions: list[DecisionRecord] = field(default_factory=list)
    n_events: int = 0
    n_arrivals: int = 0
    n_departures: int = 0
    n_batch_solves: int = 0
    n_warm_resolves: int = 0
    #: Total requests represented by committed placements (rate x lifetime),
    #: accumulated by the service as it commits.
    total_requests: float = 0.0
    #: Feed health, mirrored from the resilient feed at run end.
    feed_events: dict[str, int] = field(default_factory=dict)
    feed_samples: dict[str, int] = field(default_factory=dict)
    feed_stale: bool = False
    started_at: float = field(default_factory=time.perf_counter, repr=False)
    wall_elapsed_s: float = 0.0

    # -- recording ---------------------------------------------------------

    def record_decision(self, kind: str, time_s: float, hour: int, solution,
                        latency_s: float) -> DecisionRecord:
        """Append one decision (assignments are read off the solution)."""
        problem = solution.problem
        assignments = {app_id: problem.servers[j].server_id
                       for app_id, j in solution.placements.items()}
        record = DecisionRecord(
            index=len(self.decisions),
            kind=kind,
            time_s=float(time_s),
            hour=int(hour),
            n_apps=problem.n_applications,
            n_placed=solution.n_placed,
            carbon_g=float(solution.total_carbon_g()),
            assignments=assignments,
            latency_s=float(latency_s),
        )
        self.decisions.append(record)
        if kind == "resolve":
            self.n_warm_resolves += 1
        else:
            self.n_batch_solves += 1
        return record

    def record_feed(self, feed) -> None:
        """Mirror a :class:`~repro.serving.feed.ResilientCarbonFeed`'s health."""
        self.feed_events = feed.event_counts()
        self.feed_stale = feed.any_failing()

    def record_feed_samples(self, samples: dict) -> None:
        """Count one refresh round's samples by provenance source."""
        for sample in samples.values():
            self.feed_samples[sample.source] = \
                self.feed_samples.get(sample.source, 0) + 1

    def finish(self) -> None:
        """Freeze the wall-clock span of the run."""
        self.wall_elapsed_s = time.perf_counter() - self.started_at

    # -- derived telemetry -------------------------------------------------

    def decision_latencies_s(self, kind: str | None = None) -> np.ndarray:
        """Wall-clock decision latencies in decision order, optionally
        filtered by kind."""
        return np.asarray([d.latency_s for d in self.decisions
                           if kind is None or d.kind == kind], dtype=float)

    def latency_percentile_ms(self, q: float, kind: str | None = None) -> float:
        """``q``-th percentile decision latency in milliseconds (0 when empty)."""
        latencies = self.decision_latencies_s(kind)
        if latencies.size == 0:
            return 0.0
        return float(np.percentile(latencies, q) * 1000.0)

    def total_placed(self) -> int:
        """Applications placed across every decision (re-solves re-place)."""
        return int(sum(d.n_placed for d in self.decisions if d.kind != "resolve"))

    def total_carbon_g(self) -> float:
        """Carbon attributed at decision time, batch decisions only, grams."""
        return float(sum(d.carbon_g for d in self.decisions if d.kind != "resolve"))

    def placements_per_s(self) -> float:
        """Sustained placement throughput over the run's wall-clock span."""
        if self.wall_elapsed_s <= 0:
            return 0.0
        return self.total_placed() / self.wall_elapsed_s

    def carbon_per_request_g(self) -> float:
        """Decision-time carbon divided by the aggregate request rate served.

        Requests served = sum over placed apps of (request rate x lifetime);
        the service accumulates that total in ``total_requests`` as it
        commits placements.
        """
        if self.total_requests <= 0:
            return 0.0
        return self.total_carbon_g() / self.total_requests

    # -- canonical log and artifact ---------------------------------------

    def canonical_decision_log(self) -> str:
        """Deterministic JSON of the decision sequence (no wall-clock data).

        Two service runs over the same event stream must produce *identical
        bytes* here — the serving-determinism property and the fault-injection
        suite compare this string directly.
        """
        entries = [{
            "index": d.index,
            "kind": d.kind,
            "time_s": d.time_s,
            "hour": d.hour,
            "n_apps": d.n_apps,
            "n_placed": d.n_placed,
            "carbon_g": d.carbon_g,
            "assignments": d.assignments,
        } for d in self.decisions]
        return json.dumps(entries, sort_keys=True, separators=(",", ":"))

    def decision_digest(self) -> str:
        """SHA-256 of the canonical decision log (compact parity fingerprint)."""
        return hashlib.sha256(
            self.canonical_decision_log().encode("utf-8")).hexdigest()

    def to_artifact(self, include_decisions: bool = False) -> dict[str, object]:
        """The versioned serving-metrics artifact (JSON-safe)."""
        artifact: dict[str, object] = {
            "version": SERVING_METRICS_VERSION,
            "counters": {
                "events": self.n_events,
                "arrivals": self.n_arrivals,
                "departures": self.n_departures,
                "decisions": len(self.decisions),
                "batch_solves": self.n_batch_solves,
                "warm_resolves": self.n_warm_resolves,
                "placements": self.total_placed(),
            },
            "latency_ms": {
                "p50": self.latency_percentile_ms(50.0),
                "p99": self.latency_percentile_ms(99.0),
                "p50_resolve": self.latency_percentile_ms(50.0, kind="resolve"),
                "p99_resolve": self.latency_percentile_ms(99.0, kind="resolve"),
            },
            "throughput": {
                "wall_elapsed_s": self.wall_elapsed_s,
                "placements_per_s": self.placements_per_s(),
            },
            "carbon": {
                "total_g": self.total_carbon_g(),
                "per_request_g": self.carbon_per_request_g(),
            },
            "feed": {
                "events": self.feed_events,
                "samples": self.feed_samples,
                "stale": self.feed_stale,
            },
            "decision_digest": self.decision_digest(),
        }
        if include_decisions:
            artifact["decisions"] = json.loads(self.canonical_decision_log())
        return artifact

    def write(self, path: str | Path, include_decisions: bool = False) -> Path:
        """Write the artifact JSON to ``path`` (parents created) and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_artifact(include_decisions),
                             sort_keys=True, indent=2) + "\n"
        path.write_text(payload, encoding="utf-8")
        return path
