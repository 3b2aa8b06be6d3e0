"""A small discrete-event simulation engine.

The engine advances a :class:`~repro.utils.timeutils.SimClock` through an
:class:`~repro.simulator.events.EventQueue`, dispatching each event to its
handler (or to a handler registered for its kind). It is intentionally simple —
the CDN simulation is epoch-driven and mostly vectorised, but the online
serving loop (:mod:`repro.serving.service`) runs on the engine directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.simulator.events import Event, EventQueue
from repro.utils.timeutils import SimClock


@dataclass
class SimulationEngine:
    """Dispatches events in time order until the queue is empty or a limit hits."""

    clock: SimClock = field(default_factory=SimClock)
    queue: EventQueue = field(default_factory=EventQueue)
    handlers: dict[str, Callable[[Event], None]] = field(default_factory=dict)
    events_processed: int = 0

    def register_handler(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register a handler for events of the given kind."""
        self.handlers[kind] = handler

    def schedule(self, delay_s: float, kind: str = "event", payload: object = None,
                 handler: Callable[[Event], None] | None = None, priority: int = 0) -> Event:
        """Schedule an event ``delay_s`` seconds after the current time."""
        if not math.isfinite(delay_s):
            raise ValueError(f"delay_s must be finite, got {delay_s}")
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        return self.queue.schedule(self.clock.now_seconds + delay_s, kind=kind,
                                   payload=payload, handler=handler, priority=priority)

    def schedule_at(self, time_s: float, kind: str = "event", payload: object = None,
                    handler: Callable[[Event], None] | None = None, priority: int = 0) -> Event:
        """Schedule an event at an absolute simulation time."""
        if not math.isfinite(time_s):
            raise ValueError(f"time_s must be finite, got {time_s}")
        if time_s < self.clock.now_seconds:
            raise ValueError(
                f"cannot schedule in the past (now={self.clock.now_seconds}, at={time_s})")
        return self.queue.schedule(time_s, kind=kind, payload=payload, handler=handler,
                                   priority=priority)

    def step(self) -> Event:
        """Process the next event and return it."""
        event = self.queue.pop()
        self.clock.advance_to(event.time_s)
        handler = event.handler or self.handlers.get(event.kind)
        if handler is not None:
            handler(event)
        self.events_processed += 1
        return event

    def run(self, until_s: float | None = None, max_events: int | None = None) -> int:
        """Run until the queue drains, ``until_s`` is reached, or ``max_events`` processed.

        Returns the number of events processed by this call.
        """
        processed = 0
        while not self.queue.empty:
            if until_s is not None and self.queue.peek().time_s > until_s:
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
        if until_s is not None and self.clock.now_seconds < until_s and (
                max_events is None or processed < max_events):
            self.clock.advance_to(until_s)
        return processed
