"""Spans recorded from the benchmark's side of each call into rabijudd.

A span has a name, its layer (the rabijudd module the called function lives
in), start and end, its parent span, and whether it is a probe. A task span
holds one child span per public call the task makes. A probe span times a public piece of a composite call (verify_point,
juddian_points, reconstruct_state) on the same inputs, run again after it;
it is a child of that call for attribution, and its time is kept out of the
task's time. Spans stay in memory until the run ends.

A layer's self time is the time of its spans minus the time of their
children, so time inside verify_point that its probes account for moves to
the probed layers and the rest stays with juddian.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    probe: bool

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._last: int | None = None
        self._probing = False
        self.probe_seconds = 0.0

    def _record(self, name, layer, start, end, parent):
        span = Span(len(self.spans), name, layer, start, end, parent, self._probing)
        self.spans.append(span)
        return span

    def begin_task(self) -> None:
        self.probe_seconds = 0.0
        self._stack = [len(self.spans)]
        self._record("task", "bench", time.perf_counter(), 0.0, None)

    def end_task(self) -> float:
        """Close the task span; returns its time in seconds, probes excluded."""
        span = self.spans[self._stack[0]]
        span.end = time.perf_counter() - self.probe_seconds
        self._stack = []
        return span.end - span.start

    def call(self, layer, fn, *args):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = self._record(fn.__name__, layer, time.perf_counter(), 0.0, parent)
        self._stack.append(sid)
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._last = sid

    def probe(self, fn, *args):
        t0 = time.perf_counter()
        outer, self._probing = self._probing, True
        self._stack.append(self._last)
        try:
            fn(self, *args)
        finally:
            self._stack.pop()
            self._probing = outer
            if not outer:
                self.probe_seconds += time.perf_counter() - t0

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    # -----------------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time in ms of every span: its time minus its children's."""
        own = {s.id: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def layer_table(self) -> dict:
        """Per layer: self time in ms summed over tasks and its share of task time.

        The bench row is the task's own glue: time between the public calls.
        """
        own = self.self_times()
        task_ms = sum(s.ms for s in self.spans if s.name == "task")
        table: dict = {}
        for s in self.spans:
            row = table.setdefault(s.layer, {"self_ms": 0.0})
            row["self_ms"] += own[s.id]
        for row in table.values():
            row["share"] = row["self_ms"] / task_ms if task_ms else 0.0
        return table

    def call_ms(self, name: str, probe: bool | None = None) -> list[float]:
        """Times in ms of the spans called `name`: probes only, none or all."""
        return [s.ms for s in self.spans if s.name == name and probe in (None, s.probe)]

    def median_ms(self, name: str, probe: bool | None = None) -> float | None:
        """Median time in ms of the spans call_ms selects, or None."""
        times = self.call_ms(name, probe)
        return float(np.median(times)) if times else None

    def unattributed_ms(self, name: str) -> tuple[float, float]:
        """Sum over spans `name` of their time and of their unattributed self time."""
        own = self.self_times()
        spans = [s for s in self.spans if s.name == name]
        return sum(s.ms for s in spans), sum(own[s.id] for s in spans)

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "probe": s.probe}
            for s in self.spans
        ]
