"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, parent, request, name, start, end)`` with times from
``time.perf_counter``.  Spans of one request share ``request``; a span
caused by another names it as ``parent``.  Nothing is written until the
run ends (:meth:`Tracer.dump`), so recording costs one tuple append.

With tracing off every method is a no-op that still hands back ids, so
callers never branch on whether they are traced.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    def add(
        self, name: str, start: float, end: float, *, parent: int = 0,
        request: int = 0,
    ) -> int:
        """Record a finished span; returns its id (0 when tracing is off)."""
        if not self.enabled:
            return 0
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, parent, request, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, *, parent: int = 0, request: int = 0):
        """Time the block as one span.  The span is recorded on success only."""
        start = time.perf_counter()
        yield
        self.add(name, start, time.perf_counter(), parent=parent, request=request)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def dump(self, path, **header) -> None:
        """Write the spans as JSON, times in microseconds from tracer start."""
        origin = self._origin
        rows = [
            {
                "id": span_id,
                "parent": parent,
                "request": request,
                "name": name,
                "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1),
            }
            for span_id, parent, request, name, start, end in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({**header, "spans": rows}, handle)
