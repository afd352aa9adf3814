"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` records one span per call into a layer: its name,
start, end, parent and the trace it belongs to (one trace per route).
Optionally it also records, per span, the delta of a counter snapshot
taken on entry and exit.  Spans stay in memory; :meth:`Tracer.dump`
returns them as JSON-ready dicts once the traced work is over.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    """One timed call: a named interval with a parent and attributes."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end",
        "counters", "attrs",
    )

    def __init__(
        self, name: str, trace_id: str, span_id: int, parent_id: Optional[int]
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end = 0.0
        self.counters: Dict[str, float] = {}
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Counters that changed between two snapshots, as differences."""
    delta = {}
    for name, value in after.items():
        change = value - before.get(name, 0)
        if change:
            delta[name] = change
    return delta


class Tracer:
    """Records nested spans of one trace, in memory.

    ``counters`` is a zero-argument callable returning a flat snapshot
    of numeric counters; its snapshots are taken outside the span's
    own interval so that they do not count as the layer's time.
    """

    def __init__(
        self,
        trace_id: str,
        counters: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        self.trace_id = trace_id
        self._counters = counters
        self._stack: List[Span] = []
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self.trace_id, len(self.spans) + 1, parent)
        self.spans.append(span)
        self._stack.append(span)
        before = self._counters() if self._counters else None
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if before is not None:
                span.counters = counter_delta(before, self._counters())

    def dump(self) -> List[dict]:
        selfs = self_times(self.spans)
        return [
            {
                "name": span.name,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "start": span.start,
                "end": span.end,
                "duration_s": span.duration,
                "self_s": selfs[span.span_id],
                "counters": span.counters,
                "attrs": span.attrs,
            }
            for span in self.spans
        ]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children's intervals are clipped to the parent and unioned, so
    overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, [])
        )
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result
