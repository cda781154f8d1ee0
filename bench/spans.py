"""In-memory spans for the traced benchmark run, and their self times.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started, and the id of the document it
belongs to. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import IO, Iterable, Optional


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "doc")

    def __init__(self, sid: int, name: str, start: float, end: float,
                 parent: Optional[int], doc: Optional[str]):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.doc = parent, doc

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "doc": self.doc}


class _Scope:
    __slots__ = ("tracer", "name", "doc", "sid")

    def __init__(self, tracer: "Tracer", name: str, doc: Optional[str]):
        self.tracer, self.name, self.doc = tracer, name, doc

    def __enter__(self) -> None:
        tracer = self.tracer
        parent = tracer.open[-1] if tracer.open else None
        doc = self.doc
        if doc is None and parent is not None:
            doc = tracer.spans[parent].doc
        self.sid = len(tracer.spans)
        tracer.open.append(self.sid)
        tracer.spans.append(Span(self.sid, self.name, time.perf_counter(), 0.0,
                                 parent, doc))

    def __exit__(self, *exc) -> bool:
        tracer = self.tracer
        tracer.spans[self.sid].end = time.perf_counter()
        tracer.open.pop()
        return False


class Tracer:
    """Records nested spans; ``span(name)`` is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []

    def span(self, name: str, doc: Optional[str] = None) -> _Scope:
        return _Scope(self, name, doc)

    def write(self, handle: IO[str]) -> None:
        for span in self.spans:
            handle.write(json.dumps(span.to_dict()) + "\n")


class NullTracer:
    """Same interface as Tracer; records nothing."""

    _scope = contextlib.nullcontext()

    def span(self, name: str, doc: Optional[str] = None):
        return self._scope


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.sid: span.duration - _covered(span.start, span.end,
                                               children.get(span.sid, ()))
            for span in spans}
