"""Spans around the benchmark's calls into schemeforge, kept in memory.

A span records a name, a tag (the input family or regime), its parent span
and its start and end.  A job is a root span; each public call it makes is a
child.  ``NULL`` has the same interface and records nothing: untraced runs
use it, so both kinds of run execute the same job code.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str, tag: str):
        self.tracer = tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans.append([name, tag, parent, 0.0, 0.0])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][3] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][4] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, tag, parent index, start, end]
        self.stack: list[int] = []
        self.samples: dict[str, list[float]] = {}

    def span(self, name: str, tag: str = "") -> _Span:
        return _Span(self, name, tag)

    def sample(self, name: str, value: float) -> None:
        """A value measured inside one call, such as the time for one point count."""
        self.samples.setdefault(name, []).append(value)

    def self_times_ms(self) -> list[tuple[str, str, float]]:
        """(name, tag, self time in ms) per span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, tag, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(name, tag, 1000.0 * (t1 - t0 - child[i]))
                for i, (name, tag, parent, t0, t1) in enumerate(self.spans)]

    def median_self_ms(self, name: str, tags=None) -> float:
        """Median self time of the named spans, optionally only those with one of the tags."""
        values = [ms for n, tag, ms in self.self_times_ms()
                  if n == name and (tags is None or tag in tags)]
        if not values:
            raise KeyError(f"no span {name} {tags or ''} was recorded")
        return statistics.median(values)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "samples": self.samples}, fh)


def span_cost_s(n: int = 20000) -> float:
    """Mean cost of entering and leaving one span, measured on a scratch tracer."""
    tracer = Tracer()
    t0 = perf_counter()
    for _ in range(n):
        with tracer.span("probe"):
            pass
    return (perf_counter() - t0) / n


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str, tag: str = "") -> _NullSpan:
        return self._span

    def sample(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()
