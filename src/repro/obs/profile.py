"""Wall-clock profiling spans.

A :class:`Profiler` collects named wall-clock spans — the engine hot loop,
campaign workers, fuzz cases — and aggregates them into a per-run perf
report.  Spans also feed the Chrome-trace exporter
(:mod:`repro.obs.timeline`), which renders them on a dedicated wall-clock
track next to the simulated-time protocol events.

Two recording styles:

* ``with profiler.span("engine.run", events=123):`` — context manager, for
  code that brackets a region;
* ``profiler.record_span(name, start, duration, **meta)`` — for hot paths
  that already measured their own ``time.perf_counter()`` window (the engine
  does this so the profiling cost is two clock reads per ``run()`` call,
  nothing per event).

Pass ``profiler=None`` to integration points to record nothing — they keep
a ``None`` check on the cold side of the hot loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

__all__ = ["Span", "Profiler"]


@dataclass
class Span:
    """One measured wall-clock region.

    ``start`` is a ``time.perf_counter()`` value — meaningful only relative
    to other spans of the same profiler (the timeline exporter normalizes
    against the earliest span).
    """

    name: str
    start: float
    duration: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class Profiler:
    """Collects :class:`Span` records and aggregates them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Dict[str, Any]]:
        """Record the wrapped region; yields the (mutable) meta dict so the
        body can attach results (e.g. event counts) before the span closes."""
        start = time.perf_counter()
        try:
            yield meta
        finally:
            self.spans.append(Span(name, start,
                                   time.perf_counter() - start, meta))

    def record_span(self, name: str, start: float, duration: float,
                    **meta: Any) -> Span:
        """Record a region timed by the caller (perf_counter timestamps)."""
        span = Span(name, start, duration, meta)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def report(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate per span name: count, total/mean/max seconds, plus any
        summable numeric meta (e.g. ``events``) and derived rates."""
        groups: Dict[str, List[Span]] = {}
        for span in self.spans:
            groups.setdefault(span.name, []).append(span)
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(groups):
            spans = groups[name]
            total = sum(s.duration for s in spans)
            entry: Dict[str, Any] = {
                "count": len(spans),
                "total_s": total,
                "mean_s": total / len(spans),
                "max_s": max(s.duration for s in spans),
            }
            sums: Dict[str, float] = {}
            for span in spans:
                for key, value in span.meta.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        sums[key] = sums.get(key, 0) + value
            for key, value in sorted(sums.items()):
                entry[key] = value
                if total > 0:
                    entry[f"{key}_per_s"] = value / total
            out[name] = entry
        return out

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)
