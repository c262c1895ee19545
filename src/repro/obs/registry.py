"""Metrics registry: counters, gauges and windowed histograms.

The registry is the publishing surface of the observability subsystem
(docs/OBSERVABILITY.md).  Protocol layers bind *instruments* once — a
:class:`Counter`, :class:`Gauge` or :class:`Histogram`, optionally with
labels — and update them from hot paths.  Two properties drive the design:

* **labeled series** — ``registry.counter("ring.delivered",
  service="premium")`` creates one time series per label combination under a
  common family name, so per-class / per-station breakdowns aggregate
  naturally (:meth:`MetricsRegistry.series`);
* **stable snapshots** — :meth:`MetricsRegistry.snapshot` renders everything
  to plain JSON-ready dicts with deterministically ordered keys, the shape
  embedded in perf reports and run summaries.

Instrument *kinds* are namespaced by name: asking for ``counter("x")`` after
``gauge("x")`` raises :class:`MetricsError` (label collisions across kinds
are bugs, not series).  The same ``(name, labels)`` pair always returns the
same instrument object.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MetricsError", "Counter", "Gauge", "Histogram",
           "MetricsRegistry"]


class MetricsError(ValueError):
    """Raised on instrument name/kind collisions or bad arguments."""


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return ",".join(f"{k}={v}" for k, v in key)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def summary(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{{{_label_str(self.labels)}}}={self.value}>"


class Gauge:
    """A value that goes up and down (queue depth, occupancy, membership)."""

    __slots__ = ("name", "labels", "value", "updates")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def add(self, delta: float) -> None:
        self.value += delta
        self.updates += 1

    def summary(self) -> Dict[str, Any]:
        return {"value": self.value, "updates": self.updates}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}{{{_label_str(self.labels)}}}={self.value}>"


class Histogram:
    """Windowed distribution: lifetime count/sum/min/max plus a bounded
    window of recent samples for percentiles.

    The window (default 1024 samples) bounds memory on long runs; lifetime
    aggregates are exact regardless of window size.
    """

    __slots__ = ("name", "labels", "window", "_recent",
                 "count", "total", "vmin", "vmax")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (), window: int = 1024):
        if window < 1:
            raise MetricsError(f"histogram window must be >= 1, got {window}")
        self.name = name
        self.labels = labels
        self.window = window
        self._recent: deque = deque(maxlen=window)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        self._recent.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """q-th percentile (0..100) over the retained window."""
        if not self._recent:
            return None
        if not 0.0 <= q <= 100.0:
            raise MetricsError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self._recent)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def recent(self) -> List[float]:
        return list(self._recent)

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "window": self.window,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Histogram {self.name}{{{_label_str(self.labels)}}} "
                f"n={self.count} mean={self.mean:.3g}>")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Instrument factory and store."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, Any],
             **kwargs: Any):
        if not name:
            raise MetricsError("instrument name must be non-empty")
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise MetricsError(
                f"instrument {name!r} already registered as a {known}, "
                f"cannot re-register as a {kind}")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _KINDS[kind](name, key[1], **kwargs)
            self._instruments[key] = instrument
            self._kinds[name] = kind
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, window: int = 1024,
                  **labels: Any) -> Histogram:
        return self._get("histogram", name, labels, window=window)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def series(self, name: str) -> List[Any]:
        """Every instrument of the named family, label-sorted."""
        out = [(key[1], inst) for key, inst in self._instruments.items()
               if key[0] == name]
        return [inst for _, inst in sorted(out, key=lambda kv: kv[0])]

    def names(self) -> List[str]:
        return sorted({key[0] for key in self._instruments})

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready view: ``{family: {label_str: summary}}``.

        Counters and gauges render their value directly; histograms render
        their summary dict.  Keys are sorted so snapshots diff cleanly.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for (name, labels), inst in sorted(self._instruments.items()):
            family = out.setdefault(name, {})
            if inst.kind == "histogram":
                family[_label_str(labels)] = inst.summary()
            else:
                family[_label_str(labels)] = inst.value
        return out

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds
