"""Observability: metrics registry, profiling spans, timeline export, and
the perf-trajectory store.

Four layers (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.registry` — counters / gauges / windowed histograms with
  labeled series, fed by a subscriber on the network's event bus;
* :mod:`repro.obs.profile` — wall-clock spans around the engine hot loop,
  campaign workers and fuzz cases, aggregated into a per-run perf report;
* :mod:`repro.obs.timeline` — renders protocol traces (SAT holds, RAP
  windows, slot occupancy, membership churn) plus profiling spans to
  Chrome-trace / Perfetto JSON (``python -m repro simulate --timeline``);
* :mod:`repro.obs.perf` — the pinned benchmark suite and ``BENCH_perf.json``
  trajectory with regression gating (``python -m repro perf run|check``).
  Imported lazily (``from repro.obs import perf``): it pulls in the
  campaign and fuzz stacks, which the core layers must not.

Everything is off by default: an unobserved run subscribes nothing, so it
pays one ``None`` check per ``Engine.run`` call and the ring's emit sites
keep their no-op emitters.
"""

from repro.obs.integrate import attach_network_metrics, attach_run_profiling
from repro.obs.profile import Profiler, Span
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsError,
                                MetricsRegistry)
from repro.obs.timeline import (build_timeline, enable_timeline_categories,
                                export_timeline)

__all__ = [
    "MetricsRegistry",
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "Span",
    "enable_timeline_categories",
    "build_timeline",
    "export_timeline",
    "attach_network_metrics",
    "attach_run_profiling",
]
