"""Roll per-shard observability up into one fabric-wide view.

The per-ring trace lines collected by :meth:`FabricResult` (reports with
``include_trace=True``) are re-hydrated into one
:class:`~repro.sim.trace.TraceRecorder` per ring and rendered through the
standard Chrome-trace builder (:func:`repro.obs.timeline.build_timeline`),
then re-homed onto one *process per ring* (pid = ring id + 1) so the whole
fabric lands in a single ``chrome://tracing`` / Perfetto document with the
rings stacked as separate process groups.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

__all__ = ["merged_timeline", "export_merged_timeline", "merged_trace_lines"]


def merged_trace_lines(result) -> List[str]:
    """The fabric's merged canonical trace: every ring's lines, ordered by
    (time, ring, per-ring record order).  Requires reports collected with
    ``include_trace=True``."""
    out: List[Any] = []
    for report in sorted(result.reports, key=lambda r: r["ring"]):
        if "trace" not in report:
            raise ValueError(f"ring {report['ring']} report carries no "
                             f"trace; collect with include_trace=True")
        for order, line in enumerate(report["trace"]):
            record = json.loads(line)
            out.append(((record["t"], record["ring"], order), line))
    out.sort(key=lambda entry: entry[0])
    return [line for _key, line in out]


def merged_timeline(result) -> List[Dict[str, Any]]:
    """Chrome trace events for the whole fabric, one pid per ring."""
    from repro.obs.timeline import build_timeline
    from repro.sim.trace import TraceRecorder

    events: List[Dict[str, Any]] = []
    for report in sorted(result.reports, key=lambda r: r["ring"]):
        if "trace" not in report:
            raise ValueError(f"ring {report['ring']} report carries no "
                             f"trace; collect with include_trace=True")
        ring = report["ring"]
        recorder = TraceRecorder()
        for line in report["trace"]:
            record = json.loads(line)
            recorder.record_fields(record["t"], record["cat"],
                                   record["fields"])
        pid = ring + 1
        for ev in build_timeline(recorder):
            ev = dict(ev)
            ev["pid"] = pid
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                ev["args"] = {"name": f"ring {ring} "
                                      f"({ev['args'].get('name', '')})"}
            events.append(ev)
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": f"ring {ring}"}})
    return events


def export_merged_timeline(path, result,
                           extra: Dict[str, Any] = None) -> int:
    """Write the merged Chrome-trace JSON; returns the event count."""
    from repro.obs.timeline import US_PER_SLOT

    events = merged_timeline(result)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(extra or {}, exporter="repro.fabric.merge",
                          rings=result.topology.rings,
                          slot_us=US_PER_SLOT),
    }
    with Path(path).open("w") as fh:
        json.dump(document, fh, default=str)
    return sum(1 for ev in events if ev.get("ph") != "M")
