"""Chrome-trace / Perfetto timeline export.

Renders a run's structured trace (:class:`repro.sim.trace.TraceRecorder`)
and optional wall-clock profiling spans (:class:`repro.obs.profile.Profiler`)
to the Chrome trace-event JSON format, loadable in ``chrome://tracing`` and
https://ui.perfetto.dev — the convergence/occupancy-timeline view the
self-stabilizing TDMA literature uses to argue correctness and cost, for our
protocol events.

Mapping (simulated time: 1 slot = 1 ms):

========================  =====================================================
trace categories          timeline rendering
========================  =====================================================
``sat.arrive`` →          "SAT hold" duration events, one row (tid) per
``sat.release``           station, on the *protocol* process track
``rap.open`` →            "RAP" duration events on a dedicated RAP row
``rap.close``
``ring.rebuild_start`` →  "rebuild" duration events on the ring row
``ring.rebuild_done``
``slot.occupancy``        a "slot occupancy" counter series (busy slots per
                          tick; opt-in trace category, see TraceRecorder)
everything else           instant events on the ring row (kills, joins,
                          leaves, SAT loss/timeouts/recovery, link losses)
========================  =====================================================

Profiler spans land on a second *wall-clock* process track with one row per
span name, normalized so the earliest span starts at ts 0.

``sat.arrive`` and ``slot.occupancy`` are opt-in trace categories (disabled
by default so steady-state runs and fuzz trace hashes are unaffected);
:func:`enable_timeline_categories` switches them on before a run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["enable_timeline_categories", "build_timeline", "export_timeline"]

#: µs of timeline time per simulated slot (1 slot = 1 ms)
US_PER_SLOT = 1000.0

_PID_PROTOCOL = 1
_PID_WALLCLOCK = 2

#: tids on the protocol track below any station row
_TID_RING = 0
_TID_RAP = 1
_TID_STATION_BASE = 10   # station s renders on tid 10 + s


def enable_timeline_categories(trace) -> None:
    """Switch on every opt-in category (``TraceRecorder.OPT_IN``): the
    timeline needs all of them.  A network recording into ``trace``
    subscribes their events at once, before or during a run."""
    trace.enable(*trace.OPT_IN)


def _meta(pid: int, name: str, tid: Optional[int] = None,
          tname: Optional[str] = None) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": name}}]
    if tid is not None:
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": tname}})
    return events


def _complete(name: str, cat: str, ts: float, dur: float, tid: int,
              args: Optional[Dict[str, Any]] = None,
              pid: int = _PID_PROTOCOL) -> Dict[str, Any]:
    event = {"name": name, "cat": cat, "ph": "X",
             "ts": ts, "dur": max(dur, 0.0), "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def _instant(name: str, cat: str, ts: float, tid: int,
             args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    event = {"name": name, "cat": cat, "ph": "i", "s": "g",
             "ts": ts, "pid": _PID_PROTOCOL, "tid": tid}
    if args:
        event["args"] = args
    return event


def build_timeline(trace, profiler=None) -> List[Dict[str, Any]]:
    """Render trace events (+ profiler spans) to Chrome trace events."""
    events: List[Dict[str, Any]] = []
    end_ts = max((ev.time for ev in trace.events), default=0.0) * US_PER_SLOT

    stations: List[int] = []
    sat_open: Dict[int, float] = {}      # station -> hold start ts
    sat_kind: Dict[int, str] = {}
    rap_open: Optional[Dict[str, Any]] = None
    rebuild_open: Optional[Dict[str, Any]] = None

    def note_station(sid: Any) -> None:
        if isinstance(sid, int) and sid not in stations:
            stations.append(sid)

    for ev in trace.events:
        ts = ev.time * US_PER_SLOT
        cat = ev.category
        if cat == "sat.arrive":
            sid = ev["station"]
            note_station(sid)
            sat_open[sid] = ts
            sat_kind[sid] = ev.get("kind", "SAT")
        elif cat == "sat.release":
            sid = ev["station"]
            note_station(sid)
            start = sat_open.pop(sid, ts)
            events.append(_complete(
                sat_kind.pop(sid, "SAT"), "sat", start, ts - start,
                _TID_STATION_BASE + sid, {"to": ev.get("to")}))
        elif cat == "rap.open":
            if rap_open is not None:   # previous RAP never closed (truncated)
                events.append(_complete("RAP", "rap", rap_open["ts"],
                                        ts - rap_open["ts"], _TID_RAP,
                                        rap_open["args"]))
            rap_open = {"ts": ts, "args": {"ingress": ev.get("ingress")}}
        elif cat == "rap.close":
            start = rap_open["ts"] if rap_open is not None else ts
            args = dict(rap_open["args"]) if rap_open is not None else {}
            args["joined"] = ev.get("joined")
            events.append(_complete("RAP", "rap", start, ts - start,
                                    _TID_RAP, args))
            rap_open = None
        elif cat == "rap.request":
            events.append(_instant("join request", "rap", ts, _TID_RAP,
                                   dict(ev.fields)))
        elif cat == "slot.occupancy":
            events.append({
                "name": "slot occupancy", "cat": "slots", "ph": "C",
                "ts": ts, "pid": _PID_PROTOCOL,
                "args": {"busy": ev.get("busy", 0),
                         "idle": max(ev.get("capacity", 0)
                                     - ev.get("busy", 0), 0)}})
        elif cat == "ring.rebuild_start":
            rebuild_open = {"ts": ts, "args": dict(ev.fields)}
        elif cat == "ring.rebuild_done":
            start = rebuild_open["ts"] if rebuild_open is not None else ts
            args = dict(rebuild_open["args"]) if rebuild_open else {}
            args.update(ev.fields)
            events.append(_complete("rebuild", "ring", start, ts - start,
                                    _TID_RING, args))
            rebuild_open = None
        else:
            # every other category: an instant marker on the ring row
            events.append(_instant(cat, cat.split(".", 1)[0], ts, _TID_RING,
                                   dict(ev.fields)))

    # close anything still open when the run ended
    for sid, start in sorted(sat_open.items()):
        events.append(_complete(sat_kind.get(sid, "SAT"), "sat", start,
                                end_ts - start, _TID_STATION_BASE + sid,
                                {"truncated": True}))
    if rap_open is not None:
        events.append(_complete("RAP", "rap", rap_open["ts"],
                                end_ts - rap_open["ts"], _TID_RAP,
                                dict(rap_open["args"], truncated=True)))
    if rebuild_open is not None:
        events.append(_complete("rebuild", "ring", rebuild_open["ts"],
                                end_ts - rebuild_open["ts"], _TID_RING,
                                dict(rebuild_open["args"], truncated=True)))

    # track naming
    events.extend(_meta(_PID_PROTOCOL, "protocol (simulated time)"))
    events.extend(_meta(_PID_PROTOCOL, "protocol (simulated time)",
                        _TID_RING, "ring")[1:])
    events.extend(_meta(_PID_PROTOCOL, "protocol (simulated time)",
                        _TID_RAP, "RAP")[1:])
    for sid in sorted(stations):
        events.extend(_meta(_PID_PROTOCOL, "protocol (simulated time)",
                            _TID_STATION_BASE + sid, f"station {sid}")[1:])

    # wall-clock profiling spans on their own process track
    if profiler is not None and profiler.spans:
        t0 = min(s.start for s in profiler.spans)
        names: Dict[str, int] = {}
        for span in profiler.spans:
            tid = names.setdefault(span.name, len(names))
            events.append(_complete(
                span.name, "profile", (span.start - t0) * 1e6,
                span.duration * 1e6, tid,
                {k: v for k, v in span.meta.items()}, pid=_PID_WALLCLOCK))
        events.extend(_meta(_PID_WALLCLOCK, "profiling (wall clock)"))
        for name, tid in names.items():
            events.extend(_meta(_PID_WALLCLOCK, "profiling (wall clock)",
                                tid, name)[1:])
    return events


def export_timeline(path, trace, profiler=None,
                    extra: Optional[Dict[str, Any]] = None) -> int:
    """Write Chrome-trace JSON for ``trace`` to ``path``; returns the
    number of trace events emitted (metadata records excluded)."""
    events = build_timeline(trace, profiler)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(extra or {}, exporter="repro.obs.timeline",
                          slot_us=US_PER_SLOT),
    }
    with Path(path).open("w") as fh:
        json.dump(document, fh, default=str)
    return sum(1 for e in events if e.get("ph") != "M")
