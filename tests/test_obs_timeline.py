"""Tests for the Chrome-trace timeline exporter (repro.obs.timeline)."""

import json

import pytest

from repro.obs import (Profiler, build_timeline, enable_timeline_categories,
                       export_timeline)
from repro.obs.timeline import US_PER_SLOT
from repro.sim import TraceRecorder

VALID_PH = {"X", "i", "C", "M"}


def validate_chrome_trace(events):
    """Assert the minimal Chrome trace-event contract on every event."""
    for ev in events:
        assert ev.get("ph") in VALID_PH, ev
        assert isinstance(ev.get("pid"), int), ev
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name"), ev
            assert "name" in ev.get("args", {}), ev
            continue
        assert isinstance(ev.get("ts"), (int, float)), ev
        assert isinstance(ev.get("name"), str) and ev["name"], ev
        assert isinstance(ev.get("cat"), str) and ev["cat"], ev
        if ev["ph"] == "X":
            assert isinstance(ev.get("dur"), (int, float)), ev
            assert ev["dur"] >= 0.0, ev
            assert isinstance(ev.get("tid"), int), ev
        elif ev["ph"] == "i":
            assert ev.get("s") in ("g", "p", "t"), ev
        elif ev["ph"] == "C":
            args = ev.get("args", {})
            assert args and all(isinstance(v, (int, float))
                                for v in args.values()), ev


def _sat_trace():
    trace = TraceRecorder()
    enable_timeline_categories(trace)
    trace.record(4.0, "sat.arrive", station=0, kind="SAT")
    trace.record(6.0, "sat.release", station=0, to=1)
    trace.record(10.0, "sat.arrive", station=1, kind="SAT")
    trace.record(15.0, "sat.release", station=1, to=2)
    return trace


class TestBuildTimeline:
    def test_sat_holds_become_complete_events(self):
        events = build_timeline(_sat_trace())
        validate_chrome_trace(events)
        sat = [e for e in events if e.get("cat") == "sat" and e["ph"] == "X"]
        assert len(sat) == 2
        assert sat[0]["ts"] == 4.0 * US_PER_SLOT
        assert sat[0]["dur"] == 2.0 * US_PER_SLOT
        # one row (tid) per station
        assert sat[0]["tid"] != sat[1]["tid"]

    def test_unclosed_sat_hold_truncated_at_end(self):
        trace = TraceRecorder()
        enable_timeline_categories(trace)
        trace.record(3.0, "sat.arrive", station=2, kind="SAT")
        trace.record(9.0, "tick.end", t=9)   # establishes the trace horizon
        events = build_timeline(trace)
        validate_chrome_trace(events)
        sat = [e for e in events if e.get("cat") == "sat"]
        assert len(sat) == 1
        assert sat[0]["dur"] == 6.0 * US_PER_SLOT
        assert sat[0]["args"]["truncated"] is True

    def test_rap_window_and_requests(self):
        trace = TraceRecorder()
        trace.record(10.0, "rap.open", ingress=0)
        trace.record(12.0, "rap.request", station=9)
        trace.record(19.0, "rap.close", joined=1)
        events = build_timeline(trace)
        validate_chrome_trace(events)
        rap = [e for e in events if e.get("cat") == "rap" and e["ph"] == "X"]
        assert len(rap) == 1
        assert rap[0]["name"] == "RAP"
        assert rap[0]["ts"] == 10.0 * US_PER_SLOT
        assert rap[0]["dur"] == 9.0 * US_PER_SLOT
        assert rap[0]["args"]["joined"] == 1
        instants = [e for e in events if e["ph"] == "i"
                    and e["name"] == "join request"]
        assert len(instants) == 1

    def test_slot_occupancy_becomes_counter_series(self):
        trace = TraceRecorder()
        enable_timeline_categories(trace)
        trace.record(1.0, "slot.occupancy", busy=3, capacity=8)
        trace.record(2.0, "slot.occupancy", busy=0, capacity=8)
        events = build_timeline(trace)
        validate_chrome_trace(events)
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2
        assert counters[0]["args"] == {"busy": 3, "idle": 5}
        assert counters[1]["args"] == {"busy": 0, "idle": 8}

    def test_rebuild_window(self):
        trace = TraceRecorder()
        trace.record(50.0, "ring.rebuild_start", members=5)
        trace.record(80.0, "ring.rebuild_done", members=5)
        events = build_timeline(trace)
        rebuild = [e for e in events if e["ph"] == "X"
                   and e["name"] == "rebuild"]
        assert len(rebuild) == 1
        assert rebuild[0]["dur"] == 30.0 * US_PER_SLOT

    def test_other_categories_become_instants(self):
        trace = TraceRecorder()
        trace.record(7.0, "station.kill", station=3)
        events = build_timeline(trace)
        validate_chrome_trace(events)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "station.kill"
        assert instants[0]["args"]["station"] == 3

    def test_profiler_spans_on_wall_clock_track(self):
        profiler = Profiler()
        profiler.record_span("engine.run", 100.0, 0.25, events=1234)
        profiler.record_span("engine.run", 100.5, 0.10, events=456)
        events = build_timeline(TraceRecorder(), profiler)
        validate_chrome_trace(events)
        spans = [e for e in events if e.get("cat") == "profile"]
        assert len(spans) == 2
        assert spans[0]["ts"] == 0.0          # normalized to earliest span
        assert spans[0]["dur"] == pytest.approx(0.25e6)
        assert spans[1]["ts"] == pytest.approx(0.5e6)
        pids = {e["pid"] for e in spans}
        assert len(pids) == 1                  # own process track

    def test_track_metadata_present(self):
        events = build_timeline(_sat_trace())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert {"ring", "RAP", "station 0", "station 1"} <= names


class TestExportTimeline:
    def test_export_is_valid_json_with_expected_shape(self, tmp_path):
        path = tmp_path / "timeline.json"
        count = export_timeline(path, _sat_trace(), extra={"scenario": {"n": 2}})
        document = json.loads(path.read_text())
        assert set(document) == {"traceEvents", "displayTimeUnit",
                                 "otherData"}
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["scenario"] == {"n": 2}
        assert document["otherData"]["slot_us"] == US_PER_SLOT
        validate_chrome_trace(document["traceEvents"])
        non_meta = [e for e in document["traceEvents"]
                    if e.get("ph") != "M"]
        assert count == len(non_meta) == 2

    def test_full_scenario_export_covers_sat_rap_and_slots(self, tmp_path):
        """End-to-end acceptance: a run with RAP and a fault exports SAT
        holds, RAP windows and the slot-occupancy counter series."""
        from repro.faults import FaultSchedule
        from repro.scenarios import Scenario, TrafficMix, build_scenario

        schedule = FaultSchedule.builder().kill(2, at=400).build()
        built = build_scenario(Scenario(
            n=6, horizon=2000.0, seed=3, rap_enabled=True,
            traffic=TrafficMix(kind="poisson", rate=0.05),
            faults=schedule))
        enable_timeline_categories(built.trace)
        built.engine.run(until=2000.0)

        path = tmp_path / "run.json"
        count = export_timeline(path, built.trace)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        validate_chrome_trace(events)
        assert count > 100
        cats = {e.get("cat") for e in events}
        assert "sat" in cats       # SAT hold spans
        assert "rap" in cats       # RAP windows
        assert "slots" in cats     # occupancy counters
        kills = [e for e in events if e["ph"] == "i"
                 and e["name"] == "ring.kill"]
        assert len(kills) == 1

    def test_empty_trace_exports_cleanly(self, tmp_path):
        path = tmp_path / "empty.json"
        count = export_timeline(path, TraceRecorder())
        assert count == 0
        document = json.loads(path.read_text())
        validate_chrome_trace(document["traceEvents"])


class TestOptInCategories:
    def test_timeline_categories_off_by_default(self):
        trace = TraceRecorder()
        trace.record(1.0, "slot.occupancy", busy=1, capacity=4)
        trace.record(1.0, "sat.arrive", station=0)
        assert len(trace) == 0

    def test_enable_timeline_categories_switches_them_on(self):
        trace = TraceRecorder()
        enable_timeline_categories(trace)
        trace.record(1.0, "slot.occupancy", busy=1, capacity=4)
        trace.record(1.0, "sat.arrive", station=0)
        assert len(trace) == 2

    def test_enabling_on_a_built_scenario_records_them(self):
        """The recorder alone switches the categories: enabled after the
        network is built, with no network passed, they still record."""
        from repro.scenarios import Scenario, TrafficMix, build_scenario

        built = build_scenario(Scenario(
            n=6, horizon=300.0, seed=3,
            traffic=TrafficMix(kind="poisson", rate=0.05)))
        enable_timeline_categories(built.trace)
        built.engine.run(until=300.0)
        assert built.trace.count("sat.arrive") > 0
        assert built.trace.count("slot.occupancy") > 0
