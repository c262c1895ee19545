"""Unit tests for the trace recorder."""

from repro.sim import TraceRecorder, NullTraceRecorder


class TestRecording:
    def test_record_and_select(self):
        tr = TraceRecorder()
        tr.record(1.0, "tx", src=0, dst=1)
        tr.record(2.0, "rx", src=0, dst=1)
        tr.record(3.0, "tx", src=2, dst=3)
        assert tr.count("tx") == 2
        assert tr.count("rx") == 1
        assert [e.time for e in tr.select("tx")] == [1.0, 3.0]

    def test_fields_access(self):
        tr = TraceRecorder()
        tr.record(1.0, "tx", src=5)
        ev = tr.events[0]
        assert ev["src"] == 5
        assert ev.get("missing", -1) == -1

    def test_select_time_window(self):
        tr = TraceRecorder()
        for t in range(10):
            tr.record(float(t), "tick", n=t)
        sel = tr.select("tick", since=3.0, until=6.0)
        assert [e["n"] for e in sel] == [3, 4, 5, 6]

    def test_select_predicate(self):
        tr = TraceRecorder()
        for t in range(6):
            tr.record(float(t), "tick", n=t)
        sel = tr.select("tick", predicate=lambda e: e["n"] % 2 == 0)
        assert [e["n"] for e in sel] == [0, 2, 4]

    def test_times_and_last(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        tr.record(5.0, "b")
        tr.record(9.0, "a", final=True)
        assert tr.times("a") == [1.0, 9.0]
        assert tr.last("a")["final"] is True
        assert tr.last("zzz") is None

    def test_len_and_iter(self):
        tr = TraceRecorder()
        tr.record(1.0, "x")
        tr.record(2.0, "y")
        assert len(tr) == 2
        assert [e.category for e in tr] == ["x", "y"]

    def test_clear(self):
        tr = TraceRecorder()
        tr.record(1.0, "x")
        tr.clear()
        assert len(tr) == 0
        assert tr.count("x") == 0


class TestFiltering:
    def test_enable_only(self):
        tr = TraceRecorder()
        tr.enable_only(["keep"])
        tr.record(1.0, "keep")
        tr.record(1.0, "drop")
        assert tr.count("keep") == 1
        assert tr.count("drop") == 0

    def test_disable_specific(self):
        tr = TraceRecorder()
        tr.disable("noisy")
        tr.record(1.0, "noisy")
        tr.record(1.0, "quiet")
        assert len(tr) == 1

    def test_reenable(self):
        tr = TraceRecorder()
        tr.disable("c")
        tr.enable("c")
        tr.record(1.0, "c")
        assert tr.count("c") == 1

    def test_record_checks_the_switches(self):
        # ``record`` is the gate for writers outside the trace adapter;
        # ``record_fields`` keeps whatever it is handed
        tr = TraceRecorder()
        tr.disable("phy.collision")
        tr.record(1.0, "phy.collision", receiver=3)
        tr.record(2.0, "sat.arrive", station=0)      # opt-in, still off
        assert len(tr) == 0
        tr.record_fields(3.0, "sat.arrive", {"station": 0})
        assert tr.count("sat.arrive") == 1


class TestCategoryIndex:
    """select/times/last answer from the per-category index — it must stay
    consistent with the flat event list through every mutation."""

    def test_index_matches_linear_scan(self):
        tr = TraceRecorder()
        for t in range(50):
            tr.record(float(t), f"cat.{t % 5}", n=t)
        for c in range(5):
            indexed = tr.select(f"cat.{c}")
            scanned = [e for e in tr.events if e.category == f"cat.{c}"]
            assert indexed == scanned

    def test_index_survives_clear(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        tr.clear()
        tr.record(2.0, "a")
        assert tr.times("a") == [2.0]
        assert len(tr.select("a")) == 1

    def test_unknown_category_is_empty(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        assert tr.select("zzz") == []
        assert tr.times("zzz") == []
        assert tr.last("zzz") is None

    def test_select_without_category_scans_everything(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        tr.record(2.0, "b")
        assert len(tr.select()) == 2
        assert len(tr.select(since=1.5)) == 1


class TestOptInCategories:
    def test_opt_in_disabled_by_default(self):
        tr = TraceRecorder()
        for category in TraceRecorder.OPT_IN:
            assert not tr.is_enabled(category)
            tr.record(1.0, category)
        assert len(tr) == 0

    def test_opt_in_enabled_explicitly(self):
        tr = TraceRecorder()
        tr.enable(*TraceRecorder.OPT_IN)
        for category in TraceRecorder.OPT_IN:
            tr.record(1.0, category)
        assert len(tr) == len(TraceRecorder.OPT_IN)

    def test_non_opt_in_categories_unaffected(self):
        tr = TraceRecorder()
        tr.record(1.0, "sat.release", station=0)
        assert tr.count("sat.release") == 1

    def test_enable_only_overrides_opt_in_default(self):
        tr = TraceRecorder()
        tr.enable_only(["slot.occupancy"])
        tr.record(1.0, "slot.occupancy", busy=1)
        tr.record(1.0, "sat.release")
        assert tr.count("slot.occupancy") == 1
        assert tr.count("sat.release") == 0


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tr = TraceRecorder()
        tr.record(1.0, "tx", src=0, dst=1)
        tr.record(2.5, "sat.rotation", station=3, rotation=7.0)
        path = tmp_path / "trace.jsonl"
        assert tr.to_jsonl(path) == 2
        back = TraceRecorder.from_jsonl(path)
        assert len(back) == 2
        assert back.events[0].category == "tx"
        assert back.events[0]["src"] == 0
        assert back.events[1].time == 2.5
        assert back.events[1]["rotation"] == 7.0

    def test_round_trip_with_colliding_field_names(self, tmp_path):
        """Fields named ``time``/``category`` must survive export intact —
        they used to collide with the event header keys."""
        tr = TraceRecorder()
        tr.record(1.0, "timer", time=99.0, category="shadow", value=7)
        tr.record(2.0, "plain", other=1)
        path = tmp_path / "trace.jsonl"
        assert tr.to_jsonl(path) == 2
        back = TraceRecorder.from_jsonl(path)
        ev = back.events[0]
        assert ev.time == 1.0 and ev.category == "timer"
        assert ev["time"] == 99.0 and ev["category"] == "shadow"
        assert ev["value"] == 7
        assert back.events[1].fields == {"other": 1}

    def test_legacy_flat_format_still_loads(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"time": 1.0, "category": "tx", "src": 3}\n')
        back = TraceRecorder.from_jsonl(path)
        assert back.events[0].category == "tx"
        assert back.events[0]["src"] == 3

    def test_non_serializable_fields_stringified(self, tmp_path):
        tr = TraceRecorder()
        tr.record(1.0, "weird", payload=object())
        path = tmp_path / "trace.jsonl"
        tr.to_jsonl(path)
        back = TraceRecorder.from_jsonl(path)
        assert isinstance(back.events[0]["payload"], str)

    def test_round_trip_keeps_opt_in_records(self, tmp_path):
        tr = TraceRecorder()
        tr.enable(*TraceRecorder.OPT_IN)
        tr.record(1.0, "sat.arrive", station=0)
        tr.record(2.0, "slot.occupancy", busy=1, capacity=4)
        tr.record(3.0, "sat.release", station=0, to=1)
        path = tmp_path / "opt_in.jsonl"
        assert tr.to_jsonl(path) == 3
        back = TraceRecorder.from_jsonl(path)
        assert [(e.time, e.category, e.fields) for e in back] == \
            [(e.time, e.category, e.fields) for e in tr]

    def test_live_network_trace_exports(self, tmp_path):
        from repro.core import WRTRingConfig, WRTRingNetwork
        from repro.sim import Engine
        engine = Engine()
        trace = TraceRecorder()
        trace.enable_only(["sat.release", "sat.rotation"])
        cfg = WRTRingConfig.homogeneous(range(4), l=1, k=1,
                                        rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(4)), cfg, trace=trace)
        net.start()
        engine.run(until=50)
        path = tmp_path / "net.jsonl"
        count = trace.to_jsonl(path)
        assert count > 20
        back = TraceRecorder.from_jsonl(path)
        rotations = back.select("sat.rotation")
        assert rotations and all(ev["rotation"] == 4.0 for ev in rotations)


class TestNullRecorder:
    def test_drops_everything(self):
        tr = NullTraceRecorder()
        tr.record(1.0, "x", a=1)
        assert len(tr) == 0
        assert tr.count("x") == 0
        assert not tr.is_enabled("x")
        assert tr.select("x") == []
