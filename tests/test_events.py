"""The event spine: bus mechanics, trace-adapter parity, schema docs.

The compatibility contract under test: the typed event layer plus the
trace adapter must reproduce the pre-spine trace stream *byte for byte*,
so the checked-in fuzz corpus bundles (whose ``trace_hash`` fields were
recorded against the old inline ``trace.record`` calls) replay with
identical hashes.
"""

from pathlib import Path

import pytest

from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.events import (EVENT_TYPES, EventBus, NULL_EMITTER, TraceAdapter,
                          render_markdown, schema, traced_category)
from repro.events import types as ev
from repro.events.types import ProtocolEvent
from repro.fuzz import load_bundle, verify_bundle
from repro.sim import Engine
from repro.sim.trace import NullTraceRecorder, TraceRecorder

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))
EVENTS_DOC = Path(__file__).parent.parent / "docs" / "EVENTS.md"

#: trace categories written directly by non-spine layers (the channel's
#: physical-layer records are not protocol events)
NON_SPINE_CATEGORIES = {"phy.collision"}


def ring_net(n=6, trace=None, events=None, **cfg_kwargs):
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", False)
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=2, **cfg_kwargs)
    return engine, WRTRingNetwork(engine, list(range(n)), cfg,
                                  trace=trace, events=events)


class TestEventBus:
    def test_no_subscriber_emitter_is_null_and_falsy(self):
        bus = EventBus()
        emit = bus.emitter(ev.RingTick)
        assert emit is NULL_EMITTER
        assert not emit
        assert emit(1.0) is None   # calling the null emitter is a no-op

    def test_single_subscriber_receives_typed_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(ev.SatRelease, seen.append)
        emit = bus.emitter(ev.SatRelease)
        assert emit    # truthy: the emit site should construct the event
        emit(5.0, 1, 2)
        assert len(seen) == 1
        e = seen[0]
        assert isinstance(e, ev.SatRelease)
        assert (e.t, e.station, e.to) == (5.0, 1, 2)
        assert e.fields() == {"t": 5.0, "station": 1, "to": 2}

    def test_fanout_preserves_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(ev.RingTick, lambda e: order.append("a"))
        bus.subscribe(ev.RingTick, lambda e: order.append("b"))
        bus.emitter(ev.RingTick)(0.0)
        assert order == ["a", "b"]

    def test_unsubscribe_restores_null_emitter(self):
        bus = EventBus()
        unsub = bus.subscribe(ev.RingTick, lambda e: None)
        assert bus.subscriber_count(ev.RingTick) == 1
        unsub()
        assert bus.subscriber_count(ev.RingTick) == 0
        assert bus.emitter(ev.RingTick) is NULL_EMITTER

    def test_binder_called_immediately_and_on_every_change(self):
        bus = EventBus()
        calls = []
        bus.add_binder(lambda: calls.append(len(calls)))
        assert len(calls) == 1                      # immediate
        unsub = bus.subscribe(ev.RingTick, lambda e: None)
        assert len(calls) == 2                      # on subscribe
        unsub()
        assert len(calls) == 3                      # on unsubscribe

    def test_subscribe_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(dict, lambda e: None)


class TestTraceAdapter:
    def _pkt(self, src=0, dst=1):
        return Packet(src=src, dst=dst, service=ServiceClass.PREMIUM,
                      created=0.0)

    def attached(self):
        trace = TraceRecorder()
        bus = EventBus()
        TraceAdapter(trace).attach(bus)
        return trace, bus

    def test_direct_event_renders_legacy_record(self):
        trace, bus = self.attached()
        bus.emitter(ev.SatRelease)(7.0, 3, 4)
        assert len(trace) == 1
        rec = trace.events[0]
        assert (rec.time, rec.category) == (7.0, "sat.release")
        assert rec.fields == {"station": 3, "to": 4}

    def test_packet_lost_traced_only_for_link_reason(self):
        trace, bus = self.attached()
        emit = bus.emitter(ev.PacketLost)
        emit(1.0, self._pkt(), "link", 0, 1)
        emit(2.0, self._pkt(), "removed", 2, None)
        emit(3.0, self._pkt(), "rebuild", 3, None)
        assert [e.category for e in trace.events] == ["ring.link_loss"]
        assert trace.events[0].fields == {"src": 0, "dst": 1}

    def test_packet_orphaned_traced_only_for_ttl_reason(self):
        trace, bus = self.attached()
        pkt = self._pkt(src=2, dst=5)
        pkt.hops = 9
        emit = bus.emitter(ev.PacketOrphaned)
        emit(1.0, pkt, "ttl")
        emit(2.0, self._pkt(), "full_circle")
        assert [e.category for e in trace.events] == ["ring.orphan_ttl"]
        assert trace.events[0].fields == {"src": 2, "dst": 5, "hops": 9}

    def test_rap_close_duplicate_field_elided_when_none(self):
        trace, bus = self.attached()
        emit = bus.emitter(ev.RapClose)
        emit(1.0, 0, 7, None)
        emit(2.0, 0, None, 7)
        assert trace.events[0].fields == {"ingress": 0, "joined": 7}
        assert trace.events[1].fields == {"ingress": 0, "joined": None,
                                          "duplicate": 7}

    def test_occupancy_subscription_follows_trace_enablement(self):
        trace = TraceRecorder()       # slot.occupancy is opt-in: disabled
        bus = EventBus()
        TraceAdapter(trace).attach(bus)
        assert bus.emitter(ev.SlotOccupancy) is NULL_EMITTER
        trace.enable("slot.occupancy")
        emit = bus.emitter(ev.SlotOccupancy)
        assert emit
        emit(4.0, 3, 8)
        assert trace.count("slot.occupancy") == 1

    def test_direct_category_enabled_after_attach_records_at_once(self):
        trace = TraceRecorder()
        trace.enable_only(["sat.rotation"])
        bus = EventBus()
        TraceAdapter(trace).attach(bus)
        assert bus.emitter(ev.SatRelease) is NULL_EMITTER
        trace.enable("sat.release")
        bus.emitter(ev.SatRelease)(1.0, 0, 1)
        assert [e.time for e in trace.select("sat.release")] == [1.0]
        trace.disable("sat.release", "sat.rotation")
        assert bus.emitter(ev.SatRelease) is NULL_EMITTER
        assert bus.emitter(ev.SatRotation) is NULL_EMITTER

    def test_selective_renderings_follow_their_categories(self):
        """The five selective renderings subscribe and drop with the
        category each one writes, like the 1:1 ones."""
        trace = TraceRecorder()
        bus = EventBus()
        TraceAdapter(trace).attach(bus)
        assert bus.subscriber_count(ev.GatewayForward) == 1
        trace.disable("gw.forward", "rap.close")
        assert bus.emitter(ev.GatewayForward) is NULL_EMITTER
        assert bus.emitter(ev.RapClose) is NULL_EMITTER
        assert bus.subscriber_count(ev.GatewayDrop) == 1
        trace.enable("rap.close")
        bus.emitter(ev.RapClose)(1.0, 0, 7, None)
        assert [e.category for e in trace.events] == ["rap.close"]

    def test_attach_keeps_the_legacy_fanout_order(self):
        """Direct renderings subscribe before later subscribers of the same
        event, so a consumer reacting to an event records after it."""
        trace = TraceRecorder()
        bus = EventBus()
        TraceAdapter(trace).attach(bus)
        bus.subscribe(ev.StationKilled,
                      lambda e: trace.record(e.t, "probe.after_kill"))
        bus.emitter(ev.StationKilled)(3.0, 2)
        assert [e.category for e in trace.events] == ["ring.kill",
                                                       "probe.after_kill"]

    def test_untraced_events_write_nothing(self):
        trace, bus = self.attached()
        bus.emitter(ev.RingTick)(1.0)
        bus.emitter(ev.SlotTransmit)(1.0, 0, self._pkt())
        bus.emitter(ev.SlotDeliver)(1.0, 1, self._pkt())
        bus.emitter(ev.RecoveryEpisode)(1.0, "silent", "recovered", 2, 10.0)
        assert len(trace) == 0


class TestNetworkWiring:
    def test_network_owns_bus_and_adapter_by_default(self):
        _, net = ring_net(trace=TraceRecorder())
        assert isinstance(net.events, EventBus)
        assert net._trace_adapter is not None

    def test_null_trace_adapter_subscribes_nothing(self):
        _, net = ring_net()      # defaults to NullTraceRecorder
        assert isinstance(net.trace, NullTraceRecorder)
        assert net._trace_adapter is not None
        # only the network's own metrics listen: every event nothing else
        # consumes keeps the null emitter
        for etype in EVENT_TYPES:
            assert all(cb.__qualname__.startswith("NetworkMetrics.")
                       for cb in net.events.subscribers(etype)), etype
        assert net.events.emitter(ev.SatRelease) is NULL_EMITTER
        assert net.events.emitter(ev.GatewayForward) is NULL_EMITTER

    def test_external_bus_is_used_and_not_adapted(self):
        bus = EventBus()
        delivered = []
        bus.subscribe(ev.SlotDeliver, delivered.append)
        engine, net = ring_net(trace=TraceRecorder(), events=bus)
        assert net.events is bus
        # caller-owned bus: the caller decides what subscribes, the
        # network must not silently attach its trace adapter
        assert net._trace_adapter is None
        net.enqueue(Packet(src=0, dst=1, service=ServiceClass.PREMIUM,
                           created=0.0))
        net.start()
        engine.run(until=200)
        assert len(delivered) >= 1
        assert delivered[0].station == 1

    def test_metrics_fed_solely_by_bus(self):
        engine, net = ring_net()
        for sid in range(3):
            net.enqueue(Packet(src=sid, dst=(sid + 1) % 6,
                               service=ServiceClass.PREMIUM, created=0.0))
        net.start()
        engine.run(until=300)
        assert net.metrics.total_delivered == 3
        assert net.metrics.transmitted[ServiceClass.PREMIUM] == 3
        assert net.metrics.access_delay[ServiceClass.PREMIUM].count == 3


def subscriber_names(bus):
    """Event name -> its subscribers' qualified names, in fan-out order."""
    return {etype.__name__: [cb.__qualname__ for cb in bus.subscribers(etype)]
            for etype in EVENT_TYPES if bus.subscribers(etype)}


_DIRECT_HANDLER = "TraceAdapter._direct_handler.<locals>.handler"

#: every event with the trace adapter's 1:1 handler as its only
#: subscriber on a default-traced ring (captured before the recorder's
#: switches drove the adapter)
_DIRECT_ONLY = (
    "SatRotation", "SatRelease", "SatLost", "SatLinkLoss", "StationKilled",
    "LeaveAnnounced", "StationInserted", "StationRemoved", "SatTimeout",
    "GracefulCutout", "SatRecFailed", "SatRecovered", "RebuildStart",
    "RebuildRetry", "RebuildDone", "RingDown", "TimerAdapted", "FalseSatRec",
    "RapOpen", "RapRequest", "FrameDropped", "SatHopLost",
    "SatStaleDiscarded", "CallStarted", "CallRefused", "CallEnded",
    "CallCut", "GatewayBuffer", "CsmaCollision", "TptKill", "TptTokenLost",
    "TptJoin", "TptTimeout", "TptTokenReissued", "TptProbeLost",
    "TptRebuildStart", "TptDown", "TptRebuildDone", "TokenRotation",
    "TptRap")


class TestTraceSwitchboard:
    """The recorder's switches alone decide what the adapter subscribes,
    and a default recorder keeps the legacy fan-out order that corpus
    trace hashes depend on."""

    def test_default_ring_fanout_order_is_pinned(self):
        from repro.scenarios import Scenario, build_scenario
        expected = dict.fromkeys(_DIRECT_ONLY, [_DIRECT_HANDLER])
        expected.update({
            "SlotTransmit": ["NetworkMetrics._on_transmit"],
            "SlotDeliver": ["NetworkMetrics._on_deliver"],
            "PacketLost": ["NetworkMetrics._on_lost",
                           "TraceAdapter._on_packet_lost"],
            "PacketOrphaned": ["NetworkMetrics._on_orphaned",
                               "TraceAdapter._on_packet_orphaned"],
            "RapClose": ["TraceAdapter._on_rap_close"],
            "GatewayForward": ["TraceAdapter._on_gw_forward"],
            "GatewayDrop": ["TraceAdapter._on_gw_drop"],
        })
        built = build_scenario(Scenario())
        assert subscriber_names(built.network.events) == expected

    def test_traced_shard_fanout_order_is_pinned(self):
        from repro.fabric import RingShard, Topology
        shard = RingShard(Topology(rings=3, cross_flows=2, seed=1), 1)
        names = subscriber_names(shard.net.events)
        assert names["SlotDeliver"] == ["NetworkMetrics._on_deliver",
                                        "RingShard._on_deliver"]
        assert names["PacketLost"] == ["NetworkMetrics._on_lost",
                                       "TraceAdapter._on_packet_lost",
                                       "RingShard._on_ring_loss"]
        assert names["PacketOrphaned"] == ["NetworkMetrics._on_orphaned",
                                           "TraceAdapter._on_packet_orphaned",
                                           "RingShard._on_ring_loss"]
        assert names["GatewayForward"] == ["TraceAdapter._on_gw_forward"]

    def test_trace_off_shard_subscribes_no_trace_handler(self):
        # the trace-off twin of the test above, captured when a trace-off
        # shard subscribed its trace renderings and then dropped them: no
        # ``TraceAdapter`` handler, the rest in the same order
        from repro.fabric import RingShard, Topology
        shard = RingShard(Topology(rings=3, cross_flows=2, seed=1), 1,
                          trace=False)
        assert subscriber_names(shard.net.events) == {
            "SlotTransmit": ["NetworkMetrics._on_transmit"],
            "SlotDeliver": ["NetworkMetrics._on_deliver",
                            "RingShard._on_deliver"],
            "PacketLost": ["NetworkMetrics._on_lost",
                           "RingShard._on_ring_loss"],
            "PacketOrphaned": ["NetworkMetrics._on_orphaned",
                               "RingShard._on_ring_loss"],
        }
        for etype in (ev.GatewayForward, ev.GatewayDrop, ev.RapClose,
                      ev.SatRelease):
            assert shard.net.events.emitter(etype) is NULL_EMITTER


class TestCorpusParity:
    """The satellite acceptance test: every checked-in repro bundle —
    recorded before the event spine existed — must replay through the
    adapter to a byte-identical trace hash."""

    def test_corpus_present(self):
        assert len(CORPUS) >= 4

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_bundle_trace_hash_byte_identical(self, path):
        expected = load_bundle(path)["result"]["trace_hash"]
        ok, result, mismatches = verify_bundle(path)
        assert ok, mismatches
        assert mismatches == []
        assert result.trace_hash == expected


class TestSchemaAndDocs:
    def test_categories_are_unique_and_dotted(self):
        cats = [cls.category for cls in EVENT_TYPES]
        assert len(cats) == len(set(cats))
        assert all("." in c for c in cats)

    def test_every_event_is_timestamped_first(self):
        for cls in EVENT_TYPES:
            assert cls.payload[0] == "t", cls.__name__

    def test_events_doc_contains_generated_schema(self):
        """docs/EVENTS.md embeds ``render_markdown()`` verbatim — regenerate
        the doc when event types change (see the doc's header)."""
        assert render_markdown() in EVENTS_DOC.read_text()

    def test_schema_trace_column_matches_adapter(self):
        for rec, cls in zip(schema(), EVENT_TYPES):
            assert rec["trace"] == traced_category(cls)

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_replayed_trace_categories_covered_by_schema(self, path):
        """Every category a real run records is either declared by an event
        type's trace mapping or written by a non-spine layer."""
        traced = set()
        for cls in EVENT_TYPES:
            cat = traced_category(cls)
            if cat is not None:
                traced.add(cat.split(" ")[0])
        _, result, _ = verify_bundle(path)
        emitted = {e.category for e in result.built.trace.events}
        assert emitted - traced - NON_SPINE_CATEGORIES == set()

    def test_event_classes_are_slotted(self):
        for cls in EVENT_TYPES:
            e = cls(*range(len(cls.payload)))
            with pytest.raises(AttributeError):
                e.not_a_field = 1
            assert issubclass(cls, ProtocolEvent)
