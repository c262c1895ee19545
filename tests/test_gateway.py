"""Tests for the Diffserv LAN and the Fig. 2 gateway scenario."""

import pytest

from repro.core import (Packet, ServiceClass, WRTRingConfig,
                        WRTRingNetwork)
from repro.gateway import DiffservLAN, Gateway, LanHost, LanPacket, StreamRequest
from repro.sim import Engine


def lan_setup(capacity=4, premium_share=0.5, hosts=(50, 51)):
    engine = Engine()
    lan = DiffservLAN(engine, capacity=capacity, premium_share=premium_share)
    for hid in hosts:
        lan.attach_host(LanHost(hid))
    lan.start()
    return engine, lan


class TestDiffservLAN:
    def test_delivery(self):
        engine, lan = lan_setup()
        lan.send(LanPacket(src=99, dst=50, service=ServiceClass.PREMIUM,
                           created=0.0))
        engine.run(until=5.0)
        assert len(lan.hosts[50].received) == 1
        assert lan.delivered[ServiceClass.PREMIUM] == 1

    def test_priority_scheduling(self):
        engine, lan = lan_setup(capacity=1)
        # enqueue BE first, then premium: premium must still go first
        lan.send(LanPacket(src=99, dst=50, service=ServiceClass.BEST_EFFORT,
                           created=0.0))
        lan.send(LanPacket(src=99, dst=50, service=ServiceClass.PREMIUM,
                           created=0.0))
        engine.run(until=1.0)
        assert lan.hosts[50].received[0].service is ServiceClass.PREMIUM

    def test_capacity_limits_served_per_slot(self):
        engine, lan = lan_setup(capacity=2)
        for _ in range(6):
            lan.send(LanPacket(src=99, dst=50, service=ServiceClass.BEST_EFFORT,
                               created=0.0))
        engine.run(until=0.5)   # only the t=0 service slot has run
        assert len(lan.hosts[50].received) == 2
        engine.run(until=2.5)
        assert len(lan.hosts[50].received) == 6

    def test_reservation_budget(self):
        engine, lan = lan_setup(capacity=4, premium_share=0.5)
        assert lan.premium_budget == 2.0
        assert lan.reserve(1, 1.5)
        assert not lan.reserve(2, 0.6)   # 1.5 + 0.6 > 2.0
        assert lan.reserve(3, 0.5)
        lan.release(1)
        assert lan.reserve(4, 1.0)

    def test_duplicate_reservation_rejected(self):
        engine, lan = lan_setup()
        lan.reserve(1, 0.5)
        with pytest.raises(ValueError):
            lan.reserve(1, 0.1)
        with pytest.raises(ValueError):
            lan.reserve(2, 0.0)

    def test_unknown_destination_rejected(self):
        engine, lan = lan_setup()
        with pytest.raises(KeyError):
            lan.send(LanPacket(src=99, dst=77, service=ServiceClass.PREMIUM,
                               created=0.0))

    def test_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            DiffservLAN(engine, capacity=0)
        with pytest.raises(ValueError):
            DiffservLAN(engine, capacity=1, premium_share=0.0)

    def test_host_callback(self):
        engine = Engine()
        got = []
        lan = DiffservLAN(engine)
        lan.attach_host(LanHost(50, receive=lambda p, t: got.append((p, t))))
        lan.start()
        lan.send(LanPacket(src=1, dst=50, service=ServiceClass.ASSURED,
                           created=0.0))
        engine.run(until=2.0)
        assert len(got) == 1 and got[0][1] == 1.0

    def test_duplicate_host_rejected(self):
        engine, lan = lan_setup()
        with pytest.raises(ValueError):
            lan.attach_host(LanHost(50))


def bridge_setup(n=5, l=2, k=2, capacity=4):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    lan = DiffservLAN(engine, capacity=capacity)
    lan.attach_host(LanHost(50))
    lan.attach_host(LanHost(51))
    gw = Gateway(net, sid=0, lan=lan)
    net.start()
    lan.start()
    return engine, net, lan, gw


class TestGatewayAdmission:
    def test_lan_to_ring_premium_within_capacity(self):
        engine, net, lan, gw = bridge_setup()
        capacity = gw._premium_capacity()
        grant = gw.request_stream(StreamRequest(
            rate=capacity * 0.8, service=ServiceClass.PREMIUM,
            direction="lan_to_ring", ring_endpoint=2, lan_endpoint=50))
        assert grant.accepted

    def test_lan_to_ring_premium_over_capacity_rejected(self):
        engine, net, lan, gw = bridge_setup()
        capacity = gw._premium_capacity()
        g1 = gw.request_stream(StreamRequest(
            rate=capacity * 0.7, service=ServiceClass.PREMIUM,
            direction="lan_to_ring", ring_endpoint=2, lan_endpoint=50))
        g2 = gw.request_stream(StreamRequest(
            rate=capacity * 0.7, service=ServiceClass.PREMIUM,
            direction="lan_to_ring", ring_endpoint=3, lan_endpoint=50))
        assert g1.accepted and not g2.accepted
        assert "guaranteed capacity" in g2.reason

    def test_ring_to_lan_uses_lan_reservation(self):
        engine, net, lan, gw = bridge_setup()
        g = gw.request_stream(StreamRequest(
            rate=1.5, service=ServiceClass.PREMIUM,
            direction="ring_to_lan", ring_endpoint=2, lan_endpoint=50))
        assert g.accepted
        assert lan.reserved_premium == 1.5
        g2 = gw.request_stream(StreamRequest(
            rate=1.0, service=ServiceClass.PREMIUM,
            direction="ring_to_lan", ring_endpoint=3, lan_endpoint=51))
        assert not g2.accepted

    def test_release_frees_capacity(self):
        engine, net, lan, gw = bridge_setup()
        g = gw.request_stream(StreamRequest(
            rate=2.0, service=ServiceClass.PREMIUM,
            direction="ring_to_lan", ring_endpoint=2, lan_endpoint=50))
        gw.release_stream(g.stream_id)
        assert lan.reserved_premium == 0.0
        inbound = gw.request_stream(StreamRequest(
            rate=gw._premium_capacity(), service=ServiceClass.PREMIUM,
            direction="lan_to_ring", ring_endpoint=2, lan_endpoint=50))
        gw.release_stream(inbound.stream_id)
        assert gw.reserved_inbound_rate == 0.0

    def test_best_effort_needs_no_reservation(self):
        engine, net, lan, gw = bridge_setup()
        g = gw.request_stream(StreamRequest(
            rate=100.0, service=ServiceClass.BEST_EFFORT,
            direction="lan_to_ring", ring_endpoint=2, lan_endpoint=50))
        assert g.accepted

    def test_gateway_must_be_member(self):
        engine, net, lan, _ = bridge_setup()
        with pytest.raises(KeyError):
            Gateway(net, sid=99, lan=lan)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            StreamRequest(rate=0.0, service=ServiceClass.PREMIUM,
                          direction="lan_to_ring", ring_endpoint=1,
                          lan_endpoint=50)
        with pytest.raises(ValueError):
            StreamRequest(rate=1.0, service=ServiceClass.PREMIUM,
                          direction="sideways", ring_endpoint=1,
                          lan_endpoint=50)


class TestGatewayForwarding:
    def test_lan_to_ring_end_to_end(self):
        engine, net, lan, gw = bridge_setup()
        engine.run(until=10)
        t0 = engine.now
        lan_pkt = LanPacket(src=50, dst=0, service=ServiceClass.PREMIUM,
                            created=t0)
        ring_pkt = gw.lan_ingress(lan_pkt, ring_dst=3, deadline=t0 + 200)
        engine.run(until=t0 + 150)
        assert ring_pkt.delivered
        assert gw.forwarded_to_ring == 1
        assert net.metrics.deadlines.met == 1

    def test_ring_to_lan_end_to_end(self):
        engine, net, lan, gw = bridge_setup()
        engine.run(until=10)
        p = gw.send_to_lan(src_station=3, lan_dst=51,
                           service=ServiceClass.PREMIUM)
        engine.run(until=200)
        assert p.delivered                      # reached G1 on the ring
        assert gw.forwarded_to_lan == 1
        assert len(lan.hosts[51].received) == 1
        # end-to-end delay spans both networks
        lan_delivery = lan.hosts[51].received[0]
        assert lan_delivery.t_deliver > p.t_deliver

    def test_ordinary_traffic_to_gateway_not_forwarded(self):
        engine, net, lan, gw = bridge_setup()
        engine.run(until=10)
        p = Packet(src=2, dst=0, service=ServiceClass.BEST_EFFORT,
                   created=engine.now)
        net.enqueue(p)
        engine.run(until=200)
        assert p.delivered
        assert gw.forwarded_to_lan == 0

    def test_admitted_premium_stream_meets_deadlines(self):
        """Fig. 2's promise: an admitted stream gets its guarantee."""
        engine, net, lan, gw = bridge_setup(l=2, k=2)
        rate = gw._premium_capacity() * 0.5
        grant = gw.request_stream(StreamRequest(
            rate=rate, service=ServiceClass.PREMIUM,
            direction="lan_to_ring", ring_endpoint=3, lan_endpoint=50))
        assert grant.accepted
        from repro.analysis import access_delay_bound
        deadline_budget = access_delay_bound(
            2 * net.stations[0].quota.l, net.stations[0].quota.l,
            5, 0, [(2, 2)] * 5) + 10
        period = 1.0 / rate
        misses = []

        def feed(t, state={"next": 20.0}):
            while t >= state["next"]:
                lan_pkt = LanPacket(src=50, dst=0,
                                    service=ServiceClass.PREMIUM,
                                    created=state["next"])
                gw.lan_ingress(lan_pkt, ring_dst=3,
                               deadline=state["next"] + deadline_budget)
                state["next"] += period
        net.add_tick_hook(feed)
        engine.run(until=5000)
        assert net.metrics.deadlines.missed == 0
        assert net.metrics.deadlines.met > 50


class TestGatewayEvents:
    """The bridge speaks the typed event spine: every forward/drop/buffer
    fact lands on the network's bus as gw.* events."""

    def test_forward_events_both_directions(self):
        from repro.events.types import GatewayForward

        engine, net, lan, gw = bridge_setup()
        got = []
        net.events.subscribe(GatewayForward, got.append)
        engine.run(until=10)
        t0 = engine.now
        gw.lan_ingress(LanPacket(src=50, dst=0,
                                 service=ServiceClass.PREMIUM, created=t0),
                       ring_dst=3)
        gw.send_to_lan(src_station=3, lan_dst=51,
                       service=ServiceClass.PREMIUM)
        engine.run(until=300)
        assert sorted({ev.direction for ev in got}) == \
            ["lan_to_ring", "ring_to_lan"]
        assert all(ev.gateway == gw.sid for ev in got)

    def test_bounded_ingress_buffer_overflow(self):
        from repro.events.types import GatewayBuffer, GatewayDrop

        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(5), l=2, k=2,
                                        rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(5)), cfg)
        lan = DiffservLAN(engine, capacity=4)
        lan.attach_host(LanHost(50))
        gw = Gateway(net, sid=0, lan=lan, buffer_limit=1)
        drops, buffers = [], []
        net.events.subscribe(GatewayDrop, drops.append)
        net.events.subscribe(GatewayBuffer, buffers.append)
        net.start()
        lan.start()
        first = gw.lan_ingress(LanPacket(src=50, dst=0,
                                         service=ServiceClass.PREMIUM,
                                         created=0.0), ring_dst=2)
        second = gw.lan_ingress(LanPacket(src=50, dst=0,
                                          service=ServiceClass.PREMIUM,
                                          created=0.0), ring_dst=3)
        assert first is not None and second is None
        assert gw.ingress_attempts == 2
        assert gw.ingress_drops == 1
        assert [(ev.reason, ev.direction) for ev in drops] == \
            [("overflow", "lan_to_ring")]
        assert buffers[0].occupancy == 1 and buffers[0].capacity == 1

    def test_buffer_limit_validation(self):
        engine, net, lan, _ = bridge_setup()
        with pytest.raises(ValueError):
            Gateway(net, sid=1, lan=lan, buffer_limit=0)

    def test_lan_queue_limit_overflow(self):
        from repro.events.bus import EventBus
        from repro.events.types import GatewayDrop

        engine = Engine()
        bus = EventBus()
        lan = DiffservLAN(engine, capacity=1, queue_limit=2,
                          events=bus, lan_id=-7)
        lan.attach_host(LanHost(50))
        drops = []
        bus.subscribe(GatewayDrop, drops.append)
        lan.start()
        sent = [lan.send(LanPacket(src=9, dst=50,
                                   service=ServiceClass.BEST_EFFORT,
                                   created=0.0))
                for _ in range(3)]
        assert sent == [True, True, False]
        assert lan.dropped == 1
        assert drops[-1].reason == "overflow"
        assert drops[-1].gateway == -7      # LAN-side label

    def test_lan_ttl_expires_stale_queue_prefix(self):
        from repro.events.bus import EventBus
        from repro.events.types import GatewayDrop

        engine = Engine()
        bus = EventBus()
        lan = DiffservLAN(engine, capacity=1, ttl=0.5, events=bus)
        lan.attach_host(LanHost(50))
        drops = []
        bus.subscribe(GatewayDrop, drops.append)
        lan.start()
        for _ in range(4):
            lan.send(LanPacket(src=9, dst=50,
                               service=ServiceClass.BEST_EFFORT,
                               created=0.0))
        engine.run(until=3.0)
        # the t=0 slot serves one packet; by the t=1 slot the other three
        # have aged past the TTL and are expired as a queue prefix
        assert len(lan.hosts[50].received) == 1
        assert lan.dropped == 3
        assert {ev.reason for ev in drops} == {"ttl"}

    def test_lan_policy_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            DiffservLAN(engine, queue_limit=0)
        with pytest.raises(ValueError):
            DiffservLAN(engine, ttl=0.0)


class TestGatewayConservation:
    def test_oracle_clean_after_mixed_traffic(self):
        from repro.fuzz import PacketLedger, check_gateway_conservation

        engine, net, lan, gw = bridge_setup()
        ledger = PacketLedger(net)
        engine.run(until=10)
        t0 = engine.now
        for i in range(5):
            gw.lan_ingress(LanPacket(src=50, dst=0,
                                     service=ServiceClass.PREMIUM,
                                     created=t0), ring_dst=2 + (i % 3))
        gw.send_to_lan(src_station=3, lan_dst=51,
                       service=ServiceClass.PREMIUM)
        # no such LAN host: the relay must be destroyed *and counted*
        gw.send_to_lan(src_station=2, lan_dst=99,
                       service=ServiceClass.BEST_EFFORT)
        engine.run(until=400)
        assert gw.relay_drops == 1
        assert check_gateway_conservation([gw], ledger) == []

    def test_oracle_counts_bounded_buffer_drops(self):
        from repro.fuzz import PacketLedger, check_gateway_conservation

        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(5), l=2, k=2,
                                        rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(5)), cfg)
        lan = DiffservLAN(engine, capacity=4)
        lan.attach_host(LanHost(50))
        gw = Gateway(net, sid=0, lan=lan, buffer_limit=1)
        ledger = PacketLedger(net)
        net.start()
        lan.start()
        for _ in range(4):
            gw.lan_ingress(LanPacket(src=50, dst=0,
                                     service=ServiceClass.PREMIUM,
                                     created=0.0), ring_dst=2)
        engine.run(until=100)
        assert gw.ingress_drops == 3
        assert len(ledger.gateway_dropped) == 3
        assert check_gateway_conservation([gw], ledger) == []

    def test_obs_counters_mirror_bridge_traffic(self):
        from repro.obs.integrate import attach_network_metrics
        from repro.obs.registry import MetricsRegistry

        engine, net, lan, gw = bridge_setup()
        registry = MetricsRegistry()
        attach_network_metrics(net, registry)
        engine.run(until=10)
        t0 = engine.now
        gw.lan_ingress(LanPacket(src=50, dst=0,
                                 service=ServiceClass.PREMIUM,
                                 created=t0), ring_dst=3)
        gw.send_to_lan(src_station=3, lan_dst=51,
                       service=ServiceClass.PREMIUM)
        engine.run(until=300)
        snapshot = registry.snapshot()
        assert snapshot["gw.forwards"]["direction=lan_to_ring"] == 1
        assert snapshot["gw.forwards"]["direction=ring_to_lan"] == 1
