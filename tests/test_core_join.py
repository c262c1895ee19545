"""Integration tests for the RAP join procedure (Sec. 2.4.1, Fig. 3)."""

import random

import numpy as np
import pytest

from repro.core import (Packet, QuotaConfig, ServiceClass, WRTRingConfig,
                        WRTRingNetwork)
from repro.core.join import JoinOutcome, JoinRequester
from repro.phy import ConnectivityGraph, SlottedChannel, ring_placement
from repro.sim import Engine


RADIUS = 30.0
RING_POS = {n: ring_placement(n, radius=RADIUS) for n in (6,)}


def between(pos, i, j, scale=1.02):
    """A point just outside the ring between stations i and j."""
    return (pos[i] + pos[j]) / 2 * scale


def ring_scenario(n=6, extra=None, range_margin=1.4,
                  l=2, k=1, t_ear=6, t_update=3, max_network_delay=None):
    """A circle ring plus out-of-ring stations at ``extra: {sid: (x, y)}``."""
    pos = ring_placement(n, radius=RADIUS)
    ids = list(range(n))
    extra = extra or {}
    for sid, p in extra.items():
        pos = np.vstack([pos, np.asarray(p, dtype=float).reshape(1, 2)])
        ids.append(sid)
    radio_range = 2 * RADIUS * np.sin(np.pi / n) * range_margin
    graph = ConnectivityGraph(pos, radio_range, node_ids=ids)
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, rap_enabled=True,
                                    t_ear=t_ear, t_update=t_update,
                                    max_network_delay=max_network_delay)
    channel = SlottedChannel(graph)
    net = WRTRingNetwork(engine, list(range(n)), cfg, graph=graph,
                         channel=channel)
    return engine, net, graph, pos


class TestSuccessfulJoin:
    def test_requester_between_two_consecutive_stations_joins(self):
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 2, 3)})
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(0))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.JOINED
        members = net.members
        # inserted between two stations that were consecutive in the
        # original ring, both within the requester's radio range
        idx = members.index(100)
        before = members[idx - 1]
        after = members[(idx + 1) % len(members)]
        assert (before + 1) % 6 == after
        assert graph.in_range(100, before) and graph.in_range(100, after)

    def test_join_latency_reported(self):
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 0, 1)})
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(1))
        net.start()
        engine.run(until=4000)
        assert req.join_latency is not None and req.join_latency > 0
        assert req.t_joined > req.t_requested > req.t_started

    def test_new_station_carries_traffic_after_join(self):
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 4, 5)})
        req = JoinRequester(net, 100, QuotaConfig.two_class(2, 1),
                            rng=random.Random(2))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.JOINED
        t0 = engine.now
        p = Packet(src=100, dst=1, service=ServiceClass.PREMIUM, created=t0)
        net.enqueue(p)
        engine.run(until=t0 + 200)
        assert p.delivered

    def test_quotas_and_timers_updated_after_join(self):
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 1, 2)})
        bound_before = net.sat_time_bound()
        req = JoinRequester(net, 100, QuotaConfig.two_class(3, 2),
                            rng=random.Random(3))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.JOINED
        assert net.sat_time_bound() == bound_before + 1 + 2 * 5  # S+1, +2(l+k)
        assert 100 in net.recovery.timers

    def test_existing_guarantees_hold_during_join(self):
        """Fig. 3's implicit promise: joining never breaks the bound for
        stations already in the ring."""
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 3, 4)})
        rng = random.Random(9)

        def top(t):
            for sid in list(net.members):
                st = net.stations[sid]
                while len(st.rt_queue) < 10:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)
        req = JoinRequester(net, 100, QuotaConfig.two_class(2, 1),
                            rng=random.Random(4))
        net.start()
        engine.run(until=6000)
        assert req.state is JoinOutcome.JOINED
        # the *post-join* bound covers every measured rotation (the post-join
        # bound is the larger one, so it is the binding check across the run)
        assert net.rotation_log.worst() < net.sat_time_bound()


class TestRequesterTickHook:
    """A requester polls every slot until it reaches a final state, then
    unregisters its tick hook."""

    def test_hook_count_returns_to_pre_join_value_after_join(self):
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 2, 3)})
        hooks = len(net._tick_hooks)
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(0))
        assert len(net._tick_hooks) == hooks + 1
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.JOINED
        assert len(net._tick_hooks) == hooks

    def test_gave_up_requester_unregisters(self):
        from repro.core.join import JoinRequest

        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 2, 3)})
        hooks = len(net._tick_hooks)
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            max_attempts=2)
        # the ingress never hears a JOIN_REQ, so every attempt times out
        transmit = net.channel.transmit
        net.channel.transmit = lambda frame: (
            None if isinstance(frame.payload, JoinRequest)
            else transmit(frame))
        net.start()
        engine.run(until=6000)
        assert req.state is JoinOutcome.GAVE_UP
        assert len(net._tick_hooks) == hooks

    def test_rejected_requester_keeps_polling(self):
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 2, 3)})
        from repro.analysis import access_delay_bound
        net.join_manager.admission.register_requirement(
            0, deadline=access_delay_bound(0, 2, 6, 9, [(2, 1)] * 6))
        hooks = len(net._tick_hooks)
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(8))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.REJECTED
        assert len(net._tick_hooks) == hooks + 1


class TestRejectedJoin:
    def test_out_of_range_requester_never_joins(self):
        engine, net, graph, pos = ring_scenario(extra={100: (500.0, 500.0)})
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(5))
        net.start()
        engine.run(until=3000)
        assert req.state is JoinOutcome.LISTENING
        assert req.heard == {}
        assert 100 not in net.members

    def test_requester_hearing_one_station_cannot_join(self):
        """Sec. 2.4.1: reaching a single station is not enough."""
        base = ring_placement(6, radius=RADIUS)
        centre = base.mean(axis=0)
        outward = base[0] - centre
        outward = outward / np.linalg.norm(outward)
        radio_range = 2 * RADIUS * np.sin(np.pi / 6) * 1.4
        spot = base[0] + outward * radio_range * 0.9
        engine, net, graph, pos = ring_scenario(extra={100: spot})
        # verify the placement gives exactly one audible ring station
        assert [s for s in range(6) if graph.in_range(100, s)] == [0]
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(6))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.LISTENING
        assert 100 not in net.members
        assert 0 in req.heard and len(req.heard) == 1

    def test_admission_rejects_over_budget(self):
        """With a tight network budget the NEXT_FREE advertises zero free
        resources, so a greedy requester never even sends (and a direct
        admission evaluation rejects the request)."""
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(
            extra={100: between(base, 0, 1)})
        net.config.max_network_delay = net.sat_time_bound() + 3
        req = JoinRequester(net, 100, QuotaConfig.two_class(5, 5),
                            rng=random.Random(7))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.LISTENING
        assert 100 not in net.members
        # the admission controller itself rejects such a request outright
        from repro.core.join import JoinRequest
        decision = net.join_manager.admission.evaluate(JoinRequest(
            requester=100, code_new=7, quota=QuotaConfig.two_class(5, 5)))
        assert not decision.accepted
        assert "budget" in decision.reason

    def test_requirement_protection(self):
        """A registered station guarantee blocks harmful joins."""
        base = ring_placement(6, radius=RADIUS)
        engine, net, graph, pos = ring_scenario(extra={100: between(base, 2, 3)})
        worst_now = net.sat_time_bound()
        # register a requirement the current ring barely meets
        from repro.analysis import access_delay_bound
        quotas = [(2, 1)] * 6
        now_bound = access_delay_bound(0, 2, 6, 9, quotas)
        net.join_manager.admission.register_requirement(0, deadline=now_bound)
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=random.Random(8))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.REJECTED
        assert 100 not in net.members


class TestContention:
    def test_two_requesters_eventually_both_join(self):
        """Simultaneous JOIN_REQs collide on the ingress code; random reply
        slots resolve the contention across RAPs."""
        base = ring_placement(6, radius=RADIUS)
        spot = between(base, 2, 3)
        engine, net, graph, pos = ring_scenario(
            extra={100: spot, 101: spot + 0.5}, t_ear=8)
        a = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                          rng=random.Random(10))
        b = JoinRequester(net, 101, QuotaConfig.two_class(1, 1),
                          rng=random.Random(11))
        net.start()
        engine.run(until=30_000)
        assert a.state is JoinOutcome.JOINED
        assert b.state is JoinOutcome.JOINED
        assert set(net.members) >= {100, 101}

    def test_one_admission_per_rap(self):
        engine, net, graph, pos = ring_scenario()
        assert net.join_manager.session is None
        # the per-RAP accept slot is exercised implicitly above; here check
        # the RAP counters are sane on a quiet network
        net.start()
        engine.run(until=2000)
        assert net.join_manager.raps_opened > 0
        assert net.join_manager.joins_completed == 0


class TestRapMechanics:
    def test_rap_pauses_transmissions(self):
        engine, net, graph, pos = ring_scenario()
        net.start()
        sent_during_rap = []

        def watch(t):
            if t < net.pause_until:
                before = sum(sum(net.stations[s].sent.values())
                             for s in net.members)
                sent_during_rap.append((t, before))
        net.add_tick_hook(watch)

        def top(t):
            for sid in net.members:
                st = net.stations[sid]
                while len(st.be_queue) < 5:
                    st.enqueue(Packet(src=sid, dst=net.successor(sid),
                                      service=ServiceClass.BEST_EFFORT,
                                      created=t), t)
        net.add_tick_hook(top)
        engine.run(until=500)
        assert sent_during_rap, "no RAP observed"
        # counts must be flat across each RAP window
        by_window = {}
        for t, count in sent_during_rap:
            by_window.setdefault(net.pause_until, []).append(count)
        # simpler: consecutive paused ticks with growing totals would differ
        deltas = [b[1] - a[1] for a, b in zip(sent_during_rap,
                                              sent_during_rap[1:])
                  if b[0] == a[0] + 1]
        assert all(d == 0 for d in deltas)

    def test_rap_mutex_limits_to_one_per_round(self):
        engine, net, graph, pos = ring_scenario()
        net.start()
        engine.run(until=3000)
        rounds = net.sat.rounds
        assert net.join_manager.raps_opened <= rounds + 1

    def test_rap_disabled_never_opens(self):
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(4), l=1, k=1, rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(4)), cfg)
        net.start()
        engine.run(until=1000)
        assert net.join_manager.raps_opened == 0

    def test_requester_without_channel_rejected(self):
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(4), l=1, k=1)
        net = WRTRingNetwork(engine, list(range(4)), cfg)
        with pytest.raises(ValueError):
            JoinRequester(net, 100, QuotaConfig.two_class(1, 1))

    def test_member_cannot_request_join(self):
        engine, net, graph, pos = ring_scenario()
        with pytest.raises(ValueError):
            JoinRequester(net, 0, QuotaConfig.two_class(1, 1))
