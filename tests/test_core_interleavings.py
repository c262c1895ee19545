"""Edge-case interleavings of joins, leaves, failures and recoveries.

The paper describes each dynamic in isolation; a real network overlaps
them.  These tests pin the behaviour when the procedures collide.
"""

import random

import numpy as np

from repro.core import (Packet, QuotaConfig, ServiceClass, WRTRingConfig,
                        WRTRingNetwork)
from repro.core.invariants import RingInvariantChecker
from repro.core.join import JoinOutcome, JoinRequester
from repro.phy import ConnectivityGraph, SlottedChannel, ring_placement
from repro.sim import Engine


def channel_ring(n=6, margin=2.5, extra=None, **cfg_kwargs):
    pos = ring_placement(n, radius=30.0)
    ids = list(range(n))
    extra = extra or {}
    for sid, p in extra.items():
        pos = np.vstack([pos, np.asarray(p, dtype=float).reshape(1, 2)])
        ids.append(sid)
    graph = ConnectivityGraph(pos, 2 * 30.0 * np.sin(np.pi / n) * margin,
                              node_ids=ids)
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", True)
    cfg_kwargs.setdefault("t_ear", 6)
    cfg_kwargs.setdefault("t_update", 3)
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, **cfg_kwargs)
    net = WRTRingNetwork(engine, list(range(n)), cfg, graph=graph,
                         channel=SlottedChannel(graph))
    return engine, net, pos


def plain_ring(n=6, **cfg_kwargs):
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", False)
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, **cfg_kwargs)
    return engine, WRTRingNetwork(engine, list(range(n)), cfg)


class TestFailureDuringRap:
    def test_station_dies_while_holding_rap(self):
        """The RAP owner dies mid-pause: the network must recover and the
        mutex must not stay stuck forever."""
        engine, net, _ = channel_ring()
        checker = RingInvariantChecker(net, strict=True).attach(net.events)
        net.start()

        killed = {}

        def kill_rap_owner(t):
            if killed or net.sat.rap_owner is None:
                return
            if t < net.pause_until:   # a RAP is in progress
                owner = net.sat.rap_owner
                net.kill_station(owner)
                killed["owner"] = owner
                killed["t"] = t
        net.add_tick_hook(kill_rap_owner)
        engine.run(until=5000)
        assert killed, "no RAP was ever opened"
        assert killed["owner"] not in net.members
        assert not net.network_down
        assert checker.clean
        # the ring keeps rotating and later RAPs happen again
        assert net.join_manager.raps_opened > 1
        assert not net.sat.rap_mutex or net.sat.rap_owner in net.members

    def test_rap_owner_killed_then_join_still_possible(self):
        base = ring_placement(6, radius=30.0)
        spot = (base[2] + base[3]) / 2 * 1.02
        engine, net, _ = channel_ring(extra={99: spot})
        req = JoinRequester(net, 99, QuotaConfig.two_class(1, 1),
                            rng=random.Random(2))
        net.start()
        engine.run(until=30)
        net.kill_station(0)
        engine.run(until=8000)
        assert req.state is JoinOutcome.JOINED
        assert 0 not in net.members


class TestOverlappingDepartures:
    def test_two_adjacent_graceful_leaves(self):
        engine, net = plain_ring(7)
        net.start()
        engine.run(until=30)
        net.leave_gracefully(3)
        net.leave_gracefully(4)
        engine.run(until=2000)
        assert 3 not in net.members and 4 not in net.members
        assert len(net.members) == 5
        assert not net.network_down
        # ring rotates again at the reduced size
        assert net.rotation_log.samples(0)[-1] == 5.0

    def test_leave_then_immediate_death_of_successor(self):
        engine, net = plain_ring(7)
        net.start()
        engine.run(until=30)
        net.leave_gracefully(2)
        net.kill_station(3)   # the station that must run the cut-out
        engine.run(until=5000)
        assert 2 not in net.members
        assert 3 not in net.members
        assert not net.network_down

    def test_death_during_active_recovery_of_another(self):
        engine, net = plain_ring(8)
        net.start()
        engine.run(until=30)
        net.kill_station(2)
        # let detection begin, then kill another station far away
        engine.run(until=90)
        net.kill_station(6)
        engine.run(until=8000)
        assert 2 not in net.members and 6 not in net.members
        assert not net.network_down
        assert len(net.members) == 6

    def test_simultaneous_kills(self):
        engine, net = plain_ring(8)
        net.start()
        engine.run(until=25)
        net.kill_station(1)
        net.kill_station(5)
        engine.run(until=10_000)
        assert 1 not in net.members and 5 not in net.members
        assert not net.network_down

    def test_sat_drop_during_recovery_escalates_cleanly(self):
        engine, net = plain_ring(6)
        net.start()
        engine.run(until=30)
        net.kill_station(2)
        engine.run(until=60)   # recovery likely started or pending
        if not net._sat_lost:
            net.drop_sat()
        engine.run(until=10_000)
        assert not net.network_down
        assert 2 not in net.members


class TestJoinLeaveChurn:
    def test_join_then_immediate_leave_of_ingress(self):
        base = ring_placement(6, radius=30.0)
        spot = (base[4] + base[5]) / 2 * 1.02
        engine, net, _ = channel_ring(extra={99: spot})
        req = JoinRequester(net, 99, QuotaConfig.two_class(1, 1),
                            rng=random.Random(3))
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.JOINED
        ingress = net.predecessor(99)
        net.leave_gracefully(ingress)
        engine.run(until=6000)
        assert ingress not in net.members
        assert 99 in net.members
        assert not net.network_down

    def test_churn_soak_with_invariants(self):
        """Joins + leaves + deaths interleaved for a long run, invariants
        strict throughout."""
        base = ring_placement(8, radius=30.0)
        spots = {200: (base[0] + base[1]) / 2 * 1.02,
                 201: (base[4] + base[5]) / 2 * 1.02}
        engine, net, _ = channel_ring(n=8, extra=spots)
        checker = RingInvariantChecker(net, strict=True).attach(net.events)
        reqs = [JoinRequester(net, sid, QuotaConfig.two_class(1, 1),
                              rng=random.Random(sid))
                for sid in (200, 201)]
        net.start()
        engine.run(until=1500)
        leaver = next(s for s in net.members if s not in (200, 201))
        net.leave_gracefully(leaver)
        engine.run(until=3000)
        victim = next(s for s in net.members if s not in (200, 201))
        net.kill_station(victim)
        engine.run(until=12_000)
        assert checker.clean, checker.violations[:3]
        assert not net.network_down
        joined = [r for r in reqs if r.state is JoinOutcome.JOINED]
        assert joined, "no requester managed to join during churn"
        # everything that joined still works
        t0 = engine.now
        src = joined[0].sid
        dst = next(m for m in net.members if m != src)
        p = Packet(src=src, dst=dst, service=ServiceClass.PREMIUM, created=t0)
        net.enqueue(p)
        engine.run(until=t0 + 300)
        assert p.delivered


class TestBoundsUnderChurn:
    def test_rotation_bound_respected_through_membership_changes(self):
        """Every rotation sample obeys the *superset* Theorem-1 bound even
        while stations come and go."""
        from repro.analysis import sat_rotation_bound
        engine, net = plain_ring(8)
        rng = random.Random(11)

        def top(t):
            for sid in net.members:
                st = net.stations[sid]
                if not st.alive or st.leaving:
                    continue
                while len(st.rt_queue) < 8:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=2000)
        net.leave_gracefully(3)
        engine.run(until=4000)
        net.kill_station(6)
        engine.run(until=9000)
        superset_bound = sat_rotation_bound(
            8, 0, [QuotaConfig.two_class(2, 1)] * 8)
        assert net.rotation_log.worst() < superset_bound
        assert not net.network_down
