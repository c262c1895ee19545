"""Integration tests for the TPT baseline (Sec. 3.1)."""

import random

import pytest

from repro.baselines import TPTConfig, TPTNetwork, choose_ttrt
from repro.core import Packet, ServiceClass
from repro.phy import ConnectivityGraph, ring_placement
from repro.sim import Engine


def star_children(n):
    """Fig. 4(a)-style: root 0 with n-1 leaves."""
    children = {i: [] for i in range(n)}
    children[0] = list(range(1, n))
    return children


def chain_children(n):
    children = {i: [] for i in range(n)}
    for i in range(n - 1):
        children[i] = [i + 1]
    return children


def make_tpt(n=5, H=2, margin=2.0, children=None, **cfg_kwargs):
    engine = Engine()
    children = children if children is not None else star_children(n)
    walk = 2 * (n - 1)
    ttrt = choose_ttrt([H] * n, walk, margin=margin)
    cfg = TPTConfig(H={i: H for i in range(n)}, ttrt=ttrt, **cfg_kwargs)
    net = TPTNetwork(engine, children, root=0, config=cfg)
    return engine, net


def saturate(net, rng_seed=0, rt=10, be=10):
    rng = random.Random(rng_seed)

    def top(t):
        for sid, st in list(net.stations.items()):
            if not st.alive:
                continue
            while len(st.rt_queue) < rt:
                dst = rng.choice([d for d in net.members if d != sid])
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.PREMIUM, created=t), t)
            while len(st.be_queue) < be:
                dst = rng.choice([d for d in net.members if d != sid])
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.BEST_EFFORT,
                                  created=t), t)
    net.add_tick_hook(top)


class TestConstruction:
    def test_missing_H_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            TPTNetwork(engine, star_children(3), root=0,
                       config=TPTConfig(H={0: 1}, ttrt=20.0))

    def test_bad_root_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            TPTNetwork(engine, star_children(3), root=9,
                       config=TPTConfig(H={i: 1 for i in range(3)}, ttrt=20.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TPTConfig(H={}, ttrt=0.0)
        with pytest.raises(ValueError):
            TPTConfig(H={}, ttrt=10.0, hop_slots=0)
        with pytest.raises(ValueError):
            TPTConfig(H={}, ttrt=10.0, rap_enabled=True, t_rap=1)

    def test_walk_time(self):
        _, net = make_tpt(7)
        assert net.walk_time() == 12


class TestTokenCirculation:
    def test_hops_per_round_is_2n_minus_2(self):
        """Sec. 3.2.1 / Fig. 4a measured on the live protocol."""
        for n, children in ((4, star_children(4)), (5, chain_children(5))):
            engine, net = make_tpt(n, children=children)
            net.start()
            engine.run(until=60 * n)
            hops = net.rotation_log.hops_per_round()[1:]
            assert hops and all(h == 2 * (n - 1) for h in hops)

    def test_idle_rotation_equals_walk_time(self):
        engine, net = make_tpt(6)
        net.start()
        engine.run(until=500)
        samples = net.rotation_log.all_samples()
        assert samples and all(s == net.walk_time() for s in samples)

    def test_hop_slots_scale_walk(self):
        engine = Engine()
        n = 4
        cfg = TPTConfig(H={i: 1 for i in range(n)}, ttrt=60.0, hop_slots=3)
        net = TPTNetwork(engine, star_children(n), root=0, config=cfg)
        net.start()
        engine.run(until=500)
        assert net.rotation_log.all_samples()[-1] == 2 * (n - 1) * 3


class TestTimedTokenBehaviour:
    def test_rotation_never_exceeds_2ttrt(self):
        engine, net = make_tpt(6, H=2, margin=1.6)
        saturate(net)
        net.start()
        engine.run(until=8000)
        assert net.rotation_log.worst() <= 2 * net.config.ttrt

    def test_sync_capped_at_H_per_round(self):
        engine, net = make_tpt(4, H=3)
        saturate(net, be=0)
        net.start()
        engine.run(until=2000)
        for sid, st in net.stations.items():
            assert st.sent[ServiceClass.PREMIUM] <= st.token_visits * 3

    def test_only_token_holder_transmits(self):
        """Aggregate throughput can never exceed 1 packet/slot."""
        engine, net = make_tpt(6, H=3, margin=2.0)
        saturate(net)
        net.start()
        engine.run(until=4000)
        assert net.metrics.total_delivered <= 4000

    def test_async_squeezed_under_sync_load(self):
        engine, net = make_tpt(5, H=4, margin=1.2)
        saturate(net)
        net.start()
        engine.run(until=4000)
        sync = sum(st.sent[ServiceClass.PREMIUM] for st in net.stations.values())
        async_ = sum(st.sent[ServiceClass.BEST_EFFORT]
                     for st in net.stations.values())
        assert sync > async_

    def test_delivery_and_delays_recorded(self):
        engine, net = make_tpt(4)
        net.start()
        engine.run(until=50)
        t0 = engine.now
        p = Packet(src=1, dst=2, service=ServiceClass.PREMIUM, created=t0,
                   deadline=t0 + 4 * net.config.ttrt)
        net.enqueue(p)
        engine.run(until=t0 + 300)
        assert p.delivered
        assert net.metrics.deadlines.met == 1

    def test_enqueue_unknown_station_rejected(self):
        engine, net = make_tpt(3)
        with pytest.raises(KeyError):
            net.enqueue(Packet(src=9, dst=1, service=ServiceClass.PREMIUM,
                               created=0.0))


class TestTokenLoss:
    def test_injected_loss_reissued_without_rebuild(self):
        """Token lost but no station dead: the probe comes back and the
        token is re-issued (tree still valid)."""
        engine, net = make_tpt(5)
        net.start()
        engine.run(until=50)
        net.drop_token()
        engine.run(until=2000)
        [rec] = net.records
        assert rec.kind == "token_loss"
        assert rec.outcome == "token_reissued"
        assert sorted(net.members) == list(range(5))
        # rotations resume
        assert net.rotation_log.all_samples()[-1] == net.walk_time()

    def test_detection_within_2ttrt_plus_round(self):
        engine, net = make_tpt(5)
        net.start()
        engine.run(until=50)
        net.drop_token()
        engine.run(until=3000)
        [rec] = net.records
        assert rec.detection_delay <= 2 * net.config.ttrt + net.walk_time()

    def test_dead_station_forces_tree_rebuild(self):
        engine, net = make_tpt(6)
        net.start()
        engine.run(until=60)
        net.kill_station(3)
        engine.run(until=4000)
        [rec] = net.records
        assert rec.outcome == "rebuild"
        assert 3 not in net.members
        assert len(net.members) == 5
        # tree functional again
        t0 = engine.now
        p = Packet(src=1, dst=2, service=ServiceClass.PREMIUM, created=t0)
        net.enqueue(p)
        engine.run(until=t0 + 500)
        assert p.delivered

    def test_rebuild_uses_graph_when_available(self):
        n = 6
        pos = ring_placement(n, radius=30.0)
        graph = ConnectivityGraph(pos, 100.0)  # dense
        engine = Engine()
        ttrt = choose_ttrt([2] * n, 2 * (n - 1), margin=2.0)
        cfg = TPTConfig(H={i: 2 for i in range(n)}, ttrt=ttrt)
        net = TPTNetwork(engine, star_children(n), root=0, config=cfg,
                         graph=graph)
        net.start()
        engine.run(until=60)
        net.kill_station(2)
        engine.run(until=4000)
        assert 2 not in net.members
        assert not net.network_down

    def test_timers_quiet_when_healthy(self):
        engine, net = make_tpt(5, margin=2.5)
        saturate(net)
        net.start()
        engine.run(until=5000)
        assert net.records == []


class TestTPTJoin:
    def test_join_at_rap(self):
        engine, net = make_tpt(4, H=1, margin=3.0, rap_enabled=True, t_rap=6)
        net.start()
        engine.run(until=30)
        req = net.request_join(100, H_new=1, parent=0)
        engine.run(until=2000)
        assert req.accepted is True
        assert 100 in net.members
        assert req.t_joined is not None
        # tour now covers the new station
        assert 100 in net.tour

    def test_join_rejected_when_infeasible(self):
        engine, net = make_tpt(4, H=2, margin=1.05, rap_enabled=True, t_rap=6)
        net.start()
        engine.run(until=30)
        req = net.request_join(100, H_new=50, parent=0)
        engine.run(until=2000)
        assert req.accepted is False
        assert "Eq.7" in req.reason
        assert 100 not in net.members

    def test_join_requires_known_parent(self):
        engine, net = make_tpt(3, rap_enabled=True, t_rap=6)
        with pytest.raises(KeyError):
            net.request_join(100, H_new=1, parent=77)
        with pytest.raises(ValueError):
            net.request_join(0, H_new=1, parent=0)

    def test_rap_pauses_affect_rotation(self):
        engine, net = make_tpt(4, H=1, margin=3.0, rap_enabled=True, t_rap=8)
        net.start()
        engine.run(until=1000)
        assert net.raps_opened > 5
        # idle rotations now include the T_rap pause at the root
        tail = net.rotation_log.all_samples()[-5:]
        assert all(s >= net.walk_time() for s in tail)
        assert max(tail) >= net.walk_time() + 8
