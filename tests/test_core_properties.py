"""Hypothesis property tests over the live WRT-Ring dataplane.

Random flow sets, quotas and horizons — the properties that must hold for
*every* configuration:

* delivery completeness: with finite offered traffic and an intact ring,
  everything eventually arrives;
* delay floor: a packet can never arrive faster than its hop distance;
* conservation: delivered + queued + transit + terminal = enqueued;
* fairness of the guaranteed class under symmetric saturation;
* per-flow accounting consistency (flow_report vs network metrics).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis import flow_report, jain_fairness
from repro.core import (Packet, ServiceClass, WRTRingConfig, WRTRingNetwork)
from repro.sim import Engine
from repro.traffic import Workload


def ring(n, l, k):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, rap_enabled=False)
    return engine, WRTRingNetwork(engine, list(range(n)), cfg)


def hop_distance(net, src, dst):
    return (net._pos[dst] - net._pos[src]) % net.n


class TestDeliveryProperties:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=3, max_value=10),
           l=st.integers(min_value=1, max_value=3),
           k=st.integers(min_value=0, max_value=3),
           seed=st.integers(min_value=0, max_value=9999),
           batch=st.integers(min_value=1, max_value=40))
    def test_finite_traffic_fully_delivered(self, n, l, k, seed, batch):
        engine, net = ring(n, l, k)
        rng = random.Random(seed)
        net.start()
        engine.run(until=5)
        packets = []
        # only classes with a non-zero quota can ever be served (a k=0
        # station legitimately never transmits best-effort)
        classes = [ServiceClass.PREMIUM] if l > 0 else []
        if k > 0:
            classes.append(ServiceClass.BEST_EFFORT)
        for _ in range(batch):
            src = rng.randrange(n)
            dst = rng.choice([d for d in range(n) if d != src])
            p = Packet(src=src, dst=dst, service=rng.choice(classes),
                       created=engine.now)
            net.enqueue(p)
            packets.append(p)
        # generous horizon: every batch must drain on an intact ring
        engine.run(until=engine.now + 50 * batch + 50 * n)
        assert all(p.delivered for p in packets)
        assert net.metrics.total_delivered == batch
        assert net.metrics.lost == 0 and net.metrics.orphaned == 0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=3, max_value=10),
           seed=st.integers(min_value=0, max_value=9999))
    def test_delay_floor_is_hop_distance(self, n, seed):
        engine, net = ring(n, l=2, k=1)
        rng = random.Random(seed)
        net.start()
        engine.run(until=5)
        packets = []
        for _ in range(10):
            src = rng.randrange(n)
            dst = rng.choice([d for d in range(n) if d != src])
            p = Packet(src=src, dst=dst, service=ServiceClass.PREMIUM,
                       created=engine.now)
            net.enqueue(p)
            packets.append(p)
        engine.run(until=engine.now + 600 + 50 * n)
        for p in packets:
            assert p.delivered
            hops = hop_distance(net, p.src, p.dst)
            assert p.t_deliver - p.t_send >= hops
            assert p.end_to_end_delay >= hops

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=3, max_value=8),
           l=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=999),
           horizon=st.integers(min_value=200, max_value=1500))
    def test_conservation_at_any_stop_time(self, n, l, seed, horizon):
        engine, net = ring(n, l, 1)
        rng = random.Random(seed)

        def top(t):
            for sid in net.members:
                st_ = net.stations[sid]
                if rng.random() < 0.4 and len(st_.rt_queue) < 6:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st_.enqueue(Packet(src=sid, dst=dst,
                                       service=ServiceClass.PREMIUM,
                                       created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=horizon)
        enqueued = sum(sum(s.enqueued.values()) for s in net.stations.values())
        queued = sum(s.queue_length() for s in net.stations.values())
        transit = sum(len(s.transit) for s in net.stations.values())
        terminal = (net.metrics.total_delivered + net.metrics.lost
                    + net.metrics.orphaned)
        assert queued + transit + terminal == enqueued


class TestFairnessProperty:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=3, max_value=9),
           l=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=999))
    def test_rt_fairness_under_symmetric_saturation(self, n, l, seed):
        engine, net = ring(n, l, 1)
        rng = random.Random(seed)

        def top(t):
            for sid in net.members:
                st_ = net.stations[sid]
                while len(st_.rt_queue) < 2 * l:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st_.enqueue(Packet(src=sid, dst=dst,
                                       service=ServiceClass.PREMIUM,
                                       created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=2500)
        shares = [net.stations[s].sent[ServiceClass.PREMIUM]
                  for s in net.members]
        assert jain_fairness(shares) > 0.99


class TestFlowReportConsistency:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=4, max_value=8),
           rate=st.floats(min_value=0.005, max_value=0.05),
           seed=st.integers(min_value=0, max_value=999))
    def test_flow_report_matches_network_metrics(self, n, rate, seed):
        engine, net = ring(n, 2, 2)
        from repro.sim import RandomStreams
        wl = Workload(net, RandomStreams(seed))
        wl.uniform_poisson(rate, service=ServiceClass.PREMIUM)
        net.start()
        engine.run(until=3000)
        report = flow_report(wl.sources)
        assert len(report) == n
        total_delivered = sum(r["delivered"] for r in report.values())
        assert total_delivered == net.metrics.total_delivered
        for r in report.values():
            assert r["delivered"] <= r["generated"]
            assert r["deadline_misses"] == 0
