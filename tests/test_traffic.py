"""Unit tests for flows, generators and workload composition."""

import random

import pytest

from repro.core import ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.events.types import PacketEnqueued
from repro.sim import Engine, RandomStreams
from repro.traffic import (BacklogSource, CBRSource, FlowSpec, OnOffSource,
                           PoissonSource, VideoSource, Workload)


def collecting_sink():
    packets = []
    return packets, packets.append


class _ScriptedRandom(random.Random):
    """Random stub whose ``expovariate`` replays a scripted sequence, for
    pinning a generator's ON/OFF phases exactly."""

    def __init__(self, draws):
        super().__init__(0)
        self._draws = list(draws)

    def expovariate(self, lambd):
        return self._draws.pop(0)


class TestFlowSpec:
    def test_packet_stamping(self):
        flow = FlowSpec(src=0, dst=3, service=ServiceClass.PREMIUM, deadline=20.0)
        p = flow.make_packet(100.0)
        assert p.src == 0 and p.dst == 3
        assert p.deadline == 120.0
        assert p.flow_id == flow.flow_id

    def test_no_deadline(self):
        flow = FlowSpec(src=0, dst=1)
        assert flow.make_packet(5.0).deadline is None

    def test_unique_flow_ids(self):
        a = FlowSpec(src=0, dst=1)
        b = FlowSpec(src=0, dst=1)
        assert a.flow_id != b.flow_id

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec(src=1, dst=1)
        with pytest.raises(ValueError):
            FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM, deadline=0.0)
        with pytest.raises(ValueError):
            FlowSpec(src=0, dst=1, service=ServiceClass.BEST_EFFORT,
                     deadline=10.0)


class TestCBR:
    def test_exact_period(self):
        eng = Engine()
        got, sink = collecting_sink()
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM, deadline=50)
        CBRSource(eng, flow, sink, period=10.0, start=5.0)
        eng.run(until=100.0)
        assert [p.created for p in got] == [5.0, 15.0, 25.0, 35.0, 45.0,
                                            55.0, 65.0, 75.0, 85.0, 95.0]

    def test_stop_time(self):
        eng = Engine()
        got, sink = collecting_sink()
        src = CBRSource(eng, FlowSpec(src=0, dst=1), sink, period=10.0,
                        stop=35.0)
        eng.run(until=100.0)
        assert src.generated == 4  # t = 0, 10, 20, 30

    def test_rate(self):
        eng = Engine()
        src = CBRSource(eng, FlowSpec(src=0, dst=1), lambda p: None, period=4.0)
        assert src.rate == 0.25

    def test_jitter_preserves_long_run_rate(self):
        eng = Engine()
        got, sink = collecting_sink()
        CBRSource(eng, FlowSpec(src=0, dst=1), sink, period=10.0, jitter=5.0,
                  rng=random.Random(0))
        eng.run(until=10_000.0)
        assert abs(len(got) - 1000) <= 2

    def test_validation(self):
        eng = Engine()
        flow = FlowSpec(src=0, dst=1)
        with pytest.raises(ValueError):
            CBRSource(eng, flow, lambda p: None, period=0.0)
        with pytest.raises(ValueError):
            CBRSource(eng, flow, lambda p: None, period=5.0, jitter=5.0,
                      rng=random.Random(0))
        with pytest.raises(ValueError):
            CBRSource(eng, flow, lambda p: None, period=5.0, jitter=1.0)
        with pytest.raises(ValueError):
            CBRSource(eng, flow, lambda p: None, period=5.0, start=-1.0)
        with pytest.raises(ValueError):
            CBRSource(eng, flow, lambda p: None, period=5.0, start=10.0,
                      stop=5.0)


class TestPoisson:
    def test_long_run_rate(self):
        eng = Engine()
        got, sink = collecting_sink()
        PoissonSource(eng, FlowSpec(src=0, dst=1), sink, rate=0.2,
                      rng=random.Random(1))
        eng.run(until=50_000.0)
        measured = len(got) / 50_000.0
        assert measured == pytest.approx(0.2, rel=0.05)

    def test_reproducible(self):
        def run(seed):
            eng = Engine()
            got, sink = collecting_sink()
            PoissonSource(eng, FlowSpec(src=0, dst=1), sink, rate=0.5,
                          rng=random.Random(seed))
            eng.run(until=100.0)
            return [p.created for p in got]
        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonSource(Engine(), FlowSpec(src=0, dst=1), lambda p: None,
                          rate=0.0, rng=random.Random(0))


class TestOnOff:
    def test_long_run_rate(self):
        eng = Engine()
        got, sink = collecting_sink()
        src = OnOffSource(eng, FlowSpec(src=0, dst=1), sink, peak_rate=1.0,
                          mean_on=50.0, mean_off=150.0, rng=random.Random(2))
        eng.run(until=100_000.0)
        assert src.rate == pytest.approx(0.25)
        assert len(got) / 100_000.0 == pytest.approx(0.25, rel=0.1)

    def test_burstiness(self):
        """On-off arrivals are burstier than Poisson at the same rate."""
        import numpy as np
        eng = Engine()
        got_oo, sink_oo = collecting_sink()
        OnOffSource(eng, FlowSpec(src=0, dst=1), sink_oo, peak_rate=1.0,
                    mean_on=100.0, mean_off=100.0, rng=random.Random(3))
        got_p, sink_p = collecting_sink()
        PoissonSource(eng, FlowSpec(src=0, dst=1), sink_p, rate=0.5,
                      rng=random.Random(4))
        eng.run(until=50_000.0)

        def window_var(packets):
            counts = np.zeros(500)
            for p in packets:
                idx = int(p.created // 100.0)
                if idx < 500:
                    counts[idx] += 1
            return counts.var()

        assert window_var(got_oo) > 2 * window_var(got_p)

    def test_validation(self):
        eng = Engine()
        flow = FlowSpec(src=0, dst=1)
        with pytest.raises(ValueError):
            OnOffSource(eng, flow, lambda p: None, peak_rate=0.0, mean_on=1,
                        mean_off=1, rng=random.Random(0))
        with pytest.raises(ValueError):
            OnOffSource(eng, flow, lambda p: None, peak_rate=1.0, mean_on=0,
                        mean_off=1, rng=random.Random(0))

    def test_stop_mid_burst(self):
        # scripted draws: ON lasts 100 slots with a packet every 10; the
        # stop lands inside the burst, and the generator must not emit
        # past it
        eng = Engine()
        got, sink = collecting_sink()
        src = OnOffSource(eng, FlowSpec(src=0, dst=1), sink, peak_rate=0.1,
                          mean_on=100.0, mean_off=100.0,
                          rng=_ScriptedRandom([100.0] + [10.0] * 20),
                          stop=45.0)
        eng.run(until=1000.0)
        assert [p.created for p in got] == [10.0, 20.0, 30.0, 40.0]
        assert src.generated == 4

    def test_stop_mid_silence(self):
        # ON burst of 10 slots (packets at 4 and 8), then a 100-slot
        # silence the stop lands in: nothing more may be emitted
        eng = Engine()
        got, sink = collecting_sink()
        src = OnOffSource(eng, FlowSpec(src=0, dst=1), sink, peak_rate=0.25,
                          mean_on=10.0, mean_off=100.0,
                          rng=_ScriptedRandom([10.0, 4.0, 4.0, 4.0, 100.0,
                                               100.0] + [4.0] * 20),
                          stop=50.0)
        eng.run(until=1000.0)
        assert [p.created for p in got] == [4.0, 8.0]
        assert src.generated == 2


class TestVideo:
    def test_gop_pattern_packet_counts(self):
        eng = Engine()
        got, sink = collecting_sink()
        VideoSource(eng, FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM,
                                  deadline=100.0),
                    sink, frame_interval=10.0,
                    packets_per_frame={"I": 5, "P": 3, "B": 1}, gop="IBBP")
        eng.run(until=39.0)   # 4 frames: I B B P
        assert len(got) == 5 + 1 + 1 + 3
        # frame bursts are back-to-back at frame boundaries
        assert [p.created for p in got[:5]] == [0.0] * 5

    def test_rate(self):
        eng = Engine()
        src = VideoSource(eng, FlowSpec(src=0, dst=1), lambda p: None,
                          frame_interval=10.0,
                          packets_per_frame={"I": 6, "P": 4, "B": 2},
                          gop="IBBPBBPBB")
        per_gop = 6 + 4 * 2 + 2 * 6
        assert src.rate == pytest.approx(per_gop / 90.0)

    def test_rate_matches_emitted_long_run(self):
        # the advertised long-run rate must agree with what the generator
        # actually emits over whole GoPs (the load-calibration contract)
        eng = Engine()
        got, sink = collecting_sink()
        src = VideoSource(eng, FlowSpec(src=0, dst=1), sink,
                          frame_interval=10.0)
        eng.run(until=899.0)    # 90 frames = 10 whole default GoPs
        assert src.generated == len(got)
        assert src.generated / 900.0 == pytest.approx(src.rate, rel=0.01)

    def test_validation(self):
        eng = Engine()
        flow = FlowSpec(src=0, dst=1)
        with pytest.raises(ValueError):
            VideoSource(eng, flow, lambda p: None, frame_interval=0.0)
        with pytest.raises(ValueError):
            VideoSource(eng, flow, lambda p: None, frame_interval=1.0, gop="XYZ")
        with pytest.raises(ValueError):
            VideoSource(eng, flow, lambda p: None, frame_interval=1.0,
                        gop="I", packets_per_frame={"I": 0})


class TestBacklogSource:
    def test_keeps_queue_topped(self):
        eng = Engine()
        cfg = WRTRingConfig.homogeneous(range(4), l=2, k=0, rap_enabled=False)
        net = WRTRingNetwork(eng, list(range(4)), cfg)
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM)
        src = BacklogSource(net, flow, target=7, rng=random.Random(0))
        net.add_tick_hook(src.on_tick)
        net.start()
        eng.run(until=200)
        # the queue is refilled every tick, so it always holds target minus
        # at most what was sent this round
        assert len(net.stations[0].rt_queue) >= 5
        assert src.generated > 50

    def test_stops_for_dead_station(self):
        eng = Engine()
        cfg = WRTRingConfig.homogeneous(range(4), l=1, k=0, rap_enabled=False)
        net = WRTRingNetwork(eng, list(range(4)), cfg)
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM)
        src = BacklogSource(net, flow, target=5, rng=random.Random(0))
        net.add_tick_hook(src.on_tick)
        net.start()
        eng.run(until=20)
        net.stations[0].alive = False
        before = src.generated
        eng.run(until=40)
        assert src.generated == before

    def test_validation(self):
        eng = Engine()
        cfg = WRTRingConfig.homogeneous(range(3), l=1, k=0, rap_enabled=False)
        net = WRTRingNetwork(eng, list(range(3)), cfg)
        with pytest.raises(ValueError):
            BacklogSource(net, FlowSpec(src=0, dst=1), target=0)


class TestWorkload:
    def make_net(self, n=5):
        eng = Engine()
        cfg = WRTRingConfig.homogeneous(range(n), l=2, k=2, rap_enabled=False)
        net = WRTRingNetwork(eng, list(range(n)), cfg)
        return eng, net

    def test_offered_load_accounting(self):
        eng, net = self.make_net()
        wl = Workload(net, RandomStreams(0))
        wl.add_cbr(FlowSpec(src=0, dst=1), period=10.0)
        wl.add_poisson(FlowSpec(src=1, dst=2), rate=0.05)
        wl.add_backlog(FlowSpec(src=2, dst=3,
                                service=ServiceClass.PREMIUM))
        assert wl.offered_load() == pytest.approx(0.15)

    def test_uniform_poisson_attaches_all_stations(self):
        eng, net = self.make_net()
        wl = Workload(net, RandomStreams(1))
        sources = wl.uniform_poisson(0.02)
        assert len(sources) == 5
        srcs = {s.flow.src for s in sources}
        assert srcs == set(range(5))

    def test_neighbours_only_destinations(self):
        eng, net = self.make_net()
        wl = Workload(net, RandomStreams(2))
        sources = wl.uniform_poisson(0.02, neighbours_only=True)
        for s in sources:
            assert s.flow.dst == net.successor(s.flow.src)

    def test_saturate_all_and_deliver(self):
        eng, net = self.make_net()
        wl = Workload(net, RandomStreams(3))
        wl.saturate_all(target=10)
        net.start()
        eng.run(until=500)
        assert net.metrics.total_delivered > 100
        assert wl.generated() > 100

    def test_end_to_end_delivery_via_workload(self):
        eng, net = self.make_net()
        wl = Workload(net, RandomStreams(4))
        wl.uniform_poisson(0.02, service=ServiceClass.PREMIUM, deadline=200.0)
        net.start()
        eng.run(until=3000)
        assert net.metrics.deadlines.met > 0
        assert net.metrics.deadlines.missed == 0


class TestPrefillBurst:
    """A prefill burst enters its source's queue in one step.  It must
    leave exactly what the per-packet entry funnel (``Workload._sink``,
    one packet at a time) leaves; with a ``PacketEnqueued`` subscriber it
    takes that funnel, so the subscriber sees the same event sequence."""

    #: (src, dst, service, deadline, count) on a 6-station ring where 4 is
    #: dead, 5 is leaving and 9 was never a member
    FLOWS = [(0, 1, ServiceClass.PREMIUM, 30.0, 7),
             (0, 3, ServiceClass.BEST_EFFORT, None, 5),
             (1, 2, ServiceClass.ASSURED, None, 4),
             (2, 3, ServiceClass.PREMIUM, None, 6),
             (4, 5, ServiceClass.PREMIUM, None, 3),
             (5, 0, ServiceClass.BEST_EFFORT, None, 2),
             (9, 0, ServiceClass.PREMIUM, None, 4)]

    def build(self):
        eng = Engine()
        cfg = WRTRingConfig.homogeneous(range(6), l=2, k=2,
                                        rap_enabled=False)
        net = WRTRingNetwork(eng, list(range(6)), cfg)
        net.kill_station(4)
        net.leave_gracefully(5)
        return eng, net, Workload(net, RandomStreams(0))

    def flows(self):
        return [(FlowSpec(src=src, dst=dst, service=svc, deadline=dl), n)
                for src, dst, svc, dl, n in self.FLOWS]

    @staticmethod
    def state(net, wl, pid0):
        def rows(queue):
            return [(p.pid - pid0, p.src, p.dst, p.service, p.created,
                     p.deadline, p.t_enqueue, p.flow_id) for p in queue]

        stations = {sid: ([rows(q) for q in (st.rt_queue, st.as_queue,
                                               st.be_queue, st.transit)],
                          dict(st.enqueued), st._nonsucc)
                    for sid, st in net.stations.items()}
        return stations, sorted(net._awake), wl.rejected_at_source

    def run_both(self, subscribe=None):
        """(burst state, funnel state, burst events, funnel events)."""
        flows = self.flows()
        out = []
        for burst in (True, False):
            eng, net, wl = self.build()
            events = []
            if subscribe is not None:
                subscribe(net, events)
            made = []
            if burst:
                sources = [wl.add_prefill(flow, n) for flow, n in flows]
                eng.run(until=0.0)
                made = [p for src in sources for p in src.packets]
                assert wl.generated() == sum(n for _, n in flows)
                assert [src.generated for src in sources] == [
                    n for _, n in flows]
            else:
                for flow, n in flows:
                    for _ in range(n):
                        made.append(flow.make_packet(eng.now))
                        wl._sink(made[-1])
            pid0 = made[0].pid
            assert [p.pid - pid0 for p in made] == list(range(len(made)))
            out.append((self.state(net, wl, pid0),
                        [(ev.t, ev.station, ev.packet.pid - pid0)
                         for ev in events]))
        (burst_state, burst_events), (funnel_state, funnel_events) = out
        return burst_state, funnel_state, burst_events, funnel_events

    def test_burst_matches_funnel(self):
        burst, funnel, _, _ = self.run_both()
        assert burst == funnel
        stations, awake, rejected = burst
        assert rejected == 3 + 2 + 4   # dead, leaving, non-member
        assert awake == [0, 1, 2]
        assert stations[0][2] == 5     # the best-effort flow skips 1

    def test_subscriber_sees_the_funnel_sequence(self):
        def subscribe(net, events):
            net.events.subscribe(PacketEnqueued, events.append)

        burst, funnel, burst_events, funnel_events = self.run_both(subscribe)
        assert burst == funnel
        assert burst_events == funnel_events
        assert len(burst_events) == 7 + 5 + 4 + 6

    def test_subscriber_acting_mid_burst(self):
        # a subscriber that kills station 0 at its third packet: the rest
        # of its bursts are refused at the source, packet by packet
        def subscribe(net, events):
            def on_enqueued(ev):
                events.append(ev)
                if ev.station == 0 and len(events) == 3:
                    net.kill_station(0)

            net.events.subscribe(PacketEnqueued, on_enqueued)

        burst, funnel, burst_events, funnel_events = self.run_both(subscribe)
        assert burst == funnel
        assert burst_events == funnel_events
        assert burst[2] == 4 + 5 + 3 + 2 + 4
