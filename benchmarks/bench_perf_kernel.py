"""Performance microbenchmarks of the simulation substrate.

Unlike the E-series (which regenerate paper results), these time the hot
paths — the event loop, the ring tick, the channel resolver — with real
multi-round statistics, so regressions in the kernel show up in CI.

Baseline figures on a laptop-class core: the engine sustains >1M events/s,
a saturated 16-station ring >50k slot-ticks/s, the channel resolver >100k
frame-resolutions/s.  The assertions are set an order of magnitude below
those to stay robust on slow machines while still catching complexity
regressions (e.g. an accidentally quadratic agenda).
"""

import random

from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.phy import ConnectivityGraph, Frame, SlottedChannel, ring_placement
from repro.sim import Engine


def test_perf_engine_event_throughput(benchmark):
    """Schedule+execute 20k chained events."""
    def run():
        engine = Engine()
        count = 20_000

        def chain(i):
            if i < count:
                engine.schedule(1.0, chain, i + 1)
        engine.schedule(0.0, chain, 0)
        engine.run()
        return engine.events_executed

    executed = benchmark(run)
    assert executed == 20_001
    # > 100k events/s even on slow machines
    assert benchmark.stats["mean"] < 0.2


def test_perf_engine_heap_scaling(benchmark):
    """10k events pre-loaded in random order: the agenda must stay O(log n)."""
    rng = random.Random(0)
    delays = [rng.uniform(0, 1000) for _ in range(10_000)]

    def run():
        engine = Engine()
        for d in delays:
            engine.schedule(d, lambda: None)
        engine.run()
        return engine.events_executed

    executed = benchmark(run)
    assert executed == 10_000
    assert benchmark.stats["mean"] < 0.2


def test_perf_saturated_ring_ticks(benchmark):
    """2k slots of a fully saturated 16-station ring."""
    def run():
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(16), l=2, k=2,
                                        rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(16)), cfg)
        rng = random.Random(1)

        def top(t):
            for sid in net.members:
                st = net.stations[sid]
                while len(st.rt_queue) < 5:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=2000)
        return net.metrics.total_delivered

    delivered = benchmark(run)
    assert delivered > 1000
    assert benchmark.stats["mean"] < 2.0   # > 1k slot-ticks/s of 16 stations


def _backlogged_ring(n=32, rt_per_station=700, be_per_station=350):
    """A fully backlogged n-station ring: every station holds a
    successor-addressed queue (the vectorized saturated path's gate)."""
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    return engine, net, cfg


def _prefill_successor(net, rt_per_station, be_per_station):
    for sid in net.members:
        st = net.stations[sid]
        dst = net.successor(sid)
        for _ in range(rt_per_station):
            st.enqueue(Packet(src=sid, dst=dst,
                              service=ServiceClass.PREMIUM, created=0.0), 0.0)
        for _ in range(be_per_station):
            st.enqueue(Packet(src=sid, dst=dst,
                              service=ServiceClass.BEST_EFFORT, created=0.0),
                       0.0)


def test_perf_saturated_window_vectorized(benchmark):
    """10k slots of a fully backlogged 32-station ring under the batched
    kernel's analytic SAT-window path (trace off, RAP off).

    The acceptance target for this regime is >= 5x the scalar slot rate
    on the same configuration (see ``saturated_slot_rate`` in the gated
    perf suite); the assertion here is set far below the measured rate to
    stay robust on slow machines.
    """
    from repro.kernel import install_batched_kernel

    def run():
        engine, net, _ = _backlogged_ring()
        kernel = install_batched_kernel(net)
        net.start()
        _prefill_successor(net, 700, 350)
        engine.run(until=10_000)
        return kernel

    kernel = benchmark(run)
    # the analytic path must carry virtually the whole horizon
    assert kernel.sat_windows > 0
    assert kernel.sat_slots > 9_000
    assert benchmark.stats["mean"] < 2.0   # > 5k slot-ticks/s of 32 stations


def test_perf_dataplane_decide_layer(benchmark):
    """2k decision-layer passes over a backlogged 32-station ring.

    ``_decide_slot`` is the pure half of the ``_tick_body`` split: it
    visits the awake stations (every station here: each holds a backlog)
    and writes their class picks into a preallocated buffer without
    popping queues or emitting, so repeated calls are side-effect free
    and must not allocate per tick.
    """
    engine, net, _ = _backlogged_ring()
    net.start()
    _prefill_successor(net, 5, 3)
    members = [net.stations[sid] for sid in net.order]
    buffer_before = net._slot_picks
    occupied_before = net._slot_occupied

    def run():
        for _ in range(2000):
            net._decide_slot(members)
        return net._slot_picks

    buffer_after = benchmark(run)
    # the picks buffer and the occupied list are reused, never rebuilt
    # per tick
    assert buffer_after is buffer_before
    assert net._slot_occupied is occupied_before
    # every pass decided every position: a Premium send at each station
    assert net._slot_occupied == list(range(len(members)))
    assert set(buffer_after) == {0}
    assert benchmark.stats["mean"] < 1.0


def test_perf_trace_select_indexed(benchmark):
    """select() on a crowded trace must be O(matches), not O(events).

    100k events across 100 categories; selecting one rare category (10
    events) must not pay for the other 99,990.  Before the per-category
    index this was a full linear scan per call — ~1000x more work than
    the matches justify.
    """
    from repro.sim.trace import TraceRecorder

    trace = TraceRecorder()
    for i in range(100_000):
        # category 0 is rare (10 events); the rest absorb the bulk
        category = f"cat.{i % 100}" if i % 10_000 else "cat.rare"
        trace.record(float(i), category, i=i)

    def run():
        total = 0
        for _ in range(1000):
            total += len(trace.select(category="cat.rare"))
        return total

    total = benchmark(run)
    assert total == 1000 * 10
    # 1000 indexed selects of 10 events each: sub-millisecond-per-call
    # territory; a linear scan of 100k events per call blows well past this
    assert benchmark.stats["mean"] < 0.5


def test_perf_channel_resolution(benchmark):
    """1k slots x 16 concurrent frames through the collision resolver."""
    pos = ring_placement(16, radius=30.0)
    graph = ConnectivityGraph(pos, 200.0)   # dense: worst case for resolver

    def run():
        ch = SlottedChannel(graph)
        for sid in range(16):
            ch.register_listener(sid, {sid})
        delivered = 0
        for t in range(1000):
            for sid in range(16):
                ch.transmit(Frame(src=sid, code=(sid + 1) % 16, payload=t))
            out = ch.resolve_slot(float(t))
            delivered += sum(len(v) for v in out.values())
        return delivered

    delivered = benchmark(run)
    assert delivered == 16_000
    assert benchmark.stats["mean"] < 2.0
