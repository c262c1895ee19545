"""E08 — Theorem 3: the tagged-packet network-access-delay bound.

A tagged real-time packet is injected behind x queued packets at a station
whose ring is otherwise adversarially saturated; the measured wait is
compared to ``SAT_TIME[⌈(x+1)/l⌉+1]``, sweeping the backlog x and the quota
l.

Shape to hold: every tagged wait is within its bound; the bound staircase
grows with x and shrinks with l (more guaranteed quota -> fewer rounds to
drain the backlog).
"""

import random

from repro.analysis import access_delay_bound
from repro.core import Packet, ServiceClass

from _harness import build_wrt, print_table, run

N, K = 5, 2
EPOCHS = 12


def tagged_waits(l, backlog):
    net = build_wrt(N, l, K)
    rng = random.Random(backlog * 7 + l)

    # all stations but 0 saturated
    def top(t):
        for sid in net.members:
            if sid == 0:
                continue
            st = net.stations[sid]
            while len(st.rt_queue) < 15:
                dst = rng.choice([d for d in net.members if d != sid])
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.PREMIUM, created=t), t)
            while len(st.be_queue) < 15:
                dst = rng.choice([d for d in net.members if d != sid])
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.BEST_EFFORT,
                                  created=t), t)
    net.add_tick_hook(top)
    run(net, 500)
    engine = net.engine
    bound = access_delay_bound(backlog, l, N, 0, [(l, K)] * N)
    waits = []
    for _ in range(EPOCHS):
        t0 = engine.now
        st0 = net.stations[0]
        for _ in range(backlog):
            st0.enqueue(Packet(src=0, dst=2, service=ServiceClass.PREMIUM,
                               created=t0), t0)
        tagged = Packet(src=0, dst=2, service=ServiceClass.PREMIUM,
                        created=t0)
        st0.enqueue(tagged, t0)
        engine.run(until=t0 + bound + 5)
        assert tagged.t_send is not None
        waits.append(tagged.t_send - tagged.t_enqueue)
        engine.run(until=engine.now + 60)
    return max(waits), bound


def test_e08_backlog_sweep(benchmark):
    l = 2
    backlogs = [0, 1, 2, 4, 8]

    def sweep():
        return [tagged_waits(l, x) for x in backlogs]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[x, f"{w:.0f}", f"{b:.0f}", f"{w / b:.0%}"]
            for x, (w, b) in zip(backlogs, results)]
    print_table(f"E08 / Thm 3: tagged RT packet wait vs backlog x "
                f"(N={N}, l={l}, k={K}, worst of {EPOCHS} epochs)",
                ["x", "worst wait", "bound", "tightness"],
                rows)
    for x, (w, b) in zip(backlogs, results):
        assert w <= b, f"Theorem 3 violated at x={x}"
    bounds = [b for _, b in results]
    assert bounds == sorted(bounds)   # staircase grows with x


def test_e08_quota_sweep(benchmark):
    backlog = 6

    def sweep():
        return [(l, *tagged_waits(l, backlog)) for l in (1, 2, 3, 6)]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[l, f"{w:.0f}", f"{b:.0f}"] for l, w, b in results]
    print_table(f"E08b / Thm 3: tagged wait vs guaranteed quota l (x={backlog})",
                ["l", "worst wait", "bound"], rows)
    for l, w, b in results:
        assert w <= b
    # more quota -> fewer rounds needed: waits trend down from l=1 to l=6
    assert results[-1][1] < results[0][1]
