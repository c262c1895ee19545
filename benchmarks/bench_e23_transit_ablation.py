"""E23 (ablation) — is the buffer-insertion discipline load-bearing?

DESIGN.md asserts that WRT-Ring's unstated substrate — the MetaRing
buffer-insertion dataplane, where *transit traffic is forwarded before the
station's own insertions* — is what the Sec. 2.6 analysis rests on.  This
ablation inverts the discipline (`transit_priority=False`: own packets
first) and measures what actually breaks under the SAT-chaser adversary.

The result is sharper than the naive expectation:

* the **SAT rotation bound survives either way** — Theorem 1 only counts
  transmissions, and an own-first station spends its quota *faster*;
* what breaks is **forwarding progress**: with own-first, saturated
  stations starve their insertion buffers, transit backlog grows without
  bound (livelock for anything that needs more than one hop), and
  end-to-end delivery collapses — while the paper's discipline keeps the
  transit backlog at O(1) per station forever.

So the discipline is load-bearing for *bounded delivery*, and Theorem 3's
access-delay guarantee is only useful because of it.
"""

from repro.analysis import sat_rotation_bound_homogeneous
from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.sim import Engine

from _harness import print_table

N, L, K = 6, 2, 2
HORIZON = 8_000


def run_discipline(transit_priority):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(N), l=L, k=K, rap_enabled=False,
                                    transit_priority=transit_priority)
    net = WRTRingNetwork(engine, list(range(N)), cfg)
    max_transit = {"value": 0}

    def chaser(t):
        sat = net.sat
        target = sat.in_flight_to if sat.in_flight else sat.at_station
        for sid in net.members:
            st = net.stations[sid]
            far = net.members[(net._pos[sid] + N // 2) % N]
            rt_goal = 2 * L if sid == target else 0
            while len(st.rt_queue) < rt_goal:
                st.enqueue(Packet(src=sid, dst=far,
                                  service=ServiceClass.PREMIUM, created=t), t)
            while len(st.be_queue) < 2 * K:
                st.enqueue(Packet(src=sid, dst=far,
                                  service=ServiceClass.BEST_EFFORT,
                                  created=t), t)
            max_transit["value"] = max(max_transit["value"], len(st.transit))
    net.add_tick_hook(chaser)
    net.start()
    engine.run(until=HORIZON)
    samples = net.rotation_log.all_samples()
    return {
        "worst_rotation": max(samples),
        "bound": sat_rotation_bound_homogeneous(N, L, K),
        "max_transit": max_transit["value"],
        "delivered": net.metrics.total_delivered,
        "stuck_in_transit": sum(len(net.stations[s].transit)
                                for s in net.members),
    }


def test_e23_transit_priority_ablation(benchmark):
    def sweep():
        return {"transit-first (paper)": run_discipline(True),
                "own-first (inverted)": run_discipline(False)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for label, m in results.items():
        rows.append([label, f"{m['worst_rotation']:.0f}", f"{m['bound']:.0f}",
                     m["max_transit"], m["delivered"],
                     m["stuck_in_transit"]])
    print_table(f"E23: buffer-insertion discipline ablation "
                f"(N={N}, SAT-chaser adversary, {HORIZON} slots)",
                ["discipline", "worst rotation", "Thm-1 bound",
                 "max transit backlog", "delivered", "stuck in transit"],
                rows)

    paper = results["transit-first (paper)"]
    inverted = results["own-first (inverted)"]
    # the access bound holds under BOTH disciplines (it counts transmissions)
    assert paper["worst_rotation"] < paper["bound"]
    assert inverted["worst_rotation"] < inverted["bound"]
    # the paper's discipline keeps forwarding progress O(1)...
    assert paper["max_transit"] <= 3
    assert paper["stuck_in_transit"] <= 3 * N
    # ...while own-first livelocks multi-hop traffic: unbounded transit
    # accumulation and collapsed delivery
    assert inverted["max_transit"] > 100 * paper["max_transit"]
    assert inverted["stuck_in_transit"] > 1000
    assert inverted["delivered"] < paper["delivered"]
