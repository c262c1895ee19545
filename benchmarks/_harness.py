"""Shared helpers for the experiment benchmarks (E01-E15).

Every bench regenerates one figure/claim of the paper: it sweeps the
parameter the paper varies, prints the series as an aligned table (the
"rows of the figure") and asserts the qualitative shape that must hold.
Timing is captured with ``benchmark.pedantic(..., rounds=1)`` — the quantity
of interest is the simulation output, not wall-clock.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from repro.baselines import TPTConfig, TPTNetwork, choose_ttrt
from repro.campaign.aggregate import aligned_table
from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.phy import ConnectivityGraph, build_bfs_tree, ring_placement
from repro.sim import Engine

__all__ = ["print_table", "build_wrt", "build_tpt", "attach_saturation",
           "circle_graph", "run"]


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence]) -> None:
    """Aligned console table — the regenerated figure's data series."""
    print(f"\n=== {title} ===")
    print(aligned_table(headers, rows))


def circle_graph(n: int, margin: float = 2.0) -> ConnectivityGraph:
    pos = ring_placement(n, radius=30.0)
    import numpy as np
    radio_range = 2 * 30.0 * np.sin(np.pi / n) * margin
    return ConnectivityGraph(pos, radio_range)


def build_wrt(n: int, l: int, k: int, graph=None, channel=None,
              **cfg_kwargs) -> WRTRingNetwork:
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", False)
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, **cfg_kwargs)
    return WRTRingNetwork(engine, list(range(n)), cfg, graph=graph,
                          channel=channel)


def build_tpt(n: int, H: int, margin: float = 1.5, hop_slots: int = 1,
              graph=None, **cfg_kwargs) -> TPTNetwork:
    engine = Engine()
    if graph is None:
        graph = circle_graph(n, margin=3.0)
    children = build_bfs_tree(graph, root=0)
    ttrt = choose_ttrt([H] * n, 2 * (n - 1) * hop_slots, margin=margin)
    cfg = TPTConfig(H={i: H for i in range(n)}, ttrt=ttrt,
                    hop_slots=hop_slots, **cfg_kwargs)
    return TPTNetwork(engine, children, root=0, config=cfg, graph=graph)


def attach_saturation(net, seed: int = 0, rt: int = 15, be: int = 15,
                      neighbours_only: bool = False) -> None:
    """Keep every station's queues backlogged (worst-case load)."""
    rng = random.Random(seed)

    def top(t):
        members = net.members
        # successor map computed once per tick, not once per enqueue —
        # the per-enqueue members.index() lookup was O(N) and dominated
        # large-N saturation runs
        succ = _successor_map(net, members) if neighbours_only else None
        for sid in members:
            st = net.stations[sid]
            if not getattr(st, "alive", True):
                continue
            while len(st.rt_queue) < rt:
                dst = (succ[sid] if neighbours_only
                       else rng.choice([d for d in members if d != sid]))
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.PREMIUM, created=t), t)
            while len(st.be_queue) < be:
                dst = (succ[sid] if neighbours_only
                       else rng.choice([d for d in members if d != sid]))
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.BEST_EFFORT,
                                  created=t), t)
    net.add_tick_hook(top)


def _successor_map(net, members) -> Dict[int, int]:
    if hasattr(net, "successor"):
        return {sid: net.successor(sid) for sid in members}
    members = list(members)
    return {sid: members[(i + 1) % len(members)]
            for i, sid in enumerate(members)}


def run(net, horizon: float, profiler=None):
    """Drive ``net`` to ``horizon``; pass a :class:`repro.obs.Profiler`
    to capture the ``engine.run`` wall-clock span alongside the result."""
    if profiler is not None:
        from repro.obs import attach_run_profiling
        attach_run_profiling(net.engine, profiler)
    net.start()
    net.engine.run(until=horizon)
    return net
