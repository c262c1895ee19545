"""Workload composition: attach flow sets to a network and account load.

A :class:`Workload` owns the generators of one scenario, exposes the total
offered load (packets/slot) and convenience constructors for the canonical
mixes used by the experiments (uniform any-to-any, neighbour-only, per-class
mixes).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.packet import ServiceClass
from repro.sim.rng import RandomStreams
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import (BacklogSource, CBRSource, OnOffSource,
                                      PoissonSource, PrefillSource,
                                      TraceSource, VideoSource)

__all__ = ["Workload", "uniform_destinations"]


def uniform_destinations(members: Sequence[int], src: int,
                         rng: random.Random) -> int:
    """Pick a destination uniformly among the other members."""
    candidates = [m for m in members if m != src]
    if not candidates:
        raise ValueError("no destination available")
    return rng.choice(candidates)


class Workload:
    """The traffic attached to one simulated network."""

    def __init__(self, network, streams: Optional[RandomStreams] = None):
        self.network = network
        self.streams = streams if streams is not None else RandomStreams(0)
        self.sources: List[object] = []
        #: packets refused at the source because the station has left the
        #: network (the MAC returns an error to the application)
        self.rejected_at_source = 0

    def _sink(self, pkt) -> None:
        net = self.network
        st = net.stations.get(pkt.src)
        if pkt.src not in net._pos or st is None or not st.alive or st.leaving:
            self.rejected_at_source += 1
            return
        net.enqueue(pkt)

    def _sink_burst(self, pkts) -> None:
        """Hand one flow's burst to its source station in one step.  With
        no ``PacketEnqueued`` subscriber no Python code runs between two
        enqueues, so the source check holds for the whole burst; with
        one, each packet takes :meth:`_sink` as a packet of any other
        source does."""
        net = self.network
        src = pkts[0].src
        st = net.stations.get(src)
        if net._ev_enqueued:
            for pkt in pkts:
                self._sink(pkt)
        elif src not in net._pos or st is None or not st.alive or st.leaving:
            self.rejected_at_source += len(pkts)
        else:
            st.enqueue_burst(pkts, net.engine.now)

    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self.network.engine

    def offered_load(self) -> float:
        """Aggregate long-run offered load, packets/slot (BacklogSources are
        saturating and excluded — they have no finite rate)."""
        total = 0.0
        for src in self.sources:
            rate = getattr(src, "rate", None)
            if rate is not None:
                total += rate
        return total

    def generated(self) -> int:
        return sum(s.generated for s in self.sources)

    # ------------------------------------------------------------------
    # attachment helpers
    # ------------------------------------------------------------------
    def add_cbr(self, flow: FlowSpec, period: float, **kwargs) -> CBRSource:
        src = CBRSource(self.engine, flow, self._sink, period, **kwargs)
        self.sources.append(src)
        return src

    def _stream_name(self, prefix: str, flow: FlowSpec) -> str:
        # keyed by attachment order and endpoints, NOT the process-global
        # flow id — so two identically-built workloads draw identical
        # sample paths regardless of what else ran in the process
        return f"{prefix}.{len(self.sources)}.{flow.src}.{flow.dst}"

    def add_poisson(self, flow: FlowSpec, rate: float, **kwargs) -> PoissonSource:
        rng = kwargs.pop("rng", None) or self.streams.stream(
            self._stream_name("poisson", flow))
        src = PoissonSource(self.engine, flow, self._sink, rate,
                            rng=rng, **kwargs)
        self.sources.append(src)
        return src

    def add_onoff(self, flow: FlowSpec, peak_rate: float, mean_on: float,
                  mean_off: float, **kwargs) -> OnOffSource:
        rng = kwargs.pop("rng", None) or self.streams.stream(
            self._stream_name("onoff", flow))
        src = OnOffSource(self.engine, flow, self._sink, peak_rate,
                          mean_on, mean_off, rng=rng, **kwargs)
        self.sources.append(src)
        return src

    def add_video(self, flow: FlowSpec, frame_interval: float, **kwargs) -> VideoSource:
        src = VideoSource(self.engine, flow, self._sink,
                          frame_interval, **kwargs)
        self.sources.append(src)
        return src

    def add_trace(self, flow: FlowSpec, arrival_times) -> TraceSource:
        src = TraceSource(self.engine, flow, self._sink, arrival_times)
        self.sources.append(src)
        return src

    def add_prefill(self, flow: FlowSpec, count: int) -> PrefillSource:
        src = PrefillSource(self.engine, flow, self._sink_burst, count)
        self.sources.append(src)
        return src

    def add_backlog(self, flow: FlowSpec, target: int = 20,
                    destinations: Optional[Sequence[int]] = None,
                    rng: Optional[random.Random] = None) -> BacklogSource:
        rng = rng or self.streams.stream(self._stream_name("backlog", flow))
        src = BacklogSource(self.network, flow, target=target,
                            destinations=destinations, rng=rng)
        self.network.add_tick_hook(src.on_tick)
        self.sources.append(src)
        return src

    # ------------------------------------------------------------------
    # canonical scenario mixes
    # ------------------------------------------------------------------
    def saturate_all(self, service: ServiceClass = ServiceClass.PREMIUM,
                     target: int = 20,
                     deadline: Optional[float] = None) -> List[BacklogSource]:
        """Every station saturated with ``service`` traffic to random peers —
        the worst-case pattern for the Sec. 2.6 bound experiments."""
        out = []
        for sid in list(self.network.members):
            dst = next(m for m in self.network.members if m != sid)
            flow = FlowSpec(src=sid, dst=dst, service=service, deadline=deadline)
            out.append(self.add_backlog(flow, target=target))
        return out

    def uniform_poisson(self, rate_per_station: float,
                        service: ServiceClass = ServiceClass.BEST_EFFORT,
                        deadline: Optional[float] = None,
                        neighbours_only: bool = False) -> List[PoissonSource]:
        """One Poisson flow per station.  With ``neighbours_only`` each
        station sends to its ring successor (the pattern that maximizes
        spatial-reuse gain); otherwise destinations are fixed uniformly at
        attachment time."""
        out = []
        members = list(self.network.members)
        pick_rng = self.streams.stream("uniform_poisson.dst")
        for sid in members:
            if neighbours_only:
                dst = self.network.successor(sid)
            else:
                dst = uniform_destinations(members, sid, pick_rng)
            flow = FlowSpec(src=sid, dst=dst, service=service, deadline=deadline)
            out.append(self.add_poisson(flow, rate_per_station))
        return out
