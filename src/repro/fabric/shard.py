"""One ring of the fabric: a full WRT-Ring stack plus its gateway buffers.

A :class:`RingShard` owns an independent engine/network/trace built from
the topology's per-ring scenario (seeded via ``RandomStreams.derive`` per
ring, so shards are reproducible in isolation).  Cross-ring traffic enters
and leaves only through the shard's *gateway out-buffers*: frames arriving
at an egress gateway station are parked there until the runner's next
barrier, when they are drained in canonical order and handed to the
neighbouring shard.  Because rings interact **only** at these buffers, a
shard can safely advance a whole synchronization window on its own — in a
worker process or inline — without ever seeing a neighbour's clock.

Determinism: everything a shard does is a function of (topology, ring id,
injected frame sequence).  Frames are identified by ``(flow, seq)``; the
process-global ``Packet.pid`` is used only *inside* the shard as a
transient key and never crosses a boundary or lands in a trace record.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.sweep import canonical_json
from repro.core.packet import Packet
from repro.events.bus import NULL_EMITTER
from repro.events.types import (GatewayBuffer, GatewayDrop, GatewayForward,
                                PacketLost, PacketOrphaned, SlotDeliver)
from repro.fabric.frames import FabricFrame
from repro.fabric.topology import Resolution, Topology
from repro.scenarios import build_scenario
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder

__all__ = ["RingShard"]


class _FramePacket:
    """Packet-shaped shim for gateway events when no ring packet exists
    (a frame buffered or destroyed without a ring leg); carries only the
    pid-free fields the trace adapter renders."""

    __slots__ = ("src", "dst", "service")

    def __init__(self, src: int, dst: int, service) -> None:
        self.src = src
        self.dst = dst
        self.service = service


class RingShard:
    """One ring of the fabric plus its cross-ring buffers and flow sources."""

    _ev_forward = NULL_EMITTER
    _ev_drop = NULL_EMITTER
    _ev_buffer = NULL_EMITTER

    def __init__(self, topo: Topology, ring: int, trace: bool = True,
                 observe: bool = False, timeline: bool = False,
                 resolution: Optional[Resolution] = None):
        """``resolution`` is the topology's :class:`Resolution`, shared by
        every shard a runner builds; without one the shard resolves the
        topology itself."""
        self.topo = topo
        self.ring = ring
        recorder = TraceRecorder()
        if not trace:
            # record nothing: switched off before the network attaches its
            # trace adapter, which then subscribes no rendering, so no
            # emit site renders a record to discard
            recorder.enable_only(())
        self.result = build_scenario(topo.ring_scenario(ring), recorder)
        self.net = self.result.network
        self.engine = self.result.engine
        self.trace = self.result.trace
        if trace and timeline:
            # the opt-in categories behind the timeline's SAT-hold and
            # slot-occupancy tracks
            from repro.obs.timeline import enable_timeline_categories
            enable_timeline_categories(self.trace)
        if resolution is None:
            resolution = Resolution(topo)
        #: neighbour ring -> gateway link
        self.links = dict(resolution.neighbours[ring])
        #: neighbour ring -> [(frame, t_buffered), ...]
        self.out_buffers: Dict[int, List[Tuple[FabricFrame, float]]] = {
            nb: [] for nb in self.links}
        #: ring-leg tracking: Packet.pid -> (frame, leg entry time)
        self._pending: Dict[int, Tuple[FabricFrame, float]] = {}

        # fabric-level accounting (per shard; the runner aggregates)
        self.frames_created = 0
        self.frames_completed = 0
        self.deadline_misses = 0
        self.gw_forwards = 0
        self.drops: Dict[str, int] = {"overflow": 0, "ttl": 0,
                                      "ring_loss": 0, "no_member": 0}
        #: flow -> {"completed", "misses", "delay_sum", "delay_max"}
        self.flow_stats: Dict[int, Dict[str, float]] = {}
        #: completed frames terminating here: [flow, seq, t, delay, miss,
        #: hop_log] in completion order
        self.completions: List[List[Any]] = []

        # flow sources rooted on this ring; arrival streams derive from
        # the *fabric* seed so they are identical in every execution mode
        streams = RandomStreams(topo.seed)
        self._sources: List[Dict[str, Any]] = []
        for idx, flow in enumerate(resolution.flows):
            if flow.src_ring != ring:
                continue
            stream = streams.stream(f"fabric.arrivals:{idx}")
            if flow.kind == "cbr":
                first = flow.period
            else:
                first = stream.expovariate(flow.rate)
            self._sources.append({
                "idx": idx, "flow": flow,
                "route": resolution.route(flow.src_ring, flow.dst_ring),
                "stream": stream, "next": first, "seq": 0})
        if self._sources:
            self.net.add_tick_hook(self._on_tick)

        bus = self.net.events
        bus.subscribe(SlotDeliver, self._on_deliver)
        bus.subscribe(PacketLost, self._on_ring_loss)
        bus.subscribe(PacketOrphaned, self._on_ring_loss)
        bus.add_binder(self._bind_emitters)

        self.registry = None
        if observe:
            from repro.obs.integrate import attach_network_metrics
            from repro.obs.registry import MetricsRegistry
            self.registry = MetricsRegistry()
            attach_network_metrics(self.net, self.registry)

    def _bind_emitters(self) -> None:
        bus = self.net.events
        self._ev_forward = bus.emitter(GatewayForward)
        self._ev_drop = bus.emitter(GatewayDrop)
        self._ev_buffer = bus.emitter(GatewayBuffer)

    # ------------------------------------------------------------------
    # flow sources
    # ------------------------------------------------------------------
    def _on_tick(self, t: float) -> None:
        for src in self._sources:
            flow = src["flow"]
            while src["next"] <= t:
                self._launch(src, t)
                if flow.kind == "cbr":
                    src["next"] += flow.period
                else:
                    src["next"] += src["stream"].expovariate(flow.rate)

    def _launch(self, src: Dict[str, Any], t: float) -> None:
        flow = src["flow"]
        frame = FabricFrame(
            flow=src["idx"], seq=src["seq"],
            src_ring=flow.src_ring, src_station=flow.src_station,
            dst_ring=flow.dst_ring, dst_station=flow.dst_station,
            service=flow.service, created=t,
            deadline=(t + flow.deadline) if flow.deadline is not None else None,
            route=src["route"])
        src["seq"] += 1
        self.frames_created += 1
        self._forward_local(frame, t, flow.src_station)

    # ------------------------------------------------------------------
    # frame movement inside this ring
    # ------------------------------------------------------------------
    def _leg_target(self, frame: FabricFrame) -> int:
        """The station this frame must reach on this ring: its final
        destination, or the egress gateway toward the next ring."""
        if frame.final_hop:
            return frame.dst_station
        next_ring = frame.route[frame.hop + 1]
        return self.links[next_ring].endpoint(self.ring)

    def _forward_local(self, frame: FabricFrame, t: float,
                       entry_station: int) -> None:
        """Start the frame's leg on this ring at ``entry_station``."""
        target = self._leg_target(frame)
        if entry_station == target:
            # zero-length leg: the entry point *is* the destination (or the
            # egress gateway for the next hop)
            if frame.final_hop:
                self._complete(frame, t, t)
            else:
                self._buffer(frame, t, t)
            return
        # an already-expired e2e deadline stays on the *frame* (the miss is
        # recorded at completion); the ring leg must not carry it — Packet
        # rejects deadlines in the past
        leg_deadline = (frame.deadline
                        if frame.deadline is not None and frame.deadline > t
                        else None)
        pkt = Packet(src=entry_station, dst=target, service=frame.service,
                     created=t, deadline=leg_deadline)
        station = self.net.stations.get(entry_station)
        if (station is None or not station.alive
                or entry_station not in self.net._pos):
            self.drops["no_member"] += 1
            self._ev_drop(t, entry_station, "ring_to_ring", "no_member", pkt)
            return
        self._pending[pkt.pid] = (frame, t)
        station.enqueue(pkt, t)

    def _on_deliver(self, ev) -> None:
        entry = self._pending.pop(ev.packet.pid, None)
        if entry is None:
            return          # background traffic, not a fabric frame
        frame, t_enter = entry
        if frame.final_hop:
            self._complete(frame, t_enter, ev.t)
        else:
            self._buffer(frame, t_enter, ev.t, pkt=ev.packet)

    def _on_ring_loss(self, ev) -> None:
        entry = self._pending.pop(ev.packet.pid, None)
        if entry is None:
            return
        frame, _t_enter = entry
        self.drops["ring_loss"] += 1
        self._ev_drop(ev.t, self._leg_target(frame), "ring_to_ring",
                      "ring_loss", ev.packet)

    def _buffer(self, frame: FabricFrame, t_enter: float, t: float,
                pkt=None) -> None:
        """Park the frame at its egress gateway until the next barrier."""
        next_ring = frame.route[frame.hop + 1]
        gateway = self.links[next_ring].endpoint(self.ring)
        if pkt is None:
            pkt = _FramePacket(gateway, frame.dst_station, frame.service)
        buf = self.out_buffers[next_ring]
        if len(buf) >= self.topo.gateway_buffer:
            self.drops["overflow"] += 1
            self._ev_drop(t, gateway, "ring_to_ring", "overflow", pkt)
            return
        frame.hop_log.append([self.ring, t_enter, t])
        buf.append((frame, t))
        self.gw_forwards += 1
        self._ev_forward(t, gateway, "ring_to_ring", pkt)
        if self._ev_buffer:
            self._ev_buffer(t, gateway, len(buf), self.topo.gateway_buffer)

    def _complete(self, frame: FabricFrame, t_enter: float, t: float) -> None:
        frame.hop_log.append([self.ring, t_enter, t])
        delay = t - frame.created
        miss = frame.deadline is not None and t > frame.deadline
        self.frames_completed += 1
        if miss:
            self.deadline_misses += 1
        stats = self.flow_stats.setdefault(
            frame.flow, {"completed": 0, "misses": 0,
                         "delay_sum": 0.0, "delay_max": 0.0})
        stats["completed"] += 1
        stats["misses"] += int(miss)
        stats["delay_sum"] += delay
        stats["delay_max"] = max(stats["delay_max"], delay)
        self.completions.append([frame.flow, frame.seq, t, delay, int(miss),
                                 [list(leg) for leg in frame.hop_log]])

    # ------------------------------------------------------------------
    # the runner's shard protocol
    # ------------------------------------------------------------------
    def sat_bound(self) -> float:
        return self.net.sat_time_bound()

    def advance(self, until: float) -> None:
        self.engine.run(until=until)

    def collect_outgoing(self, t: float) -> List[Dict[str, Any]]:
        """Drain every out-buffer at barrier time ``t``; ages out frames
        that waited longer than the TTL.  Returned frames already point at
        their next ring (``hop`` advanced)."""
        ttl = self.topo.frame_ttl
        out: List[Dict[str, Any]] = []
        for next_ring in sorted(self.out_buffers):
            gateway = self.links[next_ring].endpoint(self.ring)
            buf = self.out_buffers[next_ring]
            for frame, t_buffered in buf:
                if ttl is not None and t - t_buffered > ttl:
                    self.drops["ttl"] += 1
                    self._ev_drop(t, gateway, "ring_to_ring", "ttl",
                                  _FramePacket(gateway, frame.dst_station,
                                               frame.service))
                    continue
                frame.hop += 1
                out.append(frame.to_dict())
            buf.clear()
        return out

    def inject(self, frames: List[Dict[str, Any]], t: float) -> None:
        """Accept frames crossing into this ring at barrier time ``t``
        (already in global canonical order)."""
        for data in frames:
            frame = FabricFrame.from_dict(data)
            link = self.links[frame.route[frame.hop - 1]]
            self._forward_local(frame, t, link.endpoint(self.ring))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def trace_lines(self) -> List[str]:
        """The shard's trace as canonical JSON lines (pid-free by
        construction of the trace stream, hence mode-independent)."""
        ring = self.ring
        return [canonical_json({"t": ev.time, "ring": ring,
                                "cat": ev.category, "fields": ev.fields})
                for ev in self.trace.events]

    def report(self, include_trace: bool = False) -> Dict[str, Any]:
        lines = self.trace_lines()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        in_flight = (len(self._pending)
                     + sum(len(b) for b in self.out_buffers.values()))
        out: Dict[str, Any] = {
            "ring": self.ring,
            "members": self.net.n,
            "clock": self.engine.now,
            "events_executed": self.engine.events_executed,
            "delivered": self.net.metrics.total_delivered,
            "lost": self.net.metrics.lost,
            "orphaned": self.net.metrics.orphaned,
            "frames_created": self.frames_created,
            "frames_completed": self.frames_completed,
            "deadline_misses": self.deadline_misses,
            "gw_forwards": self.gw_forwards,
            "drops": dict(self.drops),
            "in_flight": in_flight,
            "flow_stats": {str(k): v
                           for k, v in sorted(self.flow_stats.items())},
            "completions": self.completions,
            "trace_len": len(lines),
            "trace_digest": digest,
        }
        # batched-kernel telemetry: diagnostic only — like
        # events_executed, saturated-window counts may differ across
        # execution modes (conservative barriers clamp windows
        # differently), so they stay out of summary()/ring_table() parity
        # surfaces
        kern = getattr(getattr(self.net, "tick_driver", None), "__self__",
                       None)
        if kern is not None and hasattr(kern, "sat_windows"):
            out["kernel"] = {"sat_windows": kern.sat_windows,
                             "sat_slots": kern.sat_slots}
        if include_trace:
            out["trace"] = lines
        if self.registry is not None:
            out["metrics"] = self.registry.snapshot()
        return out
