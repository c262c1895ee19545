"""A class-of-service CSMA/CA baseline (the paper's [3] strawman).

The introduction motivates WRT-Ring by dismissing contention MACs: the
handshake "does not provide timing guarantees, as it suffers of collisions"
and for the CoS-enhanced 802.11 of [3], "packet collision may occur
frequently by increasing the number of mobile stations".  This module
implements that comparator so the claim can be measured (experiment E21):

a slotted p-persistent CSMA/CA with binary exponential backoff and two
EDCA-style access categories — real-time traffic contends with a smaller
contention window than best-effort, giving it *statistical* priority but no
guarantee:

* a station with a head-of-line packet draws a backoff uniform in
  ``[0, cw)`` and counts down only during idle slots (carrier sense);
* when the counter reaches zero it transmits in the next slot; if two or
  more stations fire together every involved frame is lost, each station
  doubles its contention window (up to ``cw_max``) and redraws;
* a success delivers the frame in one slot (single cell — everyone hears
  everyone; the paper's lounge), resets the window to ``cw_min`` and moves
  to the next queued packet; after ``retry_limit`` collisions the frame is
  dropped.

Everything is slot-synchronous on the same engine/metrics substrate as the
other protocols, so delay distributions are directly comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.netmetrics import NetworkMetrics
from repro.core.packet import Packet, ServiceClass
from repro.events import EventBus, TraceAdapter
from repro.events.bus import NULL_EMITTER
from repro.events import types as _ev
from repro.sim.engine import Engine
from repro.sim.trace import NullTraceRecorder, TraceRecorder

__all__ = ["CSMAConfig", "CSMANetwork", "CSMAStation"]


@dataclass
class CSMAConfig:
    """Access-category parameters (slots)."""

    cw_min_rt: int = 8
    cw_min_be: int = 16
    cw_max: int = 1024
    retry_limit: int = 7

    def __post_init__(self) -> None:
        for name in ("cw_min_rt", "cw_min_be"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cw_max < max(self.cw_min_rt, self.cw_min_be):
            raise ValueError("cw_max must be >= both cw_min values")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")

    def cw_min(self, service: ServiceClass) -> int:
        return (self.cw_min_rt if service is ServiceClass.PREMIUM
                else self.cw_min_be)


class CSMAStation:
    """One contender: a queue per access category plus its backoff state."""

    #: :class:`~repro.events.types.PacketEnqueued` emitter, pushed in by the
    #: owning network's binder
    _ev_enqueued = NULL_EMITTER

    def __init__(self, sid: int, config: CSMAConfig, rng: random.Random):
        self.sid = sid
        self.config = config
        self.rng = rng
        self.rt_queue: List[Packet] = []
        self.be_queue: List[Packet] = []
        self.sent: Dict[ServiceClass, int] = {c: 0 for c in ServiceClass}
        self.received: Dict[ServiceClass, int] = {c: 0 for c in ServiceClass}
        self.enqueued: Dict[ServiceClass, int] = {c: 0 for c in ServiceClass}
        self.collisions = 0
        # head-of-line state
        self._hol: Optional[Packet] = None
        self._backoff: Optional[int] = None
        self._cw: int = 0
        self._retries: int = 0
        self.alive = True

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:
        if not self.alive:
            raise RuntimeError(f"station {self.sid} is not alive")
        if packet.src != self.sid:
            raise ValueError(f"packet src {packet.src} at station {self.sid}")
        packet.t_enqueue = now
        if packet.service is ServiceClass.PREMIUM:
            self.rt_queue.append(packet)
        else:
            self.be_queue.append(packet)
        self.enqueued[packet.service] += 1
        self._ev_enqueued(now, self.sid, packet)

    def queue_length(self, service: Optional[ServiceClass] = None) -> int:
        if service is ServiceClass.PREMIUM:
            return len(self.rt_queue)
        if service is None:
            return len(self.rt_queue) + len(self.be_queue)
        return len(self.be_queue)

    # ------------------------------------------------------------------
    def _take_head_of_line(self) -> None:
        if self._hol is not None:
            return
        if self.rt_queue:
            self._hol = self.rt_queue.pop(0)
        elif self.be_queue:
            self._hol = self.be_queue.pop(0)
        else:
            return
        self._cw = self.config.cw_min(self._hol.service)
        self._retries = 0
        self._backoff = self.rng.randrange(self._cw)

    def wants_slot(self, channel_idle: bool) -> bool:
        """Advance backoff; True when this station fires this slot."""
        self._take_head_of_line()
        if self._hol is None:
            return False
        if self._backoff == 0:
            return True
        if channel_idle:
            self._backoff -= 1
        return self._backoff == 0

    def on_success(self) -> Packet:
        pkt = self._hol
        self._hol = None
        self._backoff = None
        self.sent[pkt.service] += 1
        return pkt

    def on_collision(self) -> Optional[Packet]:
        """Double the window and redraw; returns the packet if dropped."""
        self.collisions += 1
        self._retries += 1
        if self._retries > self.config.retry_limit:
            dropped = self._hol
            self._hol = None
            self._backoff = None
            return dropped
        self._cw = min(self._cw * 2, self.config.cw_max)
        self._backoff = self.rng.randrange(self._cw)
        return None


class CSMANetwork:
    """A contention network.

    Without a ``graph`` it is a single cell — everyone hears everyone, the
    lounge the paper pictures.  With a connectivity ``graph`` the model adds
    the hidden-terminal pathology the paper highlights: carrier sense only
    covers *in-range* transmitters, so two senders that cannot hear each
    other can both fire at a common receiver and destroy each other's frames
    there (experiment E22).
    """

    def __init__(self, engine: Engine, station_ids: List[int],
                 config: Optional[CSMAConfig] = None,
                 rng: Optional[random.Random] = None,
                 graph=None,
                 trace: Optional[TraceRecorder] = None):
        if len(set(station_ids)) != len(station_ids):
            raise ValueError("duplicate station ids")
        if len(station_ids) < 2:
            raise ValueError("need at least 2 stations")
        self.engine = engine
        self.config = config if config is not None else CSMAConfig()
        self.trace = trace if trace is not None else NullTraceRecorder()
        self._graph_provider = (graph if callable(graph) or graph is None
                                else (lambda: graph))
        rng = rng if rng is not None else random.Random(0)
        self.stations: Dict[int, CSMAStation] = {
            sid: CSMAStation(sid, self.config,
                             random.Random(rng.getrandbits(64)))
            for sid in station_ids}
        self.events = EventBus()
        self.metrics = NetworkMetrics().attach(self.events)
        self._trace_adapter = TraceAdapter(self.trace).attach(self.events)
        self.events.add_binder(self._bind_emitters)
        self.collision_slots = 0
        self.busy_slots = 0
        self.idle_slots = 0
        self.dropped_retry = 0
        self.hidden_terminal_collisions = 0
        self.started = False
        self._tick_handle = None
        self._tick_hooks: List[Callable[[float], None]] = []
        self._last_transmitters: List[int] = []

    def _bind_emitters(self) -> None:
        em = self.events.emitter
        self._ev_transmit = em(_ev.SlotTransmit)
        self._ev_deliver = em(_ev.SlotDeliver)
        self._ev_lost = em(_ev.PacketLost)
        self._ev_collision = em(_ev.CsmaCollision)
        ev_enq = em(_ev.PacketEnqueued)
        for st in self.stations.values():
            st._ev_enqueued = ev_enq

    # ------------------------------------------------------------------
    def _in_range(self, a: int, b: int) -> bool:
        if self._graph_provider is None:
            return True
        g = self._graph_provider()
        return g.has_node(a) and g.has_node(b) and g.in_range(a, b)

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[int]:
        return sorted(self.stations)

    @property
    def n(self) -> int:
        return len(self.stations)

    def add_tick_hook(self, hook: Callable[[float], None]) -> None:
        self._tick_hooks.append(hook)

    def enqueue(self, packet: Packet) -> None:
        st = self.stations.get(packet.src)
        if st is None:
            raise KeyError(f"unknown station {packet.src}")
        st.enqueue(packet, self.engine.now)

    def start(self) -> None:
        if self.started:
            raise RuntimeError("network already started")
        self.started = True
        self._tick_handle = self.engine.schedule(0.0, self._tick, priority=5)

    def stop(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        t = self.engine.now
        for hook in self._tick_hooks:
            hook(t)

        # per-station carrier sense: idle iff no *audible* transmission in
        # the previous slot (with a graph, far transmitters are inaudible —
        # the hidden-terminal blind spot)
        last = self._last_transmitters
        contenders = []
        for st in self.stations.values():
            if not st.alive:
                continue
            idle = not any(self._in_range(st.sid, other) for other in last)
            if st.wants_slot(idle):
                contenders.append(st)

        self._last_transmitters = [st.sid for st in contenders]
        if not contenders:
            self.idle_slots += 1
            if self._tick_handle is not None:   # stop() leaves it None
                self._tick_handle = self.engine.schedule(1.0, self._tick,
                                                         priority=5)
            return

        self.busy_slots += 1
        transmitters = {st.sid for st in contenders}
        slot_had_collision = False
        for st in contenders:
            pkt = st._hol
            # the frame survives iff no OTHER transmitter is audible at the
            # receiver this slot (single cell: any second transmitter kills it)
            interferers = [o for o in transmitters
                           if o != st.sid and o != pkt.dst
                           and self._in_range(pkt.dst, o)]
            if not interferers and pkt.dst not in transmitters:
                # half-duplex: a transmitting destination cannot receive
                self._deliver(st, t)
                continue
            if not interferers:
                interferers = [pkt.dst]
            slot_had_collision = True
            if any(not self._in_range(st.sid, o) for o in interferers):
                self.hidden_terminal_collisions += 1
            dropped = st.on_collision()
            if dropped is not None:
                dropped.dropped = True
                self.dropped_retry += 1
                self._ev_lost(t, dropped, "retry_limit",
                              dropped.src, dropped.dst)
        if slot_had_collision:
            self.collision_slots += 1
            self._ev_collision(t, sorted(transmitters))
        if self._tick_handle is not None:
            self._tick_handle = self.engine.schedule(1.0, self._tick,
                                                     priority=5)

    def _deliver(self, station: CSMAStation, t: float) -> None:
        pkt = station.on_success()
        pkt.t_send = t
        self._ev_transmit(t, station.sid, pkt)
        receiver = self.stations.get(pkt.dst)
        if receiver is not None and not self._in_range(pkt.src, pkt.dst):
            # no routing in a plain contention MAC: an out-of-range
            # destination simply never hears the frame
            receiver = None
        if receiver is None or not receiver.alive:
            pkt.dropped = True
            reason = "dead_station" if receiver is not None else "unreachable"
            self._ev_lost(t, pkt, reason, pkt.src, pkt.dst)
            return
        pkt.t_deliver = t + 1.0
        receiver.received[pkt.service] += 1
        self._ev_deliver(pkt.t_deliver, pkt.dst, pkt)

    # ------------------------------------------------------------------
    @property
    def collision_fraction(self) -> float:
        """Fraction of busy slots wasted on collisions."""
        if self.busy_slots == 0:
            raise ValueError("no transmission attempts observed")
        return self.collision_slots / self.busy_slots
