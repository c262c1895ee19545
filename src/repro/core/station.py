"""A WRT-Ring station: class queues, quota counters, send/SAT state.

Implements the Sec. 2.2 *send algorithm* and the station-side half of the
*SAT algorithm*:

- per-class FIFO queues (Premium / Assured / best-effort);
- ``RT_PCK`` and ``NRT_PCK`` counters incremented on transmission and cleared
  when the station releases the SAT;
- *satisfied* iff ``RT_PCK == l`` or the real-time queue is empty;
- packet selection with strict priority Premium > Assured > best-effort,
  where Assured/best-effort draw from the shared ``k`` authorization with
  per-subclass caps ``k1`` / ``k2`` (Sec. 2.3 — "providing k1 with higher
  priority than k2, the network access mechanism doesn't change").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.diffserv import COLUMN_CLASSES
from repro.core.packet import Packet, ServiceClass
from repro.core.quotas import QuotaConfig
from repro.events.bus import NULL_EMITTER

__all__ = ["WRTRingStation"]


class WRTRingStation:
    """Protocol state of one ring member."""

    #: :class:`~repro.events.types.PacketEnqueued` emitter, pushed in by the
    #: owning network's binder (class-level no-op so a standalone station —
    #: unit tests, pre-insertion joiners — emits into the void)
    _ev_enqueued = NULL_EMITTER

    def __init__(self, sid: int, quota: QuotaConfig):
        self.sid = sid
        #: wake hook, installed per member by the owning network: marks
        #: this station's ring position as holding a packet, so the
        #: network's decision layer visits it (a no-op on a standalone
        #: station).  Set here rather than as a class default: a later
        #: first assignment would outgrow the instance dict's shared-key
        #: layout, about 0.8 kB more per station
        self._wake = NULL_EMITTER
        #: ring-successor hint plus an incremental count of queued packets
        #: *not* addressed to it — the batched kernel's saturated path may
        #: only engage while every buffered packet is one hop from delivery.
        #: A standalone station (no successor) counts everything, failing
        #: safe toward the scalar path.
        self._succ_sid: Optional[int] = None
        self._nonsucc = 0
        self.quota = quota
        self.rt_queue: Deque[Packet] = deque()
        self.as_queue: Deque[Packet] = deque()
        self.be_queue: Deque[Packet] = deque()
        #: insertion (transit) buffer — RT-Ring inherits MetaRing's buffer
        #: insertion dataplane: traffic in transit through this station is
        #: forwarded with priority over the station's own packets, which is
        #: what lets a station always spend an authorization in one slot and
        #: makes the Sec. 2.6 bounds hold.
        self.transit: Deque[Packet] = deque()
        # per-round counters (cleared on SAT release)
        self.rt_pck = 0
        self.nrt_pck = 0
        self.as_pck = 0   # Assured share of nrt_pck
        self.be_pck = 0   # best-effort share of nrt_pck
        # lifetime stats, keyed in the enum's order (a tuple, not the
        # enum: iterating an ``IntEnum`` runs Python code per member)
        self.sent: Dict[ServiceClass, int] = dict.fromkeys(COLUMN_CLASSES, 0)
        self.received: Dict[ServiceClass, int] = dict.fromkeys(COLUMN_CLASSES, 0)
        self.enqueued: Dict[ServiceClass, int] = dict.fromkeys(COLUMN_CLASSES, 0)
        self.sat_visits = 0
        self.sat_holds = 0          # visits where the SAT had to be seized
        self.last_sat_arrival: Optional[float] = None
        self.last_sat_departure: Optional[float] = None
        #: highest control-signal sequence number this station has accepted;
        #: a signal arriving with seq <= this is a duplicate/stale replay
        #: and is discarded instead of renewing quotas
        self.last_sat_seq = -1
        # dynamic state
        self.alive = True
        self.leaving = False

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:
        """Accept a packet from the application layer into its class queue."""
        if not self.alive:
            raise RuntimeError(f"station {self.sid} is not alive")
        if packet.src != self.sid:
            raise ValueError(
                f"packet src {packet.src} enqueued at station {self.sid}")
        packet.t_enqueue = now
        queue = self._queue_for(packet.service)
        queue.append(packet)
        self._wake()
        if packet.dst != self._succ_sid:
            self._nonsucc += 1
        self.enqueued[packet.service] += 1
        self._ev_enqueued(now, self.sid, packet)

    def enqueue_burst(self, packets: List[Packet], now: float) -> None:
        """Accept a burst of one flow's packets — one source, destination
        and class — with :meth:`enqueue`'s effects in one step: one check,
        one queue extend, one wake.  Emits no
        :class:`~repro.events.types.PacketEnqueued`, so a caller takes
        this step only while nothing subscribes to it; a subscriber gets
        each packet through :meth:`enqueue`."""
        first = packets[0]
        if not self.alive:
            raise RuntimeError(f"station {self.sid} is not alive")
        if first.src != self.sid:
            raise ValueError(
                f"packet src {first.src} enqueued at station {self.sid}")
        for packet in packets:
            packet.t_enqueue = now
        self._queue_for(first.service).extend(packets)
        self._wake()
        if first.dst != self._succ_sid:
            self._nonsucc += len(packets)
        self.enqueued[first.service] += len(packets)

    def _queue_for(self, service: ServiceClass) -> Deque[Packet]:
        if service is ServiceClass.PREMIUM:
            return self.rt_queue
        if service is ServiceClass.ASSURED:
            return self.as_queue
        return self.be_queue

    def queue_length(self, service: Optional[ServiceClass] = None) -> int:
        if service is None:
            return len(self.rt_queue) + len(self.as_queue) + len(self.be_queue)
        return len(self._queue_for(service))

    def queue_depths(self) -> Dict[str, int]:
        """Current depth of every buffer — the station's publishing surface
        for the observability sampler (repro.obs.integrate)."""
        return {"rt": len(self.rt_queue), "as": len(self.as_queue),
                "be": len(self.be_queue), "transit": len(self.transit)}

    # ------------------------------------------------------------------
    # Sec. 2.2 send algorithm
    # ------------------------------------------------------------------
    @property
    def may_send_rt(self) -> bool:
        """Rule 1: real-time allowed while fewer than ``l`` sent this round."""
        return self.rt_pck < self.quota.l and bool(self.rt_queue)

    @property
    def _rt_exhausted_or_empty(self) -> bool:
        """Rule 2's precondition: RT buffer empty or RT quota used up."""
        return not self.rt_queue or self.rt_pck >= self.quota.l

    @property
    def may_send_assured(self) -> bool:
        return (self._rt_exhausted_or_empty
                and self.nrt_pck < self.quota.k
                and self.as_pck < self.quota.k1
                and bool(self.as_queue))

    @property
    def may_send_be(self) -> bool:
        return (self._rt_exhausted_or_empty
                and self.nrt_pck < self.quota.k
                and self.be_pck < self.quota.k2
                and bool(self.be_queue)
                # k1 has strict priority over k2 within the same station
                and not self.may_send_assured)

    def _decide_class(self) -> Optional[ServiceClass]:
        """Decision half of the send algorithm: which class would fill an
        empty slot right now, or None.  Pure — touches no state, so the
        ring's decision layer (and tests) can probe without side effects."""
        if self.may_send_rt:
            return ServiceClass.PREMIUM
        if self.may_send_assured:
            return ServiceClass.ASSURED
        if self.may_send_be:
            return ServiceClass.BEST_EFFORT
        return None

    def _pop_class(self, service: ServiceClass) -> Packet:
        """Effects half: dequeue the head of *service* and spend the
        authorization.  Caller guarantees the class was decided sendable."""
        if service is ServiceClass.PREMIUM:
            pkt = self.rt_queue.popleft()
            self.rt_pck += 1
        elif service is ServiceClass.ASSURED:
            pkt = self.as_queue.popleft()
            self.nrt_pck += 1
            self.as_pck += 1
        else:
            pkt = self.be_queue.popleft()
            self.nrt_pck += 1
            self.be_pck += 1
        if pkt.dst != self._succ_sid:
            self._nonsucc -= 1
        self.sent[pkt.service] += 1
        return pkt

    def select_packet(self) -> Optional[Packet]:
        """Pick the next packet to insert into an empty slot, or None.

        Follows the send algorithm with Premium > Assured > best-effort
        priority; updates the round counters.  Composition of the
        decision and effects layers above.
        """
        service = self._decide_class()
        if service is None:
            return None
        return self._pop_class(service)

    # ------------------------------------------------------------------
    # Sec. 2.2 SAT algorithm (station side)
    # ------------------------------------------------------------------
    @property
    def satisfied(self) -> bool:
        """Satisfied iff ``RT_PCK == l`` or the real-time queue is empty.

        A leaving station is always satisfied: it no longer transmits its
        own traffic (Sec. 2.4.2) and must pass the SAT on to the successor
        that will cut it out — holding it back would stall the rotation
        until the watchdogs cut out an innocent station instead.
        """
        return (self.leaving or self.rt_pck >= self.quota.l
                or not self.rt_queue)

    def on_sat_arrival(self, now: float) -> Optional[float]:
        """Record a SAT visit; returns the rotation time if one completed."""
        rotation = None
        if self.last_sat_arrival is not None:
            rotation = now - self.last_sat_arrival
        self.last_sat_arrival = now
        self.sat_visits += 1
        if not self.satisfied:
            self.sat_holds += 1
        return rotation

    def on_sat_release(self, now: float) -> None:
        """Clear the round counters — 'after releasing the SAT, RT_PCK and
        NRT_PCK are cleared'."""
        self.last_sat_departure = now
        self.rt_pck = 0
        self.nrt_pck = 0
        self.as_pck = 0
        self.be_pck = 0

    # ------------------------------------------------------------------
    def on_deliver(self, packet: Packet) -> None:
        self.received[packet.service] += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Station {self.sid} {self.quota} q=({len(self.rt_queue)},"
                f"{len(self.as_queue)},{len(self.be_queue)}) "
                f"rt_pck={self.rt_pck} nrt_pck={self.nrt_pck}>")
