"""The WRT-Ring network: slotted dataplane + SAT circulation.

Model
-----
Time advances in slots (one tick per slot).  Each tick every alive station
simultaneously transmits at most one packet to its ring successor — this is
the CDMA concurrency of Sec. 2.1: station ``i`` spreads with ``code(i+1)``,
so all N hops are collision-free and simultaneous.  The dataplane is a
buffer-insertion ring (inherited from RT-Ring/MetaRing): traffic in transit
has priority, a station inserts its own packets (per the Sec. 2.2 send
algorithm) only when its insertion buffer is empty, and the destination
strips packets (spatial reuse).

The SAT control signal travels in the same direction, one hop per
``sat_hop_slots`` slots, and is seized by not-satisfied stations per the
SAT algorithm.  The Random Access Period (join), graceful/ungraceful leave
and SAT-loss recovery are orchestrated by the managers in
:mod:`repro.core.join` and :mod:`repro.core.recovery`.

Tick ordering (at integer time ``t``):

1. tick hooks (traffic sources, join requesters),
2. dataplane transmit + receive (skipped while the network is paused for a
   RAP, while rebuilding, or before the ring is up),
3. SAT step (arrival processing, RAP entry, hold/release),
4. PHY channel resolution (control handshakes, optional data validation).

Instrumentation
---------------
The network publishes every protocol fact exactly once as a typed event on
``self.events`` (see :mod:`repro.events`): trace recording, obs metrics,
fuzz oracles and the delay/deadline accounting in
:class:`repro.analysis.netmetrics.NetworkMetrics` are all subscribers.
Emit sites hold per-event emitter callables (rebound by the bus whenever
subscriptions change).  An unobserved emitter is falsy: the per-slot and
per-hop sites test it first, so an unobserved event there runs no call,
and an unobserved *computation* is skipped the same way; elsewhere an
unobserved event costs one no-op call.

The dataplane's cost follows the awake stations, those that may hold a
packet: the decision layer visits only them, settles one without own
traffic in one test (transit or idle) and lists the occupied positions,
and the effects layer walks only that list.  A slot with no station awake
runs no dataplane at all.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.bounds import sat_rotation_bound
from repro.analysis.netmetrics import NetworkMetrics
from repro.core.config import WRTRingConfig
from repro.core.diffserv import COLUMN_CLASSES
from repro.core.packet import Packet
from repro.core.quotas import QuotaConfig
from repro.core.sat import SAT, RotationLog
from repro.core.station import WRTRingStation
from repro.events import EventBus, TraceAdapter
from repro.events import types as _ev
from repro.events.bus import NULL_EMITTER
from repro.phy.cdma import BROADCAST_CODE, CodeSpace, assign_codes_sequential
from repro.phy.channel import Frame, SlottedChannel
from repro.sim.engine import Engine
from repro.sim.trace import NullTraceRecorder, TraceRecorder

__all__ = ["WRTRingNetwork", "NetworkMetrics"]


class WRTRingNetwork:
    """A running WRT-Ring.

    Parameters
    ----------
    engine:
        The simulation engine; the network schedules one tick per slot.
    ring_order:
        Station ids in ring sequence (successor of ``ring_order[i]`` is
        ``ring_order[i+1]``, cyclically).
    config:
        Protocol parameters; ``config.quotas`` must cover every station.
    graph:
        Optional :class:`~repro.phy.topology.ConnectivityGraph` (or a
        zero-arg callable returning one).  Needed for recovery range checks,
        join reachability and PHY validation; without it every pair is
        assumed reachable (the paper's "no hidden terminal" special case).
    channel:
        Optional :class:`~repro.phy.channel.SlottedChannel` for the control
        handshakes and (with ``config.validate_phy``) dataplane validation.
    codes:
        Optional :class:`~repro.phy.cdma.CodeSpace`; defaults to sequential
        unique codes, the paper's base assumption.
    trace:
        Optional :class:`~repro.sim.trace.TraceRecorder`.  When given (and
        not a null recorder) the network attaches a
        :class:`~repro.events.TraceAdapter` rendering its events into the
        legacy trace-record stream.
    events:
        Optional :class:`~repro.events.EventBus` to publish on.  By default
        the network owns a fresh bus.  A caller providing a shared bus is
        responsible for any trace adapter on it (the network only attaches
        one to a bus it owns, so a shared trace never records twice).
    impairments:
        Optional :class:`~repro.phy.impairments.ChannelImpairments` loss
        oracle.  When given, ring dataplane hops and SAT/SAT_REC hand-offs
        may be destroyed stochastically, and the oracle is installed on the
        channel (if any) so control-handshake frames fade too.
    """

    def __init__(self, engine: Engine, ring_order: List[int],
                 config: WRTRingConfig,
                 graph=None,
                 channel: Optional[SlottedChannel] = None,
                 codes: Optional[CodeSpace] = None,
                 trace: Optional[TraceRecorder] = None,
                 events: Optional[EventBus] = None,
                 impairments=None,
                 adaptive_timers: bool = False):
        if len(ring_order) < 2:
            raise ValueError("a ring needs at least 2 stations")
        if len(set(ring_order)) != len(ring_order):
            raise ValueError("duplicate station ids in ring order")
        missing = [sid for sid in ring_order if sid not in config.quotas]
        if missing:
            raise ValueError(f"no quotas configured for stations {missing}")

        self.engine = engine
        self.config = config
        self.trace = trace if trace is not None else NullTraceRecorder()
        self._graph_provider = (graph if callable(graph) or graph is None
                                else (lambda: graph))
        self.channel = channel
        self.codes = codes if codes is not None else assign_codes_sequential(list(ring_order))

        self.order: List[int] = list(ring_order)
        self.stations: Dict[int, WRTRingStation] = {
            sid: WRTRingStation(sid, config.quotas[sid]) for sid in ring_order}
        self._pos: Dict[int, int] = {sid: i for i, sid in enumerate(self.order)}

        self.sat = SAT()
        self._sat_lost = False
        self._sat_bound_cache = None
        self._sat_seq = 0
        self.rotation_log = RotationLog()
        self._refresh_members()

        #: optional :class:`~repro.phy.impairments.ChannelImpairments` —
        #: consulted for dataplane hops and SAT/SAT_REC hand-offs, and
        #: installed on the channel so control frames share the loss oracle
        self.impairments = impairments
        if channel is not None and impairments is not None:
            channel.impairments = impairments
            channel.drop_hook = self._on_frame_dropped

        self.pause_until: float = float("-inf")   # RAP pause window end
        self.rebuilding_until: Optional[float] = None
        self.network_down = False
        self.started = False
        self._tick_handle = None
        #: ``(t) -> next tick time``, asked by :meth:`_tick` after each slot
        #: (the batched kernel installs one before :meth:`start`); ``None``
        #: ticks every slot at ``t + 1``
        self.tick_driver: Optional[Callable[[float], float]] = None
        #: rebuilt (never mutated) on add/remove, so a hook that removes
        #: itself mid-tick cannot make the running loop skip the next one
        self._tick_hooks: Tuple[Callable[[float], None], ...] = ()
        # the ring defines the slot grid: snap schedule times that drifted
        # off it by float accumulation (see Engine.snap_to_grid)
        engine.slot_quantum = 1.0
        self._frame_handlers: Dict[int, Callable[[Frame, float], None]] = {}
        self._delivery_callbacks: Dict[int, Callable[[Packet, float], None]] = {}

        # the event spine: analysis metrics subscribe first (so on fanned-out
        # events the accounting runs before the trace record, matching the
        # legacy inline order), then the trace adapter
        self.events = events if events is not None else EventBus()
        self.metrics = NetworkMetrics().attach(self.events)
        self._trace_adapter: Optional[TraceAdapter] = None
        if events is None:
            self._trace_adapter = TraceAdapter(self.trace).attach(self.events)
        self.events.add_binder(self._bind_emitters)

        #: opt-in RFC 6298 SAT timers (read by RecoveryManager at
        #: construction and by JoinRequester per request) — must be set
        #: before the managers are built
        self.adaptive_timers = bool(adaptive_timers)

        # managers (imported lazily to avoid import cycles)
        from repro.core.join import JoinManager
        from repro.core.recovery import RecoveryManager
        self.join_manager = JoinManager(self)
        self.recovery = RecoveryManager(self)

        if self.channel is not None:
            for sid in self.order:
                self._register_station_listener(sid)

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def members(self) -> List[int]:
        return list(self.order)

    def successor(self, sid: int) -> int:
        return self.order[(self._pos[sid] + 1) % len(self.order)]

    def predecessor(self, sid: int) -> int:
        return self.order[(self._pos[sid] - 1) % len(self.order)]

    def graph(self):
        return self._graph_provider() if self._graph_provider is not None else None

    def reachable(self, a: int, b: int) -> bool:
        """Single-hop reachability; True when no graph is modelled."""
        g = self.graph()
        if g is None:
            return True
        if not (g.has_node(a) and g.has_node(b)):
            return False
        return g.in_range(a, b)

    def ring_latency(self) -> float:
        """S: SAT walk across the ring without stops, in slots."""
        return self.n * self.config.sat_hop_slots

    def sat_time_bound(self) -> float:
        """The current Theorem-1 bound, used to arm the SAT_TIMERs.

        Cached: it is queried on every SAT release (hot path) but only
        changes when the membership or a quota changes, both of which go
        through :meth:`_reindex`.
        """
        if self._sat_bound_cache is None:
            quotas = [self.stations[sid].quota for sid in self.order]
            self._sat_bound_cache = sat_rotation_bound(
                self.ring_latency(), self.config.effective_t_rap(), quotas)
        return self._sat_bound_cache

    def _register_station_listener(self, sid: int) -> None:
        self.channel.register_listener(
            sid, {self.codes.code_of(sid), BROADCAST_CODE})

    # ------------------------------------------------------------------
    # event emitters (rebound by the bus on every subscription change)
    # ------------------------------------------------------------------
    def _bind_emitters(self) -> None:
        em = self.events.emitter
        self._ev_tick = em(_ev.RingTick)
        self._ev_transmit = em(_ev.SlotTransmit)
        self._ev_deliver = em(_ev.SlotDeliver)
        self._ev_lost = em(_ev.PacketLost)
        self._ev_orphaned = em(_ev.PacketOrphaned)
        self._ev_occupancy = em(_ev.SlotOccupancy)
        self._ev_sat_arrive = em(_ev.SatArrive)
        self._ev_sat_hold = em(_ev.SatHold)
        self._ev_sat_rotation = em(_ev.SatRotation)
        self._ev_sat_release = em(_ev.SatRelease)
        self._ev_sat_lost = em(_ev.SatLost)
        self._ev_sat_link_loss = em(_ev.SatLinkLoss)
        self._ev_frame_dropped = em(_ev.FrameDropped)
        self._ev_sat_hop_lost = em(_ev.SatHopLost)
        self._ev_sat_stale = em(_ev.SatStaleDiscarded)
        self._ev_kill = em(_ev.StationKilled)
        self._ev_leave = em(_ev.LeaveAnnounced)
        self._ev_insert = em(_ev.StationInserted)
        self._ev_remove = em(_ev.StationRemoved)
        self._ev_enqueued = em(_ev.PacketEnqueued)
        for st in self.stations.values():
            st._ev_enqueued = self._ev_enqueued

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking; the SAT starts at the first station in the order."""
        if self.started:
            raise RuntimeError("network already started")
        self.started = True
        first = self.order[0]
        self.sat.at_station = first
        self.stations[first].on_sat_arrival(self.engine.now)
        self.recovery.arm_all()
        self._tick_handle = self.engine.schedule(0.0, self._tick, priority=5)

    def stop(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self.recovery.disarm_all()

    def add_tick_hook(self, hook: Callable[[float], None]) -> None:
        """Register ``hook(t)`` to run at the start of every tick."""
        self._tick_hooks += (hook,)

    def remove_tick_hook(self, hook: Callable[[float], None]) -> None:
        """Unregister a hook added with :meth:`add_tick_hook`.  A hook may
        remove itself while it runs; the rest of that tick's hooks still
        run."""
        hooks = list(self._tick_hooks)
        hooks.remove(hook)
        self._tick_hooks = tuple(hooks)

    def register_frame_handler(self, station_or_code: int,
                               handler: Callable[[Frame, float], None]) -> None:
        """Deliver channel frames arriving for ``station_or_code`` to ``handler``."""
        self._frame_handlers[station_or_code] = handler

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Hand a packet to its source station's MAC queues."""
        st = self.stations.get(packet.src)
        if st is None or packet.src not in self._pos:
            raise KeyError(f"source station {packet.src} is not a ring member")
        st.enqueue(packet, self.engine.now)

    # ------------------------------------------------------------------
    # fault / dynamics injection
    # ------------------------------------------------------------------
    def kill_station(self, sid: int) -> None:
        """Station disappears without notice (battery out, walked away)."""
        st = self.stations.get(sid)
        if st is None:
            raise KeyError(f"unknown station {sid}")
        st.alive = False
        self.recovery.note_failure(sid, self.engine.now)
        self._ev_kill(self.engine.now, sid)
        # a SAT at/heading to the dead station is lost with it
        if self.sat.at_station == sid or self.sat.in_flight_to == sid:
            self.drop_sat()

    def leave_gracefully(self, sid: int) -> None:
        """Sec. 2.4.2: the station announces its departure; its successor
        will convert the next SAT into a SAT_REC that cuts it out."""
        st = self.stations.get(sid)
        if st is None or sid not in self._pos:
            raise KeyError(f"station {sid} is not a ring member")
        if len(self.order) <= 2:
            raise RuntimeError("cannot leave: ring would drop below 2 stations")
        st.leaving = True
        self._ev_leave(self.engine.now, sid)

    def drop_sat(self) -> None:
        """Inject a control-signal loss (Sec. 2.5's trigger)."""
        self._sat_lost = True
        self.sat.at_station = None
        self.sat.in_flight_to = None
        self.sat.arrival_time = None
        self.recovery.note_sat_loss(self.engine.now)
        self._ev_sat_lost(self.engine.now)

    def inject_stale_sat(self, at_station: Optional[int] = None,
                         seq: Optional[int] = None) -> bool:
        """Chaos surface: a duplicated/stale control signal appears at a
        station.

        By default the duplicate carries the sequence number of the last
        signal the station accepted (a verbatim replay); the hardened
        station detects it via the monotone rotation sequence number and
        discards it — no quotas are renewed — and this returns True.

        Passing a forged ``seq`` newer than anything the station has seen
        defeats the guard: the station renews its quotas as if it had
        released a real SAT (a double grant), and the next *real* signal
        arriving there will itself be flagged stale, driving the Sec. 2.5
        recovery machinery.  Returns False in that case.
        """
        if self.network_down or self.rebuilding_until is not None:
            raise RuntimeError(
                "no control signal to duplicate while the ring is down or rebuilding")
        if at_station is None:
            at_station = self.order[0]
        if at_station not in self._pos:
            raise KeyError(f"station {at_station} is not a ring member")
        st = self.stations[at_station]
        t = self.engine.now
        if seq is None:
            seq = st.last_sat_seq
        if not self._sat_seq_fresh(at_station, seq, t):
            return True
        st.on_sat_release(t)
        return False

    # ------------------------------------------------------------------
    # membership mutation (used by join/recovery managers)
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        self._pos = {sid: i for i, sid in enumerate(self.order)}
        self._sat_bound_cache = None   # membership changed: bound changed
        self._refresh_members()

    def _refresh_members(self) -> None:
        """Rebuild the hot-path member cache after a membership change:
        the in-order station list (so the per-slot loops stop doing a dict
        lookup per station), each member's successor hint + non-successor
        recount, the awake positions with each member's wake hook, and the
        preallocated per-slot scratch buffers."""
        members = [self.stations[sid] for sid in self.order]
        self._members = members
        n = len(members)
        for st in self.stations.values():
            st._succ_sid = None
            st._wake = NULL_EMITTER
        #: positions of the members that may hold a packet: a packet
        #: entering a class queue (``WRTRingStation.enqueue``) or a transit
        #: buffer (phase B) wakes its station, and ``_decide_slot`` lets a
        #: station whose four buffers are empty fall asleep
        awake = self._awake = set()
        for i, st in enumerate(members):
            st._succ_sid = members[(i + 1) % n].sid
            st._wake = partial(awake.add, i)
            if st.transit or st.rt_queue or st.as_queue or st.be_queue:
                awake.add(i)
        for st in self.stations.values():
            succ = st._succ_sid
            st._nonsucc = sum(
                1 for q in (st.rt_queue, st.as_queue, st.be_queue)
                for p in q if p.dst != succ)
        # per-slot scratch, reused every tick (decision codes, occupied
        # positions + in-flight slot contents) instead of being reallocated
        self._slot_picks: List[int] = [0] * n
        self._slot_occupied: List[int] = []
        self._slot_outputs: List[Optional[Packet]] = [None] * n

    def insert_station(self, new_sid: int, after: int, quota: QuotaConfig,
                       code: Optional[int] = None) -> WRTRingStation:
        """Insert ``new_sid`` between ``after`` and its successor."""
        if new_sid in self._pos:
            raise ValueError(f"station {new_sid} already in the ring")
        if after not in self._pos:
            raise KeyError(f"ingress {after} is not a ring member")
        st = WRTRingStation(new_sid, quota)
        st._ev_enqueued = self._ev_enqueued
        self.stations[new_sid] = st
        self.config.quotas[new_sid] = quota
        self.order.insert(self._pos[after] + 1, new_sid)
        self._reindex()
        if code is None:
            code = self.codes.next_free_code()
        self.codes.assign(new_sid, code)
        if self.channel is not None:
            self._register_station_listener(new_sid)
        self.recovery.on_membership_change(arm_new=new_sid)
        self._ev_insert(self.engine.now, new_sid, after)
        return st

    def remove_station(self, sid: int) -> None:
        """Drop ``sid`` from the ring (cut-out completed / graceful leave)."""
        if sid not in self._pos:
            raise KeyError(f"station {sid} is not a ring member")
        if len(self.order) <= 2:
            raise RuntimeError("cannot remove: ring would drop below 2 stations")
        self.order.remove(sid)
        self._reindex()
        st = self.stations[sid]
        st.alive = False
        t = self.engine.now
        # every packet still buffered at the removed station — in transit or
        # waiting in its own class queues — leaves the network with it
        for queue in (st.transit, st.rt_queue, st.as_queue, st.be_queue):
            for pkt in queue:
                pkt.dropped = True
                self._ev_lost(t, pkt, "removed", sid, None)
            queue.clear()
        st._nonsucc = 0
        if self.channel is not None:
            self.channel.remove_listener(sid)
        self.recovery.on_membership_change(removed=sid)
        self._ev_remove(t, sid)

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """Run the slot, then re-arm the tick's own handle for the next one
        — unless the slot took the network down or :meth:`stop` ran."""
        t = self.engine.now
        if self._tick_body(t) and self._tick_handle is not None:
            nxt = t + 1.0 if self.tick_driver is None else self.tick_driver(t)
            self.engine.rearm_at(self._tick_handle, nxt)
            return
        if self._tick_handle is None:
            # stop() ran inside the slot, and the SAT step after it may
            # have kicked a watchdog: a stopped ring keeps none armed
            self.recovery.disarm_all()

    def _tick_body(self, t: float) -> bool:
        """One slot's worth of protocol work at time ``t``.

        Returns False when the network is down (no further ticks should be
        scheduled).
        """
        for hook in self._tick_hooks:
            hook(t)
        if self._ev_tick:
            self._ev_tick(t)

        if self.network_down:
            if self.channel is not None:
                self._flush_channel(t)
            return False  # no further ticks

        if self.rebuilding_until is not None:
            if t >= self.rebuilding_until:
                self.recovery.finish_rebuild(t)
            # no dataplane, no SAT while rebuilding
        else:
            paused = t < self.pause_until
            if not paused:
                # dataplane: decide over the awake stations, then apply; a
                # slot with nothing awake moves no packet
                members = self._members
                busy = 0
                if self._awake:
                    self._decide_slot(members)
                    busy = len(self._slot_occupied)
                    self._apply_slot(t, members)
                # slot-occupancy sampling for the timeline exporter:
                # subscribed only while the opt-in trace category is enabled
                if self._ev_occupancy:
                    self._ev_occupancy(t, busy, len(members))
                self._sat_step(t)
            else:
                self.join_manager.on_rap_tick(t)
                if t + 1 >= self.pause_until:
                    # RAP closes at the end of this tick
                    self.join_manager.on_rap_end(t)

        if self.channel is not None:
            self._flush_channel(t)
        return True

    def _flush_channel(self, t: float) -> None:
        deliveries = self.channel.resolve_slot(t)
        for receiver, frames in deliveries.items():
            handler = self._frame_handlers.get(receiver)
            for fr in frames:
                if fr.kind == "data":
                    continue  # dataplane validation frames; payload unused
                if handler is not None:
                    handler(fr, t)

    # ------------------------------------------------------------------
    # dataplane
    # ------------------------------------------------------------------
    #: decision codes for one slot: 0..2 index COLUMN_CLASSES (own traffic),
    #: _PICK_TRANSIT forwards from the insertion buffer, _PICK_IDLE is an
    #: empty position (never written: only occupied positions get a code)
    _PICK_IDLE = -1
    _PICK_TRANSIT = 3

    def _decide_slot(self, members: List[WRTRingStation]) -> None:
        """Decision layer: what occupies each awake ring position this
        slot — transit forwarding, one of the station's own classes, or
        nothing.  A sleeping station holds no packet, so it would idle.
        Pure: no queue pops, no quota spend, no emits; lists the occupied
        positions, in ascending order, in ``_slot_occupied`` and writes
        their decision codes into the preallocated ``_slot_picks`` buffer.
        An awake station whose four buffers are empty falls asleep."""
        picks = self._slot_picks
        occupied = self._slot_occupied
        occupied.clear()
        busy = occupied.append
        awake = self._awake
        transit = self._PICK_TRANSIT
        transit_first = self.config.transit_priority
        for idx in sorted(awake):
            st = members[idx]
            if not (st.rt_queue or st.as_queue or st.be_queue):
                # no own traffic, so the send algorithm picks no class:
                # only transit can fill the slot, whatever the transit
                # priority or leave state
                if not st.transit:
                    awake.discard(idx)
                elif st.alive:
                    picks[idx] = transit
                    busy(idx)
            elif not st.alive:
                pass   # a dead station idles until it is cut out
            elif transit_first and st.transit:
                picks[idx] = transit
                busy(idx)
            elif not st.leaving:
                service = st._decide_class()
                if service is not None:
                    picks[idx] = service
                    busy(idx)
                elif st.transit:
                    picks[idx] = transit
                    busy(idx)
            elif st.transit:
                picks[idx] = transit
                busy(idx)

    def _apply_slot(self, t: float, members: List[WRTRingStation]) -> None:
        """Effects layer: spend the decided authorizations (phase A) and
        advance every occupied slot one hop simultaneously (phase B),
        emitting in exactly the legacy order.  Both phases walk only the
        occupied positions :meth:`_decide_slot` listed; a packet entering
        a transit buffer wakes its station."""
        picks = self._slot_picks
        occupied = self._slot_occupied
        outputs = self._slot_outputs
        n = len(members)

        # phase A: pop the decided transmissions
        for idx in occupied:
            code = picks[idx]
            if code == self._PICK_TRANSIT:
                outputs[idx] = members[idx].transit.popleft()
            else:
                st = members[idx]
                pkt = st._pop_class(COLUMN_CLASSES[code])
                pkt.t_send = t
                self._ev_transmit(t, st.sid, pkt)
                outputs[idx] = pkt

        validate = self.config.validate_phy and self.channel is not None
        enforce = self.config.enforce_radio_links and self._graph_provider is not None
        imp = self.impairments

        # phase B: simultaneous one-hop advance
        for idx in occupied:
            pkt = outputs[idx]
            outputs[idx] = None   # the scratch buffer must not pin packets
            src_sid = members[idx].sid
            receiver = members[(idx + 1) % n]
            dst_sid = receiver.sid
            if validate:
                self.channel.transmit(Frame(
                    src=src_sid, code=self.codes.code_of(dst_sid),
                    payload=pkt.pid, kind="data"))
            if enforce and not self.reachable(src_sid, dst_sid):
                # mobility broke this ring link: the frame is lost in the air
                pkt.dropped = True
                self._ev_lost(t, pkt, "link", src_sid, dst_sid)
                continue
            if imp is not None:
                reason = imp.loss(t, src_sid, dst_sid,
                                  code=self.codes.code_of(dst_sid))
                if reason is not None:
                    # the frame faded on the hop; no MAC-level retransmit
                    # in the paper's model, so the packet is gone
                    pkt.dropped = True
                    self._ev_lost(t, pkt, reason, src_sid, dst_sid)
                    continue
            if not receiver.alive:
                pkt.dropped = True
                self._ev_lost(t, pkt, "dead_station", src_sid, dst_sid)
                continue
            pkt.hops += 1
            if pkt.dst == dst_sid:
                self._deliver(pkt, receiver, t + 1.0)
            elif pkt.src == dst_sid:
                # came full circle: destination left the ring
                pkt.dropped = True
                self._ev_orphaned(t, pkt, "full_circle")
            elif pkt.hops > n and pkt.dst not in self._pos:
                # TTL: a full circuit without being stripped and the
                # destination is gone — if the source were still a member the
                # full-circle rule above would have reclaimed it, so it is
                # orphaned and would otherwise circulate forever
                pkt.dropped = True
                self._ev_orphaned(t, pkt, "ttl")
            else:
                receiver.transit.append(pkt)
                receiver._wake()

    def add_delivery_callback(self, sid: int,
                              callback: Callable[[Packet, float], None]) -> None:
        """Run ``callback(packet, t)`` whenever a packet is delivered to
        station ``sid`` (used by the gateway to forward into the LAN)."""
        self._delivery_callbacks[sid] = callback

    def _deliver(self, pkt: Packet, receiver: WRTRingStation, t: float) -> None:
        pkt.t_deliver = t
        receiver.on_deliver(pkt)
        self._ev_deliver(t, receiver.sid, pkt)
        callback = self._delivery_callbacks.get(receiver.sid)
        if callback is not None:
            callback(pkt, t)

    # ------------------------------------------------------------------
    # impairment plumbing
    # ------------------------------------------------------------------
    def _on_frame_dropped(self, t: float, frame: Frame, receiver: int,
                          reason: str) -> None:
        """Channel drop hook: publish the loss of a control/data frame."""
        self._ev_frame_dropped(t, frame.src, receiver, frame.code,
                               frame.kind, reason)

    def next_sat_seq(self) -> int:
        """Monotone rotation sequence number, stamped on every hand-off."""
        self._sat_seq += 1
        return self._sat_seq

    def _sat_seq_fresh(self, holder: int, seq: int, t: float) -> bool:
        """Accept ``seq`` at ``holder`` iff newer than its last accepted one."""
        st = self.stations[holder]
        if seq <= st.last_sat_seq:
            self._ev_sat_stale(t, holder, seq)
            return False
        st.last_sat_seq = seq
        return True

    # ------------------------------------------------------------------
    # SAT circulation
    # ------------------------------------------------------------------
    def _sat_step(self, t: float) -> None:
        """One slot of the Sec. 2.2 SAT algorithm: the signal's arrival at
        the next station, the visit's bookkeeping, and its release when
        the holder is satisfied.  The rare branches (stale signal,
        SAT_REC, graceful cut-out, signal loss) call the recovery helpers.
        Every emit may run a subscriber that changes the ring, so each
        step re-reads what it depends on after the emits before it.

        A normal hop calls no helper: the bodies of ``SAT.arrive`` and
        ``SAT.depart``, :meth:`_sat_seq_fresh`, :meth:`next_sat_seq`,
        ``WRTRingStation.on_sat_arrival`` and ``on_sat_release`` and
        ``RotationLog.add`` are written out below, guards included, in
        the order those calls made."""
        if self._sat_lost:
            return
        sat = self.sat

        holder = sat.in_flight_to
        if holder is not None:
            # arrival: the signal is in flight, as ``SAT.arrive`` requires
            if sat.arrival_time > t:
                return
            sat.at_station = holder
            sat.in_flight_to = None
            sat.arrival_time = None
            sat.hops += 1
            pos = self._pos.get(holder)
            if pos is None or not self._members[pos].alive:
                # transmitted into a void: signal lost with the station
                self.drop_sat()
                return
            station = self._members[pos]

            # freshness: the receiver discards a stale/duplicate signal (a
            # forged duplicate bumped its sequence horizon past the real
            # one); from the ring's perspective the control signal is gone
            # and the Sec. 2.5 watchdogs take over
            seq = sat.seq
            if seq <= station.last_sat_seq:
                self._ev_sat_stale(t, holder, seq)
                self.drop_sat()
                return
            station.last_sat_seq = seq

            # SAT_REC (Sec. 2.5): recovery forwards it, or completes the
            # cut-out here and turns it back into a normal SAT held here
            if sat.kind == SAT.RECOVERY:
                self.recovery.on_sat_rec_arrival(holder, t)
                if self._sat_lost or sat.kind == SAT.RECOVERY:
                    return
                pos = self._pos[holder]   # the cut-out re-indexed the ring

            # graceful cut-out (Sec. 2.4.2): the successor of a leaving
            # station converts the SAT into a SAT_REC cutting it out
            pred = self._members[pos - 1]
            if pred.leaving and sat.kind == SAT.NORMAL:
                self.recovery.start_graceful_cutout(
                    failed=pred.sid, originator=holder, t=t)
                return

            # visit bookkeeping (``satisfied`` is read off the station's
            # attributes after each emit: the emit may have changed them)
            if self._ev_sat_arrive:
                self._ev_sat_arrive(t, holder, sat.kind)
            held = not (station.leaving or station.rt_pck >= station.quota.l
                        or not station.rt_queue)
            if held:
                self._ev_sat_hold(t, holder)
                held = not (station.leaving
                            or station.rt_pck >= station.quota.l
                            or not station.rt_queue)
            last = station.last_sat_arrival
            station.last_sat_arrival = t
            station.sat_visits += 1
            if held:
                station.sat_holds += 1
            if last is not None:
                rotation = t - last
                if rotation <= 0:
                    raise ValueError(
                        f"rotation time must be positive, got {rotation!r}")
                self.rotation_log.by_station.setdefault(
                    holder, []).append(rotation)
                if self.recovery.adaptive:
                    self.recovery.observe_rotation(holder, rotation)
                if self._ev_sat_rotation:
                    self._ev_sat_rotation(t, holder, rotation)
            if holder == self.order[0]:
                sat.rounds += 1
                self.rotation_log.mark_round(sat.hops)
            # RAP mutex release: one full round after the owner set it
            if sat.rap_owner == holder and t >= self.pause_until:
                sat.rap_mutex = False
                sat.rap_owner = None
            # RAP entry (Sec. 2.4.1)
            if self.config.rap_enabled:
                self.join_manager.maybe_enter_rap(holder, t)
            if (self._sat_lost or sat.in_flight_to is not None
                    or t < self.pause_until):
                return

        holder = sat.at_station
        if holder is None:
            return
        station = self.stations[holder]
        if not station.alive:
            self.drop_sat()
            return
        if not (station.leaving or station.rt_pck >= station.quota.l
                or not station.rt_queue):
            return   # not satisfied: the station holds the SAT

        # release: clear the round counters and kick the watchdog
        station.last_sat_departure = t
        station.rt_pck = 0
        station.nrt_pck = 0
        station.as_pck = 0
        station.be_pck = 0
        rec = self.recovery
        bound = self._sat_bound_cache
        if bound is None or rec.adaptive:
            bound = rec._bound_for(holder)
        rec._arm(holder, bound)
        nxt = station._succ_sid
        if self.config.enforce_radio_links and not self.reachable(holder, nxt):
            # the ring link broke under the SAT: the signal is lost in the
            # air and the Sec. 2.5 watchdogs will recover
            self._ev_sat_link_loss(t, holder, nxt)
            self.drop_sat()
            return
        imp = self.impairments
        if imp is not None:
            reason = imp.loss(t, holder, nxt, code=self.codes.code_of(nxt),
                              kind="sat")
            if reason is not None:
                # the control frame died in the air: same consequence as a
                # broken link — the Sec. 2.5 watchdogs recover
                self._ev_sat_hop_lost(t, holder, nxt, sat.kind, reason)
                self.drop_sat()
                return
        # hand-off: stamp the rotation seq and depart towards the
        # successor, unless the signal is somehow in flight already
        self._sat_seq += 1
        sat.seq = self._sat_seq
        if sat.in_flight_to is not None:
            raise RuntimeError("SAT is already in flight")
        sat.at_station = None
        sat.in_flight_to = nxt
        sat.arrival_time = t + self.config.sat_hop_slots
        if self._ev_sat_release:
            self._ev_sat_release(t, holder, nxt)
