"""Batched stepping driver with analytic fast-forward.

The scalar reference path schedules one agenda event per slot and walks every
station each tick.  :class:`BatchedKernel` replaces the tick *driver* (not the
protocol): one agenda callback advances many slots inline, and provably
quiescent stretches — nothing buffered anywhere, the SAT circulating a fully
alive ring, no timer or traffic event due, no RAP/channel/impairment machinery
armed — are fast-forwarded analytically instead of simulated slot by slot.

Equivalence is structural, not aspirational:

* Non-quiescent slots run the *same* ``WRTRingNetwork._tick_body`` as the
  scalar path, in the same order, at the same times; the only difference is
  how the next slot is reached (``Engine.advance_to`` instead of a heap
  push/pop per slot).
* Fast-forward engages only when no SAT event has a subscriber and no
  adaptive timer runs (trace-off fabric shards, perf harnesses): the jump
  collapses into the closed-form hand-off update from :func:`hop_plan` —
  the big win the ``batched_tick_rate`` benchmark measures.  A traced run
  takes its quiescent stretches through inline batching instead.
* The mirror-image regime — every member backlogged with successor-addressed
  traffic, nothing else armed — is handled by the *saturated* path: each
  station's residual quota budgets (``QuotaConfig.send_schedule``) make its
  sends consecutive, so SAT holds and releases follow in closed form and a
  whole window of slots is applied from one merged event list
  (``_saturated_run``; the ``saturated_slot_rate`` benchmark's regime).
* Runs driven with ``max_events`` budgets fall back to exactly one slot per
  agenda event so budget chunk boundaries keep their scalar meaning.

``events_executed`` is the one engine statistic allowed to differ (fewer
agenda dispatches is the whole point); every protocol-visible output —
traces, tables, summaries — must match byte for byte.  See docs/KERNEL.md.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.diffserv import COLUMN_CLASSES
from repro.core.sat import SAT
from repro.events.types import (LeaveAnnounced, PacketEnqueued, PacketLost,
                                PacketOrphaned, SlotDeliver, SlotTransmit,
                                StationKilled)

__all__ = ["BatchedKernel", "install_batched_kernel", "hop_plan"]

#: a saturated window shorter than this is not worth the setup cost
_MIN_SAT_WINDOW = 8


def hop_plan(n: int, K: int) -> List[Tuple[int, int]]:
    """Visit plan for ``K`` SAT hops around an ``n``-ring.

    Hop ``j`` (0-based) lands on ring offset ``j % n``.  Returns, per offset
    ``d``, ``(count, last_j)``: how many visits the station there receives
    and the hop index of its final visit (-1 when unvisited).
    """
    if K < 0:
        raise ValueError(f"hop budget must be non-negative, got {K}")
    plan = []
    for d in range(n):
        count = (K - d + n - 1) // n if d < K else 0
        plan.append((count, d + (count - 1) * n if count else -1))
    return plan


def install_batched_kernel(net) -> "BatchedKernel":
    """Install a batched tick driver on ``net`` (before ``net.start()``)."""
    return BatchedKernel(net)


class BatchedKernel:
    """Drives a :class:`~repro.core.ring.WRTRingNetwork` in batched mode."""

    def __init__(self, net) -> None:
        if net.started:
            raise RuntimeError(
                "install the batched kernel before network start()")
        if net.tick_driver is not None:
            raise RuntimeError("a tick driver is already installed")
        self.net = net
        self.engine = net.engine
        #: packets accepted into any MAC queue and not yet delivered/lost —
        #: maintained from the event spine, so it is exact whenever every
        #: packet exit emits (the invariant the spine already guarantees);
        #: paths that strand packets (e.g. a killed station before cut-out)
        #: only ever over-count, which disables fast-forward, never corrupts it
        self.buffered = 0
        #: fast-forward telemetry (for tests and perf analysis)
        self.ff_jumps = 0
        self.ff_slots_skipped = 0
        #: saturated-path telemetry: engaged windows and slots they covered
        self.sat_windows = 0
        self.sat_slots = 0
        #: kills and leave announcements seen: a saturated replay window
        #: stops at the slot where a subscriber changes either flag
        self._lifecycle = 0
        self._dataplane_private = False
        #: adaptive SAT timers change state on every hop (estimator samples,
        #: re-armed deadlines), so every hop must run through the real
        #: ``_sat_step`` at its real time: fast-forward stays off, and so
        #: does the saturated analytic path, whose inline sends run *ahead*
        #: of engine time
        self._adaptive = bool(getattr(net, "adaptive_timers", False))
        net.tick_driver = self._drive
        bus = net.events
        bus.subscribe(PacketEnqueued, self._on_packet_in)
        bus.subscribe(SlotDeliver, self._on_packet_out)
        bus.subscribe(PacketLost, self._on_packet_out)
        bus.subscribe(PacketOrphaned, self._on_packet_out)
        bus.subscribe(StationKilled, self._on_lifecycle)
        bus.subscribe(LeaveAnnounced, self._on_lifecycle)
        bus.add_binder(self._recheck_dataplane_subs)

    # ------------------------------------------------------------------
    def _on_packet_in(self, _ev) -> None:
        self.buffered += 1

    def _on_packet_out(self, _ev) -> None:
        self.buffered -= 1

    def _on_lifecycle(self, _ev) -> None:
        self._lifecycle += 1

    def _recheck_dataplane_subs(self) -> None:
        """Re-derive (on every subscription change) whether the dataplane
        events are *privately* consumed: the saturated path applies the
        transmit/deliver effects inline, which is only sound while the
        subscriber tuples are exactly the consumers it replicates —
        network metrics plus its own buffered counter.  Any extra
        subscriber (a scorer, a gateway, an oracle) turns the path off."""
        bus = self.net.events
        mt = self.net.metrics
        self._dataplane_private = (
            bus.subscribers(SlotTransmit) == (mt._on_transmit,)
            and bus.subscribers(SlotDeliver)
            == (mt._on_deliver, self._on_packet_out))

    # ------------------------------------------------------------------
    # the tick driver
    # ------------------------------------------------------------------
    def _drive(self) -> None:
        """One agenda dispatch: run slot bodies inline until an agenda event
        (timer, traffic arrival, fault), the run window edge, or a budget
        boundary forces control back to the engine loop."""
        net = self.net
        eng = self.engine
        while True:
            t = eng.now
            if not net._tick_body(t):
                return  # network down: no further ticks (scalar behaviour)
            nxt = t + 1.0
            until = eng.run_until
            if (until is not None and not eng.run_budgeted
                    and not eng.stopped):
                if self._quiescent(t):
                    nxt = self._fast_forward(t, until)
                elif self._saturated(t):
                    nxt = self._saturated_run(t, until)
            if eng.stopped or eng.run_budgeted or (until is not None
                                                   and nxt > until):
                break
            pending = eng.peek()
            if pending is not None and pending <= nxt:
                break
            eng.advance_to(nxt)
        net._tick_handle = eng.schedule_at(nxt, self._drive, priority=5)

    # ------------------------------------------------------------------
    # quiescence
    # ------------------------------------------------------------------
    def _quiescent(self, t: float) -> bool:
        """True when every slot from ``t+1`` on is provably a no-op apart
        from SAT circulation over a fully alive, satisfied ring, and that
        circulation can be applied in closed form: no SAT event has a
        subscriber (every traced run has one) and no adaptive timer needs
        each hop at its real time."""
        net = self.net
        if (self.buffered != 0 or self._adaptive or net._ev_sat_release
                or net._ev_sat_rotation or net._ev_sat_arrive):
            return False
        # tick-observable machinery: per-tick hooks (backlog traffic,
        # mobility), RingTick subscribers (invariant checkers, probes) and
        # occupancy sampling all see every slot — cannot skip any
        if net._tick_hooks or net._ev_tick or net._ev_occupancy:
            return False
        if net.channel is not None or net.impairments is not None:
            return False
        cfg = net.config
        if cfg.rap_enabled or cfg.enforce_radio_links:
            return False
        if (net.network_down or net.rebuilding_until is not None
                or t < net.pause_until):
            return False
        sat = net.sat
        if (net._sat_lost or sat.kind != SAT.NORMAL or sat.rap_mutex
                or not sat.in_flight):
            return False
        if not float(t).is_integer():
            return False  # ticks live on the integer grid; be conservative
        for st in net._members:
            if not st.alive or st.leaving:
                return False
        return True

    # ------------------------------------------------------------------
    # analytic fast-forward
    # ------------------------------------------------------------------
    def _fast_forward(self, t: float, until: float) -> float:
        """Skip the quiescent slots after ``t``; return the next tick time.

        Slots ``t+1 .. t+T`` are provably no-ops except for SAT hand-offs,
        where ``T`` is bounded by the run window (ticks after ``until`` never
        run) and by the next live agenda event (a timer or traffic arrival
        may change the world, so no skipped slot may lie at or beyond it).
        The skipped hand-offs are applied in closed form
        (:meth:`_bulk_hops`); the resume tick is ``t + T + 1`` — the same
        pending-tick position the scalar path would reach.
        """
        eng = self.engine
        net = self.net
        ti = int(t)
        T = int(math.floor(until)) - ti
        horizon_event = eng.peek()
        if horizon_event is not None:
            # the last whole tick strictly before the event
            T = min(T, int(math.ceil(horizon_event)) - 1 - ti)
        if T < 2:
            return t + 1.0  # nothing worth skipping

        h = net.config.sat_hop_slots
        a0 = net.sat.arrival_time   # hop j lands at a0 + j*h
        t_stop = float(ti + T)
        K = 0 if a0 > t_stop else int((t_stop - a0) // h) + 1

        self.ff_jumps += 1
        self.ff_slots_skipped += T - 1
        if K:
            self._bulk_hops(a0, h, K)
        return t_stop + 1.0

    def _bulk_hops(self, a0: float, h: int, K: int) -> None:
        """Apply the net effect of ``K`` hand-offs at once, with the visit
        plan from :func:`hop_plan`."""
        net = self.net
        eng = self.engine
        sat = net.sat
        order = net.order
        n = len(order)
        i1 = net._pos[sat.in_flight_to]
        s0 = sat.seq
        hops0 = sat.hops
        log = net.rotation_log
        round_rotation = float(n) * h

        # per-station net effect of every visit in the window
        visited = []
        for d, (count, last_j) in enumerate(hop_plan(n, K)):
            if not count:
                continue
            sid = order[(i1 + d) % n]
            st = net.stations[sid]
            first_tau = a0 + d * h
            if st.last_sat_arrival is not None:
                log.add(sid, first_tau - st.last_sat_arrival)
            for _ in range(count - 1):
                log.add(sid, round_rotation)
            last_tau = a0 + last_j * h
            st.sat_visits += count
            st.last_sat_arrival = last_tau
            st.last_sat_departure = last_tau
            st.last_sat_seq = s0 + last_j
            st.rt_pck = 0
            st.nrt_pck = 0
            st.as_pck = 0
            st.be_pck = 0
            visited.append((last_j, last_tau, sid))

        # completed rounds: hops landing on order[0]
        first_round_hop = (n - i1) % n
        for j in range(first_round_hop, K, n):
            sat.rounds += 1
            log.mark_round(hops0 + j + 1)

        # each visited station's SAT_TIMER was restarted at every release;
        # only the final restart survives — rearm once, in release order,
        # at the exact deadline the scalar path would have left armed
        for _, last_tau, sid in sorted(visited):
            eng.advance_to(last_tau)
            net.recovery.restart_timer(sid)

        sat.hops = hops0 + K
        sat.seq = s0 + K
        net._sat_seq = s0 + K
        sat.at_station = None
        sat.in_flight_to = order[(i1 + K) % n]
        sat.arrival_time = a0 + (K - 1) * h + h

    # ------------------------------------------------------------------
    # saturated regime
    # ------------------------------------------------------------------
    def _saturated(self, t: float) -> bool:
        """True when the coming slots are a pure drain of successor-addressed
        backlog under quota control: every member alive and staying, transit
        buffers empty, all queued traffic one hop from home, the SAT a normal
        in-flight signal, and nothing else — no hooks, channel, impairments,
        RAP, gateways or extra dataplane subscribers — able to observe or
        perturb individual slots.  Cheapest checks first; the per-station
        scan runs only when everything else already passed."""
        net = self.net
        if self._adaptive:
            # the saturated walk applies sends inline *ahead* of engine
            # time; a mid-window bail back to scalar ticking would replay
            # them.  Sound only because non-adaptive SAT steps cannot move
            # timer deadlines into the window — adaptive ones can, so the
            # regime runs slot-by-slot (still byte-identical, just slower)
            return False
        if self.buffered <= 0 or not self._dataplane_private:
            return False
        if net._tick_hooks or net._ev_tick or net._ev_occupancy:
            return False
        if net.channel is not None or net.impairments is not None:
            return False
        cfg = net.config
        if cfg.rap_enabled or cfg.enforce_radio_links:
            return False
        if net._delivery_callbacks:
            return False
        if (net.network_down or net.rebuilding_until is not None
                or t < net.pause_until):
            return False
        sat = net.sat
        if (net._sat_lost or sat.kind != SAT.NORMAL or sat.rap_mutex
                or not sat.in_flight):
            return False
        if not float(t).is_integer():
            return False
        total = 0
        for st in net._members:
            if not st.alive or st.leaving or st.transit or st._nonsucc:
                return False
            total += len(st.rt_queue) + len(st.as_queue) + len(st.be_queue)
        return total > 0

    def _emit_sends(self, events: list, i: int, s: int, r: int, a: int,
                    b: int, limit: int) -> "tuple[int, int, int]":
        """Append station ``i``'s send events for one segment.

        The segment's sends are consecutive from its start ``s``: ``r`` RT
        slots, then ``a`` Assured from ``s + r``, then ``b`` best-effort
        from ``s + r + a`` — truncated at ``limit`` (the release slot, or
        the window edge for a still-open segment).  Returns the executed
        ``(r, a, b)`` counts."""
        avail = limit - s + 1
        if avail <= 0:
            return 0, 0, 0
        r_done = min(r, avail)
        a_done = min(a, max(0, avail - r))
        b_done = min(b, max(0, avail - r - a))
        for j in range(r_done):
            events.append((s + j, 0, i, 0))
        base = s + r
        for j in range(a_done):
            events.append((base + j, 0, i, 1))
        base = s + r + a
        for j in range(b_done):
            events.append((base + j, 0, i, 2))
        return r_done, a_done, b_done

    def _saturated_run(self, t: float, until: float) -> float:
        """Advance the saturated slots after ``t`` analytically; return the
        next tick time.

        Phase 1 *walks* the SAT itinerary: per station, the residual quota
        budgets make its sends consecutive from its segment start, so each
        arrival time, hold decision and release slot follows in closed form
        (release ``R = max(tau, seg_start + r - 1)``; a release truncates
        the Assured/best-effort tail and opens a fresh segment at ``R+1``).
        The walk builds one merged event list — (slot, kind, pos) with
        sends before the slot's SAT step — and never touches live state.

        Phase 2 *applies* the list in slot order.  Sends are always applied
        inline (the gate proved metrics + the buffered counter are the only
        consumers, and every packet is one hop from home).  SAT steps run
        in one of two modes: while any SAT emitter has a subscriber the
        real ``_sat_step`` runs at the real hop time (byte-identical event
        stream, with divergence tripwires against the prediction);
        otherwise the hand-off bookkeeping is inlined and only each
        station's final SAT_TIMER restart is re-armed, as in
        :meth:`_bulk_hops`."""
        eng = self.engine
        net = self.net
        ti = int(t)
        T = int(math.floor(until)) - ti
        horizon_event = eng.peek()
        if horizon_event is not None:
            T = min(T, int(math.ceil(horizon_event)) - 1 - ti)
        if T < _MIN_SAT_WINDOW:
            return t + 1.0
        t_end = ti + T

        members = net._members
        n = len(members)
        sat = net.sat
        h = net.config.sat_hop_slots
        q_l = [st.quota.l for st in members]
        q_k = [st.quota.k for st in members]
        q_k1 = [st.quota.k1 for st in members]
        q_k2 = [st.quota.k2 for st in members]

        # ---- phase 1: analytic walk -----------------------------------
        rem_rt = [len(st.rt_queue) for st in members]
        rem_as = [len(st.as_queue) for st in members]
        rem_be = [len(st.be_queue) for st in members]
        seg_start = [ti + 1] * n
        seg_r, seg_a, seg_b = map(list, zip(*(
            st.quota.send_schedule(st.rt_pck, st.nrt_pck, st.as_pck,
                                   st.be_pck, rem_rt[i], rem_as[i], rem_be[i])
            for i, st in enumerate(members))))

        events: list = []
        final_release = [None] * n
        tau = int(sat.arrival_time)
        pos = net._pos[sat.in_flight_to]
        seq = sat.seq
        hops0 = sat.hops
        arrivals = 0
        held_pos = None
        while tau <= t_end:
            i = pos
            arrivals += 1
            s = seg_start[i]
            r, a, b = seg_r[i], seg_a[i], seg_b[i]
            sat_from = s + r - 1 if r > 0 else -1
            hold = tau < sat_from
            R = sat_from if hold else tau
            if R > t_end:
                # held past the window edge: record the arrival and stop
                events.append((tau, 1, i, ("hop", tau, None, True, seq,
                                           arrivals)))
                held_pos = i
                break
            events.append((tau, 1, i, ("hop", tau, R, hold, seq, arrivals)))
            if R > tau:
                events.append((R, 1, i, ("rel", R)))
            r_done, a_done, b_done = self._emit_sends(
                events, i, s, r, a, b, R)
            rem_rt[i] -= r_done
            rem_as[i] -= a_done
            rem_be[i] -= b_done
            seg_start[i] = R + 1
            # QuotaConfig.send_schedule with the round counters cleared
            # (the release wiped them), inlined off the hot walk
            seg_r[i] = q_l[i] if q_l[i] < rem_rt[i] else rem_rt[i]
            a_new = min(q_k1[i], q_k[i], rem_as[i])
            seg_a[i] = a_new
            seg_b[i] = min(q_k2[i], q_k[i] - a_new, rem_be[i])
            final_release[i] = R
            seq += 1
            pos = (i + 1) % n
            tau = R + h
        # flush the still-open segments, clipped to the window edge
        for i in range(n):
            if seg_start[i] <= t_end:
                self._emit_sends(events, i, seg_start[i], seg_r[i],
                                 seg_a[i], seg_b[i], t_end)
        events.sort()

        self.sat_windows += 1
        self.sat_slots += T

        # ---- phase 2: ordered application -----------------------------
        replay = bool(net._ev_sat_release or net._ev_sat_rotation
                      or net._ev_sat_arrive or net._ev_sat_hold)
        lifecycle0 = self._lifecycle
        mt = net.metrics
        transmitted = mt.transmitted
        delivered = mt.delivered
        access = [mt.access_delay[c].samples for c in COLUMN_CLASSES]
        e2e = [mt.e2e_delay[c].samples for c in COLUMN_CLASSES]
        dtr = mt.deadlines
        rot_log = net.rotation_log

        for slot, kind, i, payload in events:
            if kind == 0:
                # one send: the scalar phase-A pop/transmit plus the
                # phase-B one-hop delivery to the ring successor, with the
                # metrics consumers' effects applied directly (delay
                # samples can't be negative here, so the series validation
                # is safe to skip)
                st = members[i]
                svc = COLUMN_CLASSES[payload]
                pkt = st._pop_class(svc)
                ts = float(slot)
                pkt.t_send = ts
                transmitted[svc] += 1
                access[payload].append(ts - pkt.t_enqueue)
                succ = members[(i + 1) % n]
                pkt.hops += 1
                td = ts + 1.0
                pkt.t_deliver = td
                succ.received[svc] += 1
                delivered[svc] += 1
                e2e[payload].append(td - pkt.created)
                dl = pkt.deadline
                if dl is not None:
                    if td <= dl:
                        dtr.met += 1
                    else:
                        dtr.missed += 1
                        dtr.miss_lateness.append(td - dl)
                self.buffered -= 1
            elif replay:
                tf = float(slot)
                buffered0 = self.buffered
                eng.advance_to(tf)
                net._sat_step(tf)
                if (eng.stopped or net._sat_lost
                        or net.sat.kind != SAT.NORMAL
                        or net._members is not members
                        or self._lifecycle != lifecycle0
                        or self.buffered != buffered0):
                    # a subscriber perturbed the world mid-window (a
                    # membership change rebuilds ``_members``): all
                    # effects through this slot are applied, so resume
                    # normal ticking exactly where scalar would tick
                    return math.floor(eng.now) + 1.0
                if payload[0] == "hop":
                    want_held = payload[2] is None or payload[2] > payload[1]
                    if want_held != (net.sat.at_station is not None):
                        raise RuntimeError(
                            f"saturated walk diverged at t={slot}: predicted "
                            f"{'hold' if want_held else 'release'} at "
                            f"{members[i].sid}, SAT is {net.sat!r}")
                elif not net.sat.in_flight:
                    raise RuntimeError(
                        f"saturated walk diverged at t={slot}: predicted "
                        f"release from {members[i].sid}, SAT is {net.sat!r}")
            elif payload[0] == "hop":
                _, ptau, pR, hold, pseq, arrival_no = payload
                st = members[i]
                tf = float(slot)
                if st.last_sat_arrival is not None:
                    rot_log.add(st.sid, tf - st.last_sat_arrival)
                st.last_sat_arrival = tf
                st.last_sat_seq = pseq
                st.sat_visits += 1
                if hold:
                    st.sat_holds += 1
                if i == 0:
                    sat.rounds += 1
                    rot_log.mark_round(hops0 + arrival_no)
                if pR == slot:
                    # arrived satisfied: released within the same SAT step
                    st.last_sat_departure = tf
                    st.rt_pck = 0
                    st.nrt_pck = 0
                    st.as_pck = 0
                    st.be_pck = 0
            else:
                st = members[i]
                st.last_sat_departure = float(slot)
                st.rt_pck = 0
                st.nrt_pck = 0
                st.as_pck = 0
                st.be_pck = 0

        if not replay:
            # deferred SAT_TIMER maintenance: every release restarted the
            # holder's watchdog, but only the final restart survives —
            # re-arm once per station, in release order (see _bulk_hops)
            rearms = sorted((R, i) for i, R in enumerate(final_release)
                            if R is not None)
            for R, i in rearms:
                eng.advance_to(float(R))
                net.recovery.restart_timer(members[i].sid)
            sat.hops = hops0 + arrivals
            sat.seq = seq
            net._sat_seq = seq
            if held_pos is not None:
                sat.at_station = members[held_pos].sid
                sat.in_flight_to = None
                sat.arrival_time = None
            else:
                sat.at_station = None
                sat.in_flight_to = members[pos].sid
                sat.arrival_time = float(tau)
        return float(t_end) + 1.0
