"""Batched tick driver: the scalar tick plus closed-form saturated windows.

The ring ticks once per slot through ``WRTRingNetwork._tick`` under either
kernel; after each slot it asks the installed ``tick_driver(t)`` for its
next tick time.  :class:`BatchedKernel` answers ``t + 1`` (the scalar
schedule) unless the slots ahead form a *saturated window* — every member
backlogged with successor-addressed traffic, nothing else armed.  Such a
window is closed-form: each station's residual quota budgets
(``QuotaConfig.send_schedule``) make its sends consecutive, so SAT holds and
releases follow from them and the whole window is applied from one merged
event list (``_saturated_run``; the ``saturated_slot_rate`` benchmark's
regime).  The next tick is then the slot after the window.

A window emits the SAT events of its hops itself, so it opens only while
every SAT-event subscriber only records (the trace adapter's renderings are
marked so); any other SAT subscriber, like an extra dataplane subscriber,
keeps the ring on the scalar schedule.

Runs driven with ``max_events`` budgets, or stopping, never open a window,
so budget chunk boundaries keep their scalar meaning.

``events_executed`` differs from the scalar kernel only where a window
opened; every protocol-visible output — traces, tables, summaries — matches
byte for byte.  See docs/KERNEL.md.
"""

from __future__ import annotations

import math

from repro.core.diffserv import COLUMN_CLASSES
from repro.core.sat import SAT
from repro.events.types import (SatArrive, SatHold, SatRelease,
                                SatRotation, SlotDeliver, SlotTransmit)

__all__ = ["BatchedKernel", "install_batched_kernel"]

#: a saturated window shorter than this is not worth the setup cost
_MIN_SAT_WINDOW = 8

#: the events ``_sat_step`` emits on a normal hop: a window emits them
#: itself, so each of their subscribers must only record
_SAT_EVENTS = (SatArrive, SatHold, SatRotation, SatRelease)


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
        #: saturated-path telemetry: engaged windows and slots they covered
        self.sat_windows = 0
        self.sat_slots = 0
        #: adaptive SAT timers change state on every hop (estimator samples,
        #: re-armed deadlines), so every hop must run through the real
        #: ``_sat_step`` at its real time: the saturated window, whose
        #: sends run *ahead* of engine time, stays off
        self._adaptive = bool(getattr(net, "adaptive_timers", False))
        net.tick_driver = self._next_tick
        net.events.add_binder(self._recheck_subscribers)

    # ------------------------------------------------------------------
    def _recheck_subscribers(self) -> None:
        """Re-derive ``_replicable`` (on every subscription change): the
        saturated path applies the transmit/deliver effects inline, which
        is only sound while those subscriber tuples are exactly the
        consumers it replicates — network metrics — and emits the four SAT
        hop events while the clock still reads the window's start, which
        is only sound while each of their subscribers only records
        (``record_only``).  Any other subscriber (a scorer, a gateway, an
        oracle, a SAT probe) turns the path off."""
        bus = self.net.events
        mt = self.net.metrics
        self._replicable = (
            bus.subscribers(SlotTransmit) == (mt._on_transmit,)
            and bus.subscribers(SlotDeliver) == (mt._on_deliver,)
            and all(getattr(cb, "record_only", False)
                    for etype in _SAT_EVENTS for cb in bus.subscribers(etype)))

    # ------------------------------------------------------------------
    # the tick driver
    # ------------------------------------------------------------------
    def _next_tick(self, t: float) -> float:
        """The ring's next tick time after its slot at ``t``: the slot after
        a saturated window when one opens here, ``t + 1`` otherwise."""
        eng = self.engine
        until = eng.run_until
        if (until is not None and not eng.run_budgeted
                and not eng.stopped and self._saturated(t)):
            return self._saturated_run(t, until)
        return t + 1.0

    # ------------------------------------------------------------------
    # saturated regime
    # ------------------------------------------------------------------
    def _saturated(self, t: float) -> bool:
        """True when the coming slots are a pure drain of successor-addressed
        backlog under quota control: every member alive and staying, transit
        buffers empty, all queued traffic one hop from home, the SAT a normal
        in-flight signal, and nothing else — no hooks, channel, impairments,
        RAP, gateways, extra dataplane subscribers or SAT subscribers that
        do more than record — able to observe or perturb individual slots.
        Cheapest checks first; the per-station scan runs only when
        everything else already passed.  No awake station means no packet
        anywhere (the awake set is a superset of the positions holding
        one), so the scan would find nothing."""
        net = self.net
        if self._adaptive:
            # the saturated walk applies sends *ahead* of engine time; a
            # mid-window bail back to scalar ticking would replay them.
            # Sound only because non-adaptive SAT steps cannot move timer
            # deadlines into the window — adaptive ones can, so the regime
            # runs on the scalar schedule
            return False
        if not net._awake or not self._replicable:
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
        The walk builds one merged event list — (slot, kind, pos, payload),
        kind 0 a send, 1 a SAT arrival, 2 a later release, so a slot's
        sends come before its SAT step — and never touches live state.

        Phase 2 *applies* the list in slot order.  Sends are applied
        directly (the gate proved metrics are the only consumer, and every
        packet is one hop from home).  The hand-off bookkeeping is inlined:
        the window emits ``SatArrive``/``SatHold``/``SatRotation``/
        ``SatRelease`` itself in ``_sat_step``'s order and with its fields
        (the gate proved every subscriber of them only records), and only
        each station's final SAT_TIMER restart is re-armed."""
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
                events.append((tau, 1, i, (None, True, seq, arrivals)))
                held_pos = i
                break
            events.append((tau, 1, i, (R, hold, seq, arrivals)))
            if R > tau:
                events.append((R, 2, i, None))
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
        mt = net.metrics
        transmitted = mt.transmitted
        delivered = mt.delivered
        access = [mt.access_delay[c].samples for c in COLUMN_CLASSES]
        e2e = [mt.e2e_delay[c].samples for c in COLUMN_CLASSES]
        dtr = mt.deadlines
        rot_log = net.rotation_log
        ev_arrive = net._ev_sat_arrive
        ev_hold = net._ev_sat_hold
        ev_rotation = net._ev_sat_rotation
        ev_release = net._ev_sat_release

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
            elif kind == 1:
                # ``_sat_step``'s arrival: arrive, hold, rotation, then the
                # release when the station arrived satisfied
                pR, hold, pseq, arrival_no = payload
                st = members[i]
                sid = st.sid
                tf = float(slot)
                if ev_arrive:
                    ev_arrive(tf, sid, SAT.NORMAL)
                if hold and ev_hold:
                    ev_hold(tf, sid)
                last = st.last_sat_arrival
                st.last_sat_arrival = tf
                st.last_sat_seq = pseq
                st.sat_visits += 1
                if hold:
                    st.sat_holds += 1
                if last is not None:
                    rotation = tf - last
                    rot_log.add(sid, rotation)
                    if ev_rotation:
                        ev_rotation(tf, sid, rotation)
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
                    if ev_release:
                        ev_release(tf, sid, st._succ_sid)
            else:
                st = members[i]
                tf = float(slot)
                st.last_sat_departure = tf
                st.rt_pck = 0
                st.nrt_pck = 0
                st.as_pck = 0
                st.be_pck = 0
                if ev_release:
                    ev_release(tf, st.sid, st._succ_sid)

        # deferred SAT_TIMER maintenance: every release restarted the
        # holder's watchdog, but only the final restart survives — re-arm
        # once per station, in release order, at the exact deadline the
        # scalar path would have left armed
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
