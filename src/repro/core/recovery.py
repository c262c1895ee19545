"""SAT-loss detection and recovery (Sec. 2.4.2 and 2.5).

Every station arms a ``SAT_TIMER`` with the current Theorem-1 bound and
restarts it whenever it releases the SAT (or sees a SAT_REC).  On expiry the
station presumes its *predecessor* failed — the station whose timer fires
first is always the next one the lost SAT would have visited — and launches
a ``SAT_REC``:

* the SAT_REC circulates like a SAT (stations renew quotas and restart
  timers) but is never held, so the repair completes in at most one walk;
* the predecessor of the presumed-failed station sends it *directly* to the
  failed station's successor (encoding with that successor's code), cutting
  the failed station out — possible only if the two are in radio range;
* if the SAT_REC returns to its originator within ``SAT_TIME``, the ring is
  re-established without the failed station and the signal becomes a normal
  SAT; otherwise the originator declares the ring lost, broadcasts
  ``RING_LOST`` and a full ring (re)formation procedure runs.

Deviation noted in DESIGN.md: the paper says stations treat the SAT_REC "as
a normal SAT", which would allow not-satisfied stations to seize it; we
forward it immediately because recovery latency is the quantity under test
(Sec. 3.3) and holding would only add traffic-dependent noise on top of the
same bounds.

Graceful departure (Sec. 2.4.2) reuses the same machinery: the successor of
a leaving station converts the next SAT it receives into a SAT_REC that cuts
the leaver out — no timer expiry needed, so it completes a detection period
faster than an unannounced death.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.adaptive import RttEstimator
from repro.core.sat import SAT
from repro.events import types as _ev
from repro.phy.cdma import BROADCAST_CODE
from repro.phy.channel import Frame
from repro.phy.topology import TopologyError, construct_ring
from repro.sim.timers import Timer

__all__ = ["RecoveryManager", "RecoveryRecord"]


@dataclass
class RecoveryRecord:
    """One recovery episode, from trigger to resolution."""

    kind: str                      # "silent" | "graceful" | "sat_loss"
    failed_station: Optional[int]
    t_event: Optional[float]       # injection time (known to the harness)
    t_detected: float              # timer expiry / leave conversion time
    t_completed: Optional[float] = None
    outcome: str = "pending"       # "cutout" | "rebuild" | "down" | "pending"
    extra: dict = field(default_factory=dict)

    @property
    def detection_delay(self) -> Optional[float]:
        if self.t_event is None:
            return None
        return self.t_detected - self.t_event

    @property
    def total_delay(self) -> Optional[float]:
        if self.t_event is None or self.t_completed is None:
            return None
        return self.t_completed - self.t_event


class RecoveryManager:
    """Owns the per-station SAT_TIMERs and the SAT_REC / rebuild procedures."""

    #: slots per alive station the distributed ring re-formation costs
    #: (one announcement round + one confirmation round on the broadcast
    #: channel; a modelling substitution documented in DESIGN.md).
    REBUILD_SLOTS_PER_STATION = 2

    def __init__(self, net) -> None:
        self.net = net
        self.timers: Dict[int, Timer] = {}
        self.records: List[RecoveryRecord] = []
        self.active: Optional[RecoveryRecord] = None
        self._pending_event: Optional[tuple] = None  # (kind, sid, t)
        self.ring_rebuilds = 0
        self._rebuild_initiator: Optional[int] = None
        self._rebuild_attempts = 0
        #: slots the network spent paused in re-formation procedures —
        #: the unavailability the mobility experiments report
        self.total_rebuild_time = 0.0
        #: adaptive SAT timers (RFC 6298 estimation; off by default so the
        #: paper's fixed Theorem-1 timer — and every existing trace — is
        #: untouched).  Estimator state survives cut-outs and rebuilds;
        #: only estimators of stations that left the ring are pruned.
        self.adaptive = bool(getattr(net, "adaptive_timers", False))
        self.estimators: Dict[int, RttEstimator] = {}
        self._last_armed: Dict[int, float] = {}
        #: SAT_REC launches whose watched-for SAT was demonstrably alive
        #: (counted in both modes; the FalseSatRec event is adaptive-only)
        self.false_triggers = 0
        net.events.add_binder(self._bind_emitters)

    def _bind_emitters(self) -> None:
        em = self.net.events.emitter
        self._ev_timeout = em(_ev.SatTimeout)
        self._ev_graceful = em(_ev.GracefulCutout)
        self._ev_rec_failed = em(_ev.SatRecFailed)
        self._ev_recovered = em(_ev.SatRecovered)
        self._ev_rebuild_start = em(_ev.RebuildStart)
        self._ev_rebuild_retry = em(_ev.RebuildRetry)
        self._ev_rebuild_done = em(_ev.RebuildDone)
        self._ev_down = em(_ev.RingDown)
        self._ev_episode = em(_ev.RecoveryEpisode)
        self._ev_lost = em(_ev.PacketLost)
        self._ev_adapted = em(_ev.TimerAdapted)
        self._ev_false_rec = em(_ev.FalseSatRec)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def arm_all(self) -> None:
        bound = self.net.sat_time_bound()
        for sid in self.net.order:
            self._arm(sid, bound)

    def _arm(self, sid: int, bound: float) -> None:
        timer = self.timers.get(sid)
        if timer is None:
            timer = Timer(self.net.engine, bound,
                          lambda s=sid: self._on_timer_expired(s),
                          name=f"SAT_TIMER_{sid}")
            self.timers[sid] = timer
        timer.restart(bound)
        if self.adaptive:
            prev = self._last_armed.get(sid)
            self._last_armed[sid] = bound
            if prev is not None and bound != prev:
                est = self.estimators.get(sid)
                self._ev_adapted(self.net.engine.now, sid, bound,
                                 est.srtt if est is not None else None,
                                 est.rttvar if est is not None else None)

    def _bound_for(self, sid: int) -> float:
        """The duration to arm ``sid``'s SAT_TIMER with right now.

        Fixed mode: always the Theorem-1 bound.  Adaptive mode: the
        estimator's RFC 6298 timeout, ceilinged at that bound — except
        while a recovery or rebuild is in progress, where the worst case
        applies (Karn-consistent: the walk itself must be allowed the
        full ``SAT_TIME`` the paper grants it).
        """
        ceiling = self.net.sat_time_bound()
        if (not self.adaptive or self.active is not None
                or self.net.rebuilding_until is not None):
            return ceiling
        est = self.estimators.get(sid)
        if est is None:
            return ceiling
        # any rotation may legitimately absorb one RAP join window the
        # past samples never contained — budget for it additively
        return est.rto(ceiling,
                       allowance=float(self.net.config.effective_t_rap()))

    def restart_timer(self, sid: int) -> None:
        # arm-if-missing (not restart-if-present): a station that joined
        # after the last arm_all() must be watched from its first SAT
        # release, or its predecessor could die undetected
        self._arm(sid, self._bound_for(sid))

    def disarm_all(self) -> None:
        for timer in self.timers.values():
            timer.stop()

    def on_membership_change(self, arm_new: Optional[int] = None,
                             removed: Optional[int] = None) -> None:
        if removed is not None:
            timer = self.timers.pop(removed, None)
            if timer is not None:
                timer.stop()
            self.estimators.pop(removed, None)
            self._last_armed.pop(removed, None)
        # everyone re-arms at the *fixed* bound for the new membership:
        # the estimators have not yet seen a rotation of the new regime,
        # and the first post-change arrival samples it before the first
        # adaptive re-arm — so surviving estimator state is kept (the
        # tentpole: no reset to worst case) without ever under-timing
        bound = self.net.sat_time_bound()
        for sid in self.net.order:
            self._arm(sid, bound)
        if arm_new is not None and arm_new not in self.timers:
            self._arm(arm_new, bound)

    def observe_rotation(self, sid: int, rotation: float) -> None:
        """Feed one measured SAT rotation into ``sid``'s estimator (the
        ring calls this only with adaptive timers on).

        Karn's rule: a sample taken while a recovery episode or a ring
        rebuild is in progress is excluded — it measures the repair, not
        the steady-state rotation.  (Samples *spanning* a repair cannot
        occur at all: cut-outs and rebuilds reset every station's
        ``last_sat_arrival``, starting a fresh measurement epoch.)
        """
        est = self.estimators.get(sid)
        if est is None:
            est = self.estimators[sid] = RttEstimator()
        if self.active is not None or self.net.rebuilding_until is not None:
            est.exclude()
            return
        est.observe(rotation)

    @property
    def samples_excluded(self) -> int:
        """Total Karn-excluded rotation samples across all estimators."""
        return sum(est.excluded for est in self.estimators.values())

    # ------------------------------------------------------------------
    # injection notes (ground truth for the harness's latency metrics)
    # ------------------------------------------------------------------
    def note_failure(self, sid: int, t: float) -> None:
        self._pending_event = ("silent", sid, t)
        timer = self.timers.pop(sid, None)
        if timer is not None:
            timer.stop()

    def note_sat_loss(self, t: float) -> None:
        if self.active is not None:
            # the signal died during an episode already in progress (e.g.
            # the SAT_REC itself was lost): attribute the loss to the
            # running record instead of queueing a phantom trigger that
            # would mis-date the *next* episode
            self.active.extra.setdefault("extra_losses", []).append(t)
            return
        if self._pending_event is None:
            self._pending_event = ("sat_loss", None, t)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _on_timer_expired(self, sid: int) -> None:
        net = self.net
        t = net.engine.now
        if net.network_down or net.rebuilding_until is not None:
            return
        if sid not in net._pos or not net.stations[sid].alive:
            return
        if self.active is not None:
            if sid == self.active.extra.get("originator"):
                # the SAT_REC never came back: ring lost (Sec. 2.5)
                self.start_rebuild(sid, t)
            else:
                # someone else is already recovering; stand down for a period
                self._arm(sid, net.sat_time_bound())
            return

        presumed = net.predecessor(sid)
        kind, event_sid, t_event = self._pending_event or ("sat_loss", None, None)
        self._pending_event = None
        record = RecoveryRecord(kind=kind, failed_station=presumed,
                                t_event=t_event, t_detected=t,
                                extra={"originator": sid,
                                       "injected_station": event_sid})
        self.records.append(record)
        self.active = record
        self._ev_timeout(t, sid, presumed)

        # false-trigger audit: if the SAT this timer watches for is
        # demonstrably alive (in flight or held somewhere) *and* the
        # presumed-failed predecessor is too, this SAT_REC will cut an
        # innocent station out.  The launch proceeds — that destructive
        # cost is exactly what E26 measures — but the episode is tagged
        # and counted in both modes; the typed event is adaptive-only so
        # default traces stay byte-identical.  (A live SAT still en route
        # to a dead station is a *correct* detection, hence the alive
        # check.)
        live = self.net.sat
        if (not net._sat_lost and live.kind == SAT.NORMAL
                and (live.at_station is not None or live.in_flight)
                and net.stations[presumed].alive):
            self.false_triggers += 1
            record.extra["false_trigger"] = True
            if self.adaptive:
                self._ev_false_rec(t, sid, presumed, live.seq)
        if self.adaptive:
            est = self.estimators.get(sid)
            if est is None:
                est = self.estimators[sid] = RttEstimator()
            est.on_timeout()

        # launch the SAT_REC from the detector
        sat = SAT()
        sat.to_recovery(failed_station=presumed, originator=sid)
        sat.at_station = sid
        net.sat = sat
        net._sat_lost = False
        net.stations[sid].on_sat_release(t)
        self._arm(sid, net.sat_time_bound())   # must return within SAT_TIME
        self._forward_sat_rec(sid, t)

    def start_graceful_cutout(self, failed: int, originator: int, t: float) -> None:
        """Sec. 2.4.2: successor converts the SAT into a SAT_REC."""
        net = self.net
        record = RecoveryRecord(kind="graceful", failed_station=failed,
                                t_event=t, t_detected=t,
                                extra={"originator": originator})
        self.records.append(record)
        self.active = record
        sat = net.sat
        sat.to_recovery(failed_station=failed, originator=originator)
        net.stations[originator].on_sat_release(t)
        self.restart_timer(originator)
        self._ev_graceful(t, failed)
        self._forward_sat_rec(originator, t)

    # ------------------------------------------------------------------
    # SAT_REC circulation
    # ------------------------------------------------------------------
    def _forward_sat_rec(self, holder: int, t: float) -> None:
        net = self.net
        sat = net.sat
        nxt = net.successor(holder)
        if nxt == sat.failed_station:
            # Sec. 2.5: station i-1 sends the SAT_REC with code i+1,
            # cutting station i out — feasible only within radio range.
            target = net.successor(nxt)
            if target == holder or not net.reachable(holder, target):
                # hidden terminal: the cut-out hop is impossible; the signal
                # dies and the originator's timer will declare the ring lost
                net._sat_lost = True
                sat.at_station = None
                self._ev_rec_failed(t, holder, target)
                return
            nxt = target
        if net.config.enforce_radio_links and not net.reachable(holder, nxt):
            # mobility broke even the ordinary hop: the SAT_REC is lost; the
            # originator's watchdog will escalate to a full re-formation
            net._sat_lost = True
            sat.at_station = None
            self._ev_rec_failed(t, holder, nxt)
            return
        imp = net.impairments
        if imp is not None:
            reason = imp.loss(t, holder, nxt, code=net.codes.code_of(nxt),
                              kind="sat")
            if reason is not None:
                # the SAT_REC frame faded on this hop; the originator's
                # watchdog will escalate to a full re-formation
                net._sat_lost = True
                sat.at_station = None
                net._ev_sat_hop_lost(t, holder, nxt, sat.kind, reason)
                self.note_sat_loss(t)
                return
        sat.seq = net.next_sat_seq()
        sat.depart(nxt, t + net.config.sat_hop_slots)

    def on_sat_rec_arrival(self, holder: int, t: float) -> None:
        """Called by the network when a SAT_REC reaches ``holder``."""
        net = self.net
        sat = net.sat
        if holder == sat.originator and sat.hops > 0:
            self._complete_cutout(holder, t)
            return
        # intermediate station: treat as a SAT for quota renewal and timers,
        # then forward immediately
        net.stations[holder].on_sat_release(t)
        self.restart_timer(holder)
        self._forward_sat_rec(holder, t)

    def _complete_cutout(self, holder: int, t: float) -> None:
        net = self.net
        sat = net.sat
        failed = sat.failed_station
        if failed is not None and failed in net._pos:
            if net.sat.rap_owner == failed:
                sat.rap_mutex = False
                sat.rap_owner = None
            net.remove_station(failed)
        sat.to_normal()
        # fresh rotation-measurement epoch: the recovery gap must not be
        # counted as a rotation sample against the Theorem-1 bound
        for sid in net.order:
            net.stations[sid].last_sat_arrival = None
        if self.active is not None:
            self.active.t_completed = t
            self.active.outcome = "cutout"
            self._publish_episode(self.active, t)
            self.active = None
        self.on_membership_change()
        self._ev_recovered(t, failed, holder)

    # ------------------------------------------------------------------
    # full ring re-formation
    # ------------------------------------------------------------------
    def start_rebuild(self, initiator: int, t: float) -> None:
        net = self.net
        if self.active is None:
            # direct entry (e.g. unrecoverable geometry detected later);
            # consume any pending injection note so the episode is dated
            # from the real trigger and cannot leak into a later record
            kind, event_sid, t_event = self._pending_event or ("sat_loss", None, None)
            self._pending_event = None
            self.active = RecoveryRecord(kind=kind, failed_station=None,
                                         t_event=t_event, t_detected=t,
                                         extra={"originator": initiator,
                                                "injected_station": event_sid})
            self.records.append(self.active)
        self.active.extra["rebuild_started"] = t
        net._sat_lost = True
        net.sat.at_station = None
        net.sat.rap_mutex = False
        net.sat.rap_owner = None
        net.pause_until = float("-inf")
        self.disarm_all()
        alive = [sid for sid in net.order if net.stations[sid].alive]
        duration = self.REBUILD_SLOTS_PER_STATION * max(len(alive), 1)
        net.rebuilding_until = t + duration
        self.total_rebuild_time += duration
        self._rebuild_initiator = initiator
        self._rebuild_attempts = 0
        if net.channel is not None:
            net.channel.transmit(Frame(src=initiator, code=BROADCAST_CODE,
                                       payload="RING_LOST", kind="control"))
        self._ev_rebuild_start(t, initiator, duration)

    def finish_rebuild(self, t: float) -> None:
        net = self.net
        net.rebuilding_until = None
        alive = [sid for sid in net.order if net.stations[sid].alive]
        graph = net.graph()
        try:
            if len(alive) < 2:
                raise TopologyError("fewer than 2 alive stations")
            if graph is not None:
                new_order = construct_ring(graph.subgraph(alive))
            else:
                new_order = alive
        except TopologyError as exc:
            self._rebuild_attempts += 1
            if (len(alive) >= 2 and
                    self._rebuild_attempts < net.config.rebuild_retry_limit):
                # stations may wander back into range: keep trying (the
                # Sec. 2.5 "new procedure to form a ring" runs until it
                # succeeds or the operator gives up)
                duration = self.REBUILD_SLOTS_PER_STATION * len(alive)
                net.rebuilding_until = t + duration
                self.total_rebuild_time += duration
                self._ev_rebuild_retry(t, self._rebuild_attempts, str(exc))
                return
            net.network_down = True
            if self.active is not None:
                self.active.outcome = "down"
                self.active.t_completed = t
                self.active.extra["error"] = str(exc)
                self._publish_episode(self.active, t)
                self.active = None
            self._ev_down(t, str(exc))
            return

        dropped = [sid for sid in net.order if sid not in new_order]
        for sid in dropped:
            st = net.stations[sid]
            # every packet still buffered at a dropped station is lost —
            # class queues included, not just the insertion buffer
            for queue in (st.transit, st.rt_queue, st.as_queue, st.be_queue):
                for pkt in queue:
                    pkt.dropped = True
                    self._ev_lost(t, pkt, "rebuild", sid, None)
                queue.clear()
            if net.channel is not None:
                net.channel.remove_listener(sid)
        net.order = new_order
        net._reindex()
        self.ring_rebuilds += 1

        initiator = self._rebuild_initiator
        if initiator not in net._pos:
            initiator = net.order[0]
        sat = SAT()
        sat.at_station = initiator
        net.sat = sat
        net._sat_lost = False
        for sid in net.order:
            net.stations[sid].last_sat_arrival = None
        net.stations[initiator].on_sat_arrival(t)
        self.timers.clear()
        self._last_armed.clear()
        # estimator state *survives* the rebuild (the whole point of the
        # adaptive mode: no reset to worst case); only the estimators of
        # stations the new ring left behind are pruned
        for sid in list(self.estimators):
            if sid not in net._pos:
                del self.estimators[sid]
        self.arm_all()
        if self.active is not None:
            self.active.outcome = "rebuild"
            self.active.t_completed = t
            self._publish_episode(self.active, t)
            self.active = None
        self._ev_rebuild_done(t, list(net.order))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _publish_episode(self, record: RecoveryRecord, t: float) -> None:
        """Emit the finished episode onto the event bus (obs counts them)."""
        self._ev_episode(t, record.kind, record.outcome,
                         record.failed_station, record.total_delay)
