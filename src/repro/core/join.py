"""Station insertion: the Random Access Period and the join handshake
(Sec. 2.4.1, Fig. 3).

Each SAT round at most one station may open a RAP, guarded by the
``RAP_mutex`` flag carried in the SAT.  The RAP has an *earing* phase
(``T_ear`` slots) and an *update* phase (``T_update`` slots); the network is
idle for the whole ``T_rap = T_ear + T_update``.

Handshake on the broadcast/CDMA channel:

1. the ingress station broadcasts ``NEXT_FREE`` (its address+code, its
   successor's address+code, ``T_ear`` and the maximum resources the network
   can still offer);
2. a requesting station that has heard ``NEXT_FREE`` from two *consecutive*
   ring stations — i.e. it can reach both over a single hop — replies during
   the earing phase with a ``JOIN_REQ`` spread with the ingress's code,
   containing its address, its own code and its ``(l, k)`` quotas.  Several
   requesters answering in the same slot collide at the ingress; each picks
   a uniformly random reply slot so collisions resolve across RAPs;
3. the ingress runs admission control and answers ``JOIN_ACK`` (accept or
   reject) with its own code — exactly what the requester is listening for;
4. in the update phase the topology change is broadcast and the new station
   enters the ring between the ingress and its successor at the RAP's end.

If the requester hears no reply within ``T_ear`` slots it abandons the
attempt and waits for later ``NEXT_FREE`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.core.admission import AdmissionController
from repro.core.quotas import QuotaConfig
from repro.events import types as _ev
from repro.phy.cdma import BROADCAST_CODE
from repro.phy.channel import Frame
from repro.sim.process import Signal

__all__ = ["JoinManager", "JoinRequester", "JoinOutcome",
           "NextFree", "JoinRequest", "JoinAck", "RingUpdate"]


# ----------------------------------------------------------------------
# message payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NextFree:
    """The ingress announcement opening a RAP."""

    sender: int
    sender_code: int
    next_station: int
    next_code: int
    t_ear: int
    max_resources: int    # largest l+k the network could still admit
    rap_end: float


@dataclass(frozen=True)
class JoinRequest:
    requester: int
    code_new: int
    quota: QuotaConfig
    deadline_req: Optional[float] = None
    max_backlog: int = 0


@dataclass(frozen=True)
class JoinAck:
    requester: int
    accepted: bool
    reason: str
    after_station: int


@dataclass(frozen=True)
class RingUpdate:
    """Update-phase broadcast: the topology change everyone (including the
    new station, whose ACK may have been lost to a collision) learns from."""

    new_station: int
    after_station: int


class JoinOutcome(Enum):
    LISTENING = "listening"
    REQUEST_SENT = "request_sent"
    ACCEPTED = "accepted"
    JOINED = "joined"
    REJECTED = "rejected"
    GAVE_UP = "gave_up"   # capped retries exhausted (lossy channel)


# ----------------------------------------------------------------------
@dataclass
class _RapSession:
    ingress: int
    t0: float
    t_ear_end: float
    t_end: float
    accepted: Optional[JoinRequest] = None
    requests_heard: List[JoinRequest] = field(default_factory=list)


class JoinManager:
    """Network-side RAP scheduling and the ingress role."""

    def __init__(self, net) -> None:
        self.net = net
        self.admission = AdmissionController(net)
        self._countdown: Dict[int, int] = {}
        self.session: Optional[_RapSession] = None
        self.raps_opened = 0
        self.joins_completed = 0
        self.joins_rejected = 0
        if net.channel is not None:
            for sid in net.order:
                net.register_frame_handler(sid, self._on_station_frame)
        net.events.add_binder(self._bind_emitters)

    def _bind_emitters(self) -> None:
        em = self.net.events.emitter
        self._ev_open = em(_ev.RapOpen)
        self._ev_request = em(_ev.RapRequest)
        self._ev_close = em(_ev.RapClose)

    # ------------------------------------------------------------------
    def effective_s_round(self) -> int:
        """The paper requires ``S_round(i) >= N``."""
        return max(self.net.config.s_round, self.net.n)

    def maybe_enter_rap(self, holder: int, t: float) -> bool:
        """Called on every SAT arrival of a ring that runs RAPs
        (``config.rap_enabled``); opens a RAP when this station is due and
        the mutex is free."""
        net = self.net
        count = self._countdown.get(holder)
        if count is None:
            # stagger initial duties so roughly one station is due per round
            count = net._pos[holder] + 1
        count -= 1
        self._countdown[holder] = count
        if count > 0 or net.sat.rap_mutex:
            return False

        sat = net.sat
        sat.rap_mutex = True
        sat.rap_owner = holder
        self._countdown[holder] = self.effective_s_round()
        cfg = net.config
        self.session = _RapSession(
            ingress=holder, t0=t,
            t_ear_end=t + cfg.t_ear, t_end=t + cfg.t_rap)
        net.pause_until = t + cfg.t_rap
        self.raps_opened += 1
        self._ev_open(t, holder)

        if net.channel is not None:
            nxt = net.successor(holder)
            payload = NextFree(
                sender=holder,
                sender_code=net.codes.code_of(holder),
                next_station=nxt,
                next_code=net.codes.code_of(nxt),
                t_ear=cfg.t_ear,
                max_resources=self.admission.max_admissible_quota(),
                rap_end=t + cfg.t_rap)
            net.channel.transmit(Frame(src=holder, code=BROADCAST_CODE,
                                       payload=payload, kind="control"))
        return True

    # ------------------------------------------------------------------
    def on_rap_tick(self, t: float) -> None:
        """Hook for paused ticks; the handshake itself is frame-driven."""

    def on_rap_end(self, t: float) -> None:
        session = self.session
        if session is None:
            return
        self.session = None
        req = session.accepted
        if req is None:
            self._ev_close(t, session.ingress, None, None)
            return
        if req.requester in self.net._pos:
            # stale duplicate accept (the requester's earlier ACK was lost
            # to a collision and it re-requested); the ring already has it
            self._ev_close(t, session.ingress, None, req.requester)
            return
        code = req.code_new
        used = {self.net.codes.code_of(s) for s in self.net.codes.stations()}
        if code in used or code == BROADCAST_CODE:
            code = None
        self.net.insert_station(req.requester, after=session.ingress,
                                quota=req.quota, code=code)
        self.joins_completed += 1
        if self.net.channel is not None:
            # update phase: broadcast the topology change (Sec. 2.4.1's
            # T_update); this is also the joiner's fallback confirmation
            self.net.channel.transmit(Frame(
                src=session.ingress, code=BROADCAST_CODE,
                payload=RingUpdate(new_station=req.requester,
                                   after_station=session.ingress),
                kind="control"))
        self._ev_close(t, session.ingress, req.requester, None)

    # ------------------------------------------------------------------
    def _on_station_frame(self, frame: Frame, t: float) -> None:
        payload = frame.payload
        if not isinstance(payload, JoinRequest):
            return
        session = self.session
        if session is None or t >= session.t_ear_end:
            return  # not in an earing phase: ignore stray requests
        ingress = session.ingress
        session.requests_heard.append(payload)
        if session.accepted is not None:
            return  # one admission per RAP
        decision = self.admission.evaluate(payload)
        ack = JoinAck(requester=payload.requester, accepted=decision.accepted,
                      reason=decision.reason, after_station=ingress)
        # reply in the next slot, spread with the ingress's own code —
        # exactly the code the requester is waiting on (Sec. 2.4.1)
        reply = Frame(src=ingress, code=self.net.codes.code_of(ingress),
                      payload=ack, kind="control")
        self.net.engine.schedule(1.0, self.net.channel.transmit, reply)
        if decision.accepted:
            session.accepted = payload
        else:
            self.joins_rejected += 1
        self._ev_request(t, payload.requester, decision.accepted,
                         decision.reason)


# ----------------------------------------------------------------------
class JoinRequester:
    """A station outside the ring executing the Sec. 2.4.1 'new station'
    algorithm over the broadcast channel."""

    #: adaptive mode: ceiling on the RAP-opportunity skip window, so the
    #: exponential backoff cannot push the ``max_attempts`` give-up
    #: deadline beyond ``max_attempts * (BACKOFF_CAP + 1)`` opportunities
    BACKOFF_CAP = 8

    def __init__(self, net, new_sid: int, quota: QuotaConfig,
                 code_new: Optional[int] = None,
                 deadline_req: Optional[float] = None,
                 max_backlog: int = 0,
                 rng=None,
                 max_attempts: Optional[int] = None,
                 retry_jitter: int = 0):
        if net.channel is None:
            raise ValueError("joining requires a PHY channel on the network")
        if new_sid in net._pos:
            raise ValueError(f"station {new_sid} is already a ring member")
        self.net = net
        self.sid = new_sid
        self.quota = quota
        self.code_new = code_new if code_new is not None else 1000 + new_sid
        self.deadline_req = deadline_req
        self.max_backlog = max_backlog
        self.rng = rng
        #: None = retry across RAP rounds forever (the paper's behaviour on
        #: a clean channel); an int caps the attempts before GAVE_UP
        self.max_attempts = max_attempts
        #: after a failed attempt, skip a random 0..retry_jitter NEXT_FREE
        #: opportunities — decorrelates requesters whose JOIN_REQs keep
        #: colliding or fading on a lossy channel (needs ``rng``)
        self.retry_jitter = retry_jitter
        self._skip_next = 0
        #: adaptive mode (``net.adaptive_timers``): the retry window grows
        #: exponentially per timeout instead of the uniform retry_jitter
        #: draw, reusing the RttEstimator's RFC 6298 backoff counter
        self.adaptive = bool(getattr(net, "adaptive_timers", False))
        if self.adaptive:
            from repro.core.adaptive import RttEstimator
            self._backoff = RttEstimator()

        self.state = JoinOutcome.LISTENING
        self.heard: Dict[int, NextFree] = {}
        self.cycle_complete = False
        self.candidate: Optional[int] = None
        self._tx_at: Optional[float] = None
        self._tx_frame: Optional[Frame] = None
        self._ack_deadline: Optional[float] = None
        self._await_code: Optional[int] = None
        self.t_started = net.engine.now
        self.t_requested: Optional[float] = None
        self.t_joined: Optional[float] = None
        self.attempts = 0
        self.rejections = 0
        self.joined = Signal(net.engine, name=f"join[{new_sid}]")

        net.channel.register_listener(new_sid, {BROADCAST_CODE})
        net.register_frame_handler(new_sid, self._on_frame)
        net.add_tick_hook(self._on_tick)

    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame, t: float) -> None:
        payload = frame.payload
        if isinstance(payload, NextFree):
            self._on_next_free(payload, t)
        elif isinstance(payload, JoinAck) and payload.requester == self.sid:
            self._on_ack(payload, t)
        elif isinstance(payload, RingUpdate) and payload.new_station == self.sid:
            # update-phase broadcast names us: we are in, even if the ACK
            # was lost to a collision
            if self.state is not JoinOutcome.JOINED:
                self._stop_awaiting()
                self._tx_at = None
                self._tx_frame = None
                self.state = JoinOutcome.ACCEPTED

    def _on_next_free(self, nf: NextFree, t: float) -> None:
        if nf.sender in self.heard:
            # a repeat sender: every ring station has had its RAP turn
            self.cycle_complete = True
        self.heard[nf.sender] = nf
        if self.state is not JoinOutcome.LISTENING:
            return
        if not self.cycle_complete:
            return
        if nf.max_resources < self.quota.total:
            return  # network advertises insufficient capacity; keep waiting
        # "two consecutive stations reachable over a single hop": we heard
        # this sender, and we have also heard its successor announce —
        # hearing is symmetric in the unit-disk model, so both are reachable
        if nf.next_station not in self.heard:
            return
        if self._skip_next > 0:
            # randomized retry backoff: sit this RAP out
            self._skip_next -= 1
            return
        self.candidate = nf.sender
        self._send_request(nf, t)

    def _send_request(self, nf: NextFree, t: float) -> None:
        backoff_max = max(nf.t_ear - 2, 0)
        backoff = self.rng.randint(0, backoff_max) if (self.rng and backoff_max) else 0
        self._tx_at = t + 1 + backoff
        req = JoinRequest(requester=self.sid, code_new=self.code_new,
                          quota=self.quota, deadline_req=self.deadline_req,
                          max_backlog=self.max_backlog)
        self._tx_frame = Frame(src=self.sid, code=nf.sender_code,
                               payload=req, kind="control")
        self._ack_deadline = self._tx_at + nf.t_ear
        self._await_code = nf.sender_code
        self.state = JoinOutcome.REQUEST_SENT
        self.attempts += 1
        if self.t_requested is None:
            self.t_requested = self._tx_at

    def _on_ack(self, ack: JoinAck, t: float) -> None:
        if self.state is not JoinOutcome.REQUEST_SENT:
            return
        self._stop_awaiting()
        if ack.accepted:
            self.state = JoinOutcome.ACCEPTED
        else:
            self.rejections += 1
            self.state = JoinOutcome.REJECTED

    def _stop_awaiting(self) -> None:
        if self._await_code is not None:
            codes = self.net.channel.listen_codes(self.sid)
            codes.discard(self._await_code)
            self.net.channel.register_listener(self.sid, codes)
            self._await_code = None
        self._ack_deadline = None

    # ------------------------------------------------------------------
    def _on_tick(self, t: float) -> None:
        # the hook unregisters on entering JOINED or GAVE_UP; a REJECTED
        # requester stays registered, as only the membership check below
        # can still move it on
        if self.sid in self.net._pos:
            # we are a ring member — even if both the ACK and the
            # update-phase broadcast were lost to collisions or fading,
            # membership itself is the confirmation (we start hearing the
            # dataplane); without this check a lossy channel strands an
            # inserted station in REQUEST_SENT forever
            self._stop_awaiting()
            self._tx_at = None
            self._tx_frame = None
            self.state = JoinOutcome.JOINED
            self.t_joined = t
            self.net.remove_tick_hook(self._on_tick)
            self.joined.succeed(t)
            return
        if self._tx_at is not None and t >= self._tx_at:
            self.net.channel.transmit(self._tx_frame)
            self.net.channel.add_listen_code(self.sid, self._await_code)
            self._tx_at = None
            self._tx_frame = None
        if (self.state is JoinOutcome.REQUEST_SENT
                and self._ack_deadline is not None
                and t > self._ack_deadline):
            # Sec. 2.4.1: no reply within T_ear -> wait for next NEXT_FREE
            self._stop_awaiting()
            if (self.max_attempts is not None
                    and self.attempts >= self.max_attempts):
                self.state = JoinOutcome.GAVE_UP
                self.net.remove_tick_hook(self._on_tick)
                return
            if self.adaptive:
                # exponential backoff on timeout: double the skip window
                # per failure (RFC 6298 §5.5 via the estimator's counter),
                # capped so the give-up deadline stays bounded
                self._backoff.on_timeout()
                window = min(int(self._backoff.backoff) // 2,
                             self.BACKOFF_CAP)
                if self.rng is not None and window > 0:
                    self._skip_next = self.rng.randint(0, window)
                else:
                    self._skip_next = window
            elif self.rng is not None and self.retry_jitter > 0:
                self._skip_next = self.rng.randint(0, self.retry_jitter)
            self.state = JoinOutcome.LISTENING

    # ------------------------------------------------------------------
    @property
    def join_latency(self) -> Optional[float]:
        if self.t_joined is None:
            return None
        return self.t_joined - self.t_started
