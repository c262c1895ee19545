"""Voice/multimedia sessions over a WRT-Ring: arrival, admission, teardown.

The paper's target applications are interactive voice and multimedia; this
module models them as *sessions* on top of the traffic generators:

* :class:`VoiceCall` — a bidirectional pair of on/off talkspurt flows
  (:class:`~repro.traffic.generators.OnOffSource`) with G.711-style
  defaults in slot units: one packet per 20 slots at peak (20 ms
  packetization at 1 ms/slot), ~350-slot talkspurts, ~650-slot silences,
  a 150-slot delivery deadline (the ITU one-way target).
* :class:`VideoSession` — a unidirectional GoP-patterned stream
  (:class:`~repro.traffic.generators.VideoSource`).
* :class:`SessionManager` — drives the lifecycle: calls arrive as a
  Poisson process, are admitted or refused by call-level CAC built on the
  Sec. 2.6 bounds (or, with ``join_via_rap``, by the network's own
  RAP/:class:`~repro.core.admission.AdmissionController` machinery while
  the caller joins the ring as a new station), run for an exponential
  holding time, and end — or are *cut* mid-call when an endpoint is
  killed, cut out, or dropped by a ring rebuild.

Member-mode CAC (the default) admits a call only if (a) the Theorem-3
access-delay bound on the current ring still meets the call's deadline and
(b) both endpoints keep their mean admitted voice load within the
guaranteed throughput ``l_i`` per worst-case SAT rotation — so refusals
grow naturally with concurrent calls, mirroring the paper's "the network
checks if the requirements can be satisfied".

Determinism contract: call arrivals/holding times are pre-drawn from named
RNG streams at construction and scheduled as engine events at priority -1
(the fault-schedule priority, before the slot tick), endpoints are drawn
at fire time from the then-current membership, and no tick hook is
installed unless ``join_via_rap`` demands one — so a backlogged ring under
the batched kernel keeps its saturated windows, and both kernels replay the
same byte-identical event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.bounds import access_delay_bound, sat_rotation_bound
from repro.config_io import option
from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig
from repro.events.types import (CallCut, CallEnded, CallRefused, CallStarted,
                                RebuildDone, RingDown, StationKilled,
                                StationRemoved)
from repro.qoe.score import DEFAULT_MOS_FLOOR, FlowScore, PerceptualScorer
from repro.traffic.flows import FlowSpec

__all__ = ["CallsSpec", "VoiceCall", "VideoSession", "SessionManager"]

_SERVICES = {"premium": ServiceClass.PREMIUM,
             "assured": ServiceClass.ASSURED,
             "best_effort": ServiceClass.BEST_EFFORT}

#: station ids allocated to RAP-joining callers (clear of the fuzz
#: schedule's 100+ join faults and any plausible ring membership)
RAP_CALLER_BASE = 500


@dataclass(frozen=True)
class CallsSpec:
    """Declarative description of a call-arrival workload."""

    count: int = 10                 # calls offered over the run
    arrival_rate: float = option(0.005, omit_default=True)    # calls/slot (Poisson)
    mean_holding: float = option(2000.0, omit_default=True)   # exponential holding time, slots
    packet_period: float = option(20.0, omit_default=True)    # peak packet spacing (G.711), slots
    mean_talkspurt: float = option(350.0, omit_default=True)  # mean ON duration, slots
    mean_silence: float = option(650.0, omit_default=True)    # mean OFF duration, slots
    deadline: float = option(150.0, omit_default=True)        # per-packet delivery deadline, slots
    service: str = option("premium", omit_default=True)
    mos_floor: float = option(DEFAULT_MOS_FLOOR, omit_default=True)
    slot_ms: float = option(1.0, omit_default=True)           # slot -> ms, E-model delay term
    video_fraction: float = option(0.0, omit_default=True)    # fraction of sessions that are video
    admission: bool = option(True, omit_default=True)         # run call-level CAC
    join_via_rap: bool = option(False, omit_default=True)     # callers join the ring through RAP

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.arrival_rate <= 0 or self.mean_holding <= 0:
            raise ValueError("arrival_rate and mean_holding must be positive")
        if self.packet_period <= 0:
            raise ValueError(f"packet_period must be positive, "
                             f"got {self.packet_period!r}")
        if self.mean_talkspurt <= 0 or self.mean_silence <= 0:
            raise ValueError("mean_talkspurt and mean_silence must be positive")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline!r}")
        if self.service not in _SERVICES:
            raise ValueError(f"unknown service {self.service!r}; "
                             f"known: {sorted(_SERVICES)}")
        if not 0.0 <= self.video_fraction <= 1.0:
            raise ValueError(f"video_fraction must be in [0, 1], "
                             f"got {self.video_fraction!r}")

    @property
    def peak_rate(self) -> float:
        return 1.0 / self.packet_period

    @property
    def mean_rate(self) -> float:
        """Long-run per-direction offered load, packets/slot."""
        return self.peak_rate * self.mean_talkspurt / (self.mean_talkspurt
                                                       + self.mean_silence)

    @property
    def service_class(self) -> ServiceClass:
        return _SERVICES[self.service]


# ----------------------------------------------------------------------
class _SessionBase:
    """Common lifecycle state of one call/session."""

    kind = "voice"

    def __init__(self, cid: int, src: int, dst: int, spec: CallsSpec,
                 t_arrive: float, holding: float):
        self.cid = cid
        self.src = src
        self.dst = dst
        self.spec = spec
        self.t_arrive = t_arrive
        self.holding = holding
        self.state = "pending"
        self.t_start: Optional[float] = None
        self.t_stop: Optional[float] = None
        self.refusal_reason: Optional[str] = None
        self.cut_station: Optional[int] = None
        self.flows: List[FlowSpec] = []
        self.sources: List[Any] = []
        self.scores: List[FlowScore] = []

    # flows are allocated at PENDING so a refused call owns flow ids the
    # oracles can assert never reached the ledger
    def _make_flows(self) -> List[FlowSpec]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def mos(self) -> Optional[float]:
        """Call MOS = the worse of the two directions (a conversation is
        only as good as its bad leg)."""
        if not self.scores:
            return None
        return min(s.mos for s in self.scores)

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"call": self.cid, "kind": self.kind,
                               "src": self.src, "dst": self.dst,
                               "state": self.state}
        if self.t_start is not None:
            out["t_start"] = self.t_start
        if self.t_stop is not None:
            out["t_stop"] = self.t_stop
        if self.refusal_reason is not None:
            out["refused"] = self.refusal_reason
        if self.cut_station is not None:
            out["cut_station"] = self.cut_station
        if self.mos is not None:
            out["mos"] = round(self.mos, 4)
            out["directions"] = [s.to_dict() for s in self.scores]
        return out


class VoiceCall(_SessionBase):
    """A bidirectional talkspurt call: one on/off flow per direction."""

    kind = "voice"

    def _make_flows(self) -> List[FlowSpec]:
        spec = self.spec
        self.flows = [
            FlowSpec(src=self.src, dst=self.dst, service=spec.service_class,
                     deadline=spec.deadline),
            FlowSpec(src=self.dst, dst=self.src, service=spec.service_class,
                     deadline=spec.deadline),
        ]
        return self.flows

    @property
    def offered_rate(self) -> float:
        """Mean offered load per endpoint (each endpoint sources one
        direction), packets/slot."""
        return self.spec.mean_rate


class VideoSession(_SessionBase):
    """A unidirectional GoP-patterned stream src -> dst."""

    kind = "video"

    def _make_flows(self) -> List[FlowSpec]:
        spec = self.spec
        self.flows = [
            FlowSpec(src=self.src, dst=self.dst, service=spec.service_class,
                     deadline=spec.deadline),
        ]
        return self.flows

    @property
    def offered_rate(self) -> float:
        # VideoSource default GoP IBBPBBPBB at I:6/P:4/B:2 = 28 packets
        # per 9 frames; one frame per packet_period slots
        return 28.0 / (9.0 * self.spec.packet_period)


# ----------------------------------------------------------------------
class SessionManager:
    """Owns the call population of one scenario run."""

    def __init__(self, net, workload, spec: CallsSpec, streams,
                 scorer: Optional[PerceptualScorer] = None):
        self.net = net
        self.workload = workload
        self.spec = spec
        self.scorer = scorer if scorer is not None else PerceptualScorer(
            slot_ms=spec.slot_ms)
        self.scorer.attach(net.events)
        self.calls: List[_SessionBase] = []
        self._active_rate: Dict[int, float] = {}
        self._requesters: Dict[int, Any] = {}   # cid -> JoinRequester
        self._finalized = False

        self._pick = streams.stream("calls.pick")
        arrivals = streams.stream("calls.arrivals")
        engine = net.engine
        t = 0.0
        for cid in range(spec.count):
            t += arrivals.expovariate(spec.arrival_rate)
            holding = arrivals.expovariate(1.0 / spec.mean_holding)
            video = (spec.video_fraction > 0
                     and arrivals.random() < spec.video_fraction)
            # priority -1: same slot-relative ordering as the fault
            # schedule, identical under both kernels
            engine.schedule_at(t, self._call_arrives, cid, holding, video,
                               priority=-1)

        net.events.add_binder(self._bind)
        net.events.subscribe(StationKilled, self._on_station_gone)
        net.events.subscribe(StationRemoved, self._on_station_gone)
        net.events.subscribe(RebuildDone, self._on_rebuild_done)
        net.events.subscribe(RingDown, self._on_ring_down)
        if spec.join_via_rap:
            if net.channel is None:
                raise ValueError("calls.join_via_rap needs the broadcast "
                                 "channel (set use_channel=True)")
            if not net.config.rap_enabled:
                raise ValueError("calls.join_via_rap needs rap_enabled=True")
            # polling the requesters needs a tick hook; RAP mode already
            # keeps the batched kernel's saturated window off, so this
            # costs nothing
            net.add_tick_hook(self._poll_requesters)

    def _bind(self) -> None:
        bus = self.net.events
        self._ev_started = bus.emitter(CallStarted)
        self._ev_refused = bus.emitter(CallRefused)
        self._ev_ended = bus.emitter(CallEnded)
        self._ev_cut = bus.emitter(CallCut)

    # ------------------------------------------------------------------
    # arrival and admission
    # ------------------------------------------------------------------
    def _call_arrives(self, cid: int, holding: float, video: bool) -> None:
        net = self.net
        t = net.engine.now
        members = [sid for sid in net.members if net.stations[sid].alive]
        spec = self.spec

        if spec.join_via_rap:
            if not members:
                self._note_refused(self._new_session(cid, -1, -1, t, holding,
                                                     video), "ring_down")
                return
            caller = RAP_CALLER_BASE + cid
            callee = self._pick.choice(members)
            call = self._new_session(cid, caller, callee, t, holding, video)
            call._make_flows()
            self._join_via_rap(call)
            return

        if len(members) < 2:
            self._note_refused(self._new_session(cid, -1, -1, t, holding,
                                                 video), "ring_down")
            return
        a = self._pick.choice(members)
        b = self._pick.choice([m for m in members if m != a])
        call = self._new_session(cid, a, b, t, holding, video)
        call._make_flows()

        if spec.admission:
            verdict = self._admit(call)
            if verdict is not None:
                self._note_refused(call, verdict)
                return
        self._activate(call)

    def _new_session(self, cid: int, a: int, b: int, t: float,
                     holding: float, video: bool) -> _SessionBase:
        cls = VideoSession if video else VoiceCall
        call = cls(cid, a, b, self.spec, t, holding)
        self.calls.append(call)
        return call

    def _admit(self, call: _SessionBase) -> Optional[str]:
        """Call-level CAC on the current ring; None = admitted, else the
        refusal reason."""
        net = self.net
        cfg = net.config
        spec = self.spec
        S = net.n * cfg.sat_hop_slots
        t_rap = cfg.effective_t_rap()
        quotas = [net.stations[sid].quota for sid in net.order]

        # Theorem 3: a freshly queued RT packet must make its deadline
        l_src = max(net.stations[call.src].quota.l, 1)
        worst = access_delay_bound(0, l_src, S, t_rap, quotas)
        if worst > spec.deadline:
            return "deadline_unachievable"

        # load: mean admitted session load per endpoint must fit within
        # the guaranteed throughput l_i per worst-case rotation
        rotation = sat_rotation_bound(S, t_rap, quotas)
        endpoints = ((call.src, call.offered_rate),
                     (call.dst, call.offered_rate if call.kind == "voice"
                      else 0.0))
        for sid, added in endpoints:
            l_i = net.stations[sid].quota.l
            load = self._active_rate.get(sid, 0.0) + added
            if load * rotation > l_i:
                return "capacity"
        return None

    def _join_via_rap(self, call: _SessionBase) -> None:
        from repro.core.join import JoinRequester
        net = self.net
        requester = JoinRequester(
            net, call.src, QuotaConfig.two_class(1, 1),
            deadline_req=self.spec.deadline, max_attempts=5)
        self._requesters[call.cid] = requester
        requester.joined.add_callback(
            lambda proc, _call=call: self._on_caller_joined(_call))

    def _on_caller_joined(self, call: _SessionBase) -> None:
        self._requesters.pop(call.cid, None)
        if call.state == "pending":
            self._activate(call)

    def _poll_requesters(self, t: float) -> None:
        if not self._requesters:
            return
        for cid, requester in list(self._requesters.items()):
            state = getattr(requester.state, "value", requester.state)
            if state in ("rejected", "gave_up"):
                del self._requesters[cid]
                call = next(c for c in self.calls if c.cid == cid)
                if call.state == "pending":
                    self._note_refused(call, state)

    # ------------------------------------------------------------------
    # activation and teardown
    # ------------------------------------------------------------------
    def _activate(self, call: _SessionBase) -> None:
        net = self.net
        spec = self.spec
        t = net.engine.now
        call.state = "active"
        call.t_start = t
        t_end = t + call.holding
        for flow in call.flows:
            self.scorer.register_flow(flow.flow_id)
            if call.kind == "video":
                src = self.workload.add_video(
                    flow, frame_interval=spec.packet_period, stop=t_end)
            else:
                src = self.workload.add_onoff(
                    flow, peak_rate=spec.peak_rate,
                    mean_on=spec.mean_talkspurt, mean_off=spec.mean_silence,
                    stop=t_end)
            call.sources.append(src)
        self._add_rate(call, +1.0)
        net.engine.schedule_at(t_end, self._call_ends, call, priority=-1)
        self._ev_started(t, call.cid, call.src, call.dst)

    def _add_rate(self, call: _SessionBase, sign: float) -> None:
        self._active_rate[call.src] = (self._active_rate.get(call.src, 0.0)
                                       + sign * call.offered_rate)
        if call.kind == "voice":
            self._active_rate[call.dst] = (
                self._active_rate.get(call.dst, 0.0)
                + sign * call.offered_rate)

    def _note_refused(self, call: _SessionBase, reason: str) -> None:
        call.state = "refused"
        call.refusal_reason = reason
        self._ev_refused(self.net.engine.now, call.cid, reason)

    def _call_ends(self, call: _SessionBase) -> None:
        if call.state != "active":
            return
        call.state = "ended"
        call.t_stop = self.net.engine.now
        self._add_rate(call, -1.0)
        self._ev_ended(call.t_stop, call.cid)
        self._leave_after_call(call)

    def _cut(self, call: _SessionBase, t: float, station: int) -> None:
        call.state = "cut"
        call.t_stop = t
        call.cut_station = station
        for src in call.sources:
            # absolute stop: the generator exits at its next activity check
            # (mid-burst or mid-silence)
            src.stop = t
        self._add_rate(call, -1.0)
        self._ev_cut(t, call.cid, station)
        self._leave_after_call(call)

    def _leave_after_call(self, call: _SessionBase) -> None:
        """A RAP-joined caller has no business on the ring once its call is
        over: announce a graceful leave (Sec. 2.4.2) so the ring returns to
        its pre-call size instead of growing by one station per completed
        call.  Skipped when the caller is already gone (killed, cut out,
        dropped in a rebuild) or the ring is too small/degraded to cut
        anyone out."""
        net = self.net
        if not (self.spec.join_via_rap and call.src >= RAP_CALLER_BASE):
            return
        st = net.stations.get(call.src)
        if (call.src not in net._pos or st is None or not st.alive
                or st.leaving):
            return
        if net.network_down or len(net.order) <= 2:
            return
        net.leave_gracefully(call.src)

    def _on_station_gone(self, ev) -> None:
        for call in self.calls:
            if call.state == "active" and ev.station in (call.src, call.dst):
                self._cut(call, ev.t, ev.station)

    def _on_rebuild_done(self, ev) -> None:
        surviving = set(ev.order)
        for call in self.calls:
            if call.state != "active":
                continue
            for endpoint in (call.src, call.dst):
                if endpoint not in surviving:
                    self._cut(call, ev.t, endpoint)
                    break

    def _on_ring_down(self, ev) -> None:
        for call in self.calls:
            if call.state == "active":
                self._cut(call, ev.t, -1)

    # ------------------------------------------------------------------
    # scoring and reporting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Score every call that carried traffic.  Idempotent; call after
        the run (``summary`` does)."""
        if self._finalized:
            return
        self._finalized = True
        now = self.net.engine.now
        for call in self.calls:
            if not call.sources:
                continue
            call.scores = [
                self.scorer.finalize_flow(flow.flow_id, source.packets,
                                          now=now)
                for flow, source in zip(call.flows, call.sources)]

    def counts(self) -> Dict[str, int]:
        by_state: Dict[str, int] = {"pending": 0, "active": 0, "refused": 0,
                                    "ended": 0, "cut": 0}
        for call in self.calls:
            by_state[call.state] += 1
        return by_state

    def summary(self) -> Dict[str, Any]:
        self.finalize()
        spec = self.spec
        by_state = self.counts()
        scored = [c for c in self.calls if c.mos is not None]
        mos_values = [c.mos for c in scored]
        out: Dict[str, Any] = {
            "offered": len(self.calls),
            "admitted": by_state["active"] + by_state["ended"]
            + by_state["cut"],
            "refused": by_state["refused"],
            "ended": by_state["ended"],
            "cut": by_state["cut"],
            "active_at_end": by_state["active"],
            "mos_floor": spec.mos_floor,
        }
        if mos_values:
            out["mean_mos"] = round(sum(mos_values) / len(mos_values), 4)
            out["min_mos"] = round(min(mos_values), 4)
            good = sum(1 for m in mos_values if m >= spec.mos_floor)
            out["above_floor"] = good
            out["fraction_above_floor"] = round(good / len(mos_values), 4)
        out["calls"] = [c.describe() for c in self.calls]
        return out

    def fraction_acceptable(self, include_refused: bool = True) -> float:
        """Fraction of offered calls at/above the MOS floor.  Refused and
        ring-down calls count against the fraction when
        ``include_refused`` (a refused caller is an unhappy caller)."""
        self.finalize()
        scored = [c for c in self.calls if c.mos is not None]
        denom = len(self.calls) if include_refused else len(scored)
        if denom == 0:
            return 1.0
        good = sum(1 for c in scored if c.mos >= self.spec.mos_floor)
        return good / denom
