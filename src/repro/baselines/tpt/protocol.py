"""The TPT network: token circulation over the tree's Euler tour.

Model (mirrors Sec. 3.1 and the like-for-like assumptions of Sec. 3.3):

* the token follows the depth-first tour — ``2(N-1)`` link crossings per
  round, each costing ``hop_slots`` (= ``T_proc + T_prop``);
* **only the token holder transmits**, one packet per slot, and a
  transmission reaches its destination directly (single shared channel, no
  multi-hop forwarding — a simplification *generous to TPT*, documented in
  DESIGN.md, since it removes TPT's routing cost from the comparison);
* a station transmits only on its *first* visit of each round, which is what
  makes the Eq. 7 accounting (one ``H_i`` per station per round) exact;
* join: the paper's TPT "periodically stops the transmissions using a flag
  in the token" — with ``rap_enabled`` the root pauses the network for
  ``t_rap`` slots once per round; pending join requests are admitted against
  the Eq. 7 feasibility test and attach as a child of their chosen parent
  (the message-level handshake is abstracted; the WRT-Ring side keeps the
  full handshake because its latency is what E03 measures);
* token loss: per-station ``2·TTRT`` watchdog; on expiry the station sends a
  probe token around the tour.  Probe returns -> tree valid, re-issue the
  token.  Probe lost (dead station) -> tree lost, broadcast, full rebuild
  (``REBUILD_SLOTS_PER_STATION`` slots per alive station, the same
  substitution cost model as WRT-Ring's ring re-formation, after which a new
  BFS tree is built over the survivors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.timed_token import TimedTokenRules
from repro.baselines.tpt.station import TPTStation
from repro.core.packet import Packet
from repro.analysis.netmetrics import NetworkMetrics
from repro.core.recovery import RecoveryRecord
from repro.core.sat import RotationLog
from repro.events import EventBus, TraceAdapter
from repro.events import types as _ev
from repro.phy.topology import TopologyError, build_bfs_tree, dfs_token_tour
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.sim.trace import NullTraceRecorder, TraceRecorder

__all__ = ["TPTConfig", "TPTNetwork"]


@dataclass
class TPTConfig:
    """TPT parameters (times in slots)."""

    H: Dict[int, int] = field(default_factory=dict)
    ttrt: float = 0.0
    hop_slots: int = 1
    t_rap: int = 0
    rap_enabled: bool = False
    rebuild_slots_per_station: int = 2

    def __post_init__(self) -> None:
        if self.ttrt <= 0:
            raise ValueError(f"ttrt must be positive, got {self.ttrt!r}")
        if self.hop_slots < 1:
            raise ValueError(f"hop_slots must be >= 1, got {self.hop_slots}")
        if self.t_rap < 0:
            raise ValueError(f"t_rap must be >= 0, got {self.t_rap}")
        if self.rap_enabled and self.t_rap < 2:
            raise ValueError("rap_enabled requires t_rap >= 2")

    def effective_t_rap(self) -> int:
        return self.t_rap if self.rap_enabled else 0


@dataclass
class _JoinRequest:
    new_sid: int
    H_new: int
    parent: int
    t_requested: float
    t_joined: Optional[float] = None
    accepted: Optional[bool] = None
    reason: str = ""


class TPTNetwork:
    """A running Token Passing Tree."""

    def __init__(self, engine: Engine, children: Dict[int, List[int]],
                 root: int, config: TPTConfig, graph=None,
                 trace: Optional[TraceRecorder] = None):
        if root not in children:
            raise ValueError(f"root {root} not in tree")
        missing = [sid for sid in children if sid not in config.H]
        if missing:
            raise ValueError(f"no synchronous allocation for stations {missing}")
        self.engine = engine
        self.config = config
        self.rules = TimedTokenRules(config.ttrt)
        self.trace = trace if trace is not None else NullTraceRecorder()
        self._graph_provider = (graph if callable(graph) or graph is None
                                else (lambda: graph))
        self.children: Dict[int, List[int]] = {u: list(cs) for u, cs in children.items()}
        self.root = root
        self.stations: Dict[int, TPTStation] = {
            sid: TPTStation(sid, config.H[sid]) for sid in children}
        self._rebuild_tour()

        self.rotation_log = RotationLog()
        self.events = EventBus()
        self.metrics = NetworkMetrics().attach(self.events)
        self._trace_adapter = TraceAdapter(self.trace).attach(self.events)
        self.events.add_binder(self._bind_emitters)
        self.records: List[RecoveryRecord] = []
        self.token_hops = 0
        self.rounds = 0
        self.network_down = False
        self.rebuilding_until: Optional[float] = None
        self.pause_until: float = float("-inf")
        self.raps_opened = 0

        # token state
        self._tour_idx = 0
        self._holding = False
        self._arrival_time: Optional[float] = None
        self._token_lost = False
        self._round_mark: Dict[int, int] = {}
        self._probe: Optional[dict] = None
        self._active_recovery: Optional[RecoveryRecord] = None
        self._pending_event: Optional[tuple] = None
        self._rebuild_initiator: Optional[int] = None
        self._pending_joins: List[_JoinRequest] = []
        self.join_log: List[_JoinRequest] = []

        self.timers: Dict[int, Timer] = {}
        self.started = False
        self._tick_handle = None
        self._tick_hooks: List[Callable[[float], None]] = []

    def _bind_emitters(self) -> None:
        em = self.events.emitter
        self._ev_transmit = em(_ev.SlotTransmit)
        self._ev_deliver = em(_ev.SlotDeliver)
        self._ev_lost = em(_ev.PacketLost)
        self._ev_kill = em(_ev.TptKill)
        self._ev_token_lost = em(_ev.TptTokenLost)
        self._ev_join = em(_ev.TptJoin)
        self._ev_timeout = em(_ev.TptTimeout)
        self._ev_reissued = em(_ev.TptTokenReissued)
        self._ev_probe_lost = em(_ev.TptProbeLost)
        self._ev_rebuild_start = em(_ev.TptRebuildStart)
        self._ev_down = em(_ev.TptDown)
        self._ev_rebuild_done = em(_ev.TptRebuildDone)
        self._ev_rotation = em(_ev.TokenRotation)
        self._ev_rap = em(_ev.TptRap)
        self._ev_enqueued = em(_ev.PacketEnqueued)
        for st in self.stations.values():
            st._ev_enqueued = self._ev_enqueued

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _rebuild_tour(self) -> None:
        tour = dfs_token_tour(self.children, self.root)
        # drop the duplicate final root so the tour is a clean cycle
        self.tour: List[int] = tour[:-1] if len(tour) > 1 else tour

    @property
    def n(self) -> int:
        return len(self.children)

    @property
    def members(self) -> List[int]:
        return sorted(self.children)

    def graph(self):
        return self._graph_provider() if self._graph_provider is not None else None

    def walk_time(self) -> float:
        """Traffic-free token round trip: ``2(N-1)·hop`` (Sec. 3.2.1)."""
        return 2 * (self.n - 1) * self.config.hop_slots

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            raise RuntimeError("network already started")
        self.started = True
        self._holding = True
        self._tour_idx = 0
        holder = self.tour[0]
        self._on_token_arrival(holder, self.engine.now)
        for sid in self.children:
            self._arm_timer(sid)
        self._tick_handle = self.engine.schedule(0.0, self._tick, priority=5)

    def stop(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        for t in self.timers.values():
            t.stop()

    def add_tick_hook(self, hook: Callable[[float], None]) -> None:
        self._tick_hooks.append(hook)

    def enqueue(self, packet: Packet) -> None:
        st = self.stations.get(packet.src)
        if st is None or packet.src not in self.children:
            raise KeyError(f"source station {packet.src} is not a tree member")
        st.enqueue(packet, self.engine.now)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def kill_station(self, sid: int) -> None:
        st = self.stations.get(sid)
        if st is None:
            raise KeyError(f"unknown station {sid}")
        st.alive = False
        self._pending_event = ("silent", sid, self.engine.now)
        timer = self.timers.pop(sid, None)
        if timer is not None:
            timer.stop()
        self._ev_kill(self.engine.now, sid)
        current = self.tour[self._tour_idx]
        if self._holding and current == sid:
            self.drop_token()
        elif not self._holding and current == sid:
            self.drop_token()

    def drop_token(self) -> None:
        self._token_lost = True
        self._holding = False
        self._arrival_time = None
        if self._pending_event is None:
            self._pending_event = ("token_loss", None, self.engine.now)
        self._ev_token_lost(self.engine.now)

    # ------------------------------------------------------------------
    # join (abstracted handshake; admitted at the root's RAP)
    # ------------------------------------------------------------------
    def request_join(self, new_sid: int, H_new: int, parent: int) -> _JoinRequest:
        if new_sid in self.children:
            raise ValueError(f"station {new_sid} already in the tree")
        if parent not in self.children:
            raise KeyError(f"parent {parent} is not a tree member")
        req = _JoinRequest(new_sid=new_sid, H_new=H_new, parent=parent,
                           t_requested=self.engine.now)
        self._pending_joins.append(req)
        self.join_log.append(req)
        return req

    def _process_joins(self, t: float) -> None:
        pending, self._pending_joins = self._pending_joins, []
        for req in pending:
            g = self.graph()
            if g is not None and (not g.has_node(req.new_sid)
                                  or not g.in_range(req.new_sid, req.parent)):
                req.accepted = False
                req.reason = "parent out of radio range"
                continue
            total_H = sum(st.H for st in self.stations.values()) + req.H_new
            new_walk = 2 * self.n * self.config.hop_slots  # N+1 stations
            if total_H + new_walk + self.config.effective_t_rap() > self.config.ttrt:
                req.accepted = False
                req.reason = "Eq.7 infeasible: allocation would break TTRT"
                continue
            req.accepted = True
            req.t_joined = t
            self.children[req.parent].append(req.new_sid)
            self.children[req.new_sid] = []
            self.config.H[req.new_sid] = req.H_new
            st = TPTStation(req.new_sid, req.H_new)
            st._ev_enqueued = self._ev_enqueued
            self.stations[req.new_sid] = st
            self._rebuild_tour()
            self._arm_timer(req.new_sid)
            self._ev_join(t, req.new_sid, req.parent)

    # ------------------------------------------------------------------
    # timers / recovery
    # ------------------------------------------------------------------
    def _arm_timer(self, sid: int) -> None:
        timer = self.timers.get(sid)
        if timer is None:
            timer = Timer(self.engine, self.rules.max_rotation,
                          lambda s=sid: self._on_timer_expired(s),
                          name=f"TOKEN_TIMER_{sid}")
            self.timers[sid] = timer
        timer.restart(self.rules.max_rotation)

    def _on_timer_expired(self, sid: int) -> None:
        t = self.engine.now
        if self.network_down or self.rebuilding_until is not None:
            return
        if sid not in self.children or not self.stations[sid].alive:
            return
        if self._active_recovery is not None:
            if sid == self._active_recovery.extra.get("originator"):
                self._start_rebuild(sid, t)
            else:
                self._arm_timer(sid)
            return
        kind, event_sid, t_event = self._pending_event or ("token_loss", None, None)
        self._pending_event = None
        record = RecoveryRecord(kind=kind, failed_station=event_sid,
                                t_event=t_event, t_detected=t,
                                extra={"originator": sid,
                                       "injected_station": event_sid})
        self.records.append(record)
        self._active_recovery = record
        self._ev_timeout(t, sid)
        # launch a probe token from this station's first tour occurrence
        start_idx = self.tour.index(sid)
        self._probe = {"idx": start_idx, "origin_idx": start_idx,
                       "arrival": t, "hops": 0}
        self._arm_timer(sid)

    def _step_probe(self, t: float) -> None:
        probe = self._probe
        if probe is None or t < probe["arrival"]:
            return
        if probe["hops"] > 0 and probe["idx"] == probe["origin_idx"]:
            # probe came back: tree is still valid; re-issue the token here
            self._probe = None
            rec = self._active_recovery
            if rec is not None:
                rec.t_completed = t
                rec.outcome = "token_reissued"
                self._active_recovery = None
            self._token_lost = False
            self._holding = True
            self._tour_idx = probe["origin_idx"]
            for sid in self.children:
                self.stations[sid].last_token_arrival = None
            self._round_mark.clear()
            self._on_token_arrival(self.tour[self._tour_idx], t)
            for sid in self.children:
                self._arm_timer(sid)
            self._ev_reissued(t, self.tour[self._tour_idx])
            return
        nxt_idx = (probe["idx"] + 1) % len(self.tour)
        nxt_sid = self.tour[nxt_idx]
        if not self.stations[nxt_sid].alive:
            # probe dies at the dead hop; originator's watchdog will fire
            # again and declare the tree lost
            self._probe = None
            self._ev_probe_lost(t, nxt_sid)
            return
        probe["idx"] = nxt_idx
        probe["hops"] += 1
        probe["arrival"] = t + self.config.hop_slots

    def _start_rebuild(self, initiator: int, t: float) -> None:
        rec = self._active_recovery
        if rec is None:
            rec = RecoveryRecord(kind="token_loss", failed_station=None,
                                 t_event=None, t_detected=t,
                                 extra={"originator": initiator})
            self.records.append(rec)
            self._active_recovery = rec
        rec.extra["rebuild_started"] = t
        self._token_lost = True
        self._holding = False
        self._probe = None
        for timer in self.timers.values():
            timer.stop()
        alive = [sid for sid in self.children if self.stations[sid].alive]
        duration = self.config.rebuild_slots_per_station * max(len(alive), 1)
        self.rebuilding_until = t + duration
        self._rebuild_initiator = initiator
        self._ev_rebuild_start(t, initiator, duration)

    def _finish_rebuild(self, t: float) -> None:
        self.rebuilding_until = None
        alive = [sid for sid in self.children if self.stations[sid].alive]
        graph = self.graph()
        try:
            if len(alive) < 2:
                raise TopologyError("fewer than 2 alive stations")
            if graph is not None:
                sub = graph.subgraph(alive)
                new_children = build_bfs_tree(sub, root=self._rebuild_initiator)
            else:
                new_children = {sid: [] for sid in alive}
                new_children[self._rebuild_initiator] = [
                    sid for sid in alive if sid != self._rebuild_initiator]
        except TopologyError as exc:
            self.network_down = True
            rec = self._active_recovery
            if rec is not None:
                rec.outcome = "down"
                rec.t_completed = t
                rec.extra["error"] = str(exc)
                self._active_recovery = None
            self._ev_down(t, str(exc))
            return
        dead = [sid for sid in self.children if sid not in new_children]
        for sid in dead:
            self.config.H.pop(sid, None)
            self.stations.pop(sid, None)
            timer = self.timers.pop(sid, None)
            if timer is not None:
                timer.stop()
        self.children = new_children
        self.root = self._rebuild_initiator
        self._rebuild_tour()
        self._round_mark.clear()
        for st in self.stations.values():
            st.last_token_arrival = None
        self._token_lost = False
        self._holding = True
        self._tour_idx = 0
        self._on_token_arrival(self.tour[0], t)
        for sid in self.children:
            self._arm_timer(sid)
        rec = self._active_recovery
        if rec is not None:
            rec.outcome = "rebuild"
            rec.t_completed = t
            self._active_recovery = None
        self._ev_rebuild_done(t, self.root)

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        t = self.engine.now
        for hook in self._tick_hooks:
            hook(t)
        if self.network_down:
            return
        if self.rebuilding_until is not None:
            if t >= self.rebuilding_until:
                self._finish_rebuild(t)
        elif t < self.pause_until:
            if t + 1 >= self.pause_until:
                self._process_joins(t)
        else:
            self._step_probe(t)
            self._token_step(t)
        if self._tick_handle is not None:   # stop() leaves it None
            self._tick_handle = self.engine.schedule(1.0, self._tick,
                                                     priority=5)

    def _token_step(self, t: float) -> None:
        if self._token_lost:
            return
        if not self._holding:
            if self._arrival_time is None or t < self._arrival_time:
                return
            self._holding = True
            self._arrival_time = None
            holder = self.tour[self._tour_idx]
            if not self.stations[holder].alive:
                self.drop_token()
                return
            self._on_token_arrival(holder, t)
            if t < self.pause_until:
                return

        holder = self.tour[self._tour_idx]
        station = self.stations[holder]
        if station.wants_to_transmit:
            pkt = station.select_packet()
            if pkt is not None:
                self._transmit(pkt, t)
                return  # one packet per slot; keep holding
        self._depart(holder, t)

    def _on_token_arrival(self, holder: int, t: float) -> None:
        station = self.stations[holder]
        if self._tour_idx == 0:
            self.rounds += 1
            self.rotation_log.mark_round(self.token_hops)
        first_of_round = self._round_mark.get(holder) != self.rounds
        if first_of_round:
            self._round_mark[holder] = self.rounds
            trt = station.grant_budgets(t, self.config.ttrt)
            if trt is not None:
                self.rotation_log.add(holder, trt)
                self._ev_rotation(t, holder, trt)
            if (self.config.rap_enabled and holder == self.root):
                self.pause_until = t + self.config.t_rap
                self.raps_opened += 1
                self._ev_rap(t, self.pause_until)
        else:
            station.sync_budget = 0
            station.async_budget = 0

    def _depart(self, holder: int, t: float) -> None:
        station = self.stations[holder]
        station.sync_budget = 0
        station.async_budget = 0
        self._arm_timer(holder)
        self._holding = False
        self._tour_idx = (self._tour_idx + 1) % len(self.tour)
        self._arrival_time = t + self.config.hop_slots
        self.token_hops += 1

    def _transmit(self, pkt: Packet, t: float) -> None:
        pkt.t_send = t
        self._ev_transmit(t, pkt.src, pkt)
        dst = self.stations.get(pkt.dst)
        if dst is None or not dst.alive:
            pkt.dropped = True
            reason = "dead_station" if dst is not None else "unreachable"
            self._ev_lost(t, pkt, reason, pkt.src, pkt.dst)
            return
        pkt.t_deliver = t + 1.0
        dst.on_deliver(pkt)
        self._ev_deliver(pkt.t_deliver, pkt.dst, pkt)
