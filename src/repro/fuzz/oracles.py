"""Runtime probes and end-of-run oracles for fuzzed scenario runs.

The per-tick :class:`~repro.core.invariants.RingInvariantChecker` catches
structural corruption as it happens; the probes and oracles here catch the
bugs that slip *between* ticks or only show at the end of a run:

* :class:`ClockProbe` — the engine clock must never move backwards, and no
  pending event may be stranded behind it (the failure mode of the old
  ``Engine.run(until=..., max_events=...)`` interaction);
* :class:`PacketLedger` — remembers every packet that entered any station's
  MAC queues (including stations inserted mid-run), giving per-flow ground
  truth that is independent of the network's own counters;
* :func:`check_conservation` — ledger vs. metrics vs. live buffers: every
  packet is delivered, dropped, or buffered at a *current ring member*, and
  the per-flow ledger agrees with each station's lifetime counters;
* :func:`check_no_undeliverable` — no packet keeps circulating after a full
  circuit once both its source and destination have left the ring;
* :func:`check_rotation_bound` — on runs where Theorem 1 applies (no kills,
  SAT losses or rebuilds), every measured SAT rotation respects the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.events.types import GatewayDrop, PacketEnqueued, RingTick

__all__ = ["FuzzFailure", "ClockProbe", "PacketLedger",
           "check_conservation", "check_gateway_conservation",
           "check_no_undeliverable", "check_no_false_triggers",
           "check_refused_calls_silent", "check_rotation_bound",
           "false_trigger_oracle_applies", "rotation_bound_applies"]

_EPS = 1e-9


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle/invariant/crash finding; ``kind`` is a stable category
    used by the shrinker to decide whether a reduced case still fails the
    same way."""

    kind: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "message": self.message}


class ClockProbe:
    """Watches simulated time for backwards movement and stranded events.

    :meth:`attach` subscribes the probe to the network's per-tick
    :class:`~repro.events.types.RingTick` event; call :meth:`checkpoint`
    after every ``engine.run(...)`` segment.  ``failures`` accumulates (and
    is capped — one broken clock produces thousands of identical findings).
    """

    MAX_FAILURES = 5

    def __init__(self, engine):
        self.engine = engine
        self.high = engine.now
        self.failures: List[FuzzFailure] = []

    def attach(self, bus) -> "ClockProbe":
        bus.subscribe(RingTick, self._on_tick_event)
        return self

    def _on_tick_event(self, ev) -> None:
        self.on_tick(ev.t)

    def _fail(self, message: str) -> None:
        if len(self.failures) < self.MAX_FAILURES:
            self.failures.append(FuzzFailure("engine_time", message))

    def on_tick(self, t: float) -> None:
        if t < self.high - _EPS:
            self._fail(f"tick at t={t} after the clock already reached "
                       f"{self.high}: engine time moved backwards")
        self.high = max(self.high, t)

    def checkpoint(self) -> None:
        """Validate the clock after a run segment returned control."""
        now = self.engine.now
        if now < self.high - _EPS:
            self._fail(f"engine.now={now} below the high-water mark "
                       f"{self.high} after run() returned")
        self.high = max(self.high, now)
        nxt = self.engine.peek()
        if nxt is not None and nxt < now - _EPS:
            self._fail(f"pending event at t={nxt} stranded behind "
                       f"engine.now={now}")


class PacketLedger:
    """Ground-truth record of every packet accepted into any MAC queue.

    Subscribes to :class:`~repro.events.types.PacketEnqueued` on the
    network's bus — the station emits it only after an enqueue succeeded,
    and stations inserted mid-run get the same live emitter, so the ledger
    sees every accepted packet (direct ``st.enqueue`` calls included)
    without trusting the aggregate counters under test.
    """

    def __init__(self, net):
        self.net = net
        self.packets: List[Any] = []
        self.gateway_dropped: List[Any] = []   # destroyed at a bridge
        net.events.subscribe(PacketEnqueued, self._on_enqueued)
        net.events.subscribe(GatewayDrop, self._on_gateway_drop)

    def _on_enqueued(self, ev) -> None:
        self.packets.append(ev.packet)

    def _on_gateway_drop(self, ev) -> None:
        # bridges destroy packets *outside* the MAC (before enqueue, or
        # after delivery to the gateway) — ring conservation never sees
        # them, so the ledger records the loss from the typed event
        self.gateway_dropped.append(ev)

    # ------------------------------------------------------------------
    def classify(self) -> Tuple[List[Any], List[Any], List[Any]]:
        """Split the ledger into (delivered, dropped, pending)."""
        delivered, dropped, pending = [], [], []
        for p in self.packets:
            if p.t_deliver is not None:
                delivered.append(p)
            elif p.dropped:
                dropped.append(p)
            else:
                pending.append(p)
        return delivered, dropped, pending

    def per_flow(self) -> Dict[Tuple[int, int, Any], int]:
        """Enqueued packet count per ``(src, dst, service)`` flow."""
        flows: Dict[Tuple[int, int, Any], int] = {}
        for p in self.packets:
            key = (p.src, p.dst, p.service)
            flows[key] = flows.get(key, 0) + 1
        return flows


# ----------------------------------------------------------------------
# end-of-run oracles
# ----------------------------------------------------------------------
def check_conservation(net, ledger: PacketLedger) -> List[FuzzFailure]:
    """Every ledger packet is in exactly one terminal/buffered state and the
    network's aggregate metrics agree with the per-packet ground truth."""
    failures: List[FuzzFailure] = []
    delivered, dropped, pending = ledger.classify()

    members = [net.stations[sid] for sid in net.order]
    buffered = sum(st.queue_length() + len(st.transit) for st in members)
    if len(pending) != buffered:
        failures.append(FuzzFailure(
            "conservation",
            f"{len(pending)} ledger packets pending but {buffered} buffered "
            f"at ring members — packets are parked outside the ring"))

    if len(delivered) != net.metrics.total_delivered:
        failures.append(FuzzFailure(
            "conservation",
            f"metrics claim {net.metrics.total_delivered} delivered, ledger "
            f"saw {len(delivered)}"))

    gone = net.metrics.lost + net.metrics.orphaned
    if len(dropped) != gone:
        failures.append(FuzzFailure(
            "conservation",
            f"metrics claim {gone} lost+orphaned, ledger saw "
            f"{len(dropped)} dropped packets"))

    # per-flow ledger vs. per-station lifetime counters
    per_src: Dict[Tuple[int, Any], int] = {}
    for (src, _dst, service), count in ledger.per_flow().items():
        key = (src, service)
        per_src[key] = per_src.get(key, 0) + count
    for sid, st in net.stations.items():
        for service, count in st.enqueued.items():
            seen = per_src.get((sid, service), 0)
            if seen != count:
                failures.append(FuzzFailure(
                    "conservation",
                    f"station {sid} counts {count} enqueued "
                    f"{service.short} packets, ledger saw {seen}"))
    return failures


def check_gateway_conservation(gateways,
                               ledger: PacketLedger = None) -> List[FuzzFailure]:
    """Every packet offered to a bridge is forwarded, destroyed-and-counted,
    or still awaiting its ring leg — cross-network losses can't vanish.

    When a ledger is given, the bridges' own drop counters are also checked
    against the ``gw.drop`` events the ledger observed (LAN-side drops carry
    a negative ``gateway`` id and are excluded — they are counted by the
    LAN's ``dropped``, not by a Gateway).
    """
    failures: List[FuzzFailure] = []
    for gw in gateways:
        if gw.ingress_attempts != gw.forwarded_to_ring + gw.ingress_drops:
            failures.append(FuzzFailure(
                "gateway_conservation",
                f"gateway {gw.sid}: {gw.ingress_attempts} LAN->ring offers "
                f"but {gw.forwarded_to_ring} forwarded + {gw.ingress_drops} "
                f"dropped"))
        in_flight = len(gw._ring_to_lan_dst)
        if gw.relayed != gw.forwarded_to_lan + gw.relay_drops + in_flight:
            failures.append(FuzzFailure(
                "gateway_conservation",
                f"gateway {gw.sid}: {gw.relayed} ring->LAN relays but "
                f"{gw.forwarded_to_lan} forwarded + {gw.relay_drops} dropped "
                f"+ {in_flight} in flight — a relay mapping leaked"))
    if ledger is not None:
        counted = sum(gw.ingress_drops + gw.relay_drops for gw in gateways)
        lan_relay_overflows = sum(
            1 for ev in ledger.gateway_dropped
            if ev.gateway < 0 and ev.reason == "overflow")
        seen = sum(1 for ev in ledger.gateway_dropped if ev.gateway >= 0)
        # a LAN overflow bounces the relay back as a Gateway relay_drop
        # without its own gateway-side event
        if counted != seen + lan_relay_overflows:
            failures.append(FuzzFailure(
                "gateway_conservation",
                f"bridges count {counted} drops but the bus saw {seen} "
                f"gateway gw.drop events (+{lan_relay_overflows} LAN "
                f"overflows bounced to relay_drops)"))
    return failures


def check_no_undeliverable(net, ledger: PacketLedger) -> List[FuzzFailure]:
    """No packet survives a full circuit once both endpoints left the ring."""
    failures: List[FuzzFailure] = []
    n = len(net.order)
    _, _, pending = ledger.classify()
    for p in pending:
        if (p.hops > n and p.dst not in net._pos and p.src not in net._pos):
            failures.append(FuzzFailure(
                "orphan",
                f"packet {p.src}->{p.dst} has travelled {p.hops} hops on a "
                f"{n}-station ring with both endpoints gone: it will "
                f"circulate forever"))
            if len(failures) >= 5:
                break
    return failures


def check_refused_calls_silent(sessions, ledger: PacketLedger
                               ) -> List[FuzzFailure]:
    """A refused call must be *silent*: admission happens before any source
    is constructed, so none of its flow ids may appear on a ledger packet.
    Flow ids are unique per FlowSpec, so matching them is exact."""
    failures: List[FuzzFailure] = []
    refused_flows: Dict[int, int] = {}    # flow_id -> call id
    for call in sessions.calls:
        if call.state == "refused":
            if call.sources:
                failures.append(FuzzFailure(
                    "refused_call",
                    f"refused call {call.cid} has {len(call.sources)} "
                    f"traffic sources attached"))
            for flow in call.flows:
                refused_flows[flow.flow_id] = call.cid
    if refused_flows:
        for p in ledger.packets:
            cid = refused_flows.get(p.flow_id)
            if cid is not None:
                failures.append(FuzzFailure(
                    "refused_call",
                    f"refused call {cid} contributed packet "
                    f"{p.src}->{p.dst} to the ledger"))
                if len(failures) >= 5:
                    break
    return failures


def rotation_bound_applies(net, scenario_dict: Dict[str, Any]) -> bool:
    """Theorem 1 covers joins and RAP pauses but not station failures, SAT
    losses or ring rebuilds; apply the bound oracle only when none occurred
    (neither scripted nor emergent, e.g. via mobility breaking a link)."""
    for event in scenario_dict.get("faults") or []:
        if event.get("kind") in ("kill", "leave", "drop_signal", "stale_sat"):
            return False
    if scenario_dict.get("mobility"):
        return False
    if scenario_dict.get("impairments"):
        # stochastic frame loss voids the Theorem-1 preconditions (any hop
        # may silently fail and trigger recovery)
        return False
    return (not net.recovery.records
            and net.recovery.ring_rebuilds == 0
            and net.trace.count("sat.lost") == 0
            and not net.network_down)


def false_trigger_oracle_applies(scenario_dict: Dict[str, Any]) -> bool:
    """The zero-false-trigger guarantee is judged only where it is promised:
    adaptive timers on, and nothing that can *legitimately* trigger recovery
    — no destructive faults, no mobility breaking links, no stochastic frame
    loss.  Joins stay in scope deliberately: the estimator's RAP allowance
    must absorb a join window without firing."""
    if not scenario_dict.get("adaptive_timers"):
        return False
    for event in scenario_dict.get("faults") or []:
        if event.get("kind") in ("kill", "leave", "drop_signal", "stale_sat"):
            return False
    if scenario_dict.get("mobility"):
        return False
    if scenario_dict.get("impairments"):
        return False
    return True


def check_no_false_triggers(net) -> List[FuzzFailure]:
    """On applicable runs (clean channel, no destructive faults), adaptive
    timers must never launch a SAT_REC: a single timer-launched episode
    means an estimator under-timed a legitimate rotation and cut an innocent
    station out.

    ``graceful`` episodes are out of scope: they are a leaving station's
    announced cut-out (Sec. 2.4.2) — e.g. a RAP-joined caller leaving when
    its call ends — not a timer firing, just as explicit ``leave`` faults
    are excluded by :func:`false_trigger_oracle_applies`."""
    rec = net.recovery
    if rec.false_triggers:
        return [FuzzFailure(
            "false_trigger",
            f"adaptive timers fired {rec.false_triggers} false SAT_REC(s) "
            f"on a clean channel (no faults, no loss): the RTO under-timed "
            f"a legitimate rotation")]
    fired = [r for r in rec.records if r.kind != "graceful"]
    if fired:
        first = fired[0]
        return [FuzzFailure(
            "false_trigger",
            f"adaptive run started {len(fired)} timer-launched recovery "
            f"episode(s) on a clean channel with no destructive faults "
            f"(first: kind={first.kind} detected at t={first.t_detected})")]
    return []


def check_rotation_bound(result) -> List[FuzzFailure]:
    """On applicable runs, the worst measured SAT rotation must respect the
    Theorem-1 bound (as computed by ``ScenarioResult.summary``)."""
    summary = result.summary()
    if summary.get("bound_holds", True):
        return []
    return [FuzzFailure(
        "rotation_bound",
        f"worst SAT rotation {summary['worst_rotation']} exceeds the "
        f"Theorem-1 bound {summary['rotation_bound']} "
        f"({summary['rotation_samples']} samples)")]
