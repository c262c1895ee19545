"""Compatibility adapter: renders bus events into legacy trace records.

The checked-in fuzz corpus bundles (``tests/corpus/``) pin SHA-256 hashes
over the exact trace-record stream, so this adapter must reproduce today's
records **byte-identically**: same categories, same field names and
values, same record order (emission is synchronous at the legacy trace
points, and the adapter is the only writer of these categories).

Most events map 1:1 — the trace category *is* the event category and the
trace fields are a subset of the payload.  The exceptions encode what the
legacy code traced selectively:

* ``PacketLost`` is traced only for ``reason == "link"`` (as
  ``ring.link_loss`` with the hop endpoints); dead-station, cut-out and
  rebuild losses were never traced.
* ``PacketOrphaned`` is traced only for ``reason == "ttl"`` (as
  ``ring.orphan_ttl`` with the packet's src/dst/hops); full-circle
  reclaims were never traced.
* ``RapClose`` includes its ``duplicate`` field only when set.
* ``SlotTransmit``/``SlotDeliver``/``SatHold``/``PacketEnqueued``/
  ``RingTick``/``RecoveryEpisode``/``EngineRunWindow`` were never traced
  at all (they feed metrics/oracles/profiling only).

Every rendering is subscribed only while the recorder has its category
enabled: ``sat.release`` and ``sat.rotation`` fire every SAT hop and
``sat.arrive`` every visit, so paying event construction just for the
recorder to drop the record would tax trace-off runs, and a category
nothing else subscribes to leaves its emitter the falsy null.  The adapter
watches the recorder's switches (:meth:`TraceRecorder.watch`), so the
subscriptions follow every ``enable``/``disable``/``enable_only`` at once.

The 1:1 renderings carry ``record_only = True``: they only append the
event's record, so a traced ring still opens the batched kernel's saturated
windows, which emit the SAT events they cover themselves (docs/KERNEL.md).
"""

from __future__ import annotations

from typing import Optional, Type

from repro.events import types as T
from repro.events.types import EVENT_TYPES, ProtocolEvent

__all__ = ["TraceAdapter", "traced_category"]

#: events whose trace record is ``record(t, category, **payload-minus-t)``
_DIRECT = (
    T.SatRotation, T.SatRelease, T.SatLost, T.SatLinkLoss,
    T.StationKilled, T.LeaveAnnounced, T.StationInserted, T.StationRemoved,
    T.SatTimeout, T.GracefulCutout, T.SatRecFailed, T.SatRecovered,
    T.TimerAdapted, T.FalseSatRec,
    T.RebuildStart, T.RebuildRetry, T.RebuildDone, T.RingDown,
    T.RapOpen, T.RapRequest,
    T.FrameDropped, T.SatHopLost, T.SatStaleDiscarded,
    T.CallStarted, T.CallRefused, T.CallEnded, T.CallCut,
    T.CsmaCollision,
    T.TptKill, T.TptTokenLost, T.TptJoin, T.TptTimeout, T.TptTokenReissued,
    T.TptProbeLost, T.TptRebuildStart, T.TptDown, T.TptRebuildDone,
    T.TokenRotation, T.TptRap,
    T.GatewayBuffer,
)

#: events the legacy code never traced
_UNTRACED = (
    T.EngineRunWindow, T.RingTick, T.PacketEnqueued, T.SlotTransmit,
    T.SlotDeliver, T.SatHold, T.RecoveryEpisode, T.FaultSkipped,
)


def traced_category(etype: Type[ProtocolEvent]) -> Optional[str]:
    """The trace category *etype* renders to, or None if never traced."""
    from repro.sim.trace import TraceRecorder   # repro.sim imports repro.events
    if etype in _UNTRACED:
        return None
    if etype is T.PacketLost:
        return "ring.link_loss (reason='link' only)"
    if etype is T.PacketOrphaned:
        return "ring.orphan_ttl (reason='ttl' only)"
    if etype in (T.GatewayForward, T.GatewayDrop):
        return f"{etype.category} (packet rendered as src/dst/service)"
    if etype.category in TraceRecorder.OPT_IN:
        return f"{etype.category} (opt-in)"
    return etype.category


class TraceAdapter:
    """Subscribes to a bus and writes the legacy trace-record stream."""

    def __init__(self, trace) -> None:
        self.trace = trace
        #: event type -> subscribed handler, for each enabled rendering
        self._handlers = {}

    def attach(self, bus) -> "TraceAdapter":
        # one (event, category written, handler) row per rendering, in the
        # legacy subscription order — direct categories, selective
        # renderings, opt-in categories — that fixes each event's fan-out
        table = [(etype, etype.category, None) for etype in _DIRECT] + [
            (T.PacketLost, "ring.link_loss", self._on_packet_lost),
            (T.PacketOrphaned, "ring.orphan_ttl", self._on_packet_orphaned),
            (T.RapClose, "rap.close", self._on_rap_close),
            (T.GatewayForward, "gw.forward", self._on_gw_forward),
            (T.GatewayDrop, "gw.drop", self._on_gw_drop),
        ] + [(etype, etype.category, None) for etype in EVENT_TYPES
             if etype.category in self.trace.OPT_IN]
        self.trace.watch(lambda: self._follow(bus, table))
        return self

    @staticmethod
    def _direct_handler(etype, trace):
        # hot path: the generated literal-dict ``trace_fields`` plus the
        # dict-taking ``record_fields`` — no getattr loop, no kwargs repack
        def handler(ev, _record=trace.record_fields, _category=etype.category):
            _record(ev.t, _category, ev.trace_fields())

        # it reads the event and writes the recorder, nothing else: the
        # batched kernel may emit the SAT events a saturated window holds
        # itself instead of running the ring's SAT step for it (a function
        # attribute, so ``functools.update_wrapper`` copies it along)
        handler.record_only = True
        return handler

    # -- selective renderings ------------------------------------------
    def _on_packet_lost(self, ev) -> None:
        if ev.reason == "link":
            self.trace.record(ev.t, "ring.link_loss", src=ev.src, dst=ev.dst)

    def _on_packet_orphaned(self, ev) -> None:
        if ev.reason == "ttl":
            pkt = ev.packet
            self.trace.record(ev.t, "ring.orphan_ttl",
                              src=pkt.src, dst=pkt.dst, hops=pkt.hops)

    def _on_rap_close(self, ev) -> None:
        if ev.duplicate is None:
            self.trace.record(ev.t, "rap.close",
                              ingress=ev.ingress, joined=ev.joined)
        else:
            self.trace.record(ev.t, "rap.close", ingress=ev.ingress,
                              joined=ev.joined, duplicate=ev.duplicate)

    # -- gateway renderings --------------------------------------------
    # Packet ids are allocated from a process-global counter, so they
    # differ between serial and process-per-ring runs of the same fabric
    # topology.  The trace record therefore renders the packet by its
    # deterministic coordinates (src/dst/service) — never its pid — so
    # merged fabric traces stay byte-identical across execution modes.
    def _on_gw_forward(self, ev) -> None:
        pkt = ev.packet
        self.trace.record(ev.t, "gw.forward", gateway=ev.gateway,
                          direction=ev.direction, src=pkt.src, dst=pkt.dst,
                          service=pkt.service.short)

    def _on_gw_drop(self, ev) -> None:
        pkt = ev.packet
        self.trace.record(ev.t, "gw.drop", gateway=ev.gateway,
                          direction=ev.direction, reason=ev.reason,
                          src=pkt.src, dst=pkt.dst,
                          service=pkt.service.short)

    # -- category toggling ---------------------------------------------
    def _follow(self, bus, table) -> None:
        """Subscribe each rendering in *table* whose category is enabled,
        and drop each one that is disabled.  A category enabled after
        :meth:`attach` subscribes behind the bus's existing subscribers."""
        enabled = self.trace.is_enabled
        handlers = self._handlers
        for etype, category, handler in table:
            if enabled(category):
                if etype not in handlers:
                    handlers[etype] = handler or self._direct_handler(
                        etype, self.trace)
                    bus.subscribe(etype, handlers[etype])
            elif etype in handlers:
                bus.unsubscribe(etype, handlers.pop(etype))
