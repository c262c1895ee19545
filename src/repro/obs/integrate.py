"""Wiring helpers: attach observability to a built protocol stack.

The protocol layers accept observability objects but never construct them —
a run is unobserved unless the caller (CLI, tests, campaign harness) opts
in.  This module is that opt-in surface, and since the event-spine refactor
it is purely a *subscriber* of the protocol's event bus: the core never
imports ``repro.obs``.

* :func:`attach_network_metrics` subscribes a
  :class:`~repro.obs.registry.MetricsRegistry` to a
  :class:`~repro.core.ring.WRTRingNetwork`'s bus (delivery/loss counters,
  SAT-rotation and recovery histograms) and samples per-station queue-depth
  gauges on the per-tick event;
* :func:`attach_run_profiling` subscribes a
  :class:`~repro.obs.profile.Profiler` to the engine's bus so every
  ``Engine.run`` window lands as a wall-clock span ("engine.run", with its
  executed-event count).
"""

from __future__ import annotations

from typing import Optional

from repro.events import types as _ev

__all__ = ["attach_network_metrics", "attach_run_profiling",
           "NetworkMetricsSubscriber"]


class NetworkMetricsSubscriber:
    """Publishes a network's event streams into a metrics registry.

    Counters: ``ring.delivered`` (labeled per service class), ``ring.lost``,
    ``ring.orphaned``, ``ring.kills``, ``ring.inserts``, ``ring.removes``,
    ``sat.releases``, ``sat.holds``, ``recovery.episodes``,
    ``recovery.rebuilds``, plus the impairment/robustness family:
    ``phy.drops`` (labeled kind/reason), ``phy.link_drops`` (labeled per
    link), ``sat.hop_lost``, ``sat.stale_discarded``, ``timer.adapted``,
    ``sat.false_recs`` and ``fault.skipped``,
    plus the bridge family: ``gw.forwards`` (labeled direction) and
    ``gw.drops`` (labeled reason).
    Histograms: ``sat.rotation_slots``, ``recovery.delay_slots``.  Gauges
    (sampled every ``sample_every`` slots): ``ring.members`` and
    per-station/per-queue ``station.queue_depth``.

    When the network owns a broadcast channel, its
    :class:`~repro.phy.channel.ChannelStats` totals are mirrored into
    ``phy.frames_sent``, ``phy.collisions`` and per-kind
    ``phy.frames_delivered`` counters — synced on the sampled tick and by
    :meth:`flush` at end of run (counters appear only once nonzero, so
    channel-less snapshots are unchanged).
    """

    def __init__(self, net, registry, sample_every: int = 100):
        self.net = net
        self.registry = registry
        self.sample_every = sample_every
        self._delivered = {}
        self._lost = registry.counter("ring.lost")
        self._orphaned = registry.counter("ring.orphaned")
        self._rotation = registry.histogram("sat.rotation_slots")
        self._sat_releases = registry.counter("sat.releases")
        self._sat_holds = registry.counter("sat.holds")
        self._kills = registry.counter("ring.kills")
        self._inserts = registry.counter("ring.inserts")
        self._removes = registry.counter("ring.removes")
        self._recoveries = registry.counter("recovery.episodes")
        self._rebuilds = registry.counter("recovery.rebuilds")
        self._recovery_delay = registry.histogram("recovery.delay_slots")
        self._members = registry.gauge("ring.members")
        # lazily created, like the per-service delivery counters: these
        # families only exist in a snapshot once their event fires
        self._phy_drops = {}
        self._link_drops = {}
        self._sat_hop_lost = {}
        self._sat_stale = None
        self._timer_adapted = None
        self._false_rec = None
        self._fault_skipped = {}
        self._gw_forwards = {}
        self._gw_drops = {}
        # last ChannelStats totals already mirrored into counters
        self._phy_seen = {}

    def attach(self, bus) -> "NetworkMetricsSubscriber":
        sub = bus.subscribe
        sub(_ev.SlotDeliver, self._on_deliver)
        sub(_ev.PacketLost, lambda ev: self._lost.inc())
        sub(_ev.PacketOrphaned, lambda ev: self._orphaned.inc())
        sub(_ev.SatRotation, lambda ev: self._rotation.observe(ev.rotation))
        sub(_ev.SatRelease, lambda ev: self._sat_releases.inc())
        sub(_ev.SatHold, lambda ev: self._sat_holds.inc())
        sub(_ev.StationKilled, lambda ev: self._kills.inc())
        sub(_ev.StationInserted, lambda ev: self._inserts.inc())
        sub(_ev.StationRemoved, lambda ev: self._removes.inc())
        sub(_ev.RecoveryEpisode, self._on_episode)
        sub(_ev.RebuildDone, lambda ev: self._rebuilds.inc())
        sub(_ev.FrameDropped, self._on_frame_dropped)
        sub(_ev.SatHopLost, self._on_sat_hop_lost)
        sub(_ev.SatStaleDiscarded, self._on_sat_stale)
        sub(_ev.TimerAdapted, self._on_timer_adapted)
        sub(_ev.FalseSatRec, self._on_false_rec)
        sub(_ev.FaultSkipped, self._on_fault_skipped)
        sub(_ev.GatewayForward, self._on_gw_forward)
        sub(_ev.GatewayDrop, self._on_gw_drop)
        sub(_ev.RingTick, self._on_tick)
        return self

    def _on_deliver(self, ev) -> None:
        service = ev.packet.service
        counter = self._delivered.get(service)
        if counter is None:
            counter = self._delivered[service] = self.registry.counter(
                "ring.delivered", service=service.short)
        counter.inc()

    def _on_episode(self, ev) -> None:
        self._recoveries.inc()
        if ev.total_delay is not None:
            self._recovery_delay.observe(ev.total_delay)

    def _on_frame_dropped(self, ev) -> None:
        key = (ev.kind, ev.reason)
        counter = self._phy_drops.get(key)
        if counter is None:
            counter = self._phy_drops[key] = self.registry.counter(
                "phy.drops", kind=ev.kind, reason=ev.reason)
        counter.inc()
        link = f"{ev.src}->{ev.dst}"
        link_counter = self._link_drops.get(link)
        if link_counter is None:
            link_counter = self._link_drops[link] = self.registry.counter(
                "phy.link_drops", link=link)
        link_counter.inc()

    def _on_sat_hop_lost(self, ev) -> None:
        counter = self._sat_hop_lost.get(ev.reason)
        if counter is None:
            counter = self._sat_hop_lost[ev.reason] = self.registry.counter(
                "sat.hop_lost", reason=ev.reason)
        counter.inc()

    def _on_sat_stale(self, ev) -> None:
        if self._sat_stale is None:
            self._sat_stale = self.registry.counter("sat.stale_discarded")
        self._sat_stale.inc()

    def _on_timer_adapted(self, ev) -> None:
        if self._timer_adapted is None:
            self._timer_adapted = self.registry.counter("timer.adapted")
        self._timer_adapted.inc()

    def _on_false_rec(self, ev) -> None:
        if self._false_rec is None:
            self._false_rec = self.registry.counter("sat.false_recs")
        self._false_rec.inc()

    def _on_fault_skipped(self, ev) -> None:
        counter = self._fault_skipped.get(ev.kind)
        if counter is None:
            counter = self._fault_skipped[ev.kind] = self.registry.counter(
                "fault.skipped", kind=ev.kind)
        counter.inc()

    def _on_gw_forward(self, ev) -> None:
        counter = self._gw_forwards.get(ev.direction)
        if counter is None:
            counter = self._gw_forwards[ev.direction] = self.registry.counter(
                "gw.forwards", direction=ev.direction)
        counter.inc()

    def _on_gw_drop(self, ev) -> None:
        counter = self._gw_drops.get(ev.reason)
        if counter is None:
            counter = self._gw_drops[ev.reason] = self.registry.counter(
                "gw.drops", reason=ev.reason)
        counter.inc()

    def _sync_channel_stats(self) -> None:
        stats = getattr(getattr(self.net, "channel", None), "stats", None)
        if stats is None:
            return
        totals = {("phy.frames_sent", ()): stats.frames_sent,
                  ("phy.collisions", ()): stats.collisions}
        for kind, count in stats.deliveries_by_kind.items():
            totals[("phy.frames_delivered", (("kind", kind),))] = count
        seen = self._phy_seen
        for key, total in totals.items():
            delta = total - seen.get(key, 0)
            if delta <= 0:
                continue
            name, labels = key
            self.registry.counter(name, **dict(labels)).inc(delta)
            seen[key] = total

    def flush(self) -> None:
        """Mirror any counts not yet published (call before a snapshot)."""
        self._sync_channel_stats()

    def _on_tick(self, ev) -> None:
        if int(ev.t) % self.sample_every:
            return
        net = self.net
        self._members.set(net.n)
        self._sync_channel_stats()
        registry = self.registry
        for sid in net.members:
            for queue, depth in net.stations[sid].queue_depths().items():
                registry.gauge("station.queue_depth",
                               station=sid, queue=queue).set(depth)


def attach_network_metrics(net, registry,
                           sample_every: int = 100) -> NetworkMetricsSubscriber:
    """Subscribe ``registry`` to ``net.events``.

    ``sample_every`` is the sampling period in slots for the per-station
    gauges (queue depths, membership); the event-driven instruments
    (deliveries, losses, rotations, recoveries) are exact regardless.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    return NetworkMetricsSubscriber(net, registry, sample_every).attach(net.events)


def attach_run_profiling(engine, profiler: Optional[object]) -> None:
    """Subscribe ``profiler`` to ``engine.events`` (``None`` detaches)."""
    unsub = getattr(engine, "_profiler_unsub", None)
    if unsub is not None:
        unsub()
        engine._profiler_unsub = None
    if profiler is None:
        return

    def on_run(ev) -> None:
        profiler.record_span("engine.run", ev.wall_start, ev.wall_elapsed,
                             events=ev.events, sim_from=ev.sim_from,
                             sim_to=ev.t)

    engine._profiler_unsub = engine.events.subscribe(
        _ev.EngineRunWindow, on_run)
