"""Declarative scenario construction and execution.

A :class:`Scenario` describes a complete experiment — deployment geometry,
protocol parameters, traffic mix, mobility, scripted faults — and
:func:`run_scenario` builds the whole stack (engine, placement, connectivity,
channel, network, workload, mobility coupling, fault schedule, optional
invariant checking), runs it and returns a :class:`ScenarioResult` with a
uniform summary.  The CLI and several benchmarks are thin layers over this
module.

Mobility coupling: the live positions array is owned by the mobility model;
the network's connectivity-graph provider rebuilds the unit-disk graph from
those positions (cached per update period).  With
``enforce_radio_links=True`` a ring link wandering out of range destroys
the frames (and possibly the SAT) crossing it, driving the Sec. 2.5
machinery exactly as a real fading link would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.bounds import sat_rotation_bound
from repro.analysis.metrics import jain_fairness
from repro.config_io import from_dict, option, to_dict
from repro.core.config import WRTRingConfig
from repro.core.invariants import RingInvariantChecker
from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig
from repro.core.ring import WRTRingNetwork
from repro.faults import FaultEvent, FaultSchedule
from repro.phy.channel import SlottedChannel
from repro.phy.impairments import ChannelImpairments, ImpairmentSpec
from repro.phy.geometry import Arena, ring_placement, uniform_placement
from repro.phy.mobility import JitterMobility, StaticMobility
from repro.phy.topology import ConnectivityGraph, construct_ring
from repro.qoe.sessions import CallsSpec, SessionManager
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.traffic.flows import FlowSpec
from repro.traffic.workload import Workload

__all__ = ["TrafficMix", "MobilitySpec", "Scenario", "ScenarioResult",
           "build_scenario", "run_scenario"]


@dataclass(frozen=True)
class TrafficMix:
    """Per-station traffic attachment.

    ``kind``: ``"cbr"`` (needs ``period``), ``"poisson"`` (needs ``rate``),
    ``"video"`` (needs ``period`` as the frame interval), ``"backlog"``
    (saturating the ``service`` queue), ``"saturate"`` (worst-case load:
    both the Premium and the best-effort queue of every station kept
    backlogged, the pattern of the Sec. 2.6 bound experiments),
    ``"onoff"`` (exponential talkspurt bursts: ``peak_rate`` during ON,
    ``mean_on``/``mean_off`` in slots), ``"voice"`` (a bidirectional
    on/off pair per station — each station holds one two-way
    conversation), ``"prefill"`` (a one-shot burst of ``burst`` packets
    per station flow at slot 0, then silence: deep backlog with no
    per-tick generator, the drain regime of the saturated-path
    experiments), or ``"none"``.
    """

    kind: str = "poisson"
    rate: float = 0.05
    period: float = 20.0
    service: ServiceClass = ServiceClass.BEST_EFFORT
    deadline: Optional[float] = None
    neighbours_only: bool = False
    #: on/off talkspurt shape (kinds "onoff" and "voice"); the defaults are
    #: the G.711 voice model in slots (see docs/QOE.md)
    peak_rate: float = option(0.05, kinds=("onoff", "voice"))
    mean_on: float = option(350.0, kinds=("onoff", "voice"))
    mean_off: float = option(650.0, kinds=("onoff", "voice"))
    #: slot-0 burst depth per flow (kind "prefill" only)
    burst: int = option(0, kinds=("prefill",))

    def __post_init__(self) -> None:
        if self.kind not in ("cbr", "poisson", "video", "backlog",
                             "saturate", "onoff", "voice", "prefill",
                             "none"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.kind in ("onoff", "voice"):
            if self.peak_rate <= 0:
                raise ValueError(f"peak_rate must be positive, "
                                 f"got {self.peak_rate!r}")
            if self.mean_on <= 0 or self.mean_off <= 0:
                raise ValueError("mean_on and mean_off must be positive")
        if self.kind == "prefill" and self.burst < 1:
            raise ValueError(f"prefill needs burst >= 1, got {self.burst!r}")


@dataclass(frozen=True)
class MobilitySpec:
    """Low-mobility wander around home positions."""

    wander_radius: float = 0.0
    speed: float = 0.5
    update_every: int = 10    # slots between connectivity recomputes


@dataclass
class Scenario:
    """A complete experiment description (fields in the key order of its
    JSON form, :func:`repro.config_io.scenario_to_dict`)."""

    n: int = 8
    placement: str = "circle"          # "circle" | "uniform"
    radius: float = 30.0
    #: radio range / circle chord.  >= 2 lets the SAT_REC cut-out chord
    #: (two hops) stay in range, the paper's recoverable geometry; lower
    #: values exercise the ring-lost escalation path.
    range_margin: float = 2.2
    arena: Arena = field(default_factory=Arena)
    l: int = 2
    k: int = 1
    rap_enabled: bool = False
    t_ear: int = 6
    t_update: int = 3
    use_channel: bool = False
    validate_phy: bool = False
    check_invariants: bool = False
    horizon: float = 10_000.0
    seed: int = 0
    traffic: TrafficMix = field(default_factory=TrafficMix)
    #: tick driver: "scalar" (reference, one agenda event per slot) or
    #: "batched" (repro.kernel: inline slot batching + saturated SAT windows,
    #: byte-identical outputs enforced by the kernel-parity harness)
    kernel: str = option("scalar", omit_default=True)
    #: opt-in RFC 6298 SAT timers (repro.core.adaptive): per-station
    #: SRTT/RTTVAR estimation over observed rotations with a Theorem-1
    #: ceiling, plus exponential join-retry backoff.  Off = the paper's
    #: fixed worst-case timer, byte-identical to every existing trace.
    adaptive_timers: bool = option(False, omit_default=True)
    #: voice/multimedia call workload (see repro.qoe.sessions.CallsSpec);
    #: None = no session layer
    calls: Optional[CallsSpec] = option(None, omit_default=True)
    #: per-station quotas, written ``{"sid": [l, k1, k2]}``; None = the
    #: homogeneous ``l``/``k`` split
    quotas: Optional[Dict[int, QuotaConfig]] = option(
        None, omit_default=True, codec=(
            lambda quotas: {str(sid): [q.l, q.k1, q.k2]
                            for sid, q in quotas.items()},
            lambda data, where: {int(sid): QuotaConfig(*q)
                                 for sid, q in data.items()}))
    mobility: Optional[MobilitySpec] = option(None, omit_default=True)
    #: scripted faults, written as a list of event dicts (an empty list is
    #: no schedule); every build attaches its own copy
    faults: Optional[FaultSchedule] = option(
        None, omit_default=True, codec=(
            lambda schedule: [to_dict(event) for event in schedule.events],
            lambda events, where: FaultSchedule([
                from_dict(FaultEvent, event, where) for event in events])
            if events else None))
    #: stochastic frame loss (None or an all-defaults spec = clean channel)
    impairments: Optional[ImpairmentSpec] = option(None, omit_default=True)

    def __post_init__(self) -> None:
        if self.kernel not in ("scalar", "batched"):
            raise ValueError(f"unknown kernel {self.kernel!r} "
                             "(expected 'scalar' or 'batched')")
        if self.n < 2:
            raise ValueError(f"need at least 2 stations, got {self.n}")
        if self.placement not in ("circle", "uniform"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError(
                f"horizon must be finite and positive, got {self.horizon!r}")
        if self.range_margin <= 1.0 and self.placement == "circle":
            raise ValueError("range_margin must exceed 1 for a feasible circle ring")


@dataclass
class ScenarioResult:
    """The built stack plus a uniform summary."""

    scenario: Scenario
    engine: Engine
    network: WRTRingNetwork
    workload: Workload
    mobility: StaticMobility
    trace: TraceRecorder
    checker: Optional[RingInvariantChecker]
    sessions: Optional[SessionManager] = None
    #: this build's own copy of ``scenario.faults``: its applied/skipped
    #: logs and join requesters belong to this run only
    faults: Optional[FaultSchedule] = None

    def resolved_config(self) -> Dict[str, object]:
        """The resolved run configuration, echoed in every summary so a run
        is reproducible from its output alone (CLI ``--json`` and campaign
        result records share this shape): a fixed key subset of the
        scenario's JSON form, without ``kernel`` because scalar and batched
        runs must print identical summaries."""
        full = to_dict(self.scenario)
        return {key: full[key] for key in ("n", "l", "k", "seed", "horizon",
                "traffic", "calls", "adaptive_timers") if key in full}

    def summary(self) -> Dict[str, object]:
        net = self.network
        out: Dict[str, object] = {
            "config": self.resolved_config(),
            "members": list(net.members),
            "network_down": net.network_down,
            "delivered": net.metrics.total_delivered,
            "lost": net.metrics.lost,
            "orphaned": net.metrics.orphaned,
            "goodput_per_slot": net.metrics.total_delivered / self.engine.now
            if self.engine.now else 0.0,
            "recoveries": len(net.recovery.records),
            "rebuilds": net.recovery.ring_rebuilds,
            "rebuild_downtime": net.recovery.total_rebuild_time,
            "availability": (1.0 - net.recovery.total_rebuild_time
                             / self.engine.now) if self.engine.now else 1.0,
            "joins": net.join_manager.joins_completed,
        }
        samples = net.rotation_log.all_samples()
        if samples:
            # membership may have shrunk/grown during the run; the bound of
            # the superset of every station ever configured dominates the
            # bound in force at any instant, so checking samples against it
            # is sound for the whole run (if slightly conservative)
            quotas = list(net.config.quotas.values())
            S = len(net.config.quotas) * net.config.sat_hop_slots
            bound = sat_rotation_bound(S, net.config.effective_t_rap(), quotas)
            out["worst_rotation"] = max(samples)
            out["mean_rotation"] = sum(samples) / len(samples)
            out["rotation_samples"] = len(samples)
            out["rotation_bound"] = bound
            out["bound_holds"] = max(samples) < bound
            violations = sum(1 for s in samples if s >= bound)
            out["rotation_violations"] = violations
            out["rotation_violation_rate"] = violations / len(samples)
        if net.recovery.records:
            out["recovery_delays"] = [r.total_delay
                                      for r in net.recovery.records]
        if self.scenario.adaptive_timers:
            out["false_sat_recs"] = net.recovery.false_triggers
            out["timer_samples_excluded"] = net.recovery.samples_excluded
        deadlines = net.metrics.deadlines
        if deadlines.total:
            out["deadline_miss_ratio"] = deadlines.miss_ratio
        shares = [sum(net.stations[s].sent.values()) for s in net.members]
        if shares and sum(shares) > 0:
            out["fairness"] = jain_fairness(shares)
        if self.faults is not None:
            out["faults_applied"] = len(self.faults.applied)
            out["faults_skipped"] = len(self.faults.skipped)
        if net.impairments is not None:
            out["impairments"] = net.impairments.summary()
        if self.checker is not None:
            out["invariants_clean"] = self.checker.clean
            out["invariant_violations"] = list(self.checker.violations)
        if self.sessions is not None:
            out["calls"] = self.sessions.summary()
        return out


# ----------------------------------------------------------------------
def _build_positions(scn: Scenario, streams: RandomStreams) -> np.ndarray:
    if scn.placement == "circle":
        return ring_placement(scn.n, radius=scn.radius)
    return uniform_placement(scn.n, scn.arena, streams.numpy_stream("placement"))


def _radio_range(scn: Scenario) -> float:
    if scn.placement == "circle":
        chord = 2 * scn.radius * np.sin(np.pi / scn.n)
        return float(chord * scn.range_margin)
    # uniform placement: half the arena diagonal scaled by the margin
    return float(scn.arena.diagonal / 2 * (scn.range_margin - 1.0) + 10.0)


def _attach_traffic(scn: Scenario, net: WRTRingNetwork,
                    streams: RandomStreams) -> Workload:
    wl = Workload(net, streams.fork("traffic"))
    mix = scn.traffic
    if mix.kind == "none":
        return wl
    members = list(net.members)
    pick = streams.stream("traffic.dst")
    for sid in members:
        if mix.neighbours_only:
            dst = net.successor(sid)
        else:
            dst = pick.choice([m for m in members if m != sid])
        flow = FlowSpec(src=sid, dst=dst, service=mix.service,
                        deadline=mix.deadline)
        if mix.kind == "cbr":
            wl.add_cbr(flow, period=mix.period)
        elif mix.kind == "poisson":
            wl.add_poisson(flow, rate=mix.rate)
        elif mix.kind == "video":
            wl.add_video(flow, frame_interval=mix.period)
        elif mix.kind == "onoff":
            wl.add_onoff(flow, peak_rate=mix.peak_rate, mean_on=mix.mean_on,
                         mean_off=mix.mean_off)
        elif mix.kind == "voice":
            # a two-way conversation per station: talkspurts in both
            # directions between sid and its picked partner
            wl.add_onoff(flow, peak_rate=mix.peak_rate, mean_on=mix.mean_on,
                         mean_off=mix.mean_off)
            wl.add_onoff(FlowSpec(src=dst, dst=sid, service=mix.service,
                                  deadline=mix.deadline),
                         peak_rate=mix.peak_rate, mean_on=mix.mean_on,
                         mean_off=mix.mean_off)
        elif mix.kind == "backlog":
            wl.add_backlog(flow, target=15,
                           destinations=[dst] if mix.neighbours_only else None)
        elif mix.kind == "prefill":
            # slot-0 burst, then silence: the primary class plus companion
            # classes so a multi-class quota drains through every budget
            wl.add_prefill(flow, count=mix.burst)
            if (mix.service is ServiceClass.PREMIUM
                    and net.stations[sid].quota.k1 > 0):
                wl.add_prefill(FlowSpec(src=sid, dst=dst,
                                        service=ServiceClass.ASSURED,
                                        deadline=mix.deadline),
                               count=mix.burst)
            if mix.service is not ServiceClass.BEST_EFFORT:
                # best-effort flows cannot carry deadlines (FlowSpec rule)
                wl.add_prefill(FlowSpec(src=sid, dst=dst,
                                        service=ServiceClass.BEST_EFFORT),
                               count=mix.burst)
        elif mix.kind == "saturate":
            dsts = [dst] if mix.neighbours_only else None
            wl.add_backlog(FlowSpec(src=sid, dst=dst,
                                    service=ServiceClass.PREMIUM,
                                    deadline=mix.deadline),
                           target=15, destinations=dsts)
            wl.add_backlog(FlowSpec(src=sid, dst=dst,
                                    service=ServiceClass.BEST_EFFORT),
                           target=15, destinations=dsts)
    return wl


def build_scenario(scenario: Scenario) -> ScenarioResult:
    """Build (and start, but do not run) the complete stack for ``scenario``.

    The caller owns the engine drive: the fuzz harness uses this to advance
    time in irregular chunks (including ``max_events``-bounded segments) with
    extra probes attached, while :func:`run_scenario` simply runs to the
    horizon.
    """
    streams = RandomStreams(scenario.seed)
    engine = Engine()
    trace = TraceRecorder()
    positions = _build_positions(scenario, streams)
    radio_range = _radio_range(scenario)

    mob_spec = scenario.mobility
    if mob_spec is not None and mob_spec.wander_radius > 0:
        mobility: StaticMobility = JitterMobility(
            positions, wander_radius=mob_spec.wander_radius,
            speed=mob_spec.speed)
    else:
        mobility = StaticMobility(positions)

    # RAP-joining callers are off-ring stations that must be *physically*
    # placed to hear two consecutive NEXT_FREE announcements; park each at
    # the midpoint of an adjacent station pair (well inside radio range of
    # both).  Empty for every other scenario, so the graph — and therefore
    # every existing trace — is byte-identical to before.
    caller_positions: Dict[int, np.ndarray] = {}
    if scenario.calls is not None and scenario.calls.join_via_rap:
        from repro.qoe.sessions import RAP_CALLER_BASE
        for cid in range(scenario.calls.count):
            i = cid % scenario.n
            j = (i + 1) % scenario.n
            caller_positions[RAP_CALLER_BASE + cid] = (
                positions[i] + positions[j]) / 2.0

    # connectivity provider over the *live* positions, cached per update
    cache = {"t": -1.0, "graph": None}
    update_every = mob_spec.update_every if mob_spec else 10 ** 9

    def graph_provider() -> ConnectivityGraph:
        if cache["graph"] is None or engine.now - cache["t"] >= update_every:
            pos = mobility.positions.copy()
            node_ids = None
            if caller_positions:
                pos = np.vstack([pos, list(caller_positions.values())])
                node_ids = (list(range(len(mobility.positions)))
                            + list(caller_positions))
            cache["graph"] = ConnectivityGraph(pos, radio_range,
                                               node_ids=node_ids)
            cache["t"] = engine.now
        return cache["graph"]

    base_graph = graph_provider()
    if caller_positions:
        # the initial ring is the n deployed stations; callers join later
        base_graph = base_graph.subgraph(list(range(scenario.n)))
    ring_order = construct_ring(base_graph)

    quotas = scenario.quotas or {
        sid: QuotaConfig.two_class(scenario.l, scenario.k)
        for sid in range(scenario.n)}
    config = WRTRingConfig(
        quotas=dict(quotas),
        rap_enabled=scenario.rap_enabled,
        t_ear=scenario.t_ear,
        t_update=scenario.t_update,
        validate_phy=scenario.validate_phy,
        enforce_radio_links=mob_spec is not None,
        # a mobile network keeps trying to re-form when geometry recovers
        rebuild_retry_limit=(10_000 if mob_spec is not None else 1),
    )
    channel = (SlottedChannel(graph_provider, trace=trace)
               if (scenario.use_channel or scenario.validate_phy) else None)
    impairments = None
    if scenario.impairments is not None and scenario.impairments.enabled:
        # built only when a loss source is active so the clean-channel path
        # stays byte-identical (no extra RNG streams, no extra branches)
        impairments = ChannelImpairments(scenario.impairments,
                                         streams.fork("impairments"))
    net = WRTRingNetwork(engine, ring_order, config, graph=graph_provider,
                         channel=channel, trace=trace,
                         impairments=impairments,
                         adaptive_timers=scenario.adaptive_timers)

    if mob_spec is not None and mob_spec.wander_radius > 0:
        mob_rng = streams.numpy_stream("mobility")

        def move(t: float) -> None:
            if int(t) % mob_spec.update_every == 0:
                mobility.advance(float(mob_spec.update_every), mob_rng)
        net.add_tick_hook(move)

    checker = None
    if scenario.check_invariants:
        checker = RingInvariantChecker(net, strict=True).attach(net.events)

    workload = _attach_traffic(scenario, net, streams)
    faults = None
    if scenario.faults is not None:
        faults = FaultSchedule(scenario.faults.events)
        faults.attach(net)

    sessions = None
    if scenario.calls is not None:
        sessions = SessionManager(net, workload, scenario.calls, streams)

    if scenario.kernel == "batched":
        # must be installed before start(): the kernel replaces the tick
        # driver and needs to see every packet-entry event from slot 0
        from repro.kernel import install_batched_kernel
        install_batched_kernel(net)

    net.start()
    return ScenarioResult(scenario=scenario, engine=engine, network=net,
                          workload=workload, mobility=mobility, trace=trace,
                          checker=checker, sessions=sessions, faults=faults)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Build and run the complete stack for ``scenario``."""
    result = build_scenario(scenario)
    result.engine.run(until=scenario.horizon)
    return result
