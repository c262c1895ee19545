"""Differential harness: scalar vs batched kernel, byte-for-byte.

The equivalence contract of :mod:`repro.kernel` is not "close enough" — it is
*identical observable output*: the same trace hash, the same per-station
tables, the same summary.  This module runs the same experiment through both
tick drivers and diffs everything observable:

* :func:`diff_scenario` — build+run a :class:`~repro.scenarios.Scenario`
  under each kernel and compare trace hash, summary JSON, per-station table
  and rotation samples.
* :func:`diff_fuzz_case` — replay a serialized fuzz case (irregular
  ``run(until=..., max_events=...)`` drive chunks included) under each kernel
  and compare the full result records.
* :func:`seeded_grid` — the pinned scenario grid the ``kernel-parity`` CI
  job sweeps: idle rings, Poisson/CBR/video/backlogged traffic, RAP joins,
  scripted kills and rebuilds, invariant checkers on and off.

``events_executed`` is excluded everywhere: the batched driver dispatches
fewer agenda events by design (that is the speedup), and the count was never
part of the protocol's observable behaviour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig
from repro.scenarios import Scenario, ScenarioResult, TrafficMix, run_scenario

__all__ = ["KernelDiff", "diff_scenario", "diff_fuzz_case", "seeded_grid",
           "station_table"]


@dataclass
class KernelDiff:
    """Outcome of one scalar-vs-batched comparison."""

    label: str
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return f"{self.label}: parity OK"
        lines = "\n  ".join(self.mismatches[:10])
        return f"{self.label}: {len(self.mismatches)} mismatch(es)\n  {lines}"


# ----------------------------------------------------------------------
def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _strip_events_executed(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in record.items() if k != "events_executed"}


def station_table(result: ScenarioResult) -> Dict[str, Any]:
    """Per-station observable state after a run (the 'tables' of the
    equivalence contract)."""
    net = result.network
    table: Dict[str, Any] = {}
    for sid in sorted(net.stations):
        st = net.stations[sid]
        table[str(sid)] = {
            "alive": st.alive,
            "enqueued": {svc.name: cnt for svc, cnt in st.enqueued.items()},
            "sent": {svc.name: cnt for svc, cnt in st.sent.items()},
            "received": {svc.name: cnt for svc, cnt in st.received.items()},
            "queue_depths": st.queue_depths(),
            "sat_visits": st.sat_visits,
            "sat_holds": st.sat_holds,
            "last_sat_seq": st.last_sat_seq,
            "last_sat_arrival": st.last_sat_arrival,
            "last_sat_departure": st.last_sat_departure,
            "rotation_samples": net.rotation_log.samples(sid),
        }
    table["_sat"] = {
        "kind": net.sat.kind, "at": net.sat.at_station,
        "to": net.sat.in_flight_to, "arrival": net.sat.arrival_time,
        "hops": net.sat.hops, "rounds": net.sat.rounds, "seq": net.sat.seq,
    }
    table["_hops_per_round"] = net.rotation_log.hops_per_round()
    return table


def _compare_runs(label: str, scalar: ScenarioResult,
                  batched: ScenarioResult) -> KernelDiff:
    from repro.fuzz.runner import hash_trace

    diff = KernelDiff(label)
    hs, hb = hash_trace(scalar.trace), hash_trace(batched.trace)
    if hs != hb:
        diff.mismatches.append(f"trace hash: scalar {hs[:16]} vs batched "
                               f"{hb[:16]} ({len(scalar.trace.events)} vs "
                               f"{len(batched.trace.events)} events)")
        for ev_s, ev_b in zip(scalar.trace.events, batched.trace.events):
            key_s = (ev_s.time, ev_s.category, _canonical(ev_s.fields))
            key_b = (ev_b.time, ev_b.category, _canonical(ev_b.fields))
            if key_s != key_b:
                diff.mismatches.append(f"first trace divergence: "
                                       f"scalar {key_s} vs batched {key_b}")
                break
    summary_s = _strip_events_executed(scalar.summary())
    summary_b = _strip_events_executed(batched.summary())
    if _canonical(summary_s) != _canonical(summary_b):
        for key in sorted(set(summary_s) | set(summary_b)):
            left = _canonical(summary_s.get(key))
            right = _canonical(summary_b.get(key))
            if left != right:
                diff.mismatches.append(
                    f"summary[{key}]: scalar {left} vs batched {right}")
    table_s, table_b = station_table(scalar), station_table(batched)
    if _canonical(table_s) != _canonical(table_b):
        for key in sorted(set(table_s) | set(table_b)):
            left = _canonical(table_s.get(key))
            right = _canonical(table_b.get(key))
            if left != right:
                diff.mismatches.append(
                    f"table[{key}]: scalar {left} vs batched {right}")
    if scalar.engine.now != batched.engine.now:
        diff.mismatches.append(f"final clock: scalar {scalar.engine.now!r} "
                               f"vs batched {batched.engine.now!r}")
    return diff


# ----------------------------------------------------------------------
def diff_scenario(scenario: Scenario, label: str = "scenario") -> KernelDiff:
    """Run ``scenario`` under both kernels and diff everything observable."""
    scalar = run_scenario(replace(scenario, kernel="scalar"))
    batched = run_scenario(replace(scenario, kernel="batched"))
    return _compare_runs(label, scalar, batched)


def diff_fuzz_case(case, label: str = "case") -> KernelDiff:
    """Replay a fuzz case (drive chunks, probes, oracles) under both kernels
    and diff the full result records (minus ``events_executed``)."""
    from repro.fuzz.runner import run_case

    def run(kernel: str) -> Dict[str, Any]:
        variant = replace(case, scenario=dict(case.scenario, kernel=kernel))
        return _strip_events_executed(run_case(variant).to_record())

    diff = KernelDiff(label)
    record_s, record_b = run("scalar"), run("batched")
    if _canonical(record_s) != _canonical(record_b):
        for key in sorted(set(record_s) | set(record_b)):
            left = _canonical(record_s.get(key))
            right = _canonical(record_b.get(key))
            if left != right:
                diff.mismatches.append(
                    f"record[{key}]: scalar {left} vs batched {right}")
    return diff


# ----------------------------------------------------------------------
def seeded_grid() -> List[Scenario]:
    """The pinned parity grid: one scenario per protocol regime.

    Horizons are sized so the whole grid runs both kernels in well under a
    CI minute while still crossing many inline-batching and saturated-window
    boundaries.  Every grid run is traced, so its saturated windows run in
    replay mode; the kernel-parity tests also run the grid with the trace
    recorder off, where they run in bulk mode.
    """
    from repro.faults import FaultEvent, FaultSchedule

    grid: List[Scenario] = [
        # pure quiescent circulation: inline batching, every hop through
        # the real SAT step
        Scenario(n=8, traffic=TrafficMix(kind="none"), horizon=4000, seed=11),
        # sparse Poisson: quiescent stretches interleaved with bursts
        Scenario(n=8, traffic=TrafficMix(kind="poisson", rate=0.01),
                 horizon=3000, seed=12),
        # CBR with deadlines: periodic traffic edges
        Scenario(n=6, traffic=TrafficMix(kind="cbr", period=40.0,
                                         service=ServiceClass.PREMIUM,
                                         deadline=200.0),
                 horizon=3000, seed=13),
        # video bursts to neighbours
        Scenario(n=6, traffic=TrafficMix(kind="video", period=80.0,
                                         neighbours_only=True),
                 horizon=2000, seed=14),
        # saturated by a per-tick top-up hook, which keeps the saturated
        # window off: inline batching only
        Scenario(n=6, l=2, k=1, traffic=TrafficMix(kind="saturate"),
                 horizon=1000, seed=15),
        # RAP enabled (spontaneous RAP openings can act on any slot)
        Scenario(n=8, rap_enabled=True, use_channel=True,
                 traffic=TrafficMix(kind="poisson", rate=0.02),
                 horizon=2000, seed=16),
        # scripted kill + recovery + rebuild machinery
        Scenario(n=8, traffic=TrafficMix(kind="poisson", rate=0.02),
                 faults=FaultSchedule([FaultEvent(time=700.0, kind="kill",
                                                  station=3)]),
                 horizon=2500, seed=17),
        # graceful leave mid-run
        Scenario(n=8, traffic=TrafficMix(kind="poisson", rate=0.02),
                 faults=FaultSchedule([FaultEvent(time=900.0, kind="leave",
                                                  station=5)]),
                 horizon=2500, seed=18),
        # SAT loss -> watchdog recovery
        Scenario(n=6, traffic=TrafficMix(kind="none"),
                 faults=FaultSchedule([FaultEvent(time=500.0,
                                                  kind="drop_signal")]),
                 horizon=2000, seed=19),
        # invariant checker subscribed to every tick
        Scenario(n=6, traffic=TrafficMix(kind="poisson", rate=0.05),
                 check_invariants=True, horizon=1000, seed=20),
        # fractional horizon: the run window edge is off the slot grid
        Scenario(n=8, traffic=TrafficMix(kind="none"), horizon=1234.5,
                 seed=21),
    ]
    # voice sessions: call arrivals/teardowns scheduled at priority -1,
    # CAC refusals, a mid-run kill cutting calls — the QoE layer must not
    # perturb inline-batching boundaries
    from repro.qoe.sessions import CallsSpec
    grid.append(
        Scenario(n=8, traffic=TrafficMix(kind="none"),
                 calls=CallsSpec(count=5, arrival_rate=0.01,
                                 mean_holding=800.0),
                 faults=FaultSchedule([FaultEvent(time=1200.0, kind="kill",
                                                  station=2)]),
                 horizon=3000, seed=22))
    grid.extend([
        # fully backlogged drain to the ring successor: the saturated path's
        # home regime (a slot-0 burst, no per-tick generator, so the
        # analytic window engages and must stay byte-identical)
        Scenario(n=6, l=2, k=1,
                 traffic=TrafficMix(kind="prefill", burst=60,
                                    neighbours_only=True),
                 horizon=900, seed=23),
        # mixed-class backlog under three-class quotas with tight Premium
        # deadlines: the window's deadline-miss classification on all three
        # drain budgets
        Scenario(n=6,
                 quotas={sid: QuotaConfig(l=1, k1=1, k2=1)
                         for sid in range(6)},
                 traffic=TrafficMix(kind="prefill", burst=40,
                                    service=ServiceClass.PREMIUM,
                                    deadline=40.0, neighbours_only=True),
                 horizon=900, seed=24),
        # saturated + a mid-drain membership change: the insert rebuilds the
        # member list and successor hints and forces the gate back to scalar
        # slots until the new topology's successor-addressing is saturated
        # again
        Scenario(n=6, l=2, k=1,
                 traffic=TrafficMix(kind="prefill", burst=60,
                                    neighbours_only=True),
                 faults=FaultSchedule([FaultEvent(time=300.0, kind="insert",
                                                  station=77,
                                                  params={"after": 2})]),
                 horizon=900, seed=25),
        # adaptive timers over sparse Poisson: long quiescent stretches run
        # by inline batching, every hop through the real SAT step feeding
        # the estimator and re-arming the watchdogs at adaptive deadlines
        Scenario(n=8, adaptive_timers=True,
                 traffic=TrafficMix(kind="poisson", rate=0.01),
                 horizon=3000, seed=26),
        # adaptive timers + scripted kill: expiry-driven SAT_REC with
        # backoff, Karn exclusion during the walk, estimator state kept
        # across the cut-out
        Scenario(n=8, adaptive_timers=True,
                 traffic=TrafficMix(kind="poisson", rate=0.02),
                 faults=FaultSchedule([FaultEvent(time=700.0, kind="kill",
                                                  station=3)]),
                 horizon=2500, seed=27),
        # adaptive timers in the saturated regime: the analytic window is
        # gated off, so the drain must replay slot-by-slot and still match
        Scenario(n=6, l=2, k=1, adaptive_timers=True,
                 traffic=TrafficMix(kind="prefill", burst=60,
                                    neighbours_only=True),
                 horizon=900, seed=28),
    ])
    return grid
