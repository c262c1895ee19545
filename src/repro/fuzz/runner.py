"""Execute one fuzz case under full instrumentation.

The runner rebuilds the scenario stack from the case's serialized form (so a
case is guaranteed replayable from JSON alone), attaches the strict
per-tick :class:`~repro.core.invariants.RingInvariantChecker` (via the
scenario's ``check_invariants`` flag), a :class:`~repro.fuzz.oracles.ClockProbe`
and a :class:`~repro.fuzz.oracles.PacketLedger`, drives the engine through
the case's run segments, and finishes with the end-of-run oracles.

Every run also produces a SHA-256 *trace hash* over the full structured
event trace.  Two runs of the same case must produce the same hash — that is
the repro-bundle replay contract, and any nondeterminism (hidden global
state, dict-order dependence) shows up as a hash mismatch long before it
corrupts an experiment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config_io import scenario_from_dict
from repro.core.invariants import InvariantViolation
from repro.fuzz.generate import FuzzCase
from repro.fuzz.oracles import (ClockProbe, FuzzFailure, PacketLedger,
                                check_conservation, check_no_false_triggers,
                                check_no_undeliverable,
                                check_refused_calls_silent,
                                check_rotation_bound,
                                false_trigger_oracle_applies,
                                rotation_bound_applies)
from repro.scenarios import ScenarioResult, build_scenario

__all__ = ["FuzzResult", "run_case", "hash_trace"]


#: ``json.dumps(..., sort_keys=True, default=str)``'s encoder, built once
#: instead of once per record
_encode_record = json.JSONEncoder(sort_keys=True, default=str).encode


def hash_trace(trace) -> str:
    """Canonical SHA-256 over the structured event trace."""
    h = hashlib.sha256()
    for ev in trace.events:
        h.update(_encode_record([ev.time, ev.category, ev.fields]).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class FuzzResult:
    """Outcome of one fuzz-case execution."""

    case: FuzzCase
    failures: List[FuzzFailure] = field(default_factory=list)
    trace_hash: str = ""
    events_executed: int = 0
    end_time: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)
    built: Optional[ScenarioResult] = None   # kept for post-mortem poking

    @property
    def ok(self) -> bool:
        return not self.failures

    def failure_kinds(self) -> List[str]:
        return sorted({f.kind for f in self.failures})

    def to_record(self) -> Dict[str, Any]:
        """JSON-ready summary (the shape stored in the campaign store and
        embedded in repro bundles)."""
        return {
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
            "trace_hash": self.trace_hash,
            "events_executed": self.events_executed,
            "end_time": self.end_time,
            "stats": self.stats,
        }


def run_case(case: FuzzCase) -> FuzzResult:
    """Build, drive, and judge one fuzz case."""
    scenario = scenario_from_dict(case.scenario)
    built = build_scenario(scenario)
    engine, net = built.engine, built.network

    probe = ClockProbe(engine).attach(net.events)
    ledger = PacketLedger(net)

    failures: List[FuzzFailure] = []
    aborted = False
    try:
        for chunk in case.drive:
            until = min(float(chunk["until"]), scenario.horizon)
            if until < engine.now:
                continue
            engine.run(until=until, max_events=chunk.get("max_events"))
            probe.checkpoint()
        if engine.now < scenario.horizon:
            engine.run(until=scenario.horizon)
        probe.checkpoint()
    except InvariantViolation as exc:
        aborted = True
        failures.append(FuzzFailure("invariant", str(exc)))
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        aborted = True
        failures.append(
            FuzzFailure("crash", f"{type(exc).__name__}: {exc}"))

    failures.extend(probe.failures)
    if not aborted:
        # end-of-run oracles assume the run reached its horizon
        failures.extend(check_conservation(net, ledger))
        failures.extend(check_no_undeliverable(net, ledger))
        if built.sessions is not None:
            failures.extend(check_refused_calls_silent(built.sessions,
                                                       ledger))
        if rotation_bound_applies(net, case.scenario):
            failures.extend(check_rotation_bound(built))
        if false_trigger_oracle_applies(case.scenario):
            failures.extend(check_no_false_triggers(net))

    metrics = net.metrics
    stats = {
        "n_final": net.n,
        "delivered": metrics.total_delivered,
        "lost": metrics.lost,
        "orphaned": metrics.orphaned,
        "enqueued": len(ledger.packets),
        "recoveries": len(net.recovery.records),
        "rebuilds": net.recovery.ring_rebuilds,
        "joins": net.join_manager.joins_completed,
        "network_down": net.network_down,
    }
    if net.impairments is not None:
        stats["impairment_drops"] = net.impairments.drops
    if case.scenario.get("adaptive_timers"):
        # emitted only for adaptive cases so every pre-existing corpus
        # bundle's pinned record keeps its exact historical shape
        stats["false_sat_recs"] = net.recovery.false_triggers
        stats["timer_samples_excluded"] = net.recovery.samples_excluded
    if built.sessions is not None:
        counts = built.sessions.counts()
        stats["calls_admitted"] = (counts["active"] + counts["ended"]
                                   + counts["cut"])
        stats["calls_refused"] = counts["refused"]
        stats["calls_cut"] = counts["cut"]
    return FuzzResult(case=case, failures=failures,
                      trace_hash=hash_trace(built.trace),
                      events_executed=engine.events_executed,
                      end_time=engine.now, stats=stats, built=built)
