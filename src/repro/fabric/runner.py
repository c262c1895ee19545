"""The fabric runner: conservative time-window co-simulation of many rings.

Synchronization model (the SAT-keyed conservative window):

* rings interact **only** through gateway out-buffers, so a shard can
  advance its local clock a full window ``W`` without any input from its
  neighbours — nothing a neighbour does within the window can reach it
  before the next barrier;
* ``W`` defaults to the *smallest* Theorem-1 SAT rotation bound across the
  rings (one SAT-rotation lookahead: within one window every station has
  had its guaranteed transmission opportunities, so a window is the
  natural protocol-level quantum), clamped to >= 1 slot;
* barriers sit at absolute multiples of ``W`` — **not** at whatever time a
  ``run(until=...)`` call happens to stop — so pausing and resuming a
  runner at arbitrary times replays the exact barrier sequence of an
  uninterrupted run;
* at each barrier every shard drains its buffers; the runner sorts all
  crossing frames by the canonical ``(flow, seq, hop)`` key and injects
  them into their next rings.  The exchange is therefore byte-identical
  no matter how shards were scheduled (serial, process-per-ring, or any
  completion order of the workers).

Cross-shard determinism rests on three invariants, each enforced here or
in the shard: per-ring seeds derive from the fabric seed
(``RandomStreams.derive``), frames are exchanged in sorted canonical
order, and nothing that crosses a boundary (frames, trace records,
reports) ever contains a ``Packet.pid`` or other process-local identity.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign.aggregate import aligned_table
from repro.campaign.sweep import canonical_json
from repro.fabric.topology import Topology, topology_to_dict
from repro.fabric.worker import _shard_entry

__all__ = ["FabricRunner", "FabricResult", "run_fabric_point"]


@dataclass
class FabricResult:
    """Merged view over every shard's report."""

    topology: Topology
    mode: str
    clock: float
    reports: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def trace_hash(self) -> str:
        """One digest over the merged canonical trace (combined from the
        per-ring digests, which cover every trace record in ring order)."""
        import hashlib
        material = canonical_json(
            [[r["ring"], r["trace_len"], r["trace_digest"]]
             for r in sorted(self.reports, key=lambda r: r["ring"])])
        return hashlib.sha256(material.encode()).hexdigest()

    def summary(self) -> Dict[str, Any]:
        reports = self.reports
        drops: Dict[str, int] = {}
        for r in reports:
            for reason, count in r["drops"].items():
                drops[reason] = drops.get(reason, 0) + count
        completed = sum(r["frames_completed"] for r in reports)
        misses = sum(r["deadline_misses"] for r in reports)
        return {
            "rings": self.topology.rings,
            "stations": self.topology.stations,
            "mode": self.mode,
            "clock": self.clock,
            "events_executed": sum(r["events_executed"] for r in reports),
            "ring_delivered": sum(r["delivered"] for r in reports),
            "ring_lost": sum(r["lost"] for r in reports),
            "frames_created": sum(r["frames_created"] for r in reports),
            "frames_completed": completed,
            "frames_dropped": sum(drops.values()),
            "frames_in_flight": sum(r["in_flight"] for r in reports),
            "gw_forwards": sum(r["gw_forwards"] for r in reports),
            "gw_drops": dict(sorted(drops.items())),
            "cross_ring_deadline_misses": misses,
            "cross_ring_deadline_miss_rate":
                (misses / completed) if completed else 0.0,
            "trace_hash": self.trace_hash(),
        }

    def ring_table(self) -> str:
        headers = ["ring", "members", "delivered", "lost", "gw_forwards",
                   "gw_drops", "frames_done", "in_flight", "events"]
        rows = [[r["ring"], r["members"], r["delivered"], r["lost"],
                 r["gw_forwards"], sum(r["drops"].values()),
                 r["frames_completed"], r["in_flight"],
                 r["events_executed"]]
                for r in sorted(self.reports, key=lambda r: r["ring"])]
        return aligned_table(headers, rows)

    def flow_table(self) -> str:
        flows = self.topology.resolved_flows()
        merged: Dict[int, Dict[str, float]] = {}
        for r in self.reports:
            for key, stats in r["flow_stats"].items():
                agg = merged.setdefault(int(key), {"completed": 0,
                                                   "misses": 0,
                                                   "delay_sum": 0.0,
                                                   "delay_max": 0.0})
                agg["completed"] += stats["completed"]
                agg["misses"] += stats["misses"]
                agg["delay_sum"] += stats["delay_sum"]
                agg["delay_max"] = max(agg["delay_max"], stats["delay_max"])
        headers = ["flow", "path", "ring_hops", "completed", "misses",
                   "mean_delay", "max_delay"]
        rows = []
        for idx, flow in enumerate(flows):
            route = self.topology.route(flow.src_ring, flow.dst_ring)
            agg = merged.get(idx, {"completed": 0, "misses": 0,
                                   "delay_sum": 0.0, "delay_max": 0.0})
            done = agg["completed"]
            rows.append([
                idx,
                f"r{flow.src_ring}.s{flow.src_station}->"
                f"r{flow.dst_ring}.s{flow.dst_station}",
                len(route) - 1, done, agg["misses"],
                (agg["delay_sum"] / done) if done else 0.0,
                agg["delay_max"]])
        return aligned_table(headers, rows)

    def completions(self) -> List[List[Any]]:
        """Every completed frame across the fabric, in canonical
        (flow, seq) order: ``[flow, seq, t, delay, miss, hop_log]``."""
        out: List[List[Any]] = []
        for r in self.reports:
            out.extend(r["completions"])
        out.sort(key=lambda c: (c[0], c[1]))
        return out

    def per_ring_metrics(self) -> Dict[str, Any]:
        """Per-ring registry snapshots keyed by ring id (only for runs
        with ``observe=True``)."""
        return {str(r["ring"]): r["metrics"]
                for r in self.reports if "metrics" in r}

    def merged_metrics(self) -> Dict[str, Any]:
        """One fabric-wide registry snapshot: per-ring snapshots rolled up
        by (family, labels).  Counters sum; histogram summaries merge
        count/sum/min/max (quantiles are per-window and do not compose,
        so they are dropped from the merged view)."""
        merged: Dict[str, Dict[str, Any]] = {}
        for snapshot in self.per_ring_metrics().values():
            for family, series in snapshot.items():
                out = merged.setdefault(family, {})
                for labels, value in series.items():
                    if labels not in out:
                        out[labels] = (value if not isinstance(value, dict)
                                       else {k: value[k] for k in
                                             ("count", "sum", "min", "max")})
                        continue
                    if isinstance(value, dict):
                        acc = out[labels]
                        acc["count"] += value["count"]
                        acc["sum"] += value["sum"]
                        for k, pick in (("min", min), ("max", max)):
                            present = [v for v in (acc[k], value[k])
                                       if v is not None]
                            acc[k] = pick(present) if present else None
                    else:
                        out[labels] += value
        for series in merged.values():
            for value in series.values():
                if isinstance(value, dict) and value["count"]:
                    value["mean"] = value["sum"] / value["count"]
        return merged


class FabricRunner:
    """Drive a :class:`Topology` serially or with one process per ring.

    The runner is resumable: :meth:`run` may be called repeatedly with
    growing horizons; barrier placement depends only on the window size,
    so a split run is byte-identical to an uninterrupted one.  Call
    :meth:`close` (or use the runner as a context manager) to tear down
    worker processes in sharded mode.
    """

    def __init__(self, topology: Topology, mode: str = "serial",
                 trace: bool = True, observe: bool = False):
        if mode not in ("serial", "sharded"):
            raise ValueError(f"unknown fabric mode {mode!r}")
        self.topology = topology
        self.mode = mode
        self.trace = trace
        self.observe = observe
        self.clock = 0.0
        #: barriers reached so far; barrier ``k`` sits at ``k * window``
        self.barriers = 0
        self._closed = False
        if mode == "serial":
            from repro.fabric.shard import RingShard
            self._shards = [RingShard(topology, ring, trace=trace,
                                      observe=observe)
                            for ring in range(topology.rings)]
            bounds = [s.sat_bound() for s in self._shards]
        else:
            self._procs: List[multiprocessing.Process] = []
            self._conns: List[Any] = []
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            topo_dict = topology_to_dict(topology)
            for ring in range(topology.rings):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(target=_shard_entry,
                                   args=(child, ring, topo_dict,
                                         trace, observe))
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            bounds = [self._recv(ring)["sat_bound"]
                      for ring in range(topology.rings)]
        if topology.sync_window is not None:
            self.window = float(topology.sync_window)
        else:
            # conservative SAT-keyed lookahead: one worst-case rotation of
            # the tightest ring, floored to the slot grid
            self.window = max(1.0, float(int(min(bounds))))

    # ------------------------------------------------------------------
    # worker plumbing (sharded mode)
    # ------------------------------------------------------------------
    def _send(self, ring: int, *cmd: Any) -> None:
        self._conns[ring].send(cmd)

    def _recv(self, ring: int) -> Any:
        try:
            status, payload = self._conns[ring].recv()
        except EOFError:
            raise RuntimeError(
                f"fabric shard {ring} died without a result "
                f"(exitcode {self._procs[ring].exitcode})") from None
        if status != "ok":
            raise RuntimeError(f"fabric shard {ring} failed:\n{payload}")
        return payload

    # ------------------------------------------------------------------
    def __enter__(self) -> "FabricRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear down worker processes (no-op in serial mode)."""
        if self._closed or self.mode == "serial":
            self._closed = True
            return
        self._closed = True
        for ring, conn in enumerate(self._conns):
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for conn in self._conns:
            conn.close()

    # ------------------------------------------------------------------
    def _advance_all(self, until: float) -> List[List[Dict[str, Any]]]:
        if self.mode == "serial":
            out = []
            for shard in self._shards:
                shard.advance(until)
                out.append(shard.collect_outgoing(until))
            return out
        for ring in range(self.topology.rings):
            self._send(ring, "advance", until, True)
        return [self._recv(ring) for ring in range(self.topology.rings)]

    def _exchange(self, outgoing: List[List[Dict[str, Any]]],
                  t: float) -> None:
        frames = [f for per_ring in outgoing for f in per_ring]
        if not frames:
            return
        # the global canonical order: byte-identical in every mode
        frames.sort(key=lambda f: (f["flow"], f["seq"], f["hop"]))
        by_ring: Dict[int, List[Dict[str, Any]]] = {}
        for frame in frames:
            by_ring.setdefault(frame["route"][frame["hop"]], []).append(frame)
        if self.mode == "serial":
            for ring, batch in sorted(by_ring.items()):
                self._shards[ring].inject(batch, t)
            return
        for ring, batch in sorted(by_ring.items()):
            self._send(ring, "inject", batch, t)
        for ring in sorted(by_ring):
            self._recv(ring)

    def run(self, until: Optional[float] = None) -> "FabricRunner":
        """Advance the whole fabric to ``until`` (default: the horizon)."""
        if until is None:
            until = self.topology.horizon
        if until < self.clock:
            raise ValueError(f"until={until} is in the past "
                             f"(fabric clock {self.clock})")
        W = self.window
        while self.clock < until:
            # barriers sit at absolute multiples of W so interrupted and
            # uninterrupted runs see the same exchange schedule; counting
            # them keeps a fractional W from landing back on the barrier
            # just reached (int(k * W / W) may round down to k - 1)
            barrier = (self.barriers + 1) * W
            if barrier <= until:
                outgoing = self._advance_all(barrier)
                self._exchange(outgoing, barrier)
                self.barriers += 1
                self.clock = barrier
            else:
                # partial tail: advance without an exchange (the next
                # barrier, if the run resumes, drains the buffers)
                if self.mode == "serial":
                    for shard in self._shards:
                        shard.advance(until)
                else:
                    for ring in range(self.topology.rings):
                        self._send(ring, "advance", until, False)
                    for ring in range(self.topology.rings):
                        self._recv(ring)   # tail frames stay buffered
                self.clock = until
                break
        return self

    # ------------------------------------------------------------------
    def result(self, include_trace: bool = False) -> FabricResult:
        """Collect every shard's report into a merged result.  Reports are
        normalized through canonical JSON so serial and sharded runs
        produce identical value types."""
        if self.mode == "serial":
            raw = [s.report(include_trace=include_trace)
                   for s in self._shards]
        else:
            for ring in range(self.topology.rings):
                self._send(ring, "report", include_trace)
            raw = [self._recv(ring) for ring in range(self.topology.rings)]
        reports = [json.loads(canonical_json(r)) for r in raw]
        return FabricResult(topology=self.topology, mode=self.mode,
                            clock=self.clock, reports=reports)


def run_fabric_point(scenario_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Campaign-worker entry: run one fully-resolved fabric dict serially
    (deterministic, single process) and return a campaign-shaped record."""
    import time

    from repro.fabric.topology import topology_from_dict

    start = time.perf_counter()
    topo = topology_from_dict(scenario_dict)
    runner = FabricRunner(topo, mode="serial", trace=False)
    runner.run()
    result = runner.result()
    summary = result.summary()
    return {
        "scenario": scenario_dict,
        "summary": summary,
        "elapsed": round(time.perf_counter() - start, 3),
        "events_executed": summary["events_executed"],
    }
