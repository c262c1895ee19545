"""Perf-trajectory store and regression gating.

``python -m repro perf run`` executes a pinned benchmark suite — kernel
event-stepping rate, saturated-ring tick rate, sweep throughput, fuzz
cases/sec, multi-ring fabric tick rate — and appends a machine-readable
record to a ``BENCH_perf.json``
trajectory file.  ``python -m repro perf check`` compares the latest record
against a baseline (an explicit baseline file, or the median of the earlier
records in the same trajectory) and fails when any benchmark regressed by
more than the threshold (default 15%).

All benchmarks report *rates* (higher is better), each the best of
``repeats`` runs to damp scheduler noise.  The trajectory document::

    {"schema": 1,
     "records": [{"timestamp": ..., "python": ..., "platform": ...,
                  "quick": bool, "note": ..., "results": {bench: rate}},
                 ...]}

is what every future perf PR is measured through: CI appends a record per
push and uploads the file as an artifact, so the bench trajectory is never
empty again.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SCHEMA", "DEFAULT_THRESHOLD", "SUITE", "Regression",
           "run_suite", "load_trajectory", "append_record",
           "baseline_results", "compare_results", "check_trajectory"]

SCHEMA = 1
DEFAULT_THRESHOLD = 0.15


# ----------------------------------------------------------------------
# the pinned suite
# ----------------------------------------------------------------------
def bench_kernel_step_rate(quick: bool = False) -> float:
    """Engine events/sec over a chained-event hot loop (pure kernel)."""
    from repro.sim.engine import Engine

    count = 20_000 if quick else 100_000
    engine = Engine()

    def chain(i: int) -> None:
        if i < count:
            engine.schedule(1.0, chain, i + 1)

    engine.schedule(0.0, chain, 0)
    start = time.perf_counter()
    engine.run()
    return engine.events_executed / (time.perf_counter() - start)


def bench_ring_tick_rate(quick: bool = False) -> float:
    """Slot-ticks/sec of a fully saturated 16-station WRT-Ring."""
    import random

    from repro.core import (Packet, ServiceClass, WRTRingConfig,
                            WRTRingNetwork)
    from repro.sim.engine import Engine

    horizon = 500 if quick else 2000
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(16), l=2, k=2, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(16)), cfg)
    rng = random.Random(1)

    def top(t: float) -> None:
        for sid in net.members:
            st = net.stations[sid]
            while len(st.rt_queue) < 5:
                dst = rng.choice([d for d in net.members if d != sid])
                st.enqueue(Packet(src=sid, dst=dst,
                                  service=ServiceClass.PREMIUM, created=t), t)

    net.add_tick_hook(top)
    net.start()
    start = time.perf_counter()
    engine.run(until=horizon)
    return horizon / (time.perf_counter() - start)


def bench_saturated_slot_rate(quick: bool = False) -> float:
    """Slot-ticks/sec of a fully backlogged 32-station ring under the
    batched kernel's saturated path.

    Every station holds a successor-addressed backlog (the regime the
    paper's Theorems 1-3 bound), trace off, RAP off — so the kernel
    advances whole SAT windows analytically instead of stepping slots.
    The acceptance target is >= 5x ``ring_tick_rate`` (the scalar
    saturated-slot figure).
    """
    from repro.core import (Packet, ServiceClass, WRTRingConfig,
                            WRTRingNetwork)
    from repro.sim.engine import Engine
    from repro.kernel import install_batched_kernel

    n = 32
    horizon = 20_000 if quick else 100_000
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    install_batched_kernel(net)
    net.start()
    # backlog sized to outlast the horizon: <= l+k sends per rotation and
    # a rotation is at least n slots, so this never drains mid-run
    rotations = horizon // n + 2
    for sid in net.members:
        st = net.stations[sid]
        dst = net.successor(sid)
        for _ in range(2 * rotations):
            st.enqueue(Packet(src=sid, dst=dst,
                              service=ServiceClass.PREMIUM, created=0.0), 0.0)
        for _ in range(rotations):
            st.enqueue(Packet(src=sid, dst=dst,
                              service=ServiceClass.BEST_EFFORT, created=0.0),
                       0.0)
    start = time.perf_counter()
    engine.run(until=horizon)
    return horizon / (time.perf_counter() - start)


def bench_sweep_throughput(quick: bool = False) -> float:
    """Campaign points/sec: a small serial sweep, no store, quiet."""
    from repro.campaign import CampaignRunner, Sweep
    from repro.scenarios import Scenario, TrafficMix

    horizon = 300.0 if quick else 1000.0
    base = Scenario(n=6, horizon=horizon, seed=0,
                    traffic=TrafficMix(kind="poisson", rate=0.05))
    sweep = Sweep(base=base, axes={"n": [4, 5, 6, 7]}, seed=0)
    runner = CampaignRunner(sweep, store=None, workers=0,
                            progress=lambda *a, **k: None)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    if not result.ok:  # pragma: no cover - the pinned sweep never fails
        raise RuntimeError(f"perf sweep failed: {result.failures[0].error}")
    return len(result.records) / elapsed


def bench_fuzz_case_rate(quick: bool = False) -> float:
    """Fuzz cases/sec: generate+run pinned cases, no shrinking, no store."""
    from repro.fuzz.generate import generate_case
    from repro.fuzz.runner import run_case

    cases = 3 if quick else 8
    max_slots = 400 if quick else 800
    start = time.perf_counter()
    for index in range(cases):
        run_case(generate_case(7, index, max_slots=max_slots))
    return cases / (time.perf_counter() - start)


def bench_qoe_score_rate(quick: bool = False) -> float:
    """Perceptual scoring throughput: packet outcomes/sec through the full
    loss-run -> burst-ratio -> E-model -> MOS pipeline."""
    import random

    from repro.qoe.score import score_outcomes

    flows = 40 if quick else 200
    per_flow = 500
    rng = random.Random(5)
    streams = [[rng.random() > 0.03 for _ in range(per_flow)]
               for _ in range(flows)]
    start = time.perf_counter()
    for outcomes in streams:
        score_outcomes(outcomes, delay_ms=rng.uniform(5.0, 250.0))
    return flows * per_flow / (time.perf_counter() - start)


def bench_fabric_tick_rate(quick: bool = False) -> float:
    """Fabric slot-ticks/sec: a 4-ring chain co-simulated serially with
    cross-ring CBR flows (trace off — measures the sync+exchange path)."""
    from repro.fabric import FabricRunner, Topology

    horizon = 300.0 if quick else 1200.0
    topo = Topology(rings=4, ring_size=8, layout="chain", cross_flows=6,
                    flow_period=40.0, horizon=horizon, seed=1)
    start = time.perf_counter()
    with FabricRunner(topo, mode="serial", trace=False) as runner:
        runner.run()
    return horizon / (time.perf_counter() - start)


def bench_adaptive_recovery_rate(quick: bool = False) -> float:
    """Slots/sec with adaptive timers active on a lossy channel: the
    recovery hot path (per-rotation estimator updates, adaptive re-arms,
    expiry-driven SAT_REC walks) that the fixed-timer benches never touch."""
    from repro.phy.impairments import ImpairmentSpec
    from repro.scenarios import Scenario, TrafficMix, build_scenario

    horizon = 1500.0 if quick else 6000.0
    scenario = Scenario(n=8, adaptive_timers=True, horizon=horizon, seed=2,
                        traffic=TrafficMix(kind="poisson", rate=0.05),
                        impairments=ImpairmentSpec(loss_prob=0.01))
    built = build_scenario(scenario)
    engine = built.engine
    start = time.perf_counter()
    engine.run(until=horizon)
    return horizon / (time.perf_counter() - start)


SUITE: Dict[str, Callable[[bool], float]] = {
    "kernel_step_rate": bench_kernel_step_rate,
    "ring_tick_rate": bench_ring_tick_rate,
    "saturated_slot_rate": bench_saturated_slot_rate,
    "sweep_throughput": bench_sweep_throughput,
    "fuzz_case_rate": bench_fuzz_case_rate,
    "fabric_tick_rate": bench_fabric_tick_rate,
    "qoe_score_rate": bench_qoe_score_rate,
    "adaptive_recovery_rate": bench_adaptive_recovery_rate,
}


def run_suite(quick: bool = False, repeats: int = 2,
              progress: Optional[Callable[[str], None]] = None,
              profiler=None) -> Dict[str, float]:
    """Run every pinned benchmark; rate = best of ``repeats`` runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    emit = progress if progress is not None else (lambda line: None)
    results: Dict[str, float] = {}
    for name, bench in SUITE.items():
        best = 0.0
        for attempt in range(repeats):
            if profiler is not None:
                with profiler.span(f"perf.{name}", attempt=attempt):
                    rate = bench(quick)
            else:
                rate = bench(quick)
            best = max(best, rate)
        results[name] = best
        emit(f"  {name:24s} {best:12,.1f} /s")
    return results


# ----------------------------------------------------------------------
# trajectory store
# ----------------------------------------------------------------------
def load_trajectory(path) -> Dict[str, Any]:
    """Load a trajectory document; a missing file is an empty trajectory."""
    path = Path(path)
    if not path.exists():
        return {"schema": SCHEMA, "records": []}
    document = json.loads(path.read_text())
    if isinstance(document, list):   # tolerate a bare record list
        document = {"schema": SCHEMA, "records": document}
    if document.get("schema") != SCHEMA:
        raise ValueError(f"unsupported perf trajectory schema "
                         f"{document.get('schema')!r} in {path}")
    document.setdefault("records", [])
    return document


def append_record(path, results: Dict[str, float], quick: bool = False,
                  note: Optional[str] = None) -> Dict[str, Any]:
    """Append one record to the trajectory at ``path`` (created if absent)."""
    path = Path(path)
    document = load_trajectory(path)
    record: Dict[str, Any] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "argv": " ".join(sys.argv[:1]),
        "quick": quick,
        "results": {k: round(v, 3) for k, v in sorted(results.items())},
    }
    if note:
        record["note"] = note
    document["records"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return record


# ----------------------------------------------------------------------
# regression gating
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One benchmark that fell below the gate."""

    bench: str
    baseline: float
    current: float
    threshold: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else 0.0

    def describe(self) -> str:
        return (f"{self.bench}: {self.current:,.1f}/s vs baseline "
                f"{self.baseline:,.1f}/s ({self.ratio:.2%}, gate "
                f"{1.0 - self.threshold:.0%})")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def baseline_results(document: Dict[str, Any],
                     exclude_latest: bool = False) -> Dict[str, float]:
    """Per-bench medians over a trajectory's records.

    With ``exclude_latest`` the newest record is left out — the shape used
    when gating that record against its own trajectory's history.
    """
    records = document.get("records", [])
    if exclude_latest:
        records = records[:-1]
    series: Dict[str, List[float]] = {}
    for record in records:
        for bench, rate in record.get("results", {}).items():
            series.setdefault(bench, []).append(float(rate))
    return {bench: _median(rates) for bench, rates in sorted(series.items())}


def compare_results(baseline: Dict[str, float], current: Dict[str, float],
                    threshold: float = DEFAULT_THRESHOLD) -> List[Regression]:
    """Regressions: benches whose rate fell below baseline*(1-threshold).

    Benches present on only one side are skipped (new or retired
    benchmarks must not wedge the gate).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    out: List[Regression] = []
    for bench, base_rate in sorted(baseline.items()):
        rate = current.get(bench)
        if rate is None or base_rate <= 0:
            continue
        if rate < base_rate * (1.0 - threshold):
            out.append(Regression(bench, base_rate, rate, threshold))
    return out


def check_trajectory(path, baseline_path=None,
                     threshold: float = DEFAULT_THRESHOLD
                     ) -> Tuple[bool, List[Regression], Dict[str, Any]]:
    """Gate the latest record at ``path``.

    Baseline: the (median of the) records in ``baseline_path`` when given,
    else the median of the *earlier* records in the same trajectory.  A
    trajectory whose history is empty passes trivially (there is nothing to
    regress against yet).

    Returns ``(ok, regressions, info)`` where ``info`` carries the resolved
    baseline/current results for reporting.
    """
    document = load_trajectory(path)
    records = document["records"]
    if not records:
        raise ValueError(f"no perf records in {path}; run `perf run` first")
    current = {k: float(v) for k, v in records[-1]["results"].items()}

    if baseline_path is not None:
        baseline = baseline_results(load_trajectory(baseline_path))
    else:
        baseline = baseline_results(document, exclude_latest=True)

    regressions = compare_results(baseline, current, threshold)
    info = {
        "baseline": baseline,
        "current": current,
        "threshold": threshold,
        "records": len(records),
        "baseline_source": (str(baseline_path) if baseline_path is not None
                            else "trajectory history"),
    }
    return (not regressions, regressions, info)
