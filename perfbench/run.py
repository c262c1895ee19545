#!/usr/bin/env python3
"""End-to-end benchmark of the WRT-Ring stack, with a per-layer traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # every workload, a table
    python3 perfbench/run.py --workload conference_call --seed 3 \\
        --seconds 30 --trace 0

A plain run (``--trace 0``) repeats the workload for ``--seconds`` and
reports the end-to-end metrics: throughput from each lap's fastest host
time over the repetitions (see ``fastest_laps``), the median set-up time,
and the process's peak resident memory.  A traced run (``--trace 1``)
alternates plain and traced repetitions and reports the per-layer metrics
(see ``layers.py``).  Every repetition is checked by the workload's oracle
and digest; any failure makes the command exit 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A summary of each run is also written under
``.perfbench/`` in the checkout (spans too, for traced runs).

The program is imported from ``src/`` of the checkout this file sits in;
without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low, quantiles
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: (name, unit) of the end-to-end metrics a plain run reports
END_TO_END = (
    ("slots_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics a traced run reports; ``*_s``
#: metrics are self time per repetition, counts are exact
PER_LAYER = (
    ("engine.events", "count"),
    ("engine.schedules", "count"),
    ("engine.self_s", "s"),
    ("kernel.inline_slots", "count"),
    ("kernel.ff_slots", "count"),
    ("kernel.ff_jumps", "count"),
    ("kernel.sat_slots", "count"),
    ("kernel.sat_windows", "count"),
    ("kernel.analytic_share", "ratio"),
    ("kernel.self_s", "s"),
    ("ring.tick_bodies", "count"),
    ("ring.tick_self_s", "s"),
    ("ring.decide_s", "s"),
    ("ring.apply_s", "s"),
    ("ring.sat_steps", "count"),
    ("ring.sat_step_s", "s"),
    ("recovery.timer_arms", "count"),
    ("recovery.self_s", "s"),
    ("join.requester_ticks", "count"),
    ("join.self_s", "s"),
    ("channel.resolve_s", "s"),
    ("bus.self_s", "s"),
    ("trace.records", "count"),
    ("trace.self_s", "s"),
    ("metrics.self_s", "s"),
    ("traffic.packets", "count"),
    ("traffic.self_s", "s"),
    ("qoe.self_s", "s"),
    ("fabric.windows", "count"),
    ("fabric.frames_crossed", "count"),
    ("fabric.advance_s", "s"),
    ("fabric.exchange_s", "s"),
    ("fabric.shard_s", "s"),
    ("fabric.setup_s", "s"),
    ("invariants.self_s", "s"),
    ("oracles.self_s", "s"),
    ("fuzz.hash_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

#: self-time metrics: metric name -> (layer category, phase)
SELF_TIME = {
    "engine.self_s": ("engine", "run"),
    "kernel.self_s": ("kernel", "run"),
    "ring.tick_self_s": ("ring.tick", "run"),
    "ring.decide_s": ("ring.decide", "run"),
    "ring.apply_s": ("ring.apply", "run"),
    "ring.sat_step_s": ("ring.sat", "run"),
    "recovery.self_s": ("recovery", "run"),
    "join.self_s": ("join", "run"),
    "channel.resolve_s": ("channel", "run"),
    "bus.self_s": ("bus", "run"),
    "trace.self_s": ("trace", "run"),
    "metrics.self_s": ("metrics", "run"),
    "traffic.self_s": ("traffic", "run"),
    "qoe.self_s": ("qoe", "run"),
    "fabric.advance_s": ("fabric.advance", "run"),
    "fabric.exchange_s": ("fabric.exchange", "run"),
    "fabric.shard_s": ("fabric.shard", "run"),
    "fabric.setup_s": ("fabric.setup", "setup"),
    "invariants.self_s": ("invariants", "run"),
    "oracles.self_s": ("oracles", "run"),
    "fuzz.hash_s": ("fuzz.hash", "run"),
}

#: seam call counts: metric name -> seam labels summed
SEAM_COUNTS = {
    "engine.schedules": ("Engine.schedule_at",),
    "ring.tick_bodies": ("WRTRingNetwork._tick_body",),
    "ring.sat_steps": ("WRTRingNetwork._sat_step",),
    "recovery.timer_arms": ("RecoveryManager._arm",),
    "join.requester_ticks": ("JoinRequester._on_tick",),
    "trace.records": ("TraceRecorder.record_fields",),
    "traffic.packets": ("Packet.__init__",),
    "fabric.windows": ("FabricRunner._advance_all",),
}

MIN_PLAIN_REPS = 2   # digests are compared across repetitions

#: 10th percentile of ``workloads.probe`` on an uncontended host (2 vCPU
#: Intel Xeon, Python 3.11.7); time metrics are reported at that speed
PROBE_REFERENCE_S = 1.25e-3


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def import_program():
    """Import ``repro`` from this checkout's ``src/``; raise if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source at {src}/repro")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    return repro


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> Dict[str, object]:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "load1_start": os.getloadavg()[0]}


def finish_stamp(stamp: Dict[str, object]) -> None:
    stamp["load1_end"] = os.getloadavg()[0]
    busiest = max(stamp["load1_start"], stamp["load1_end"])
    if busiest > (stamp["nproc"] or 1):
        print(f"warning: 1-minute load {busiest:.2f} exceeds nproc "
              f"{stamp['nproc']}; timings are contended", file=sys.stderr)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
class Phases:
    """Accumulates a span recorder's totals per workload phase."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.current: Optional[str] = None
        self.last = recorder.snapshot()
        self.totals: Dict[str, Tuple[Dict[str, float], Dict[str, int]]] = {}

    def mark(self, name: Optional[str]) -> None:
        snap = self.recorder.snapshot()
        if self.current is not None:
            self_s, counts = self.totals.setdefault(self.current, ({}, {}))
            for key, value in snap[0].items():
                self_s[key] = self_s.get(key, 0.0) + value - self.last[0].get(key, 0.0)
            for key, value in snap[1].items():
                counts[key] = counts.get(key, 0) + value - self.last[1].get(key, 0)
        self.current, self.last = name, snap

    def self_s(self, phase: str, category: str) -> float:
        return self.totals.get(phase, ({}, {}))[0].get(category, 0.0)

    def count(self, phase: str, label: str) -> int:
        return self.totals.get(phase, ({}, {}))[1].get(label, 0)


def plain_repetition(workload, seed: int):
    gc.collect()
    return workload.repetition(seed)


def traced_repetition(workload, seed: int):
    from layers import SpanRecorder, Tracer

    gc.collect()
    recorder = SpanRecorder()
    phases = Phases(recorder)
    with Tracer(recorder):
        outcome = workload.repetition(seed, phases.mark)
        phases.mark(None)
    return outcome, phases, recorder


def layer_metrics(outcome, phases: Phases, overhead: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    kern = outcome.counters
    out: Dict[str, float] = {
        "engine.events": kern["events_executed"],
        "kernel.ff_slots": kern["ff_slots_skipped"],
        "kernel.ff_jumps": kern["ff_jumps"],
        "kernel.sat_slots": kern["sat_slots"],
        "kernel.sat_windows": kern["sat_windows"],
        "kernel.analytic_share": ((kern["ff_slots_skipped"] + kern["sat_slots"])
                                  / outcome.ring_slots),
        "fabric.frames_crossed": outcome.frames_crossed,
        "bench.trace_overhead": overhead,
    }
    for name, (category, phase) in SELF_TIME.items():
        out[name] = phases.self_s(phase, category)
    for name, labels in SEAM_COUNTS.items():
        out[name] = sum(phases.count("run", label) for label in labels)
    drives = phases.count("run", "BatchedKernel._drive")
    # slot bodies the batched driver ran without an agenda dispatch
    out["kernel.inline_slots"] = (out["ring.tick_bodies"] - drives
                                  if drives else 0)
    return out


def regime_coverage(outcome, tick_bodies: Optional[int] = None) -> Dict[str, float]:
    """Share of simulated ring-slots per kernel regime (public telemetry)."""
    kern = outcome.counters
    total = outcome.ring_slots
    ff = kern["ff_slots_skipped"] / total
    sat = kern["sat_slots"] / total
    cover = {"analytic_ff": ff, "analytic_saturated": sat,
             "slot_by_slot": 1.0 - ff - sat,
             "events_executed": kern["events_executed"]}
    if tick_bodies is not None:
        cover["tick_bodies"] = tick_bodies
    return cover


def check_digests(outcomes: List, pinned: Optional[str]) -> None:
    """Digest checks across repetitions; appends to each outcome's failures."""
    first = outcomes[0].digest
    for o in outcomes:
        if o.digest != first:
            o.failures.append(f"digest {o.digest[:16]} differs from the "
                              f"first repetition's {first[:16]}")
        elif pinned is not None and o.digest != pinned:
            o.failures.append(f"digest {o.digest[:16]} differs from the "
                              f"pinned {pinned[:16]}")


def fastest_laps(outcomes: List) -> List[Tuple[str, float]]:
    """Each lap's fastest time over the repetitions.

    The host shares its cores, so code runs slower for stretches of
    seconds to minutes.  Contention only ever slows a lap, so the fastest
    of a lap's repetitions is the steadiest estimate of its cost; laps are
    short, so each gets many chances to land in an uncontended moment.
    (Repetitions whose laps differ are failures, see :func:`check_laps`.)"""
    return [(kind, min(o.laps[i][1] for o in outcomes if i < len(o.laps)))
            for i, (kind, _) in enumerate(outcomes[0].laps)]


def host_slowdown(outcomes: List) -> float:
    """How much slower than :data:`PROBE_REFERENCE_S` the host ran the
    probe loop during these repetitions (10th percentile of the probes).

    A run's fastest laps still slow down by up to a third when the host is
    busy for minutes at a time, and the probe's low percentile moves with
    them; dividing host times by this factor keeps that drift out of the
    time metrics while any change to the program still shows in full."""
    probes = [p for o in outcomes for p in o.probes]
    return quantiles(probes, n=10)[0] / PROBE_REFERENCE_S


def check_laps(outcomes: List) -> None:
    """Laps are compared one by one, so every repetition must take the
    same laps; appends to each outcome's failures."""
    shape = [kind for kind, _ in outcomes[0].laps]
    for o in outcomes:
        if [kind for kind, _ in o.laps] != shape:
            o.failures.append("laps differ from the first repetition's")


def failed_cases(outcome) -> int:
    return min(len(outcome.failures), outcome.cases)


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run one workload; return (result line, report)."""
    import workloads as wl

    workload = wl.WORKLOADS[name]
    pinned = wl.PINNED_DIGESTS.get(name) if seed == wl.DEFAULT_SEED else None
    stamp = env_stamp()
    plain: List = []
    traced: List = []
    errors: List[str] = []
    start = time.perf_counter()
    step_s: List[float] = []
    while True:
        t0 = time.perf_counter()
        try:
            plain.append(plain_repetition(workload, seed))
            if trace:
                traced.append(traced_repetition(workload, seed))
        except Exception:  # noqa: BLE001 - a crash is a failed repetition
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            break
        step_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= (1 if trace else MIN_PLAIN_REPS)
        if enough and elapsed + median(step_s) > seconds:
            break
    finish_stamp(stamp)

    outcomes = plain + [t[0] for t in traced]
    if outcomes:
        check_digests(outcomes, pinned)
        check_laps(outcomes)
    for outcome, _, _ in traced:
        ref = plain[0]
        if outcome.counters != ref.counters:
            outcome.failures.append(
                f"traced counters {outcome.counters} differ from plain "
                f"{ref.counters}: tracing changed the program")
    attempted = sum(o.cases for o in outcomes) + len(errors)
    failed = sum(failed_cases(o) for o in outcomes) + len(errors)
    report: Dict[str, object] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": stamp, "repetitions": len(plain), "traced": len(traced),
        "failures": [f for o in outcomes for f in o.failures] + errors,
        "digest": plain[0].digest if plain else None,
        "plain": [{"setup_s": o.setup_s, "run_s": o.run_s,
                   "wall_s": o.wall_s, "laps": len(o.laps)} for o in plain],
    }
    metrics: Dict[str, Dict[str, object]] = {}
    if plain:
        report["regime_coverage"] = regime_coverage(plain[0])
    if plain and not trace:
        fastest = fastest_laps(plain)
        slowdown = host_slowdown(plain)
        report["host_slowdown"] = slowdown
        values = {
            "slots_per_s": plain[0].slots * slowdown / sum(
                s for kind, s in fastest if kind == "run"),
            "cases_per_s": plain[0].cases * slowdown
                           / sum(s for _, s in fastest),
            "setup_s": median(o.setup_s for o in plain) / slowdown,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    elif traced:
        pairs = list(zip(plain, traced))
        per_rep = [layer_metrics(t[0], t[1], t[0].wall_s / p.wall_s)
                   for p, t in pairs]
        # counts repeat exactly; median_low keeps them whole numbers
        values = {n: (median_low if u == "count" else median)(
                      [r[n] for r in per_rep]) for n, u in PER_LAYER}
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        last_outcome, last_phases, recorder = traced[-1]
        report["regime_coverage"] = regime_coverage(
            last_outcome, per_rep[-1]["ring.tick_bodies"])
        report["layers"] = layer_report(last_phases, last_outcome)
        OUT_DIR.mkdir(exist_ok=True)
        report["spans"] = recorder.write(OUT_DIR / f"{name}.spans")
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    report["result"] = result
    return result, report


def layer_report(phases: Phases, outcome) -> Dict[str, object]:
    """Self time per layer and phase of one traced repetition, with each
    layer's share of that phase's self time, plus every seam count."""
    out: Dict[str, object] = {"wall_s": outcome.wall_s}
    for phase, (self_s, counts) in sorted(phases.totals.items()):
        total = sum(self_s.values()) or 1.0
        out[phase] = {
            "self_s": self_s,
            "share": {k: v / total for k, v in self_s.items()},
            "counts": {k: v for k, v in counts.items() if v},
        }
    return out


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def print_result(name: str, result: Dict[str, object]) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:16s} {metric:24s} {entry['value']:>16.6g} "
              f"{entry['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{name:16s} {'error_rate':24s} {rate:>16.6g} "
          f"({result['failed']}/{result['attempted']})")


def run_all(args) -> int:
    """Every workload, each in a process of its own (so each gets its own
    peak resident memory), one after the other."""
    import workloads as wl

    results = {}
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
        print_result(name, results[name])
        status = max(status, proc.returncode)
    print(json.dumps(results, sort_keys=True))
    return status


def parse_args(argv):
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *wl.WORKLOADS])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run with per-layer metrics")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))
    env = report["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} "
          f"load1={env['load1_start']:.2f}->{env['load1_end']:.2f}")
    print(f"regimes: {json.dumps(report.get('regime_coverage'))}")
    if "host_slowdown" in report:
        print(f"host slowdown: {report['host_slowdown']:.3f} "
              f"(probe p10 / {PROBE_REFERENCE_S * 1e3:.2f} ms)")
    for failure in report["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print_result(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
