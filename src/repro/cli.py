"""Command-line interface.

Eight subcommands, mirroring the library's main entry points::

    python -m repro simulate  --n 8 --l 2 --k 1 --horizon 20000 [--timeline f]
    python -m repro fabric    --rings 8 --ring-size 16 [--mode sharded]
    python -m repro sweep     --axis n=4,8,12 --axis l=1,2 [--workers 4]
    python -m repro fuzz      --runs 200 --seed 1 [--max-slots 1200] [--shrink]
    python -m repro perf      run [--quick] | check [--baseline f]
    python -m repro bounds    --n 8 --l 2 --k 1 [--t-rap 9] [--backlog 4]
    python -m repro compare   --n 8 --quota 3 --horizon 10000
    python -m repro allocate  --demands rate:deadline:backlog,... [--scheme local]

``simulate`` runs a full scenario (optionally with mobility and scripted
faults) and prints the summary — ``--timeline out.json`` additionally
exports a Chrome-trace/Perfetto timeline and ``--metrics`` a metrics-registry
snapshot (see docs/OBSERVABILITY.md); ``sweep`` runs a whole campaign of
scenarios in parallel with cached, resumable results (see
docs/CAMPAIGNS.md); ``fuzz`` hammers randomized scenarios with strict
invariants and end-of-run oracles, shrinking every failure to a replayable
repro bundle (see docs/FUZZING.md); ``perf`` runs the pinned performance
suite and gates regressions against the ``BENCH_perf.json`` trajectory;
``bounds`` evaluates the paper's closed forms; ``compare`` runs the
WRT-Ring-vs-TPT trio (round trip, capacity, failure reaction); ``allocate``
sizes the guaranteed quotas for a demand set; ``fabric`` co-simulates a
multi-ring topology bridged by gateways, serially or one process per ring
(see docs/FABRIC.md).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]


#: CLI spelling of a service class -> its config name
_SERVICES = {"premium": "premium", "assured": "assured", "be": "best_effort"}

#: ``simulate`` without ``--config``: Premium traffic, unlike the default
_SIMULATE_BASE = {"traffic": {"service": "premium"}}


class _Override(argparse.Action):
    """A flag that sets the dotted config ``key``.  Its value lands in
    ``args.overrides`` only when the flag is given, so it never masks a
    ``--config`` value; its ``args`` default is ``key``'s value in
    ``declared``, the config dict of the declared defaults."""

    def __init__(self, option_strings, dest, key, declared, **kwargs):
        for part in key.split("."):
            declared = (declared.get(part) if isinstance(declared, dict)
                        else None)
        super().__init__(option_strings, dest, default=declared, **kwargs)
        self.key = key

    def __call__(self, parser, namespace, values, option_string=None):
        if self.nargs == 0:                     # a switch
            values = self.const
        elif isinstance(self.choices, dict):    # CLI spelling -> config value
            values = self.choices[values]
        setattr(namespace, self.dest, values)
        namespace.overrides = {**namespace.overrides, self.key: values}


def _overrides(parser: argparse.ArgumentParser, declared: dict):
    """``parser.add_argument`` for :class:`_Override` flags."""
    parser.set_defaults(overrides={})
    return functools.partial(parser.add_argument, action=_Override,
                             declared=declared)


def build_parser() -> argparse.ArgumentParser:
    from repro.campaign.sweep import sweep_from_dict, sweep_to_dict
    from repro.config_io import scenario_from_dict, scenario_to_dict
    from repro.fabric.topology import topology_from_dict, topology_to_dict

    parser = argparse.ArgumentParser(
        prog="repro",
        description="WRT-Ring (Donatiello & Furini 2003) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a WRT-Ring scenario")
    sim.add_argument("--config", type=str, default=None,
                     help="JSON scenario file (flags given override its keys)")
    add = _overrides(sim,
                     scenario_to_dict(scenario_from_dict(_SIMULATE_BASE)))
    add("--n", key="n", type=int)
    add("--l", key="l", type=int)
    add("--k", key="k", type=int)
    add("--horizon", key="horizon", type=float)
    add("--seed", key="seed", type=int)
    add("--traffic", key="traffic.kind",
        choices=["none", "poisson", "cbr", "video", "backlog", "onoff",
                 "voice"])
    add("--rate", key="traffic.rate", type=float,
        help="per-station rate for poisson traffic")
    add("--period", key="traffic.period", type=float,
        help="period / frame interval for cbr/video")
    add("--peak-rate", key="traffic.peak_rate", type=float,
        help="on-phase rate for onoff/voice traffic")
    add("--mean-on", key="traffic.mean_on", type=float,
        help="mean talkspurt length (slots) for onoff/voice")
    add("--mean-off", key="traffic.mean_off", type=float,
        help="mean silence length (slots) for onoff/voice")
    add("--service", key="traffic.service", choices=_SERVICES)
    add("--deadline", key="traffic.deadline", type=float)
    sim.add_argument("--calls", type=int, default=0, metavar="N",
                     help="offer N voice calls over the run (QoE session "
                          "layer: admission, per-call MOS; see docs/QOE.md)")
    add("--call-rate", key="calls.arrival_rate", type=float,
        help="call arrival rate (calls/slot)")
    add("--call-holding", key="calls.mean_holding", type=float,
        help="mean call holding time (slots)")
    add("--call-deadline", key="calls.deadline", type=float,
        help="per-packet delivery deadline for calls (slots)")
    add("--call-mos-floor", key="calls.mos_floor", type=float,
        help="MOS threshold a call must reach to count as good")
    add("--call-video-fraction", key="calls.video_fraction", type=float,
        help="fraction of sessions that are video streams")
    sim.add_argument("--calls-via-rap", action="store_true",
                     help="callers join the ring through RAP before talking "
                          "(implies --rap and the broadcast channel)")
    add("--no-call-admission", key="calls.admission", nargs=0, const=False,
        help="disable call-level CAC (measurement mode)")
    add("--rap", key="rap_enabled", nargs=0, const=True,
        help="enable the Random Access Period")
    sim.add_argument("--wander", type=float, default=None,
                     help="mobility wander radius (0 = static)")
    sim.add_argument("--kill", type=str, default="",
                     help="comma list of station:time silent deaths")
    sim.add_argument("--leave", type=str, default="",
                     help="comma list of station:time announced departures")
    add("--loss-prob", key="impairments.loss_prob", type=float,
        help="independent per-hop frame-loss probability "
             "(stochastic channel impairments; seeded)")
    sim.add_argument("--ge", type=str, default=None, metavar="P_GB:P_BG[:LOSS_BAD]",
                     help="Gilbert-Elliott bursty-loss process: good->bad "
                          "and bad->good transition probabilities, optional "
                          "loss probability in the bad state (default 1.0)")
    sim.add_argument("--noise-burst", action="append", default=[],
                     metavar="START:END[:CODE]",
                     help="deterministic noise window killing every frame "
                          "in [START, END) (optionally only on CODE); "
                          "repeatable")
    add("--check-invariants", key="check_invariants", nargs=0, const=True)
    add("--kernel", key="kernel", choices=["scalar", "batched"],
        help="tick driver: 'scalar' (reference, one event per slot) or "
             "'batched' (the same ticks plus closed-form saturated SAT "
             "windows; byte-identical output, see docs/KERNEL.md)")
    add("--adaptive-timers", key="adaptive_timers", nargs=0, const=True,
        help="arm SAT_TIMERs from an RFC 6298 SRTT/RTTVAR estimator over "
             "observed rotations (ceilinged at the Theorem-1 bound) instead "
             "of the fixed worst case; see docs/RESILIENCE.md")
    sim.add_argument("--timeline", type=str, default=None, metavar="OUT.json",
                     help="export a Chrome-trace/Perfetto timeline of the "
                          "run (SAT holds, RAP windows, slot occupancy, "
                          "membership events, engine wall-clock spans)")
    sim.add_argument("--metrics", action="store_true",
                     help="attach a metrics registry and include its "
                          "snapshot in the summary")
    sim.add_argument("--json", action="store_true", help="JSON summary")

    fab = sub.add_parser("fabric", help="co-simulate a multi-ring fabric "
                                        "bridged by gateways (serial or "
                                        "one process per ring)")
    fab.add_argument("--config", type=str, default=None,
                     help="JSON topology file (flags given override its keys; "
                          "see examples/conference_building.json)")
    add = _overrides(fab, topology_to_dict(topology_from_dict({})))
    add("--rings", key="topology.rings", type=int)
    add("--ring-size", key="topology.ring_size", type=int,
        help="stations per ring (gateways included)")
    add("--layout", key="topology.layout", choices=["chain", "cycle", "star"])
    add("--placement", key="topology.gateway_placement",
        choices=["spread", "first"],
        help="where gateway stations sit on each ring")
    add("--flows", key="topology.cross_flows", type=int,
        help="number of generated cross-ring flows")
    add("--flow-kind", key="topology.flow_kind", choices=["cbr", "poisson"])
    add("--flow-rate", key="topology.flow_rate", type=float,
        help="per-flow rate for poisson cross traffic")
    add("--flow-period", key="topology.flow_period", type=float,
        help="inter-frame period for cbr cross traffic")
    add("--flow-service", key="topology.flow_service", choices=_SERVICES)
    add("--deadline", key="topology.flow_deadline", type=float,
        help="relative end-to-end deadline per cross-ring frame")
    add("--min-hops", key="topology.min_ring_hops", type=int,
        help="minimum gateway hops per generated flow")
    add("--gateway-buffer", key="topology.gateway_buffer", type=int,
        help="per-direction gateway buffer (frames)")
    add("--ttl", key="topology.frame_ttl", type=float,
        help="max slots a frame may wait in a gateway buffer")
    add("--sync-window", key="topology.sync_window", type=float,
        help="override the conservative sync window "
             "(default: min SAT rotation bound across rings)")
    add("--horizon", key="horizon", type=float)
    add("--seed", key="seed", type=int)
    fab.add_argument("--mode", choices=["serial", "sharded"],
                     default="serial")
    add("--kernel", key="kernel", choices=["scalar", "batched"],
        help="per-ring tick driver for every shard, in place of the "
             "topology's kernel key (a fabric ring never opens a saturated "
             "window, so both give the same run; see docs/KERNEL.md)")
    fab.add_argument("--parity", action="store_true",
                     help="run BOTH modes and verify byte-identical merged "
                          "traces and tables")
    fab.add_argument("--timeline", type=str, default=None, metavar="OUT.json",
                     help="export one merged Chrome-trace/Perfetto timeline "
                          "(all rings, one process lane each)")
    fab.add_argument("--metrics", action="store_true",
                     help="attach per-ring metric registries and include "
                          "the rolled-up snapshot in the summary")
    fab.add_argument("--no-trace", action="store_true",
                     help="disable trace recording (large runs; trace hash "
                          "degenerates to the empty hash)")
    fab.add_argument("--save", type=str, default=None, metavar="OUT.json",
                     help="write the resolved topology config and exit")
    fab.add_argument("--json", action="store_true", help="JSON summary")

    sw = sub.add_parser("sweep", help="run a scenario-sweep campaign "
                                      "(parallel, cached, resumable)")
    sw.add_argument("--config", type=str, default=None,
                    help="JSON sweep file: {base, mode, axes|points, seed,"
                         " name}; flags given with it override its keys")
    sw.add_argument("--axis", action="append", default=[],
                    metavar="FIELD=V1,V2,...",
                    help="sweep axis over a scenario field (repeatable; "
                         "dotted fields like traffic.rate allowed)")
    add = _overrides(sw, sweep_to_dict(sweep_from_dict({"points": []})))
    add("--mode", key="mode", choices=["grid", "zip"],
        help="combine axes as cartesian product or in lockstep")
    add("--n", key="base.n", type=int)
    add("--l", key="base.l", type=int)
    add("--k", key="base.k", type=int)
    add("--horizon", key="base.horizon", type=float)
    add("--seed", key="seed", type=int,
        help="campaign master seed (per-point seeds derive from it)")
    add("--traffic", key="base.traffic.kind",
        choices=["none", "poisson", "cbr", "video", "backlog", "saturate",
                 "onoff", "voice"])
    add("--rate", key="base.traffic.rate", type=float)
    add("--period", key="base.traffic.period", type=float)
    sw.add_argument("--store", type=str, default=None,
                    help="result-store directory "
                         "(default .campaign/<sweep name>)")
    sw.add_argument("--workers", type=int, default=None,
                    help="worker processes (0 = serial in-process; "
                         "default: CPU count)")
    sw.add_argument("--timeout", type=float, default=None,
                    help="per-point timeout in seconds")
    sw.add_argument("--retries", type=int, default=1,
                    help="retries per point after a worker failure")
    sw.add_argument("--columns", type=str, default=None,
                    help="comma list of table columns (summary/scenario "
                         "fields)")
    sw.add_argument("--json", action="store_true",
                    help="emit the full result records as JSON")
    sw.add_argument("--quiet", action="store_true",
                    help="suppress per-point progress lines")

    fz = sub.add_parser("fuzz", help="randomized scenario fuzzing with "
                                     "invariant checking, oracle validation "
                                     "and failure shrinking")
    fz.add_argument("--runs", type=int, default=100,
                    help="number of fuzz cases to run")
    fz.add_argument("--seed", type=int, default=0,
                    help="campaign master seed (case seeds derive from it)")
    fz.add_argument("--max-slots", type=int, default=1200,
                    help="cap on each case's simulated horizon")
    fz.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="delta-shrink failures to minimal reproducers")
    fz.add_argument("--chaos", action="store_true",
                    help="force channel impairments into every generated "
                         "case (soak mode)")
    fz.add_argument("--adaptive", action="store_true",
                    help="force RFC 6298 adaptive SAT timers into every "
                         "generated case (otherwise drawn on ~20%% of "
                         "cases, ~50%% under --chaos)")
    fz.add_argument("--out", type=str, default=".fuzz",
                    help="directory for repro bundles and the result store")
    fz.add_argument("--store", type=str, default=None,
                    help="result-store directory (default <out>/store)")
    fz.add_argument("--replay", type=str, default=None, metavar="BUNDLE",
                    help="replay a repro bundle and verify its recorded "
                         "failures and trace hash instead of fuzzing")
    fz.add_argument("--json", action="store_true",
                    help="emit the full result records as JSON")
    fz.add_argument("--quiet", action="store_true",
                    help="suppress per-case progress lines")

    pf = sub.add_parser("perf", help="pinned performance suite and "
                                     "BENCH_perf.json regression gating")
    pf_sub = pf.add_subparsers(dest="perf_command", required=True)
    pf_run = pf_sub.add_parser("run", help="run the suite and append a "
                                           "trajectory record")
    pf_run.add_argument("--path", type=str, default="BENCH_perf.json",
                        help="trajectory file to append to")
    pf_run.add_argument("--quick", action="store_true",
                        help="reduced workloads (CI smoke sizing)")
    pf_run.add_argument("--repeats", type=int, default=2,
                        help="runs per benchmark; the best rate is kept")
    pf_run.add_argument("--note", type=str, default=None,
                        help="free-form note stored in the record")
    pf_run.add_argument("--json", action="store_true")
    pf_check = pf_sub.add_parser("check", help="gate the latest record "
                                               "against a baseline")
    pf_check.add_argument("--path", type=str, default="BENCH_perf.json",
                          help="trajectory file to check")
    pf_check.add_argument("--baseline", type=str, default=None,
                          help="baseline trajectory/record file (default: "
                               "the checked trajectory's own history)")
    pf_check.add_argument("--threshold", type=float, default=0.15,
                          help="max tolerated rate regression (0.15 = 15%%)")
    pf_check.add_argument("--json", action="store_true")

    bounds = sub.add_parser("bounds", help="evaluate the Sec. 2.6 closed forms")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--l", type=int, required=True)
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--t-rap", type=float, default=0.0)
    bounds.add_argument("--backlog", type=int, default=0,
                        help="x for the Theorem-3 access bound")
    bounds.add_argument("--rounds", type=int, default=1,
                        help="n for the Theorem-2 window bound")
    bounds.add_argument("--json", action="store_true")

    cmp_ = sub.add_parser("compare", help="WRT-Ring vs TPT trio")
    cmp_.add_argument("--n", type=int, default=8)
    cmp_.add_argument("--quota", type=int, default=3,
                      help="per-station reserved bandwidth (l+k = H)")
    cmp_.add_argument("--horizon", type=float, default=10_000.0)
    cmp_.add_argument("--json", action="store_true")

    alloc = sub.add_parser("allocate", help="size the guaranteed quotas")
    alloc.add_argument("--demands", type=str, required=True,
                       help="comma list of rate:deadline:backlog per station "
                            "(deadline '-' for none)")
    alloc.add_argument("--scheme", choices=["equal", "proportional",
                                            "normalized_proportional",
                                            "local"],
                       default="local")
    alloc.add_argument("--k", type=int, default=1,
                       help="fixed non-RT quota per station")
    alloc.add_argument("--t-rap", type=float, default=0.0)
    alloc.add_argument("--json", action="store_true")

    return parser


# ----------------------------------------------------------------------
def _impairment_overrides(args: argparse.Namespace) -> dict:
    """Dotted impairment overrides from ``--ge`` and ``--noise-burst``."""
    out: dict = {}
    if args.ge is not None:
        parts = args.ge.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(f"bad --ge entry {args.ge!r}; "
                             f"expected P_GB:P_BG[:LOSS_BAD]")
        for name, text in zip(("ge_p_gb", "ge_p_bg", "ge_loss_bad"), parts):
            out[f"impairments.{name}"] = float(text)
    bursts = []
    for entry in args.noise_burst:
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(f"bad --noise-burst entry {entry!r}; "
                             f"expected START:END[:CODE]")
        burst = {"start": float(parts[0]), "end": float(parts[1])}
        if len(parts) == 3:
            burst["code"] = int(parts[2])
        bursts.append(burst)
    if bursts:
        out["impairments.bursts"] = bursts
    return out


def _parse_station_times(text: str) -> List[tuple]:
    out = []
    if not text:
        return out
    for item in text.split(","):
        station, _, when = item.partition(":")
        if not when:
            raise SystemExit(f"bad station:time entry {item!r}")
        out.append((int(station), float(when)))
    return out


def _resolve(decode, args: argparse.Namespace, base: dict, overrides: dict,
             what: str):
    """Decode the ``--config`` file (``base`` without one) with the
    dotted-key ``overrides`` applied; a bad key or value exits."""
    from repro.campaign.sweep import apply_overrides

    if args.config is not None:
        base = json.loads(Path(args.config).read_text())
    try:
        return decode(apply_overrides(base, overrides))
    except ValueError as exc:
        raise SystemExit(f"bad {what}: {exc}")


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
        return
    for key, value in payload.items():
        print(f"{key:28s} {value}")


# ----------------------------------------------------------------------
def _run_observed(scenario, timeline: Optional[str],
                  metrics: bool) -> dict:
    """Build, instrument, run and summarize one scenario.

    Always profiles the engine window (so every summary carries
    ``elapsed_s`` / ``events_per_s``); the timeline trace categories and
    the metrics registry are attached only on request.
    """
    from repro.obs import (MetricsRegistry, Profiler, attach_network_metrics,
                           attach_run_profiling, enable_timeline_categories,
                           export_timeline)
    from repro.scenarios import build_scenario

    built = build_scenario(scenario)
    profiler = Profiler()
    attach_run_profiling(built.engine, profiler)
    registry = subscriber = None
    if metrics:
        registry = MetricsRegistry()
        subscriber = attach_network_metrics(built.network, registry)
    if timeline:
        enable_timeline_categories(built.trace)

    built.engine.run(until=scenario.horizon)

    payload = built.summary()
    run_report = profiler.report().get("engine.run", {})
    payload["elapsed_s"] = round(run_report.get("total_s", 0.0), 6)
    payload["events_per_s"] = round(run_report.get("events_per_s", 0.0), 1)
    if registry is not None:
        subscriber.flush()
        payload["metrics"] = registry.snapshot()
    if timeline:
        count = export_timeline(timeline, built.trace, profiler,
                                extra={"scenario": built.resolved_config()})
        payload["timeline"] = {"path": timeline, "events": count}
    return payload


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.config_io import scenario_from_dict

    over = dict(args.overrides)
    if (over.get("traffic.service") == "best_effort"
            and over.get("traffic.deadline") is not None):
        raise SystemExit("best-effort traffic cannot carry deadlines")
    faults = [{"time": when, "kind": kind, "station": station}
              for kind in ("kill", "leave")
              for station, when in _parse_station_times(getattr(args, kind))]
    if faults:
        over["faults"] = faults
    over.update(_impairment_overrides(args))
    if args.wander:
        over["mobility.wander_radius"] = args.wander
    if args.calls_via_rap:
        over.update({"rap_enabled": True, "use_channel": True,
                     "calls.join_via_rap": True})
    if args.calls:
        over["calls.count"] = args.calls
    elif args.config is None:
        # --calls 0 adds no calls block, so the other call flags drop
        over = {k: v for k, v in over.items() if not k.startswith("calls.")}
    scenario = _resolve(scenario_from_dict, args, _SIMULATE_BASE, over,
                        "scenario")
    payload = _run_observed(scenario, args.timeline, args.metrics)
    _emit(payload, args.json)
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.fabric import (FabricRunner, export_merged_timeline,
                              merged_trace_lines, save_topology,
                              topology_from_dict)

    topo = _resolve(topology_from_dict, args, {}, args.overrides, "topology")
    if args.save is not None:
        save_topology(topo, args.save)
        print(f"wrote {args.save}")
        return 0

    trace = not args.no_trace
    timeline = args.timeline is not None
    if timeline and not trace:
        raise SystemExit("--timeline needs tracing; drop --no-trace")

    def execute(mode):
        with FabricRunner(topo, mode=mode, trace=trace, observe=args.metrics,
                          timeline=timeline) as runner:
            runner.run()
            return runner.result(include_trace=trace)

    result = execute(args.mode)
    if args.parity:
        other = execute("sharded" if args.mode == "serial" else "serial")
        checks = {
            "trace_hash": result.trace_hash() == other.trace_hash(),
            "ring_table": result.ring_table() == other.ring_table(),
            "flow_table": result.flow_table() == other.flow_table(),
            "summary": (dict(result.summary(), mode="") ==
                        dict(other.summary(), mode="")),
        }
        if trace:
            checks["merged_trace"] = (merged_trace_lines(result) ==
                                      merged_trace_lines(other))
        if not all(checks.values()):
            bad = ", ".join(k for k, v in checks.items() if not v)
            print(f"PARITY FAILED: {result.mode} vs {other.mode} "
                  f"differ on {bad}", file=sys.stderr)
            return 1
        print(f"parity OK: serial and sharded byte-identical "
              f"({len(checks)} checks)", file=sys.stderr)

    payload = result.summary()
    if args.metrics:
        payload["metrics"] = result.merged_metrics()
    if timeline:
        count = export_merged_timeline(args.timeline, result)
        payload["timeline"] = {"path": args.timeline, "events": count}
    if args.json:
        _emit(payload, True)
    else:
        _emit({k: v for k, v in payload.items()
               if k not in ("metrics",)}, False)
        print()
        print(result.ring_table())
        if result.topology.resolved_flows():
            print()
            print(result.flow_table())
    return 0


def _parse_axis_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_axes(entries: List[str]) -> dict:
    axes = {}
    for entry in entries:
        name, sep, values = entry.partition("=")
        if not sep or not values:
            raise SystemExit(f"bad --axis entry {entry!r}; "
                             f"expected FIELD=V1,V2,...")
        axes[name] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    import hashlib

    from repro.campaign import (CampaignRunner, ProgressPrinter, ResultStore,
                                campaign_table, default_columns,
                                sweep_from_dict)
    from repro.config_io import UnknownKeyError

    over = dict(args.overrides)
    if args.axis:
        over["axes"] = _parse_axes(args.axis)
    if args.config is None and "axes" not in over:
        raise SystemExit("give at least one --axis (or --config)")
    if "seed" in over:
        over["base.seed"] = over["seed"]    # the master seed seeds the base
    sweep = _resolve(sweep_from_dict, args, {}, over, "sweep")

    name = sweep.name or "sweep-" + hashlib.sha256(
        sweep.spec_hash_material().encode()).hexdigest()[:8]
    store_dir = args.store or f".campaign/{name}"
    store = ResultStore(store_dir)

    progress = ((lambda event, point=None, **info: None) if args.quiet
                else ProgressPrinter())
    if not args.quiet:
        print(f"sweep {name}: store {store_dir} "
              f"({len(store)} results on disk)", file=sys.stderr)
    from repro.obs import Profiler
    runner = CampaignRunner(sweep, store, workers=args.workers,
                            timeout=args.timeout, retries=args.retries,
                            progress=progress, profiler=Profiler())
    try:
        result = runner.run()
    except UnknownKeyError as exc:     # a misspelt axis: nothing has run
        raise SystemExit(f"bad sweep: {exc}")

    if args.json:
        print(json.dumps(result.records, indent=2, default=str))
    else:
        if args.columns:
            columns = [c.strip() for c in args.columns.split(",")]
        else:
            columns = default_columns(sweep, result.records)
        # stdout carries only the deterministic table (identical no matter
        # how the campaign was scheduled or resumed); counts and wall-clock
        # timing go to stderr
        line = (f"{result.cached} cached, {result.ran} ran, "
                f"{len(result.failures)} failed in {result.elapsed_s:.2f}s")
        if result.ran and result.elapsed_s:
            # rate over freshly executed points only — cached points cost
            # no wall-clock, counting their events would inflate the rate
            fresh = sum(r.get("events_executed", 0) for r in result.records
                        if not r.get("cached"))
            line += f" ({fresh / result.elapsed_s:,.0f} events/s)"
        print(line, file=sys.stderr)
        print(campaign_table(result.records, columns,
                             title=f"sweep {name}: "
                                   f"{len(result.records)} points"))
    for failure in result.failures:
        print(f"FAILED {failure.point.label()} "
              f"after {failure.attempts} attempts:\n{failure.error}",
              file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.campaign.store import ResultStore
    from repro.fuzz import run_fuzz_campaign, verify_bundle

    if args.replay is not None:
        ok, result, mismatches = verify_bundle(args.replay)
        payload = {
            "bundle": args.replay,
            "verified": ok,
            "failures": [f.to_dict() for f in result.failures],
            "trace_hash": result.trace_hash,
            "events_executed": result.events_executed,
            "mismatches": mismatches,
        }
        _emit(payload, args.json)
        return 0 if ok else 1

    store_dir = args.store or str(Path(args.out) / "store")
    store = ResultStore(store_dir)
    progress = ((lambda line: None) if args.quiet
                else (lambda line: print(line, file=sys.stderr)))
    if not args.quiet:
        print(f"fuzz: seed={args.seed} runs={args.runs} "
              f"store {store_dir} ({len(store)} results on disk)",
              file=sys.stderr)
    campaign = run_fuzz_campaign(args.seed, args.runs, store, args.out,
                                 max_slots=args.max_slots,
                                 shrink=args.shrink, chaos=args.chaos,
                                 adaptive=args.adaptive,
                                 progress=progress)
    if args.json:
        print(json.dumps(campaign.records, indent=2, default=str))
    else:
        print(f"{campaign.ran} ran, {campaign.cached} cached, "
              f"{len(campaign.failed)} failed")
        if not args.quiet and campaign.ran:
            print(f"fuzz: {campaign.elapsed_s:.2f}s "
                  f"({campaign.cases_per_s:.1f} fresh cases/s)",
                  file=sys.stderr)
    for record in campaign.failed:
        kinds = ",".join(sorted({f['kind'] for f in record['failures']}))
        where = record.get("bundle", "<no bundle>")
        print(f"FAILED {record['label']} [{kinds}] -> {where}",
              file=sys.stderr)
    return 0 if campaign.ok else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    # lazy: obs.perf pulls in the campaign/fuzz stacks, which the other
    # subcommands never need
    from repro.obs import perf

    if args.perf_command == "run":
        progress = (lambda line: print(line, file=sys.stderr))
        results = perf.run_suite(quick=args.quick, repeats=args.repeats,
                                 progress=progress)
        record = perf.append_record(args.path, results, quick=args.quick,
                                    note=args.note)
        payload = dict(record)
        payload["path"] = args.path
        _emit(payload, args.json)
        return 0

    ok, regressions, info = perf.check_trajectory(
        args.path, baseline_path=args.baseline, threshold=args.threshold)
    if args.json:
        info["ok"] = ok
        info["regressions"] = [r.describe() for r in regressions]
        print(json.dumps(info, indent=2, default=str))
    else:
        print(f"perf check: {info['records']} record(s) in {args.path}, "
              f"baseline={info['baseline_source']}, "
              f"threshold={args.threshold:.0%}")
        for name in sorted(info.get("current", {})):
            current = info["current"][name]
            base = info.get("baseline", {}).get(name)
            delta = (f"{current / base - 1.0:+.1%} vs {base:,.0f}"
                     if base else "no baseline")
            print(f"  {name:24s} {current:>12,.0f} /s  ({delta})")
        for regression in regressions:
            print(f"REGRESSION: {regression.describe()}", file=sys.stderr)
        if ok:
            print("OK: no regressions beyond threshold")
    return 0 if ok else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.bounds import (access_delay_bound,
                                       mean_sat_rotation_bound,
                                       sat_multi_round_bound_homogeneous,
                                       sat_rotation_bound_homogeneous)
    quotas = [(args.l, args.k)] * args.n
    payload = {
        "theorem1_sat_time": sat_rotation_bound_homogeneous(
            args.n, args.l, args.k, T_rap=args.t_rap),
        f"theorem2_{args.rounds}_rounds": sat_multi_round_bound_homogeneous(
            args.rounds, args.n, args.l, args.k, T_rap=args.t_rap),
        "proposition3_mean": mean_sat_rotation_bound(
            args.n, args.t_rap, quotas),
        f"theorem3_access_x{args.backlog}": access_delay_bound(
            args.backlog, args.l, args.n, args.t_rap, quotas),
    }
    _emit(payload, args.json)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import random

    from repro.analysis.bounds import sat_walk_time, tpt_token_walk_time
    from repro.baselines import TPTConfig, TPTNetwork, choose_ttrt
    from repro.core.config import WRTRingConfig
    from repro.core.packet import Packet, ServiceClass
    from repro.core.ring import WRTRingNetwork
    from repro.phy.topology import build_bfs_tree
    from repro.sim.engine import Engine

    n, quota = args.n, args.quota
    l = max(quota - 1, 1)
    k = quota - l

    def saturate(net, seed=0):
        rng = random.Random(seed)

        def top(t):
            for sid in list(net.members):
                st = net.stations[sid]
                if not getattr(st, "alive", True):
                    continue
                while len(st.rt_queue) < 10:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)

    def wrt():
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, rap_enabled=False)
        return WRTRingNetwork(engine, list(range(n)), cfg)

    def tpt():
        engine = Engine()
        from repro.phy.geometry import ring_placement
        from repro.phy.topology import ConnectivityGraph
        graph = ConnectivityGraph(ring_placement(n, radius=30.0), 120.0)
        children = build_bfs_tree(graph, root=0)
        ttrt = choose_ttrt([quota] * n, 2 * (n - 1), margin=1.5)
        return TPTNetwork(engine, children, root=0,
                          config=TPTConfig(H={i: quota for i in range(n)},
                                           ttrt=ttrt), graph=graph)

    # capacity
    w_net, t_net = wrt(), tpt()
    saturate(w_net)
    saturate(t_net)
    w_net.start(), t_net.start()
    w_net.engine.run(until=args.horizon)
    t_net.engine.run(until=args.horizon)
    # CSMA comparator: same stations, saturated, single cell
    from repro.baselines import CSMAConfig, CSMANetwork
    c_engine = Engine()
    c_net = CSMANetwork(c_engine, list(range(n)), config=CSMAConfig(),
                        rng=random.Random(0))
    saturate(c_net)
    c_net.start()
    c_engine.run(until=args.horizon)
    # failure reaction
    w2, t2 = wrt(), tpt()
    w2.start(), t2.start()
    w2.engine.run(until=100)
    t2.engine.run(until=100)
    w2.kill_station(n // 2)
    t2.kill_station(n // 2)
    w2.engine.run(until=50_000)
    t2.engine.run(until=50_000)
    payload = {
        "idle_round_trip_wrt": sat_walk_time(n),
        "idle_round_trip_tpt": tpt_token_walk_time(n),
        "capacity_wrt_pkt_per_slot": w_net.metrics.total_delivered / args.horizon,
        "capacity_tpt_pkt_per_slot": t_net.metrics.total_delivered / args.horizon,
        "capacity_csma_pkt_per_slot": c_net.metrics.total_delivered / args.horizon,
        "csma_collision_fraction": c_net.collision_fraction,
        "failure_repair_wrt_slots": w2.recovery.records[0].total_delay,
        "failure_repair_tpt_slots": t2.records[0].total_delay,
    }
    _emit(payload, args.json)
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    from repro.bandwidth import AllocationProblem, StationDemand, allocate

    demands = []
    for sid, item in enumerate(args.demands.split(",")):
        parts = item.split(":")
        if len(parts) != 3:
            raise SystemExit(f"bad demand entry {item!r}; "
                             f"expected rate:deadline:backlog")
        rate, deadline, backlog = parts
        demands.append(StationDemand(
            sid=sid, rt_rate=float(rate),
            deadline=None if deadline == "-" else float(deadline),
            max_backlog=int(backlog), k=args.k))
    problem = AllocationProblem(demands=demands, t_rap=args.t_rap)
    result = allocate(problem, scheme=args.scheme)
    payload = {
        "scheme": result.scheme,
        "feasible": result.feasible,
        "l": result.l,
        "total_l": result.total_l,
        "violations": result.violations,
    }
    _emit(payload, args.json)
    return 0 if result.feasible else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fabric": _cmd_fabric,
    "sweep": _cmd_sweep,
    "fuzz": _cmd_fuzz,
    "perf": _cmd_perf,
    "bounds": _cmd_bounds,
    "compare": _cmd_compare,
    "allocate": _cmd_allocate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
