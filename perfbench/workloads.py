"""The benchmark's four workloads, driven through public entry points only.

Each workload runs one *repetition* at a time: build the stack (timed as
set-up), run it (timed as the run phase), then check its simulated output
with the workload's own oracle and fold that output into a digest.  The
same seed gives the same inputs and therefore the same digest on every
repetition; at :data:`DEFAULT_SEED` the digest must also equal the one
pinned in :data:`PINNED_DIGESTS`.

``phase(name)`` is called at each phase boundary (``"setup"``, ``"run"``,
``"check"``); the traced run uses it to attribute layer time to phases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: the checkout the benchmark lives in (``perfbench/..``)
ROOT = Path(__file__).resolve().parent.parent

#: ``--seed`` default; seed 0 runs the shipped examples exactly as shipped
DEFAULT_SEED = 0

#: output digests at DEFAULT_SEED (see :func:`digest`)
PINNED_DIGESTS: Dict[str, str] = {
    "conference_call":
        "b8a04f5e1baae86ef9207fc1c4ab7cc204316ed639852cca27896f75920dc4ae",
    "saturated_bound":
        "2616ff3d55a6851fb3147bc1281b4e736c5d284326811b209e85cd109d1579f9",
    "building_fabric":
        "967950f61cc9da5c12d9c17a7b643f11c94269d3bbfc50fb60cadec3976700ab",
    "fuzz_ci":
        "ecdf784793030fb13c6526c0fedd77597a83e2fc9ee2f7ba6dc9c4b14d4107e6",
}

#: kernel telemetry and engine counters compared between plain and traced
#: repetitions (the regime-neutrality check) and used for regime coverage
COUNTERS = ("events_executed", "ff_jumps", "ff_slots_skipped",
            "sat_windows", "sat_slots")

Phase = Callable[[str], None]


@dataclass
class Outcome:
    """One repetition: timings, simulated work, verdict and digest."""

    setup_s: float           # building the stack before the first slot
    laps: List[Tuple[str, float]]   # (phase, seconds), see :class:`Stopwatch`
    slots: float             # simulated slots (numerator of slots_per_s)
    ring_slots: float        # slots summed over rings (regime shares)
    cases: int               # checked scenario runs
    digest: str
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    frames_crossed: int = 0   # fabric frames forwarded between rings
    probes: List[float] = field(default_factory=list)  # see :func:`probe`

    @property
    def run_s(self) -> float:
        return sum(s for kind, s in self.laps if kind == "run")

    @property
    def wall_s(self) -> float:
        """Set-up + run + check of the repetition's cases."""
        return sum(s for _, s in self.laps)


def probe() -> float:
    """Host seconds of a fixed ~1 ms pure-Python loop that does not touch
    the program: a sample of how fast the host runs Python right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Stopwatch:
    """Times a repetition lap by lap.

    ``lap(kind, fn, *args)`` calls ``phase(kind)``, then ``fn(*args)``, and
    records ``(kind, seconds)``, then one :func:`probe`.  Every repetition
    of a seed takes the same laps in the same order, each over the same
    simulated work, so laps can be compared one by one across repetitions
    (``run.py`` keeps each lap's fastest time, and scales it by what the
    probes say of the host's speed)."""

    def __init__(self, phase: Phase) -> None:
        self.phase = phase
        self.laps: List[Tuple[str, float]] = []
        self.probes: List[float] = []

    def lap(self, kind: str, fn, *args):
        self.phase(kind)
        t0 = time.perf_counter()
        out = fn(*args)
        self.laps.append((kind, time.perf_counter() - t0))
        self.probes.append(probe())
        return out

    def run(self, advance: Callable[[float], object], horizon: float,
            step: float) -> None:
        """``advance(until)`` to ``horizon`` in run laps of ``step`` slots;
        the engine and the fabric both tile time across such calls."""
        until = 0.0
        while until < horizon:
            until = min(until + step, horizon)
            self.lap("run", advance, until)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def kernel_counters(net, engine_events: int) -> Dict[str, int]:
    """Public kernel telemetry of a ring (zeros on the scalar driver)."""
    kern = getattr(net.tick_driver, "__self__", None)
    out = {"events_executed": engine_events}
    for key in COUNTERS[1:]:
        out[key] = int(getattr(kern, key, 0))
    return out


def _add(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def _noop(_name: str) -> None:
    return None


def combine(parts: List[Outcome]) -> Outcome:
    """One repetition made of several checked scenario runs."""
    counters: Dict[str, int] = {}
    for part in parts:
        _add(counters, part.counters)
    return Outcome(setup_s=sum(p.setup_s for p in parts),
                   laps=[lap for p in parts for lap in p.laps],
                   probes=[x for p in parts for x in p.probes],
                   slots=sum(p.slots for p in parts),
                   ring_slots=sum(p.ring_slots for p in parts),
                   cases=sum(p.cases for p in parts),
                   digest=digest([p.digest for p in parts]),
                   failures=[f for p in parts for f in p.failures],
                   counters=counters,
                   frames_crossed=sum(p.frames_crossed for p in parts))


class Workload:
    name = ""
    why = ""

    def repetition(self, seed: int, phase: Phase = _noop) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
class ConferenceCall(Workload):
    """``examples/conference_call.json`` as shipped: 10 stations, RAP joins
    for 50 voice calls, two kills, channel on, scalar kernel, traced.

    The call arrivals a scenario seed draws change the work by up to ~20%,
    so a repetition runs :attr:`conferences` scenario seeds in a row — seed
    ``s`` owns the block ``shipped + s*conferences + j`` — and the benchmark
    seed moves the average of a block rather than one draw.  Seed 0 starts
    with the shipped seed."""

    name = "conference_call"
    why = ("shipped 50-call RAP conference: scalar kernel, trace, channel, "
           "joins, QoE; the mixed light-load path every simulate user runs")
    config = "examples/conference_call.json"
    conferences = 3
    lap_slots = 500.0

    def repetition(self, seed, phase=_noop):
        from repro.config_io import load_scenario

        shipped = load_scenario(ROOT / self.config).seed
        first = shipped + seed * self.conferences
        return combine([self.conference(first + j, phase)
                        for j in range(self.conferences)])

    def conference(self, scenario_seed: int, phase: Phase) -> Outcome:
        from repro.config_io import load_scenario
        from repro.fuzz.runner import hash_trace
        from repro.scenarios import build_scenario

        scn = dataclasses.replace(load_scenario(ROOT / self.config),
                                  seed=scenario_seed)
        watch = Stopwatch(phase)
        built = watch.lap("setup", build_scenario, scn)
        watch.run(built.engine.run, scn.horizon, self.lap_slots)

        def check():
            summary = built.summary()
            calls = summary["calls"]
            failures = []
            if calls["offered"] != 50:
                failures.append(f"offered {calls['offered']} calls, not 50")
            if calls["refused"] < 1:
                failures.append("admission control refused no call")
            if calls["cut"] < 1:
                failures.append("no call was cut mid-call")
            scored = [c["mos"] for c in calls["calls"] if "mos" in c]
            if not scored or not all(1.0 <= m <= 4.5 for m in scored):
                failures.append(f"MOS outside [1, 4.5] or none scored: "
                                f"{scored}")
            if failures:
                failures = [f"scenario seed {scenario_seed}: "
                            + "; ".join(failures)]
            return failures, digest(summary, hash_trace(built.trace))

        failures, out = watch.lap("check", check)
        return Outcome(setup_s=watch.laps[0][1], laps=watch.laps,
                       probes=watch.probes,
                       slots=scn.horizon, ring_slots=scn.horizon, cases=1,
                       digest=out, failures=failures,
                       counters=kernel_counters(built.network,
                                                built.engine.events_executed))


# ----------------------------------------------------------------------
class SaturatedBound(Workload):
    """Sec. 2.6 worst case: 32 stations, l=2, k=1, every station holding a
    successor-addressed Premium + best-effort backlog that outlasts the
    run; batched kernel, traced as ``run_scenario`` always traces.

    The backlog is deterministic, so the seed reaches only the scenario's
    random streams (and its echo in the summary)."""

    name = "saturated_bound"
    why = ("Sec. 2.6 worst case, 32-station backlogged ring, batched kernel "
           "with trace on: kernel saturated windows, SAT replay, trace, "
           "prefill")
    stations = 32
    horizon = 20_000.0
    #: packets per station flow; about 1.1k Premium and 0.55k best-effort
    #: are sent per station in 20k slots
    burst = 1_500
    lap_slots = 1_000.0

    def scenario(self, seed: int):
        from repro.core.packet import ServiceClass
        from repro.scenarios import Scenario, TrafficMix

        return Scenario(n=self.stations, l=2, k=1, horizon=self.horizon,
                        seed=seed, kernel="batched",
                        traffic=TrafficMix(kind="prefill",
                                           service=ServiceClass.PREMIUM,
                                           burst=self.burst,
                                           neighbours_only=True))

    def repetition(self, seed, phase=_noop):
        from repro.fuzz.runner import hash_trace
        from repro.scenarios import build_scenario

        scn = self.scenario(seed)
        watch = Stopwatch(phase)
        built = watch.lap("setup", build_scenario, scn)
        watch.run(built.engine.run, scn.horizon, self.lap_slots)

        def check():
            summary = built.summary()
            failures = []
            if not summary.get("bound_holds"):
                failures.append("Theorem 1 bound violated")
            if summary.get("rotation_violations", 1) != 0:
                failures.append(f"{summary.get('rotation_violations')} "
                                f"rotation violations")
            drained = [st.sid for st in built.network.stations.values()
                       if not (st.rt_queue and st.be_queue)]
            if drained:
                failures.append(f"backlog ran dry before the horizon at "
                                f"stations {drained}")
            return failures, digest(summary, hash_trace(built.trace))

        failures, out = watch.lap("check", check)
        return Outcome(setup_s=watch.laps[0][1], laps=watch.laps,
                       probes=watch.probes,
                       slots=scn.horizon, ring_slots=scn.horizon, cases=1,
                       digest=out, failures=failures,
                       counters=kernel_counters(built.network,
                                                built.engine.events_executed))


# ----------------------------------------------------------------------
class BuildingFabric(Workload):
    """``examples/conference_building.json`` (24 rings x 48 stations) with a
    reduced horizon, serial mode, trace off, shipped scalar kernel."""

    name = "building_fabric"
    why = ("24-ring x 48-station building fabric, serial, trace off: large "
           "set-up, window/exchange path, O(N) decide over 48-station rings")
    config = "examples/conference_building.json"
    #: three sync windows at the shipped seed (W = 336 slots)
    horizon = 1008.0
    lap_slots = 48.0

    def repetition(self, seed, phase=_noop):
        from repro.fabric.runner import FabricRunner
        from repro.fabric.topology import topology_from_dict

        spec = json.loads((ROOT / self.config).read_text())
        spec["horizon"] = self.horizon
        spec["seed"] = spec["seed"] + seed
        watch = Stopwatch(phase)
        runner = watch.lap("setup", lambda: FabricRunner(
            topology_from_dict(spec), mode="serial", trace=False))
        watch.run(runner.run, self.horizon, self.lap_slots)

        def check():
            result = runner.result()
            summary = result.summary()
            failures = []
            if summary["clock"] != self.horizon:
                failures.append(f"fabric clock {summary['clock']} short of "
                                f"{self.horizon}")
            if summary["frames_completed"] < 1:
                failures.append("no cross-ring frame completed")
            if summary["ring_delivered"] < 1:
                failures.append("no ring delivered a packet")
            ring_digests = [digest(r) for r in sorted(result.reports,
                                                      key=lambda r: r["ring"])]
            counters = {"events_executed": summary["events_executed"]}
            for report in result.reports:
                _add(counters, report.get("kernel", {}))
            for key in COUNTERS:
                counters.setdefault(key, 0)
            return failures, digest(summary, ring_digests), counters, summary

        failures, out, counters, summary = watch.lap("check", check)
        return Outcome(setup_s=watch.laps[0][1], laps=watch.laps,
                       probes=watch.probes,
                       slots=self.horizon,
                       ring_slots=self.horizon * summary["rings"],
                       cases=1, digest=out, failures=failures,
                       counters=counters,
                       frames_crossed=summary["gw_forwards"])


# ----------------------------------------------------------------------
class FuzzCi(Workload):
    """Pinned ``generate_case(seed, i)`` cases at the default ``max_slots``,
    each run through ``run_case`` with every oracle and the strict
    invariant checker (the shape of the CI fuzz job).

    Cases the zero-false-trigger oracle judges (adaptive timers on a clean
    channel, no destructive faults) are skipped: some of them fail it —
    ``generate_case(304, 101)`` and ``(304, 107)`` start recovery episodes
    with every station alive — and a benchmark must run inputs on which the
    program does not fail.  The first :attr:`cases` other indices run."""

    name = "fuzz_ci"
    why = ("pinned fuzz cases through run_case with every oracle and the "
           "strict invariant checker, as the CI fuzz job runs them")
    cases = 40

    def repetition(self, seed, phase=_noop):
        from repro.config_io import scenario_from_dict
        from repro.fuzz.generate import generate_case
        from repro.fuzz.oracles import false_trigger_oracle_applies
        from repro.fuzz.runner import run_case
        from repro.scenarios import build_scenario

        def generate():
            cases = []
            index = 0
            while len(cases) < self.cases:
                case = generate_case(seed, index)
                index += 1
                if not false_trigger_oracle_applies(case.scenario):
                    cases.append(case)
            return cases

        watch = Stopwatch(phase)
        cases = watch.lap("setup", generate)
        # set-up is timed on stacks of its own, all in one block so the
        # garbage collections they trigger land in it the same way every
        # repetition: run_case builds internally, and that build counts in
        # the case's run time.  The block is not a lap: a case's cost is
        # generate, run_case, check
        phase("setup")
        t0 = time.perf_counter()
        for case in cases:
            build_scenario(scenario_from_dict(case.scenario))
        setup = watch.laps[0][1] + time.perf_counter() - t0
        slots = 0.0
        failures: List[str] = []
        records = []
        counters: Dict[str, int] = {}
        for case in cases:
            result = watch.lap("run", run_case, case)

            def check():
                if not result.ok:
                    failures.append(f"case {case.label()}: "
                                    f"{result.failure_kinds()}")
                records.append(result.to_record())
                _add(counters, kernel_counters(result.built.network,
                                               result.events_executed))

            watch.lap("check", check)
            slots += result.end_time
        return Outcome(setup_s=setup, laps=watch.laps, probes=watch.probes,
                       slots=slots, ring_slots=slots, cases=self.cases,
                       digest=digest(records), failures=failures,
                       counters=counters)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ConferenceCall(), SaturatedBound(), BuildingFabric(),
                        FuzzCi())}
