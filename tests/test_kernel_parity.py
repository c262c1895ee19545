"""Differential tests: the batched kernel must be byte-identical to scalar.

This is the enforcement arm of the equivalence contract in docs/KERNEL.md:
every checked-in fuzz corpus bundle and every scenario in the pinned seeded
grid is replayed through both kernels, and every observable — trace hash,
summary, per-station tables, rotation samples, final clock — must match
exactly.  ``events_executed`` must match too, except where the batched
kernel opened a saturated window (one tick dispatch for many slots).
"""

import glob
import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.events.types import SatRelease
from repro.fuzz.bundle import load_bundle
from repro.fuzz.generate import FuzzCase, generate_case
from repro.kernel.diff import (_compare_runs, diff_fuzz_case, diff_scenario,
                               seeded_grid)
from repro.scenarios import build_scenario

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
GRID = seeded_grid()
GRID_IDS = [f"seed{s.seed}-{s.traffic.kind}" for s in GRID]


def run_untraced(scenario, kernel):
    """Run ``scenario`` on ``kernel`` with the trace recorder off, as a
    ``trace=False`` fabric shard does: no SAT event has a subscriber, so
    saturated windows open."""
    result = build_scenario(replace(scenario, kernel=kernel))
    result.trace.enable_only(())
    result.engine.run(until=scenario.horizon)
    return result


def run_with_sat_subscriber(scenario, kernel):
    """Run ``scenario`` traced on ``kernel`` with one more ``SatRelease``
    subscriber, one that reads the ring's clock at each release: it does
    more than record, so no saturated window opens."""
    result = build_scenario(replace(scenario, kernel=kernel))
    engine = result.engine
    seen = []
    result.network.events.subscribe(
        SatRelease, lambda ev: seen.append((ev.t, engine.now)))
    engine.run(until=scenario.horizon)
    # every hop runs at its time: the clock matches every release
    assert seen and all(t == now for t, now in seen)
    return result


def count_sat_steps(result) -> Counter:
    """Count the ring's slot bodies and SAT steps from here on.  A
    saturated window calls no SAT step, so steps never outnumber
    bodies."""
    net = result.network
    counts: Counter = Counter()
    for name in ("_tick_body", "_sat_step"):
        def counted(t, _method=getattr(net, name), _name=name):
            counts[_name] += 1
            return _method(t)
        setattr(net, name, counted)
    return counts


class TestCorpusParity:
    """Every checked-in repro bundle runs identically under both kernels."""

    @pytest.mark.parametrize("path", CORPUS,
                             ids=[os.path.basename(p) for p in CORPUS])
    def test_bundle_parity(self, path):
        case = FuzzCase.from_dict(load_bundle(path)["case"])
        diff = diff_fuzz_case(case, label=os.path.basename(path))
        assert diff.ok, diff.describe()

    def test_corpus_is_nonempty(self):
        # the sweep above is vacuous if the corpus dir ever goes missing
        assert len(CORPUS) >= 4


class TestSeededGridParity:
    """The pinned scenario grid covers one regime per protocol feature:
    idle rings, sparse/periodic/bursty traffic, saturation, RAP joins,
    kills, leaves, SAT loss, invariant checkers, and off-grid run
    windows.  Every point runs traced and with the trace recorder off."""

    @pytest.mark.parametrize("idx", range(len(GRID)), ids=GRID_IDS)
    def test_grid_point_parity(self, idx):
        diff = diff_scenario(GRID[idx], label=f"grid[{idx}]")
        assert diff.ok, diff.describe()

    @pytest.mark.parametrize("idx", range(len(GRID)), ids=GRID_IDS)
    def test_grid_point_parity_untraced(self, idx):
        # the trace-off regimes: quiescent stretches with no SAT
        # subscriber, and saturated windows
        scenario = GRID[idx]
        diff = _compare_runs(f"untraced grid[{idx}]",
                             run_untraced(scenario, "scalar"),
                             run_untraced(scenario, "batched"))
        assert diff.ok, diff.describe()

    @pytest.mark.parametrize("seed", [23, 24, 25])
    def test_saturated_point_parity_with_sat_subscriber(self, seed):
        # a SAT subscriber that does more than record keeps every window
        # shut, so the batched run must match the scalar one dispatch for
        # dispatch: ``_compare_runs`` also compares ``events_executed``
        scenario = next(s for s in GRID if s.seed == seed)
        diff = _compare_runs(f"sat-subscribed grid seed {seed}",
                             run_with_sat_subscriber(scenario, "scalar"),
                             run_with_sat_subscriber(scenario, "batched"))
        assert diff.ok, diff.describe()

    @pytest.mark.parametrize("seed,mode", [
        (23, "traced"), (24, "traced"), (25, "traced"),
        (23, "untraced"), (24, "untraced"), (25, "untraced"),
        (23, "subscriber"), (24, "subscriber"), (25, "subscriber")],
        ids=["23", "24", "25", "23-untraced", "24-untraced", "25-untraced",
             "23-subscriber", "24-subscriber", "25-subscriber"])
    def test_saturated_points_engage_windows(self, seed, mode):
        # parity alone cannot tell a window that engaged from slot-by-slot
        # ticking: both are byte-identical
        scenario = replace(next(s for s in GRID if s.seed == seed),
                           kernel="batched")
        result = build_scenario(scenario)
        counts = count_sat_steps(result)
        if mode == "untraced":
            result.trace.enable_only(())
        elif mode == "subscriber":
            result.network.events.subscribe(SatRelease, lambda ev: None)
        result.engine.run(until=scenario.horizon)
        windows = result.network.tick_driver.__self__.sat_windows
        if mode == "subscriber":
            # a SAT subscriber that does more than record shuts the gate:
            # every slot runs its body and, in it, the real SAT step
            assert windows == 0
            assert counts["_sat_step"] == counts["_tick_body"], counts
        else:
            # the trace adapter's renderings only record, so a traced ring
            # opens windows as a trace-off one does, and no SAT step runs
            # inside them
            assert windows > 0
            assert counts["_sat_step"] <= counts["_tick_body"], counts

    @pytest.mark.parametrize("record_only", [False, True],
                             ids=["plain", "record-only"])
    def test_mid_run_sat_subscription_switches_the_gate(self, record_only):
        # the kernel re-derives its gate on every subscription: a probe
        # subscribed mid-drain stops new windows from opening unless it
        # only records, and either way the run stays equal to scalar
        scenario = next(s for s in GRID if s.seed == 23)
        runs = [build_scenario(replace(scenario, kernel=kernel))
                for kernel in ("scalar", "batched")]
        kern = runs[1].network.tick_driver.__self__
        releases = []
        for result in runs:
            result.engine.run(until=300.0)
            seen = []

            def probe(ev, seen=seen):
                seen.append(ev.t)

            probe.record_only = record_only
            result.network.events.subscribe(SatRelease, probe)
            releases.append(seen)
        windows = kern.sat_windows
        for result in runs:
            result.engine.run(until=scenario.horizon)
        # 8 windows by t=300; the rest of the drain opens 2 more unless
        # a probe that does more than record shuts the gate
        assert windows > 0
        assert (kern.sat_windows > windows) == record_only, (
            windows, kern.sat_windows)
        assert releases[0] and releases[1] == releases[0]
        diff = _compare_runs(f"SAT probe from t=300, record_only="
                             f"{record_only}", *runs)
        assert diff.ok, diff.describe()


class TestFabricKernelParity:
    """Per-ring kernel choice must not change fabric-level behaviour."""

    def _result(self, topo, mode, kernel):
        from repro.fabric import FabricRunner
        topo = replace(topo, base=replace(topo.base, kernel=kernel))
        with FabricRunner(topo, mode=mode, trace=True) as runner:
            runner.run()
            result = runner.result(include_trace=True)
        # the topology's kernel is the one every ring ran: only the batched
        # driver reports kernel telemetry
        for report in result.reports:
            assert ("kernel" in report) == (kernel == "batched")
        return result

    def test_serial_fabric_cross_kernel(self):
        from repro.fabric import Topology
        topo = Topology(rings=2, ring_size=6, layout="chain", cross_flows=2,
                        horizon=600.0, seed=5)
        scalar = self._result(topo, "serial", "scalar")
        batched = self._result(topo, "serial", "batched")
        # a fabric ring never opens a saturated window (its shard subscribes
        # to deliveries), so it ticks on the scalar schedule, dispatches
        # included
        assert (batched.summary()["events_executed"]
                == scalar.summary()["events_executed"])
        assert scalar.trace_hash() == batched.trace_hash()
        assert scalar.flow_table() == batched.flow_table()
        assert scalar.ring_table() == batched.ring_table()

    def test_sharded_fabric_matches_serial_under_batched(self):
        from repro.fabric import Topology
        from repro.fabric.merge import merged_trace_lines
        topo = Topology(rings=2, ring_size=6, layout="chain", cross_flows=2,
                        horizon=600.0, seed=7)
        serial = self._result(topo, "serial", "batched")
        sharded = self._result(topo, "sharded", "batched")
        assert serial.trace_hash() == sharded.trace_hash()
        assert serial.ring_table() == sharded.ring_table()
        assert serial.flow_table() == sharded.flow_table()
        assert merged_trace_lines(serial) == merged_trace_lines(sharded)


class TestGeneratedCaseParity:
    """A pinned slice of the fuzz generator's output (random topologies,
    impairments, channels, fault schedules, irregular ``max_events``
    drive chunks) replayed through both kernels."""

    @pytest.mark.parametrize("index", range(25))
    def test_generated_case_parity(self, index):
        case = generate_case(20260808, index)
        diff = diff_fuzz_case(case, label=f"gen[{index}]")
        assert diff.ok, diff.describe()
