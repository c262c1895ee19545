"""Differential tests: the batched kernel must be byte-identical to scalar.

This is the enforcement arm of the equivalence contract in docs/KERNEL.md:
every checked-in fuzz corpus bundle and every scenario in the pinned seeded
grid is replayed through both kernels, and every observable — trace hash,
summary, per-station tables, rotation samples, final clock — must match
exactly.  ``events_executed`` is the single excluded statistic (the batched
driver dispatches fewer agenda events by design).
"""

import glob
import os
from dataclasses import replace

import pytest

from repro.fuzz.bundle import load_bundle
from repro.fuzz.generate import FuzzCase, generate_case
from repro.kernel.diff import (_compare_runs, diff_fuzz_case, diff_scenario,
                               seeded_grid)
from repro.scenarios import build_scenario, run_scenario

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
GRID = seeded_grid()
GRID_IDS = [f"seed{s.seed}-{s.traffic.kind}" for s in GRID]


def run_untraced(scenario, kernel):
    """Run ``scenario`` on ``kernel`` with the trace recorder off, as a
    ``trace=False`` fabric shard does: no SAT event has a subscriber, so
    saturated windows run in bulk mode."""
    result = build_scenario(replace(scenario, kernel=kernel))
    result.trace.enable_only(())
    result.network._trace_adapter.refresh(result.network.events)
    result.engine.run(until=scenario.horizon)
    return result


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
        # subscriber, and saturated windows in bulk mode
        scenario = GRID[idx]
        diff = _compare_runs(f"untraced grid[{idx}]",
                             run_untraced(scenario, "scalar"),
                             run_untraced(scenario, "batched"))
        assert diff.ok, diff.describe()

    @pytest.mark.parametrize("seed,traced", [
        (23, True), (24, True), (25, True),
        (23, False), (24, False), (25, False)],
        ids=["23", "24", "25", "23-untraced", "24-untraced", "25-untraced"])
    def test_saturated_points_engage_windows(self, seed, traced):
        # parity alone cannot tell a window that engaged from one that
        # fell back to slot-by-slot ticking: both are byte-identical
        scenario = next(s for s in GRID if s.seed == seed)
        if traced:
            result = run_scenario(replace(scenario, kernel="batched"))
        else:
            result = run_untraced(scenario, "batched")
        net = result.network
        assert net.tick_driver.__self__.sat_windows > 0
        # a window replays the real SAT step exactly when a SAT event
        # has a subscriber; the trace-off run takes the bulk mode
        sat_subscribed = bool(net._ev_sat_release or net._ev_sat_rotation
                              or net._ev_sat_arrive or net._ev_sat_hold)
        assert sat_subscribed == traced


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
        assert (batched.summary()["events_executed"]
                < scalar.summary()["events_executed"])
        assert scalar.trace_hash() == batched.trace_hash()
        assert scalar.flow_table() == batched.flow_table()
        # the ring table's trailing "events" column is engine
        # events_executed — the one excluded statistic; strip it
        def sans_events(table):
            return ["".join(line.split()[:-1])
                    for line in table.splitlines()]
        assert sans_events(scalar.ring_table()) == \
            sans_events(batched.ring_table())

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
