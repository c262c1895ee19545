"""Tests for the sharded multi-ring fabric (topology, sync, determinism).

The load-bearing contract: serial, process-per-ring and paused/resumed
executions of the same topology are *byte-identical* — same merged trace
hash, same tables, same summaries — because rings only interact at
gateway buffers drained in canonical order at absolute barrier ticks.
"""

import hashlib
import itertools
import json
import math
import multiprocessing
import signal
from dataclasses import replace

import pytest

from repro.core.packet import ServiceClass
from repro.fabric import (CrossFlow, FabricFrame, FabricRunner, GatewayLink,
                          RingShard, Topology, export_merged_timeline,
                          load_topology, merged_timeline, merged_trace_lines,
                          run_fabric_point, save_topology, topology_from_dict,
                          topology_to_dict)
from repro.phy.topology import TopologyError


def small_topology(**kwargs) -> Topology:
    defaults = dict(rings=4, ring_size=8, layout="chain", cross_flows=6,
                    flow_period=50.0, flow_deadline=400.0,
                    horizon=600.0, seed=7)
    defaults.update(kwargs)
    return Topology(**defaults)


def with_kernel(topo: Topology, kernel: str) -> Topology:
    return replace(topo, base=replace(topo.base, kernel=kernel))


def run_fabric(topo, mode="serial", segments=None, **kwargs):
    with FabricRunner(topo, mode=mode, **kwargs) as runner:
        for until in (segments or [None]):
            runner.run(until=until)
        return runner.result(include_trace=True)


# ----------------------------------------------------------------------
class TestTopology:
    def test_chain_links(self):
        topo = Topology(rings=4, layout="chain")
        assert [l.key() for l in topo.resolved_links()] == \
            [(0, 1), (1, 2), (2, 3)]

    def test_cycle_links(self):
        topo = Topology(rings=4, layout="cycle")
        assert [l.key() for l in topo.resolved_links()] == \
            [(0, 1), (1, 2), (2, 3), (0, 3)]

    def test_cycle_of_two_collapses_to_chain(self):
        assert len(Topology(rings=2, layout="cycle").resolved_links()) == 1

    def test_star_links(self):
        topo = Topology(rings=5, layout="star")
        assert [l.key() for l in topo.resolved_links()] == \
            [(0, r) for r in range(1, 5)]

    def test_spread_placement_separates_gateways(self):
        topo = Topology(rings=5, ring_size=8, layout="star",
                        gateway_placement="spread")
        hub_stations = [l.endpoint(0) for l in topo.resolved_links()]
        assert len(set(hub_stations)) == len(hub_stations)

    def test_first_placement_uses_station_zero(self):
        topo = Topology(rings=3, gateway_placement="first")
        for link in topo.resolved_links():
            assert link.station_a == 0 and link.station_b == 0

    def test_route_is_shortest_path(self):
        topo = Topology(rings=6, layout="cycle")
        assert topo.route(0, 2) == (0, 1, 2)
        assert topo.route(0, 4) == (0, 5, 4)     # around the back
        assert topo.route(3, 3) == (3,)

    def test_route_unreachable_raises(self):
        topo = Topology(rings=4, links=[GatewayLink(0, 0, 1, 0)],
                        flows=[])
        with pytest.raises(ValueError):
            topo.route(0, 3)

    def test_generated_flows_respect_min_hops(self):
        topo = Topology(rings=6, layout="chain", cross_flows=12,
                        min_ring_hops=3, seed=3)
        for flow in topo.resolved_flows():
            assert len(topo.route(flow.src_ring, flow.dst_ring)) - 1 >= 3

    def test_generated_flows_deterministic(self):
        a = Topology(rings=4, cross_flows=8, seed=9).resolved_flows()
        b = Topology(rings=4, cross_flows=8, seed=9).resolved_flows()
        assert a == b
        c = Topology(rings=4, cross_flows=8, seed=10).resolved_flows()
        assert a != c

    def test_generated_flows_pinned_across_a_grid(self):
        """Hop counting changed from every ring pair to one BFS per drawn
        source ring; the flow lists must not move (digest captured from
        the all-pairs resolver)."""
        digest = hashlib.sha256()
        count = 0
        for rings, layout, placement, flows, hops, seed in itertools.product(
                (2, 3, 4, 7, 24), ("chain", "cycle", "star"),
                ("first", "spread"), (0, 1, 5, 48), (1, 2, 3, 9), (0, 1, 2)):
            topo = Topology(rings=rings, layout=layout,
                            gateway_placement=placement, cross_flows=flows,
                            min_ring_hops=hops, seed=seed)
            rows = [[f.src_ring, f.src_station, f.dst_ring, f.dst_station]
                    for f in topo.resolved_flows()]
            digest.update(json.dumps(rows).encode())
            count += 1
        assert count == 1440
        assert digest.hexdigest() == ("e2acc23c8c393a143245cee332b2cead"
                                      "941805034f88a6807d8e8241c21f3eaa")

    def test_isolated_ring_without_flows_runs(self):
        topo = Topology(rings=3, cross_flows=0, horizon=50.0,
                        links=[GatewayLink(0, 0, 1, 0)])
        with FabricRunner(topo, mode="serial") as runner:
            runner.run()
            summary = runner.result().summary()
        assert summary["clock"] == 50.0
        assert summary["frames_created"] == 0

    def test_flow_from_an_isolated_ring_names_it(self):
        topo = Topology(rings=3, cross_flows=3,
                        links=[GatewayLink(0, 0, 1, 0)])
        with pytest.raises(ValueError, match="ring 2 reaches no other ring"):
            topo.resolved_flows()
        # routing alone draws no flow
        assert topo.route(0, 1) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(rings=1)
        with pytest.raises(ValueError):
            Topology(layout="mesh")
        with pytest.raises(ValueError):
            Topology(gateway_buffer=0)
        with pytest.raises(ValueError):
            GatewayLink(2, 0, 2, 1)
        with pytest.raises(ValueError):
            CrossFlow(src_ring=1, src_station=0, dst_ring=1, dst_station=2)
        nan, inf = float("nan"), float("inf")
        # barriers sit at k * sync_window: a zero, negative or NaN window
        # fails inside run() and an infinite one never exchanges a frame
        for window in (0.0, -1.0, nan, inf):
            with pytest.raises(ValueError):
                Topology(sync_window=window)
        # a NaN horizon runs nothing and an infinite one never returns
        for horizon in (nan, inf):
            with pytest.raises(ValueError):
                Topology(horizon=horizon)
        # a cbr period <= 0 never moves the source past the current tick;
        # a poisson rate <= 0 has no inter-arrival time
        for period in (0.0, -5.0, nan):
            with pytest.raises(ValueError):
                CrossFlow(src_ring=0, src_station=0, dst_ring=1,
                          dst_station=2, period=period)
            with pytest.raises(ValueError):
                Topology(flow_period=period)
        for rate in (0.0, nan):
            with pytest.raises(ValueError):
                Topology(flow_kind="poisson", flow_rate=rate)
        # only the parameter the flow's kind uses is checked
        Topology(flow_kind="poisson", flow_period=0.0)
        Topology(flow_kind="cbr", flow_rate=0.0)
        # explicit rows name rings and stations of the fabric, one link per
        # ring pair (a shard keeps one link per neighbour: a second never
        # carries a frame, and an out-of-range row fails or drops later)
        bad_rows = [
            (dict(links=[GatewayLink(0, 0, 1, 0), GatewayLink(1, 5, 0, 3)]),
             r"links\[1\] \[1, 5, 0, 3\] joins the rings links\[0\]"),
            (dict(links=[GatewayLink(0, 0, 5, 0)]),
             r"links\[0\] \[0, 0, 5, 0\]: ring 5 is outside \[0, 2\)"),
            (dict(links=[GatewayLink(-1, 0, 1, 0)]),
             r"links\[0\] .*: ring -1 is outside"),
            (dict(links=[GatewayLink(0, 99, 1, 0)]),
             r"links\[0\] \[0, 99, 1, 0\]: station 99 is outside \[0, 6\)"),
            (dict(links=[GatewayLink(0, 0, 1, 6)]),
             r"links\[0\] .*: station 6 is outside"),
            (dict(flows=[CrossFlow(0, 1, 1, 2), CrossFlow(0, 1, 1, 99)]),
             r"flows\[1\] ring 0 station 1 -> ring 1 station 99: "
             r"station 99 is outside \[0, 6\)"),
            (dict(flows=[CrossFlow(0, 99, 1, 2)]),
             r"flows\[0\] .*: station 99 is outside"),
            (dict(flows=[CrossFlow(0, 1, 2, 2)]),
             r"flows\[0\] .*: ring 2 is outside \[0, 2\)"),
        ]
        for rows, message in bad_rows:
            with pytest.raises(ValueError, match=message):
                Topology(rings=2, ring_size=6, **rows)
        # the edges of the ranges are fine
        Topology(rings=2, ring_size=6, links=[GatewayLink(1, 5, 0, 0)],
                 flows=[CrossFlow(1, 5, 0, 0)])

    def test_dict_round_trip(self):
        topo = small_topology(frame_ttl=300.0, sync_window=64.0,
                              flow_service=ServiceClass.ASSURED)
        data = json.loads(json.dumps(topology_to_dict(topo)))
        assert topology_to_dict(topology_from_dict(data)) == \
            topology_to_dict(topo)

    def test_explicit_links_and_flows_round_trip(self):
        topo = Topology(
            rings=3, ring_size=6,
            links=[GatewayLink(0, 1, 1, 4), GatewayLink(1, 2, 2, 0)],
            flows=[CrossFlow(src_ring=0, src_station=3, dst_ring=2,
                             dst_station=5, deadline=250.0)])
        rebuilt = topology_from_dict(topology_to_dict(topo))
        assert rebuilt.resolved_links() == topo.resolved_links()
        assert rebuilt.resolved_flows() == topo.resolved_flows()

    def test_save_load(self, tmp_path):
        topo = small_topology()
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        assert topology_to_dict(load_topology(path)) == topology_to_dict(topo)

    def test_minimal_dict_keeps_declared_defaults(self):
        # no local traffic and a 2,000-slot horizon, as Topology() declares
        assert topology_from_dict({"topology": {}}) == Topology()
        assert topology_from_dict({}) == Topology()
        # a fabric sweep over a minimal dict resolves the same way
        from repro.campaign import Sweep
        point = Sweep(topology={"topology": {}},
                      points=[{"topology.rings": 2}]).expand()[0]
        topo = topology_from_dict(point.scenario_dict)
        assert topo.base.traffic.kind == "none"
        assert topo.horizon == Topology().horizon

    def test_unknown_topology_key_rejected(self):
        data = topology_to_dict(small_topology())
        data["topology"]["wormholes"] = 3
        with pytest.raises(ValueError):
            topology_from_dict(data)


class TestFabricFrame:
    def test_round_trip(self):
        frame = FabricFrame(flow=2, seq=5, src_ring=0, src_station=1,
                            dst_ring=2, dst_station=3,
                            service=ServiceClass.PREMIUM, created=10.0,
                            deadline=110.0, route=(0, 1, 2), hop=1,
                            hop_log=[[0, 10.0, 14.0]])
        assert FabricFrame.from_dict(frame.to_dict()) == frame

    def test_key_orders_canonically(self):
        frames = [FabricFrame(flow=f, seq=s, src_ring=0, src_station=0,
                              dst_ring=1, dst_station=1,
                              service=ServiceClass.PREMIUM, created=0.0,
                              deadline=None, route=(0, 1))
                  for f, s in [(1, 0), (0, 1), (0, 0)]]
        assert sorted(f.key() for f in frames) == \
            [(0, 0, 0), (0, 1, 0), (1, 0, 0)]


# ----------------------------------------------------------------------
class TestFabricDeterminism:
    """ISSUE acceptance: sharded and serial modes produce byte-identical
    merged traces and tables, and resumed runs replay the same barriers."""

    def test_serial_vs_sharded_byte_identical(self):
        topo = small_topology()
        serial = run_fabric(topo, "serial")
        sharded = run_fabric(topo, "sharded")
        assert serial.trace_hash() == sharded.trace_hash()
        assert merged_trace_lines(serial) == merged_trace_lines(sharded)
        assert serial.ring_table() == sharded.ring_table()
        assert serial.flow_table() == sharded.flow_table()
        assert dict(serial.summary(), mode="") == \
            dict(sharded.summary(), mode="")

    def test_resumed_runs_replay_identical_barriers(self):
        topo = small_topology()
        whole = run_fabric(topo, "serial")
        # split at points that are NOT barrier multiples
        for cuts in ([250.0, 600.0], [100.0, 333.0, 600.0]):
            resumed = run_fabric(topo, "serial", segments=cuts)
            assert resumed.trace_hash() == whole.trace_hash()
            assert resumed.summary() == whole.summary()

    def test_resumed_sharded_matches_serial(self):
        topo = small_topology()
        whole = run_fabric(topo, "serial")
        resumed = run_fabric(topo, "sharded", segments=[313.0, 600.0])
        assert resumed.trace_hash() == whole.trace_hash()
        assert resumed.ring_table() == whole.ring_table()

    def test_trace_records_are_pid_free(self):
        result = run_fabric(small_topology(), "serial")
        for line in merged_trace_lines(result):
            record = json.loads(line)
            assert "pid" not in record["fields"]

    def test_explicit_sync_window_respected(self):
        topo = small_topology(sync_window=32.0)
        serial = run_fabric(topo, "serial")
        sharded = run_fabric(topo, "sharded")
        assert serial.trace_hash() == sharded.trace_hash()

    def test_fractional_sync_window_reaches_horizon(self):
        # 3 * 0.7 / 0.7 rounds just below 3: a next barrier derived from
        # the clock lands back on the one just reached and run() never
        # returns, so an alarm turns a hang into a failure
        def hung(signum, frame):
            raise TimeoutError("fabric run stuck short of its horizon")

        topo = Topology(rings=2, cross_flows=1, horizon=5.0,
                        sync_window=0.7)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with FabricRunner(topo, mode="serial") as runner:
                runner.run()
                assert runner.clock == 5.0
                assert runner.barriers == 7    # 0.7, 1.4, ..., 4.9
                serial = runner.result(include_trace=True)
            sharded = run_fabric(topo, "sharded")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert sharded.trace_hash() == serial.trace_hash()
        assert sharded.clock == 5.0

    def test_frame_conservation(self):
        for topo in (small_topology(),
                     small_topology(gateway_buffer=1),
                     small_topology(frame_ttl=10.0)):
            s = run_fabric(topo, "serial").summary()
            assert s["frames_created"] == (s["frames_completed"]
                                           + s["frames_dropped"]
                                           + s["frames_in_flight"])


# ----------------------------------------------------------------------
class TestThreeRingFlow:
    """End-to-end regression: one explicit flow crossing 3 rings, with the
    per-hop latency ledger checked leg by leg."""

    def topo(self) -> Topology:
        return Topology(
            rings=3, ring_size=8, layout="chain",
            gateway_placement="spread",
            flows=[CrossFlow(src_ring=0, src_station=2, dst_ring=2,
                             dst_station=5, kind="cbr", period=100.0,
                             service=ServiceClass.PREMIUM, deadline=500.0)],
            horizon=800.0, seed=1)

    def test_flow_crosses_three_rings(self):
        result = run_fabric(self.topo(), "serial")
        completions = result.completions()
        assert completions, "no frame crossed the 3-ring fabric"
        for flow, seq, t, delay, miss, hop_log in completions:
            assert flow == 0
            # one leg per ring of the route, in route order
            assert [leg[0] for leg in hop_log] == [0, 1, 2]
            for ring, t_enter, t_exit in hop_log:
                assert t_exit >= t_enter
            # legs are causally ordered: each starts at/after the previous
            for prev, nxt in zip(hop_log, hop_log[1:]):
                assert nxt[1] >= prev[2]
            # the ledger ties the ends together: first entry is creation,
            # last exit is the completion instant
            assert hop_log[0][1] == pytest.approx(t - delay)
            assert hop_log[-1][2] == pytest.approx(t)
            # per-hop transit + gateway buffering accounts for the delay
            transit = sum(leg[2] - leg[1] for leg in hop_log)
            assert transit <= delay + 1e-9

    def test_gateway_hops_counted(self):
        result = run_fabric(self.topo(), "serial")
        s = result.summary()
        # every completed frame crossed exactly 2 gateways
        assert s["gw_forwards"] >= 2 * s["frames_completed"]
        assert s["ring_lost"] == 0

    def test_sharded_identical(self):
        topo = self.topo()
        assert run_fabric(topo, "serial").trace_hash() == \
            run_fabric(topo, "sharded").trace_hash()


# ----------------------------------------------------------------------
class TestGatewayPolicies:
    def test_tiny_buffer_overflows(self):
        topo = small_topology(gateway_buffer=1, cross_flows=8,
                              flow_period=10.0)
        s = run_fabric(topo, "serial").summary()
        assert s["gw_drops"]["overflow"] > 0

    def test_ttl_ages_out_buffered_frames(self):
        # TTL far below the sync window: every frame that waits a full
        # window for its barrier is aged out at the exchange
        topo = small_topology(frame_ttl=1.0)
        s = run_fabric(topo, "serial").summary()
        assert s["gw_drops"]["ttl"] > 0

    def test_drops_are_deterministic_across_modes(self):
        topo = small_topology(gateway_buffer=1, cross_flows=8,
                              flow_period=10.0)
        assert run_fabric(topo, "serial").summary() == \
            dict(run_fabric(topo, "sharded").summary(), mode="serial")


# ----------------------------------------------------------------------
class TestObsRollup:
    def test_merged_trace_lines_sorted(self):
        result = run_fabric(small_topology(), "serial")
        lines = merged_trace_lines(result)
        keys = [(json.loads(l)["t"], json.loads(l)["ring"]) for l in lines]
        assert keys == sorted(keys)

    def test_merged_timeline_one_pid_per_ring(self, tmp_path):
        result = run_fabric(small_topology(), "serial")
        path = tmp_path / "timeline.json"
        count = export_merged_timeline(path, result)
        assert count > 0
        doc = json.loads(path.read_text())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert pids == {r + 1 for r in range(result.topology.rings)}

    #: a 3-ring fabric loaded enough that some station holds the SAT
    TIMELINE_TOPO = dict(rings=3, ring_size=6, cross_flows=3,
                         flow_period=4.0, horizon=300.0, seed=7)
    #: its per-ring (trace_len, trace_digest) without a timeline, as the
    #: fabric recorded them before the timeline request reached the shards
    RING_TRACES = [
        (596, "fd66379f08b1dccd91c1f1e300fb82983d87c7ff646c5e75f9a82aa6148de1ee"),
        (918, "8c6fe1ded55ee784991d252072203d810e6f0980fcd8893f5fcc37b093f21f0c"),
        (884, "1b78e9078e6347cf46004187dd885611397427bb9987759ba7472bb2943c3ad6"),
    ]

    def test_ring_traces_without_timeline_are_pinned(self):
        result = run_fabric(Topology(**self.TIMELINE_TOPO), "serial")
        assert [(r["trace_len"], r["trace_digest"])
                for r in sorted(result.reports, key=lambda r: r["ring"])] \
            == self.RING_TRACES

    @pytest.mark.parametrize("mode", ["serial", "sharded"])
    def test_timeline_request_fills_sat_and_occupancy_tracks(self, mode):
        result = run_fabric(Topology(**self.TIMELINE_TOPO), mode,
                            timeline=True)
        events = merged_timeline(result)
        holds = [ev for ev in events
                 if ev.get("ph") == "X" and ev.get("cat") == "sat"]
        assert holds and any(ev["dur"] > 0 for ev in holds)
        slots = [ev for ev in events if ev.get("cat") == "slots"]
        # one occupancy sample per ring per slot 0..300
        assert len(slots) == 3 * 301
        if mode == "sharded":
            serial = run_fabric(Topology(**self.TIMELINE_TOPO), "serial",
                                timeline=True)
            assert merged_timeline(serial) == events

    def test_timeline_needs_tracing(self):
        with pytest.raises(ValueError, match="timeline needs tracing"):
            FabricRunner(small_topology(), trace=False, timeline=True)

    def test_merged_metrics_aggregate(self):
        result = run_fabric(small_topology(), "serial", observe=True)
        merged = result.merged_metrics()
        per_ring = result.per_ring_metrics()
        assert len(per_ring) == result.topology.rings
        total = sum(sum(snap.get("ring.delivered", {}).values())
                    for snap in per_ring.values())
        assert sum(merged["ring.delivered"].values()) == total

    def test_trace_off_mode_still_parity(self):
        topo = small_topology()
        serial = run_fabric(topo, "serial", trace=False)
        sharded = run_fabric(topo, "sharded", trace=False)
        assert serial.summary() == dict(sharded.summary(), mode="serial")
        for report in serial.reports:
            assert report["trace_len"] == 0


# ----------------------------------------------------------------------
class TestTraceOffShards:
    """A trace-off ring subscribes no trace handler, so its SAT emitters
    are the falsy null and nothing renders a record to discard."""

    #: ``small_topology()`` merged trace hash, serial, trace on
    TRACE_HASH = \
        "11ac43474f75ee9282c48ced1f685492720ad85061300cbf32a67fa10064a700"

    def test_trace_off_shard_hands_out_null_sat_emitters(self):
        shard = RingShard(small_topology(), 1, trace=False)
        assert not shard.net._ev_sat_release
        assert not shard.net._ev_sat_rotation
        assert not shard._ev_buffer
        traced = RingShard(small_topology(), 1, trace=True)
        assert traced.net._ev_sat_release and traced.net._ev_sat_rotation

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_trace_on_hash_kept_and_trace_off_outcome_identical(self, kernel):
        topo = with_kernel(small_topology(), kernel)
        traced = run_fabric(topo, "serial")
        plain = run_fabric(topo, "serial", trace=False)
        # the topology's kernel is the one that ran on every ring
        for report in traced.reports + plain.reports:
            assert ("kernel" in report) == (kernel == "batched")
        traced, plain = traced.summary(), plain.summary()
        assert traced["trace_hash"] == self.TRACE_HASH
        assert dict(plain, trace_hash=None) == dict(traced, trace_hash=None)


# ----------------------------------------------------------------------
class TestFabricSweep:
    def test_topology_axes(self):
        from repro.campaign import CampaignRunner, Sweep

        topo = small_topology(horizon=200.0, cross_flows=2)
        sweep = Sweep(topology=topo,
                      axes={"topology.rings": [2, 3]}, seed=4)
        points = sweep.expand()
        assert [p.scenario_dict["topology"]["rings"] for p in points] == [2, 3]
        result = CampaignRunner(sweep, store=None, workers=0,
                                progress=lambda *a, **k: None).run()
        assert result.ok
        assert [r["summary"]["rings"] for r in result.records] == [2, 3]

    def test_sweep_round_trip(self):
        from repro.campaign import Sweep, sweep_from_dict, sweep_to_dict

        sweep = Sweep(topology=small_topology(),
                      axes={"topology.cross_flows": [2, 4]}, seed=2)
        rebuilt = sweep_from_dict(json.loads(json.dumps(sweep_to_dict(sweep))))
        assert [p.key for p in rebuilt.expand()] == \
            [p.key for p in sweep.expand()]

    def test_fabric_point_rejects_scenario_accessor(self):
        from repro.campaign import Sweep

        sweep = Sweep(topology=small_topology(),
                      axes={"topology.rings": [2]})
        with pytest.raises(ValueError):
            sweep.expand()[0].scenario()

    def test_run_fabric_point_runs_the_configured_kernel(self, monkeypatch):
        # a fabric ring runs the same schedule under either kernel, so the
        # kernel shows only in the ring reports' "kernel" block (batched
        # telemetry), read off the runner the point used
        results = []
        collect = FabricRunner.result

        def spy(runner, *args, **kwargs):
            results.append(collect(runner, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(FabricRunner, "result", spy)
        data = topology_to_dict(Topology(rings=2, ring_size=6, cross_flows=2,
                                         horizon=600.0, seed=5))
        for kernel in ("scalar", "batched"):
            data["kernel"] = kernel
            record = run_fabric_point(data)
            assert record["scenario"]["kernel"] == kernel
            assert [("kernel" in r) for r in results[-1].reports] == \
                [kernel == "batched"] * 2

    def test_cli_runs_the_config_kernel_unless_a_flag_overrides(
            self, tmp_path):
        from repro.cli import main
        data = topology_to_dict(Topology(rings=2, ring_size=6, cross_flows=2,
                                         horizon=300.0, seed=5))
        data["kernel"] = "batched"
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(data))
        resolved = tmp_path / "resolved.json"
        kernels = []
        for extra in ([], ["--kernel", "scalar"]):
            assert main(["fabric", "--config", str(path),
                         "--save", str(resolved), *extra]) == 0
            kernels.append(json.loads(resolved.read_text())
                           .get("kernel", "scalar"))
        assert kernels == ["batched", "scalar"]

    def test_run_fabric_point_record_shape(self):
        record = run_fabric_point(
            topology_to_dict(small_topology(horizon=150.0, cross_flows=2)))
        assert set(record) == {"scenario", "summary", "elapsed",
                               "events_executed"}
        assert record["summary"]["rings"] == 4


# ----------------------------------------------------------------------
class TestRunnerLifecycle:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FabricRunner(small_topology(), mode="quantum")

    def test_close_is_idempotent(self):
        runner = FabricRunner(small_topology(), mode="sharded")
        runner.run(until=50.0)
        runner.close()
        runner.close()

    def test_run_into_the_past_rejected(self):
        with FabricRunner(small_topology(), mode="serial") as runner:
            runner.run(until=100.0)
            with pytest.raises(ValueError):
                runner.run(until=50.0)

    @pytest.mark.parametrize("until", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_until_rejected(self, until):
        # an infinite run would never return, so an alarm turns a hang
        # into a failure
        def hung(signum, frame):
            raise TimeoutError("fabric run(until=inf) did not return")

        topo = Topology(rings=2, cross_flows=1, horizon=40.0)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with FabricRunner(topo, mode="serial") as runner:
                with pytest.raises(ValueError, match="finite"):
                    runner.run(until=until)
                assert runner.clock == 0.0
                assert runner.barriers == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_sharded_start_up_failure_leaves_no_worker(self):
        # ring 0's stations are too sparse to form a ring; rings 1-3 build.
        # The runner raises before any caller holds it, so it must close
        # its own workers: a live one would hang the interpreter's exit
        topo = topology_from_dict({
            "n": 8, "placement": "uniform", "range_margin": 1.7,
            "horizon": 100.0, "seed": 3,
            "topology": {"rings": 4, "ring_size": 8, "cross_flows": 0}})
        with pytest.raises(TopologyError):
            RingShard(topo, 0, trace=False)
        for ring in (1, 2, 3):
            RingShard(topo, ring, trace=False)
        before = set(multiprocessing.active_children())
        try:
            with pytest.raises(RuntimeError, match="fabric shard 0 failed"):
                FabricRunner(topo, mode="sharded")
            assert set(multiprocessing.active_children()) <= before
        finally:
            for proc in set(multiprocessing.active_children()) - before:
                proc.terminate()
                proc.join(5.0)

    def test_shard_station_count(self):
        shard = RingShard(small_topology(), 1, trace=False)
        assert shard.net.n == 8
        assert set(shard.links) == {0, 2}
