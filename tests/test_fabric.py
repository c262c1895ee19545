"""Tests for the sharded multi-ring fabric (topology, sync, determinism).

The load-bearing contract: serial, process-per-ring and paused/resumed
executions of the same topology are *byte-identical* — same merged trace
hash, same tables, same summaries — because rings only interact at
gateway buffers drained in canonical order at absolute barrier ticks.
"""

import json
import signal
from dataclasses import replace

import pytest

from repro.core.packet import ServiceClass
from repro.fabric import (CrossFlow, FabricFrame, FabricRunner, GatewayLink,
                          RingShard, Topology, export_merged_timeline,
                          load_topology, merged_trace_lines, run_fabric_point,
                          save_topology, topology_from_dict, topology_to_dict)


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

    def test_run_fabric_point_runs_the_configured_kernel(self):
        data = topology_to_dict(Topology(rings=2, ring_size=6, cross_flows=2,
                                         horizon=600.0, seed=5))
        assert run_fabric_point(data)["events_executed"] == 1202
        data["kernel"] = "batched"
        record = run_fabric_point(data)
        assert record["scenario"]["kernel"] == "batched"
        assert record["events_executed"] == 30

    def test_cli_runs_the_config_kernel_unless_a_flag_overrides(
            self, tmp_path, capsys):
        from repro.cli import main
        data = topology_to_dict(Topology(rings=2, ring_size=6, cross_flows=2,
                                         horizon=300.0, seed=5))
        data["kernel"] = "batched"
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(data))
        events = []
        for extra in ([], ["--kernel", "scalar"]):
            assert main(["fabric", "--config", str(path), "--json",
                         *extra]) == 0
            events.append(json.loads(capsys.readouterr().out)
                          ["events_executed"])
        assert events[0] < events[1]

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

    def test_shard_station_count(self):
        shard = RingShard(small_topology(), 1, trace=False)
        assert shard.net.n == 8
        assert set(shard.links) == {0, 2}
