"""Tests for the scenario fuzzer — generator determinism, oracles, shrinker,
repro bundles, the checked-in corpus, and regression tests for the
packet-accounting and engine-time bugs the fuzzer caught.

Each regression test here fails on the pre-fix code:

* ``TestRemoveStationAccounting`` — ``remove_station`` used to count only
  ``transit`` packets as lost, so class-queue packets vanished from the
  metrics (and the conservation checker summed over departed stations too).
* ``TestRebuildAccounting`` — the ring-rebuild path had the same leak:
  stations dropped by ``finish_rebuild`` kept their class queues unaccounted.
  This one was found *by the fuzzer* (campaign seed=1, runs 66/93/99/...).
* ``TestOrphanTTL`` — a data packet whose source and destination both left
  the ring circulated forever; the hop-count TTL now reclaims it.
* The engine ``max_events`` time-warp regression lives in
  ``tests/test_sim_engine.py`` (``test_max_events_with_until_does_not_warp_clock``).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore
from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.core.invariants import RingInvariantChecker
from repro.fuzz import (FuzzCase, generate_case, run_case,
                        run_fuzz_campaign, shrink_case, verify_bundle,
                        write_bundle)
from repro.faults import FaultSchedule
from repro.fuzz.bundle import load_bundle
from repro.fuzz.oracles import (check_no_false_triggers,
                                false_trigger_oracle_applies)
from repro.scenarios import Scenario, TrafficMix, run_scenario
from repro.sim import Engine

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def checked_net(n=8, l=2, k=2):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    checker = RingInvariantChecker(net, strict=True).attach(net.events)
    return engine, net, checker


def be_pkt(src, dst, created=0.0):
    return Packet(src=src, dst=dst, service=ServiceClass.BEST_EFFORT,
                  created=created)


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_same_seed_and_index_is_deterministic(self):
        a = generate_case(7, 3)
        b = generate_case(7, 3)
        assert a.to_dict() == b.to_dict()

    def test_indices_produce_distinct_cases(self):
        cases = [generate_case(7, i).to_dict() for i in range(10)]
        assert len({json.dumps(c, sort_keys=True) for c in cases}) == 10

    def test_round_trip_through_dict(self):
        case = generate_case(42, 5)
        again = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert again.to_dict() == case.to_dict()

    def test_drive_plan_ends_at_horizon(self):
        for i in range(25):
            case = generate_case(11, i)
            assert case.drive[-1]["until"] == case.scenario["horizon"]


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_replay_is_byte_identical(self):
        case = generate_case(1, 0)
        first = run_case(case)
        second = run_case(FuzzCase.from_dict(case.to_dict()))
        assert first.trace_hash == second.trace_hash
        assert first.events_executed == second.events_executed

    def test_clean_case_has_no_failures(self):
        result = run_case(generate_case(1, 0))
        assert result.ok, [f.to_dict() for f in result.failures]
        assert result.stats["enqueued"] >= 0

    def test_record_is_json_serializable(self):
        record = run_case(generate_case(1, 2)).to_record()
        json.dumps(record)
        assert record["ok"] in (True, False)
        assert isinstance(record["trace_hash"], str)


# ----------------------------------------------------------------------
# zero-false-trigger oracle scope
# ----------------------------------------------------------------------
class TestFalseTriggerOracleScope:
    """The oracle judges timer-launched recovery episodes only: a
    ``graceful`` cut-out is a leaving station's announcement (Sec. 2.4.2),
    not a SAT_TIMER firing."""

    @pytest.mark.parametrize("index", [101, 107])
    def test_departing_rap_callers_are_not_false_triggers(self, index):
        # every episode here is a RAP-joined caller leaving at call end
        case = generate_case(304, index)
        assert false_trigger_oracle_applies(case.scenario)
        result = run_case(case)
        rec = result.built.network.recovery
        assert rec.records and rec.false_triggers == 0
        assert {r.kind for r in rec.records} == {"graceful"}
        assert result.ok, [f.to_dict() for f in result.failures]

    @staticmethod
    def _adaptive_run(faults):
        return run_scenario(Scenario(
            n=6, adaptive_timers=True, traffic=TrafficMix(kind="none"),
            faults=faults, horizon=1500.0)).network

    @pytest.mark.parametrize("kind", ["silent", "sat_loss"])
    def test_timer_launched_episodes_still_fail(self, kind):
        builder = FaultSchedule.builder()
        faults = (builder.kill(2, at=300.0) if kind == "silent"
                  else builder.drop_signal(at=300.0)).build()
        net = self._adaptive_run(faults)
        assert [r.kind for r in net.recovery.records] == [kind]
        failures = check_no_false_triggers(net)
        assert [f.kind for f in failures] == ["false_trigger"]
        assert f"kind={kind}" in failures[0].message

    def test_graceful_leave_passes(self):
        net = self._adaptive_run(
            FaultSchedule.builder().leave(2, at=300.0).build())
        assert [r.kind for r in net.recovery.records] == ["graceful"]
        assert check_no_false_triggers(net) == []


# ----------------------------------------------------------------------
# regression: remove_station loses class-queue packets (pre-fix)
# ----------------------------------------------------------------------
class TestRemoveStationAccounting:
    def test_class_queue_packets_counted_as_lost(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=5)
        st = net.stations[3]
        packets = [be_pkt(3, 6, created=5.0) for _ in range(4)]
        for pkt in packets:
            st.enqueue(pkt, 5.0)
        lost_before = net.metrics.lost
        net.remove_station(3)
        assert net.metrics.lost == lost_before + 4
        assert all(pkt.dropped for pkt in packets)
        assert not st.be_queue and not st.transit

    def test_conservation_holds_after_removal(self):
        # pre-fix the strict checker raised here: the removed station's
        # queued packets were neither lost nor buffered at a member
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=5)
        for i in range(3):
            net.stations[2].enqueue(be_pkt(2, 5, created=5.0), 5.0)
        net.remove_station(2)
        engine.run(until=100)
        assert checker.clean


# ----------------------------------------------------------------------
# regression: rebuild path loses class-queue packets (found by the fuzzer)
# ----------------------------------------------------------------------
class TestRebuildAccounting:
    def test_rebuild_drains_dropped_stations_queues(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=20)
        for sid in (4, 5):
            for i in range(6):
                net.stations[sid].enqueue(be_pkt(sid, (sid + 2) % 8, 20.0),
                                          20.0)
        # two adjacent silent deaths defeat the single-station cut-out and
        # force a full ring re-formation
        net.kill_station(4)
        net.kill_station(5)
        engine.run(until=500)
        assert net.recovery.ring_rebuilds >= 1
        assert net.order == [0, 1, 2, 3, 6, 7]
        # pre-fix: the 12 queued packets vanished (strict checker raised)
        assert checker.clean
        assert net.metrics.lost >= 12


# ----------------------------------------------------------------------
# regression: orphaned packet circulates forever (pre-fix)
# ----------------------------------------------------------------------
class TestOrphanTTL:
    def test_packet_with_both_endpoints_gone_is_reclaimed(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=10)
        pkt = be_pkt(0, 4, created=10.0)
        net.stations[0].enqueue(pkt, 10.0)
        # step until the packet is on the ring (sent, not yet delivered)
        for _ in range(40):
            engine.run(until=engine.now + 1)
            if pkt.t_send is not None:
                break
        assert pkt.t_send is not None and pkt.t_deliver is None
        net.remove_station(4)   # destination gone
        net.remove_station(0)   # then the source too
        engine.run(until=engine.now + 4 * len(net.order))
        assert pkt.dropped
        assert net.metrics.orphaned >= 1
        assert all(not net.stations[sid].transit for sid in net.order)
        assert checker.clean

    def test_orphan_ttl_traced(self):
        from repro.sim.trace import TraceRecorder
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(8), l=2, k=2, rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(8)), cfg,
                             trace=TraceRecorder())
        net.start()
        engine.run(until=10)
        pkt = be_pkt(0, 4, created=10.0)
        net.stations[0].enqueue(pkt, 10.0)
        for _ in range(40):
            engine.run(until=engine.now + 1)
            if pkt.t_send is not None:
                break
        net.remove_station(4)
        net.remove_station(0)
        engine.run(until=engine.now + 4 * len(net.order))
        assert net.trace.count("ring.orphan_ttl") >= 1


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------
class TestShrinker:
    def test_passing_case_returned_unchanged(self):
        case = generate_case(1, 0)
        shrunk, runs = shrink_case(case)
        assert runs == 1
        assert shrunk.to_dict() == case.to_dict()

    def test_shrinks_to_the_culprit_fault(self, monkeypatch):
        # a synthetic failure that triggers iff the kill(5) fault is present:
        # the shrinker must strip everything else and keep exactly that fault
        class FakeResult:
            def __init__(self, fails):
                self.ok = not fails

            def failure_kinds(self):
                return ["invariant"] if not self.ok else []

        def fake_run(case):
            faults = case.scenario.get("faults") or []
            bad = any(f["kind"] == "kill" and f["station"] == 5
                      for f in faults)
            return FakeResult(bad)

        import repro.fuzz.shrink as shrink_mod
        monkeypatch.setattr(shrink_mod, "run_case", fake_run)

        case = generate_case(1, 0)
        scenario = copy.deepcopy(case.scenario)
        scenario["faults"] = [
            {"kind": "drop_signal", "station": None, "time": 40.0},
            {"kind": "kill", "station": 5, "time": 50.0},
            {"kind": "leave", "station": 2, "time": 60.0},
        ]
        case = FuzzCase(seed=case.seed, index=case.index, scenario=scenario,
                        drive=[{"until": 100.0, "max_events": 500},
                               {"until": scenario["horizon"]}])
        shrunk, runs = shrink_case(case)
        assert shrunk.scenario["faults"] == [
            {"kind": "kill", "station": 5, "time": 50.0}]
        assert shrunk.scenario["traffic"] == {"kind": "none"}
        assert all("max_events" not in chunk for chunk in shrunk.drive)
        assert runs > 1


# ----------------------------------------------------------------------
# bundles + corpus
# ----------------------------------------------------------------------
class TestBundles:
    def test_round_trip(self, tmp_path):
        case = generate_case(1, 0)
        result = run_case(case)
        path = write_bundle(tmp_path / "b.json", case, result, note="test")
        data = load_bundle(path)
        assert data["case"] == case.to_dict()
        assert data["result"]["trace_hash"] == result.trace_hash
        ok, fresh, mismatches = verify_bundle(path)
        assert ok, mismatches
        assert fresh.trace_hash == result.trace_hash

    def test_non_bundle_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError):
            load_bundle(path)


class TestCorpus:
    def test_corpus_is_not_empty(self):
        assert len(CORPUS) >= 4

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_corpus_bundle_replays_byte_identically(self, path):
        ok, result, mismatches = verify_bundle(path)
        assert ok, mismatches
        assert result.ok, [f.to_dict() for f in result.failures]


# ----------------------------------------------------------------------
# campaign smoke (the seeded end-to-end fuzz gate)
# ----------------------------------------------------------------------
class TestCampaign:
    def test_seeded_200_run_smoke_is_clean(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = run_fuzz_campaign(20260806, 200, store,
                                     tmp_path / "bundles",
                                     max_slots=350, shrink=False)
        assert campaign.ok, campaign.failed[:2]
        assert campaign.ran == 200

    def test_campaign_resumes_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_fuzz_campaign(3, 5, store, tmp_path / "b", max_slots=300)
        again = run_fuzz_campaign(3, 5, store, tmp_path / "b", max_slots=300)
        assert first.ran == 5 and first.cached == 0
        assert again.ran == 0 and again.cached == 5
        assert again.ok
