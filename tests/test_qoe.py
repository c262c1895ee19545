"""QoE subsystem: E-model scoring, call lifecycle, and capacity search."""

import json

import pytest

from repro.config_io import from_dict, to_dict
from repro.events import EventBus
from repro.events.types import PacketLost, SlotDeliver
from repro.faults import FaultEvent, FaultSchedule
from repro.qoe.capacity import (CAPACITY_SPEC, measure_fraction,
                                voice_capacity)
from repro.qoe.score import (PerceptualScorer, burst_ratio,
                             e_model_r, loss_runs, mos_from_r, score_outcomes)
from repro.qoe.sessions import RAP_CALLER_BASE, CallsSpec
from repro.scenarios import MobilitySpec, Scenario, TrafficMix, run_scenario
from repro.traffic.flows import FlowSpec
from repro.core.packet import ServiceClass


# ----------------------------------------------------------------------
# the pure E-model pipeline
# ----------------------------------------------------------------------
class TestEModelMath:
    def test_loss_runs(self):
        assert loss_runs([]) == []
        assert loss_runs([True, True, True]) == []
        assert loss_runs([True, False, False, True, False]) == [2, 1]
        assert loss_runs([False, False]) == [2]

    def test_burst_ratio_no_loss(self):
        assert burst_ratio([]) == 1.0
        assert burst_ratio([True] * 10) == 1.0

    def test_burst_ratio_all_lost(self):
        assert burst_ratio([False] * 7) == 7.0

    def test_burst_ratio_clustered_exceeds_spread(self):
        spread = ([True] * 4 + [False]) * 4          # 4 isolated losses
        clustered = [True] * 16 + [False] * 4        # one burst of 4
        assert burst_ratio(clustered) > burst_ratio(spread)
        # sparse independent loss clamps at 1: never *rewards* loss
        assert burst_ratio(spread) >= 1.0

    def test_r_factor_clean_line(self):
        assert e_model_r(0.0) == pytest.approx(93.2)

    def test_r_factor_monotone_in_loss(self):
        rs = [e_model_r(pct) for pct in (0.0, 1.0, 5.0, 20.0)]
        assert rs == sorted(rs, reverse=True)

    def test_r_factor_delay_knee(self):
        # below the 177.3 ms knee only the linear term applies
        assert e_model_r(0.0, delay_ms=100.0) == pytest.approx(93.2 - 2.4)
        # above it the second slope kicks in
        above = e_model_r(0.0, delay_ms=200.0)
        assert above == pytest.approx(93.2 - 0.024 * 200
                                      - 0.11 * (200 - 177.3))

    def test_r_factor_validation(self):
        with pytest.raises(ValueError):
            e_model_r(-1.0)
        with pytest.raises(ValueError):
            e_model_r(5.0, burst_r=0.0)

    def test_mos_mapping(self):
        assert mos_from_r(-5.0) == 1.0
        assert mos_from_r(0.0) == 1.0
        assert mos_from_r(100.0) == 4.5
        assert mos_from_r(93.2) == pytest.approx(4.409, abs=1e-3)
        assert mos_from_r(70.0) < mos_from_r(80.0) < mos_from_r(90.0)

    def test_score_outcomes(self):
        loss_pct, r, mos = score_outcomes([True] * 9 + [False])
        assert loss_pct == pytest.approx(10.0)
        assert r < 93.2 and 1.0 <= mos <= 4.5
        assert score_outcomes([])[0] == 0.0


# ----------------------------------------------------------------------
# the streaming scorer (driven through a real bus)
# ----------------------------------------------------------------------
def _scorer_rig():
    bus = EventBus()
    scorer = PerceptualScorer().attach(bus)
    deliver = bus.emitter(SlotDeliver)
    lose = bus.emitter(PacketLost)
    return scorer, deliver, lose


class TestPerceptualScorer:
    def test_classification_and_censoring(self):
        scorer, deliver, lose = _scorer_rig()
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM,
                        deadline=50.0)
        scorer.register_flow(flow.flow_id)
        pkts = [flow.make_packet(t) for t in (0.0, 10.0, 20.0, 30.0, 40.0)]
        deliver(20.0, 1, pkts[0])            # on time (deadline 50)
        deliver(70.0, 1, pkts[1])            # late (deadline 60)
        pkts[1].t_deliver = 70.0
        lose(75.0, pkts[2], "kill", 0, 1)    # destroyed
        # pkts[3] unresolved, deadline 80 < now  -> lost
        # pkts[4] unresolved, deadline 90 >= now -> censored
        score = scorer.finalize_flow(flow.flow_id, pkts, now=85.0)
        assert (score.sent, score.delivered, score.late,
                score.lost, score.censored) == (4, 1, 1, 2, 1)
        assert score.loss_pct == pytest.approx(75.0)
        assert score.mos < 3.5

    def test_unresolved_without_clock_is_censored(self):
        scorer, _deliver, _lose = _scorer_rig()
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM,
                        deadline=50.0)
        scorer.register_flow(flow.flow_id)
        pkts = [flow.make_packet(t) for t in (0.0, 10.0)]
        score = scorer.finalize_flow(flow.flow_id, pkts)
        assert score.sent == 0 and score.censored == 2
        assert score.loss_pct == 0.0

    def test_finalize_is_idempotent(self):
        scorer, deliver, _lose = _scorer_rig()
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM,
                        deadline=50.0)
        scorer.register_flow(flow.flow_id)
        pkt = flow.make_packet(0.0)
        deliver(5.0, 1, pkt)
        first = scorer.finalize_flow(flow.flow_id, [pkt], now=100.0)
        assert scorer.finalize_flow(flow.flow_id, [pkt], now=100.0) is first

    def test_unregistered_flow_raises(self):
        scorer, _deliver, _lose = _scorer_rig()
        with pytest.raises(KeyError):
            scorer.finalize_flow(12345, [])

    def test_mean_delay_counts_ontime_only(self):
        scorer, deliver, _lose = _scorer_rig()
        flow = FlowSpec(src=0, dst=1, service=ServiceClass.PREMIUM,
                        deadline=50.0)
        scorer.register_flow(flow.flow_id)
        pkts = [flow.make_packet(t) for t in (0.0, 10.0)]
        deliver(30.0, 1, pkts[0])     # delay 30, on time
        deliver(90.0, 1, pkts[1])     # late — excluded from mean delay
        pkts[1].t_deliver = 90.0
        score = scorer.finalize_flow(flow.flow_id, pkts, now=100.0)
        assert score.mean_delay_slots == pytest.approx(30.0)


# ----------------------------------------------------------------------
# CallsSpec serialization and validation
# ----------------------------------------------------------------------
class TestCallsSpec:
    def test_to_dict_is_minimal(self):
        assert to_dict(CallsSpec(count=5)) == {"count": 5}

    def test_round_trip(self):
        spec = CallsSpec(count=12, arrival_rate=0.02, deadline=300.0,
                         video_fraction=0.25, admission=False,
                         join_via_rap=True)
        assert from_dict(CallsSpec, to_dict(spec)) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown calls keys"):
            from_dict(CallsSpec, {"count": 3, "frobnicate": 1}, "calls")

    def test_validation(self):
        with pytest.raises(ValueError):
            CallsSpec(count=0)
        with pytest.raises(ValueError):
            CallsSpec(service="carrier_pigeon")
        with pytest.raises(ValueError):
            CallsSpec(video_fraction=1.5)
        with pytest.raises(ValueError):
            CallsSpec(deadline=0.0)

    def test_derived_rates(self):
        spec = CallsSpec(packet_period=20.0, mean_talkspurt=350.0,
                         mean_silence=650.0)
        assert spec.peak_rate == pytest.approx(0.05)
        assert spec.mean_rate == pytest.approx(0.05 * 0.35)


# ----------------------------------------------------------------------
# call lifecycle over a live ring
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_calls_admitted_and_scored(self):
        scn = Scenario(n=8, traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=6, arrival_rate=0.01,
                                       mean_holding=600.0),
                       horizon=4000.0, seed=3)
        result = run_scenario(scn)
        summary = result.summary()["calls"]
        assert summary["offered"] == 6
        assert summary["admitted"] + summary["refused"] == 6
        assert summary["admitted"] >= 1
        scored = [c for c in summary["calls"] if "mos" in c]
        assert scored, "no call carried traffic"
        for call in scored:
            assert 1.0 <= call["mos"] <= 4.5
            assert call["directions"]

    def test_summary_is_deterministic(self):
        scn = Scenario(n=8, traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=4, arrival_rate=0.01,
                                       mean_holding=500.0),
                       horizon=3000.0, seed=9)
        a = json.dumps(run_scenario(scn).summary(), sort_keys=True)
        b = json.dumps(run_scenario(scn).summary(), sort_keys=True)
        assert a == b

    def test_cac_refuses_unachievable_deadline(self):
        # a 150-slot budget can never be met on a big slow ring, so the
        # Theorem-3 gate refuses every call before any source exists
        scn = Scenario(n=40, l=1, k=1, traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=3, arrival_rate=0.01,
                                       deadline=60.0),
                       horizon=2000.0, seed=5)
        result = run_scenario(scn)
        for call in result.sessions.calls:
            assert call.state == "refused"
            assert call.refusal_reason == "deadline_unachievable"
            assert not call.sources
            assert call.flows          # ids exist for the silence oracle

    def test_kill_cuts_active_calls(self):
        scn = Scenario(n=6, traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=8, arrival_rate=0.05,
                                       mean_holding=5000.0),
                       faults=FaultSchedule([
                           FaultEvent(time=1000.0, kind="kill", station=1),
                           FaultEvent(time=1200.0, kind="kill", station=4)]),
                       horizon=3000.0, seed=2)
        result = run_scenario(scn)
        counts = result.sessions.counts()
        assert counts["cut"] >= 1
        cut = [c for c in result.sessions.calls if c.state == "cut"]
        for call in cut:
            assert call.cut_station in (1, 4, -1)
            for src in call.sources:
                assert src.stop is not None and src.stop <= 1200.0

    def test_rap_joined_callers_enter_ring(self):
        scn = Scenario(n=6, rap_enabled=True, use_channel=True,
                       traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=3, arrival_rate=0.005,
                                       mean_holding=1500.0,
                                       join_via_rap=True),
                       horizon=6000.0, seed=4)
        result = run_scenario(scn)
        counts = result.sessions.counts()
        assert counts["active"] + counts["ended"] >= 1
        assert result.network.join_manager.joins_completed >= 1
        # a caller may only still be a member while its call is active
        active_srcs = {c.src for c in result.sessions.calls
                       if c.state == "active"}
        for sid in result.network.members:
            if sid >= RAP_CALLER_BASE:
                assert sid in active_srcs, \
                    f"caller {sid} lingers on the ring after its call"

    def test_rap_callers_leave_after_call(self):
        # regression: completed callers used to stay on the ring forever,
        # growing it by one station per call (and skewing every rotation
        # bound computed from the membership)
        scn = Scenario(n=6, rap_enabled=True, use_channel=True,
                       traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=3, arrival_rate=0.01,
                                       mean_holding=400.0,
                                       join_via_rap=True),
                       horizon=8000.0, seed=4)
        result = run_scenario(scn)
        counts = result.sessions.counts()
        assert counts["ended"] >= 1, "no call completed; test is vacuous"
        assert counts["active"] == 0
        assert result.network.join_manager.joins_completed >= 1
        # every joined caller announced a graceful leave after teardown:
        # the ring is back to its pre-call membership
        assert sorted(result.network.members) == list(range(6))

    def test_join_via_rap_requires_channel_and_rap(self):
        base = dict(n=6, traffic=TrafficMix(kind="none"),
                    calls=CallsSpec(count=2, join_via_rap=True),
                    horizon=500.0, seed=1)
        with pytest.raises(ValueError, match="use_channel"):
            run_scenario(Scenario(rap_enabled=True, **base))
        with pytest.raises(ValueError, match="rap_enabled"):
            run_scenario(Scenario(use_channel=True, **base))

    def test_video_sessions(self):
        scn = Scenario(n=8, traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=4, arrival_rate=0.01,
                                       mean_holding=800.0, admission=False,
                                       video_fraction=1.0, deadline=400.0),
                       horizon=4000.0, seed=6)
        result = run_scenario(scn)
        kinds = {c.kind for c in result.sessions.calls}
        assert kinds == {"video"}
        active = [c for c in result.sessions.calls
                  if c.state in ("active", "ended")]
        assert active
        for call in active:
            assert len(call.flows) == 1     # video is unidirectional


# ----------------------------------------------------------------------
# roaming caller: a call rides out ring re-formations
# ----------------------------------------------------------------------
class TestRoamingCaller:
    def test_voice_call_survives_ring_rebuilds(self):
        """A voice call whose endpoints survive two full ring re-formations
        (adjacent double-kills mid-call, wandering stations throughout) must
        stay active — `_on_rebuild_done` only cuts calls that lost an
        endpoint — and the horizon-clipped tail packet must be censored,
        not scored as lost.  Previously this regime was exercised only by
        fuzzing (see docs/QOE.md)."""
        # adjacent double-kills defeat the single-station SAT_REC cut-out
        # and force the Sec. 2.5 re-formation; range_margin=5 keeps the
        # survivor ring radio-feasible after each gap opens up
        faults = FaultSchedule([
            FaultEvent(time=1500.0, kind="kill", station=3),
            FaultEvent(time=1500.0, kind="kill", station=4),
            FaultEvent(time=3200.0, kind="kill", station=6),
            FaultEvent(time=3200.0, kind="kill", station=7),
        ])
        # seed 7 pins the call to 0 <-> 9 (disjoint from every kill) and
        # the 5989.0 horizon lands one slot after the call's last packet
        # enqueue, clipping it mid-flight with its deadline still open
        scn = Scenario(n=10, range_margin=5.0,
                       traffic=TrafficMix(kind="none"),
                       mobility=MobilitySpec(wander_radius=3.0),
                       calls=CallsSpec(count=1, arrival_rate=0.05,
                                       mean_holding=30000.0),
                       faults=faults, horizon=5989.0, seed=7)
        result = run_scenario(scn)
        net = result.network
        call = result.sessions.calls[0]
        assert (call.src, call.dst) == (0, 9)

        # both re-formations happened and the endpoints rode them out
        assert net.recovery.ring_rebuilds == 2
        assert not net.network_down
        for killed in (3, 4, 6, 7):
            assert killed not in net.order
        assert call.src in net.order and call.dst in net.order
        assert call.state == "active"
        assert call.cut_station is None

        # censoring semantics: the clipped tail packet is excluded from
        # the score instead of counted against the loss rate
        result.sessions.finalize()
        fwd, rev = call.scores
        assert fwd.censored == 1
        assert rev.censored == 0
        for score in (fwd, rev):
            assert score.sent == score.delivered + score.late + score.lost
        assert call.mos is not None and 1.0 <= call.mos <= 4.5


# ----------------------------------------------------------------------
# capacity search
# ----------------------------------------------------------------------
class TestCapacity:
    def test_single_call_is_acceptable(self):
        frac = measure_fraction("wrt", calls=1, stations=8, horizon=1500.0,
                                seed=1)
        assert frac == 1.0

    def test_search_self_consistent(self):
        res = voice_capacity("wrt", stations=8, horizon=1500.0, seed=1,
                             max_calls=4)
        assert res.capacity >= 1
        assert res.probes[res.capacity] >= res.target
        above = [m for m in res.probes if m > res.capacity]
        if above:
            assert res.probes[min(above)] < res.target

    def test_baseline_probe_runs(self):
        frac = measure_fraction("csma", calls=1, stations=6, horizon=1200.0,
                                seed=1)
        assert 0.0 <= frac <= 1.0

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            measure_fraction("aloha", calls=1)

    def test_capacity_spec_pins_steady_load(self):
        # the probe spec must hold calls up for the whole run (capacity is
        # a steady-state measurement, not churn) and skip CAC
        assert CAPACITY_SPEC.mean_holding >= 1e5
        assert not CAPACITY_SPEC.admission
