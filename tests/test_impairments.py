"""Tests for the stochastic channel-impairment layer and the protocol
hardening that lets the stack survive a lossy control plane.

Covers the loss model itself (spec validation, Gilbert-Elliott analytics,
noise windows, per-link determinism), the channel/ring integration points,
and the robustness contracts: rings under sustained 1-10% loss never hang
or corrupt state, consecutive SAT losses are attributed to the right
recovery episode, stale/duplicated control signals are discarded, and joins
on a lossy channel terminate (JOINED or GAVE_UP).  See docs/RESILIENCE.md.
"""

import json

import pytest

from repro.config_io import from_dict, to_dict
from repro.core import QuotaConfig, ServiceClass
from repro.core.config import WRTRingConfig
from repro.core.ring import WRTRingNetwork
from repro.events import types as _ev
from repro.faults import FaultSchedule
from repro.phy.impairments import (ChannelImpairments, ImpairmentSpec,
                                   NoiseBurst)
from repro.scenarios import Scenario, TrafficMix, build_scenario, run_scenario
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


def _streams(seed=1):
    return RandomStreams(seed).fork("impairments")


# ----------------------------------------------------------------------
class TestNoiseBurst:
    def test_window_semantics(self):
        burst = NoiseBurst(start=10.0, end=20.0)
        assert not burst.covers(9.9)
        assert burst.covers(10.0)
        assert burst.covers(19.9)
        assert not burst.covers(20.0)   # half-open

    def test_code_band_filter(self):
        burst = NoiseBurst(start=0.0, end=100.0, code=7)
        assert burst.covers(5.0, code=7)
        assert not burst.covers(5.0, code=8)
        assert not burst.covers(5.0, code=None)
        # an unbanded burst hits every code
        assert NoiseBurst(0.0, 100.0).covers(5.0, code=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseBurst(start=10.0, end=10.0)
        with pytest.raises(ValueError):
            NoiseBurst(start=10.0, end=5.0)


class TestImpairmentSpec:
    def test_defaults_are_a_perfect_channel(self):
        spec = ImpairmentSpec()
        assert not spec.enabled
        assert to_dict(spec) == {}

    def test_probability_bounds_validated(self):
        for field in ("loss_prob", "ge_p_gb", "ge_p_bg",
                      "ge_loss_good", "ge_loss_bad"):
            with pytest.raises(ValueError):
                ImpairmentSpec(**{field: 1.5})
            with pytest.raises(ValueError):
                ImpairmentSpec(**{field: -0.1})

    def test_absorbing_bad_state_rejected(self):
        with pytest.raises(ValueError, match="absorbing"):
            ImpairmentSpec(ge_p_gb=0.01, ge_p_bg=0.0)

    def test_enabled_logic(self):
        assert ImpairmentSpec(loss_prob=0.01).enabled
        assert ImpairmentSpec(ge_p_gb=0.01, ge_p_bg=0.2).enabled
        assert ImpairmentSpec(bursts=(NoiseBurst(0, 10),)).enabled
        # a GE chain whose both states are lossless cannot drop anything
        assert not ImpairmentSpec(ge_p_gb=0.01, ge_p_bg=0.2,
                                  ge_loss_bad=0.0).enabled

    def test_dict_round_trip(self):
        spec = ImpairmentSpec(loss_prob=0.02, ge_p_gb=0.005, ge_p_bg=0.3,
                              ge_loss_bad=0.8,
                              bursts=(NoiseBurst(10.0, 60.0, code=3),))
        again = from_dict(ImpairmentSpec, json.loads(json.dumps(to_dict(spec))))
        assert again == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown impairment"):
            from_dict(ImpairmentSpec, {"loss_probability": 0.1}, "impairments")


# ----------------------------------------------------------------------
class TestChannelImpairments:
    def test_deterministic_per_seed(self):
        spec = ImpairmentSpec(loss_prob=0.2, ge_p_gb=0.01, ge_p_bg=0.2)

        def outcomes(seed):
            imp = ChannelImpairments(spec, _streams(seed))
            return [imp.loss(float(t), 0, 1) for t in range(400)]

        assert outcomes(5) == outcomes(5)
        assert outcomes(5) != outcomes(6)

    def test_links_do_not_share_draws(self):
        """Interleaving queries on other links never changes a link's fate."""
        spec = ImpairmentSpec(loss_prob=0.3)
        solo = ChannelImpairments(spec, _streams())
        alone = [solo.loss(float(t), 0, 1) for t in range(200)]

        mixed = ChannelImpairments(spec, _streams())
        interleaved = []
        for t in range(200):
            mixed.loss(float(t), 2, 3)          # noise on another link
            interleaved.append(mixed.loss(float(t), 0, 1))
            mixed.loss(float(t), 1, 0)          # reverse direction differs too
        assert interleaved == alone

    def test_independent_loss_rate(self):
        imp = ChannelImpairments(ImpairmentSpec(loss_prob=0.1), _streams())
        drops = sum(imp.loss(float(t), 0, 1) is not None for t in range(5000))
        assert 400 < drops < 600   # ~10%, seeded so exact per seed

    def test_ge_stationary_loss_rate(self):
        # pi_bad = 0.01 / (0.01 + 0.19) = 5%; loss_bad = 1 -> ~5% loss
        spec = ImpairmentSpec(ge_p_gb=0.01, ge_p_bg=0.19)
        imp = ChannelImpairments(spec, _streams(3))
        drops = sum(imp.loss(float(t), 0, 1) is not None
                    for t in range(10000))
        assert 350 < drops < 650

    def test_ge_losses_are_bursty(self):
        """Same mean rate: the GE process produces longer loss runs than
        the memoryless process."""
        def longest_run(spec, seed):
            imp = ChannelImpairments(spec, _streams(seed))
            longest = run = 0
            for t in range(20000):
                if imp.loss(float(t), 0, 1) is not None:
                    run += 1
                    longest = max(longest, run)
                else:
                    run = 0
            return longest

        bursty = longest_run(ImpairmentSpec(ge_p_gb=0.005, ge_p_bg=0.095), 9)
        memoryless = longest_run(ImpairmentSpec(loss_prob=0.05), 9)
        assert bursty > 2 * memoryless

    def test_ge_sparse_queries_one_draw_each(self):
        """The analytical advance costs one state draw per query no matter
        how many slots were skipped: a link queried every 50 slots sees the
        exact same decision sequence as the RNG replay predicts."""
        spec = ImpairmentSpec(ge_p_gb=0.02, ge_p_bg=0.2)
        a = ChannelImpairments(spec, _streams(4))
        sparse = [a.loss(float(t), 0, 1) for t in range(0, 5000, 50)]
        b = ChannelImpairments(spec, _streams(4))
        again = [b.loss(float(t), 0, 1) for t in range(0, 5000, 50)]
        assert sparse == again
        assert a.queries == len(sparse)

    def test_noise_burst_kills_without_randomness(self):
        spec = ImpairmentSpec(bursts=(NoiseBurst(100.0, 110.0),))
        imp = ChannelImpairments(spec, _streams())
        assert imp.loss(99.0, 0, 1) is None
        for t in range(100, 110):
            assert imp.loss(float(t), 0, 1) == "noise"
        assert imp.loss(110.0, 0, 1) is None
        # no stochastic source -> no link RNG was ever created
        assert not imp._links

    def test_banded_burst_spares_other_codes(self):
        spec = ImpairmentSpec(bursts=(NoiseBurst(0.0, 50.0, code=7),))
        imp = ChannelImpairments(spec, _streams())
        assert imp.loss(5.0, 0, 1, code=7) == "noise"
        assert imp.loss(5.0, 0, 1, code=8) is None

    def test_counters_and_summary(self):
        spec = ImpairmentSpec(loss_prob=0.5,
                              bursts=(NoiseBurst(0.0, 10.0),))
        imp = ChannelImpairments(spec, _streams())
        for t in range(100):
            imp.loss(float(t), 0, 1, kind="sat")
            imp.loss(float(t), 1, 2)
        summary = imp.summary()
        assert summary["queries"] == 200
        assert summary["drops"] == imp.drops > 0
        assert summary["drops_by_reason"]["noise"] == 20
        assert summary["drops_by_reason"]["fade"] > 0
        assert set(summary["drops_by_kind"]) == {"sat", "data"}
        assert summary["worst_links"][0]["drops"] >= \
            summary["worst_links"][-1]["drops"]


# ----------------------------------------------------------------------
class TestChannelIntegration:
    def _channel(self, spec):
        from repro.phy.channel import Frame, SlottedChannel
        from repro.phy.geometry import ring_placement
        from repro.phy.topology import ConnectivityGraph
        graph = ConnectivityGraph(ring_placement(4, radius=10.0), 100.0)
        ch = SlottedChannel(graph)
        ch.impairments = ChannelImpairments(spec, _streams())
        ch.register_listener(1, {5})
        return ch, Frame

    def test_control_frames_filtered(self):
        ch, Frame = self._channel(
            ImpairmentSpec(bursts=(NoiseBurst(0.0, 100.0),)))
        drops = []
        ch.drop_hook = lambda t, fr, rx, reason: drops.append((fr.src, rx, reason))
        ch.transmit(Frame(src=0, code=5, payload="x", kind="control"))
        delivered = ch.force_resolve_slot(1.0)
        assert delivered == {}
        assert drops == [(0, 1, "noise")]
        assert ch.stats.frames_dropped == 1
        assert ch.stats.drops_by_kind == {"control": 1}

    def test_data_frames_exempt(self):
        """validate_phy data frames mirror ring hops the network already
        impairs internally; the channel must not draw for them again."""
        ch, Frame = self._channel(
            ImpairmentSpec(bursts=(NoiseBurst(0.0, 100.0),)))
        ch.transmit(Frame(src=0, code=5, payload="x", kind="data"))
        delivered = ch.force_resolve_slot(1.0)
        assert [f.payload for f in delivered[1]] == ["x"]
        assert ch.stats.frames_dropped == 0

    def test_faded_frame_cannot_collide(self):
        """Two same-code frames, one eaten by noise on its sender's band:
        the survivor is delivered instead of colliding."""
        from repro.phy.channel import Frame, SlottedChannel
        from repro.phy.geometry import ring_placement
        from repro.phy.topology import ConnectivityGraph
        graph = ConnectivityGraph(ring_placement(4, radius=10.0), 100.0)
        ch = SlottedChannel(graph)
        ch.register_listener(1, {5})
        ch.transmit(Frame(src=0, code=5, payload="a", kind="control"))
        ch.transmit(Frame(src=2, code=5, payload="b", kind="control"))
        assert ch.force_resolve_slot(1.0) == {}     # clean channel: collision
        assert ch.stats.collisions == 1

        ch.impairments = ChannelImpairments(
            ImpairmentSpec(loss_prob=1.0), _streams())
        ch.transmit(Frame(src=0, code=5, payload="a", kind="control"))
        ch.transmit(Frame(src=2, code=5, payload="b", kind="control"))
        assert ch.force_resolve_slot(2.0) == {}     # both faded, no collision
        assert ch.stats.collisions == 1
        assert ch.stats.frames_dropped == 2


# ----------------------------------------------------------------------
def _impaired_scenario(loss, seed=11, horizon=3000.0, **kw):
    return Scenario(
        n=6, horizon=horizon, seed=seed, check_invariants=True,
        traffic=TrafficMix(kind="poisson", rate=0.05,
                           service=ServiceClass.PREMIUM),
        impairments=ImpairmentSpec(loss_prob=loss), **kw)


class TestRingUnderSustainedLoss:
    """Satellite contract: a ring under 1-10% frame loss keeps circulating
    the SAT or cleanly reaches cut-out / rebuild / network-down — it never
    hangs with a live ring and no control signal."""

    @pytest.mark.parametrize("loss", [0.01, 0.05, 0.10])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_never_hangs_never_corrupts(self, loss, seed):
        result = run_scenario(_impaired_scenario(loss, seed=seed))
        net, engine = result.network, result.engine
        assert engine.now >= result.scenario.horizon
        summary = result.summary()
        assert summary["invariants_clean"], summary["invariant_violations"]
        assert summary["impairments"]["drops"] > 0
        assert summary["recoveries"] > 0    # loss actually bit the SAT
        if not net.network_down and net.rebuilding_until is None:
            # the ring is alive: the control plane must not be stranded —
            # either the SAT exists (held/flying) or its loss is flagged
            # and the Sec. 2.5 watchdogs are on it
            sat = net.sat
            assert (sat.at_station is not None or sat.in_flight
                    or net._sat_lost)
            if net._sat_lost:
                assert any(timer.running
                           for timer in net.recovery.timers.values())

    def test_full_oracle_battery_is_clean(self):
        """Run impaired cases under the complete fuzz oracle set (strict
        invariants, clock probe, packet conservation, orphan check)."""
        from repro.config_io import scenario_to_dict
        from repro.fuzz.generate import FuzzCase
        from repro.fuzz.runner import run_case

        for loss, seed in [(0.01, 21), (0.05, 22), (0.10, 23)]:
            scenario = scenario_to_dict(_impaired_scenario(loss, seed=seed))
            case = FuzzCase(seed=seed, index=0, scenario=scenario,
                            drive=[{"until": scenario["horizon"]}])
            result = run_case(case)
            assert result.ok, (loss, seed, result.failures)
            assert result.stats["impairment_drops"] > 0

    def test_trace_hash_deterministic(self):
        from repro.fuzz.runner import hash_trace

        def run_once():
            built = build_scenario(_impaired_scenario(0.05))
            built.engine.run(until=built.scenario.horizon)
            return hash_trace(built.trace)

        assert run_once() == run_once()

    def test_clean_channel_builds_no_impairments(self):
        built = build_scenario(Scenario(n=5, horizon=500))
        assert built.network.impairments is None
        built = build_scenario(Scenario(n=5, horizon=500,
                                        impairments=ImpairmentSpec()))
        assert built.network.impairments is None   # all-defaults spec = clean


# ----------------------------------------------------------------------
class TestConsecutiveSatLosses:
    """Regression: a SAT(_REC) lost while a recovery episode is already
    running must be attributed to that episode, not queued as a phantom
    trigger that mis-dates the next one."""

    def _net(self):
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(6), l=2, k=1, rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(6)), cfg)
        net.start()
        return engine, net

    def _run_until(self, engine, predicate, limit):
        while not predicate() and engine.now < limit:
            engine.run(until=engine.now + 1)
        assert predicate(), f"condition not reached by t={limit}"

    def test_back_to_back_losses_single_episode(self):
        engine, net = self._net()
        rec = net.recovery
        engine.run(until=100)
        net.drop_sat()
        assert rec._pending_event == ("sat_loss", None, 100.0)

        self._run_until(engine, lambda: rec.active is not None, 400)
        episode = rec.active
        assert episode.t_event == 100.0
        assert rec._pending_event is None

        # second loss while the SAT_REC episode is running
        t2 = engine.now
        net.drop_sat()
        assert rec.active is episode
        assert episode.extra["extra_losses"] == [t2]
        assert rec._pending_event is None      # no phantom trigger queued

        # everything settles; a later, unrelated loss opens a fresh episode
        # dated at *its* injection time
        self._run_until(engine,
                        lambda: rec.active is None
                        and net.rebuilding_until is None
                        and not net.network_down, 2000)
        engine.run(until=2500)
        count = len(rec.records)
        net.drop_sat()
        assert rec._pending_event == ("sat_loss", None, 2500.0)
        self._run_until(engine, lambda: len(rec.records) > count, 4000)
        assert rec.records[count].t_event == 2500.0

    def test_impairment_sat_rec_loss_attributed_to_active(self):
        """A SAT_REC hop eaten by the channel lands in the running
        episode's extra_losses via the same path."""
        result = run_scenario(_impaired_scenario(0.10, seed=13,
                                                 horizon=2000.0))
        records = result.network.recovery.records
        assert records
        # at 10% loss some episode must have absorbed a follow-on loss
        assert any(r.extra.get("extra_losses") for r in records)


# ----------------------------------------------------------------------
class TestStaleSat:
    def _running_net(self):
        from repro.sim.trace import TraceRecorder
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(5), l=1, k=1, rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(5)), cfg,
                             trace=TraceRecorder())
        net.start()
        engine.run(until=200)
        return engine, net

    def test_replayed_signal_discarded(self):
        engine, net = self._running_net()
        station = net.order[0]
        st = net.stations[station]
        before = (st.rt_pck, st.nrt_pck)
        assert net.inject_stale_sat(station) is True
        # no quota renewal happened and the real SAT keeps circulating
        assert (st.rt_pck, st.nrt_pck) == before
        rec_count = len(net.recovery.records)
        engine.run(until=400)
        assert len(net.recovery.records) == rec_count
        assert not net.network_down
        assert net.trace.count("sat.stale_discarded") == 1

    def test_forged_seq_defeats_guard_and_recovery_catches_it(self):
        engine, net = self._running_net()
        station = net.order[0]
        assert net.inject_stale_sat(station, seq=10**9) is False
        # the next real SAT arriving at the poisoned station is flagged
        # stale, the signal is treated as lost, and Sec. 2.5 repairs it
        engine.run(until=1200)
        assert net.trace.count("sat.stale_discarded") >= 1
        assert net.recovery.records
        if not net.network_down:
            sat = net.sat
            assert sat.at_station is not None or sat.in_flight or net._sat_lost

    def test_seq_monotone_on_clean_channel(self):
        """The legit monotone signal is never flagged stale."""
        engine, net = self._running_net()
        engine.run(until=2000)
        assert net.trace.count("sat.stale_discarded") == 0
        assert net.recovery.records == []

    def test_stale_sat_fault_kind(self):
        schedule = FaultSchedule.builder().stale_sat(at=300.0).build()
        result = run_scenario(Scenario(
            n=6, horizon=1500, check_invariants=True, faults=schedule,
            traffic=TrafficMix(kind="poisson", rate=0.03)))
        summary = result.summary()
        assert summary["faults_applied"] == 1
        assert summary["faults_skipped"] == 0
        assert summary["invariants_clean"]
        assert result.network.trace.count("sat.stale_discarded") == 1

    def test_injection_rejected_when_down(self):
        engine, net = self._running_net()
        with pytest.raises(KeyError):
            net.inject_stale_sat(99)


# ----------------------------------------------------------------------
class TestJoinUnderLoss:
    def _net(self, spec, seed):
        """Six-station circle ring with station 100 placed between stations
        2 and 3 (in radio range of both), handshake over a lossy channel."""
        import math
        import random as _random

        import numpy as np

        from repro.phy.channel import SlottedChannel
        from repro.phy.geometry import ring_placement
        from repro.phy.topology import ConnectivityGraph
        n, radius = 6, 10.0
        pos = ring_placement(n, radius=radius)
        pos = np.vstack([pos, ((pos[2] + pos[3]) / 2).reshape(1, 2)])
        radio_range = 2 * radius * math.sin(math.pi / n) * 1.4
        graph = ConnectivityGraph(pos, radio_range,
                                  node_ids=list(range(n)) + [100])
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(n), l=1, k=1,
                                        rap_enabled=True,
                                        t_ear=6, t_update=3)
        channel = SlottedChannel(graph)
        impairments = (ChannelImpairments(spec, RandomStreams(seed)
                                          .fork("impairments"))
                       if spec is not None else None)
        net = WRTRingNetwork(engine, list(range(n)), cfg, graph=graph,
                             channel=channel, impairments=impairments)
        return engine, net, _random.Random(seed)

    def test_requester_terminates_on_lossy_channel(self):
        from repro.core.join import JoinOutcome, JoinRequester
        terminal = {JoinOutcome.JOINED, JoinOutcome.GAVE_UP,
                    JoinOutcome.REJECTED, JoinOutcome.LISTENING,
                    JoinOutcome.REQUEST_SENT, JoinOutcome.ACCEPTED}
        outcomes = set()
        for seed in range(6):
            engine, net, rng = self._net(ImpairmentSpec(loss_prob=0.05),
                                         seed)
            req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                                rng=rng, max_attempts=4, retry_jitter=2)
            net.start()
            engine.run(until=8000)
            assert req.state in terminal
            assert req.attempts <= 4
            # (JOINED does not imply membership at the horizon: a later
            # impairment-triggered recovery may have cut the newcomer out
            # again — the Sec. 2.5 false-positive semantics)
            outcomes.add(req.state)
        # across seeds the lossy handshake must actually succeed sometimes
        assert JoinOutcome.JOINED in outcomes

    def test_gave_up_after_capped_attempts(self):
        from repro.core.join import JoinOutcome, JoinRequester
        gave_up = 0
        for seed in range(8):
            # 45%: lossy enough that attempts fail, not so lossy that the
            # ring churns before the requester ever hears two NEXT_FREEs
            engine, net, rng = self._net(ImpairmentSpec(loss_prob=0.45),
                                         seed)
            req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                                rng=rng, max_attempts=2)
            net.start()
            engine.run(until=10000)
            assert req.attempts <= 2
            if req.state is JoinOutcome.GAVE_UP:
                gave_up += 1
                assert 100 not in net._pos
        # at 45% loss a two-attempt cap must trip for some seed
        assert gave_up > 0

    def test_clean_channel_join_unchanged(self):
        """The hardening knobs are inert on a lossless channel: the first
        eligible attempt succeeds, as in the paper's Sec. 2.4.1 walkthrough."""
        from repro.core.join import JoinOutcome, JoinRequester
        engine, net, rng = self._net(None, 1)
        req = JoinRequester(net, 100, QuotaConfig.two_class(1, 1),
                            rng=rng, max_attempts=5, retry_jitter=2)
        net.start()
        engine.run(until=4000)
        assert req.state is JoinOutcome.JOINED
        assert req.attempts == 1
        assert 100 in net._pos


# ----------------------------------------------------------------------
class TestFaultSkippedEvent:
    def test_skipped_fault_emits_event_and_counts(self):
        schedule = FaultSchedule.builder().kill(99, at=50.0).build()
        built = build_scenario(Scenario(n=5, horizon=500, faults=schedule))
        seen = []
        built.network.events.subscribe(_ev.FaultSkipped,
                                       lambda ev: seen.append(ev))
        built.engine.run(until=500)
        assert len(seen) == 1
        assert seen[0].kind == "kill" and seen[0].station == 99
        summary = built.summary()
        assert summary["faults_applied"] == 0
        assert summary["faults_skipped"] == 1

    def test_simulate_json_carries_counts(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "--n", "5", "--horizon", "800",
                   "--kill", "99:50", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults_applied"] == 0
        assert payload["faults_skipped"] == 1


# ----------------------------------------------------------------------
class TestConfigAndCli:
    def test_scenario_dict_round_trip(self):
        from repro.config_io import scenario_from_dict, scenario_to_dict
        scenario = _impaired_scenario(0.03)
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        again = scenario_from_dict(data)
        assert again.impairments == scenario.impairments
        assert scenario_to_dict(again) == scenario_to_dict(scenario)

    def test_clean_scenario_dict_has_no_impairments_key(self):
        from repro.config_io import scenario_to_dict
        assert "impairments" not in scenario_to_dict(Scenario(n=5))

    def test_simulate_loss_flags(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "--n", "6", "--horizon", "2000",
                   "--loss-prob", "0.02", "--check-invariants", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["impairments"]["drops"] > 0
        assert payload["invariants_clean"]

    def test_simulate_ge_and_burst_flags(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "--n", "6", "--horizon", "2000",
                   "--ge", "0.005:0.2:0.9", "--noise-burst", "500:520",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["impairments"]["drops"] > 0
        assert "noise" in payload["impairments"]["drops_by_reason"]

    def test_bad_flag_shapes_rejected(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["simulate", "--ge", "0.5"])
        with pytest.raises(SystemExit):
            main(["simulate", "--noise-burst", "100"])
        with pytest.raises(SystemExit):
            main(["simulate", "--loss-prob", "1.5"])

    def test_metrics_snapshot_counts_impairments(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "--n", "6", "--horizon", "2000",
                   "--loss-prob", "0.05", "--metrics", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        # every impaired SAT hop is a labeled sat.hop_lost increment
        assert sum(metrics["sat.hop_lost"].values()) \
            == payload["impairments"]["drops_by_kind"]["sat"]

    def test_sweep_axis_over_loss_prob(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["sweep", "--axis", "impairments.loss_prob=0.0,0.05",
                   "--n", "5", "--horizon", "800", "--workers", "0",
                   "--store", str(tmp_path / "store"), "--json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        clean = [r for r in records
                 if r["scenario"].get("impairments", {}).get("loss_prob") == 0.0]
        lossy = [r for r in records
                 if r["scenario"].get("impairments", {}).get("loss_prob") == 0.05]
        assert "impairments" not in clean[0]["summary"]
        assert lossy[0]["summary"]["impairments"]["drops"] > 0


# ----------------------------------------------------------------------
class TestCampaignDeterminism:
    def test_sweep_serial_parallel_and_resume_agree(self, tmp_path):
        from repro.campaign import CampaignRunner, ResultStore, Sweep
        base = _impaired_scenario(0.05, horizon=800.0)
        sweep = Sweep(base=base, axes={"n": [5, 6]}, name="det")

        def summaries(workers, store_dir):
            store = ResultStore(str(tmp_path / store_dir))
            result = CampaignRunner(sweep, store, workers=workers,
                                    progress=lambda *a, **k: None).run()
            assert result.ok
            return [r["summary"] for r in result.records]

        serial = summaries(0, "serial")
        parallel = summaries(2, "parallel")
        resumed = summaries(0, "serial")    # second pass: all cache hits
        assert serial == parallel == resumed

    def test_chaos_fuzz_campaign_replays_identically(self, tmp_path):
        from repro.campaign.store import ResultStore
        from repro.fuzz import run_fuzz_campaign

        def hashes(store_dir):
            store = ResultStore(str(tmp_path / store_dir))
            campaign = run_fuzz_campaign(
                master_seed=77, runs=6, store=store,
                out_dir=tmp_path / store_dir / "bundles",
                max_slots=600, chaos=True)
            assert campaign.ok, campaign.failed
            return [r["trace_hash"] for r in campaign.records]

        assert hashes("a") == hashes("b")

    def test_chaos_cases_always_impaired(self):
        from repro.fuzz.generate import generate_case
        for index in range(10):
            case = generate_case(123, index, max_slots=600, chaos=True)
            assert case.scenario.get("impairments")


# ----------------------------------------------------------------------
class TestObsIntegration:
    def _observed(self, scenario):
        from repro.obs import MetricsRegistry, attach_network_metrics
        built = build_scenario(scenario)
        registry = MetricsRegistry()
        sub = attach_network_metrics(built.network, registry)
        built.engine.run(until=scenario.horizon)
        sub.flush()
        return built, registry.snapshot()

    def test_subscriber_counts_sat_hop_losses(self):
        built, snap = self._observed(_impaired_scenario(0.05,
                                                        horizon=2000.0))
        summary = built.network.impairments.summary()
        assert sum(snap["sat.hop_lost"].values()) \
            == summary["drops_by_kind"]["sat"]
        # dataplane impairment losses surface through the packet-loss
        # accounting (ring.lost), not as channel frame drops
        assert "phy.drops" not in snap
        assert snap["ring.lost"][""] > 0

    def test_channel_frame_drops_counted(self):
        built, snap = self._observed(Scenario(
            n=6, rap_enabled=True, use_channel=True, horizon=2000.0,
            seed=7, impairments=ImpairmentSpec(loss_prob=0.2)))
        stats = built.network.channel.stats
        assert stats.frames_dropped > 0
        assert sum(snap["phy.drops"].values()) == stats.frames_dropped
        assert sum(snap["phy.link_drops"].values()) == stats.frames_dropped
        assert any("reason=fade" in label for label in snap["phy.drops"])

    def test_channel_stats_mirrored(self):
        schedule = FaultSchedule.builder().join(100, at=60.0).build()
        built, snap = self._observed(Scenario(
            n=5, rap_enabled=True, use_channel=True, horizon=1500.0,
            faults=schedule))
        stats = built.network.channel.stats
        assert snap["phy.frames_sent"][""] == stats.frames_sent > 0
        assert sum(snap["phy.frames_delivered"].values()) \
            == stats.frames_delivered

    def test_channel_less_snapshot_unchanged(self):
        built, snap = self._observed(Scenario(n=5, horizon=800.0))
        assert not any(name.startswith("phy.") for name in snap)
