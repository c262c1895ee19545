"""Tests for the declarative scenario runner."""

import pytest

from repro.core import QuotaConfig, ServiceClass
from repro.faults import FaultSchedule
from repro.scenarios import (MobilitySpec, Scenario, ScenarioResult,
                             TrafficMix, run_scenario)


class TestValidation:
    def test_traffic_kind_validated(self):
        with pytest.raises(ValueError):
            TrafficMix(kind="carrier-pigeon")

    def test_scenario_validated(self):
        with pytest.raises(ValueError):
            Scenario(n=1)
        with pytest.raises(ValueError):
            Scenario(placement="moon")
        with pytest.raises(ValueError):
            Scenario(horizon=0)
        # a run to a NaN or infinite horizon never returns
        for horizon in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Scenario(horizon=horizon)
        with pytest.raises(ValueError):
            Scenario(range_margin=0.9)


class TestStaticScenarios:
    def test_basic_run_and_summary(self):
        result = run_scenario(Scenario(
            n=6, horizon=2000,
            traffic=TrafficMix(kind="poisson", rate=0.05)))
        summary = result.summary()
        assert summary["delivered"] > 0
        assert summary["bound_holds"]
        assert not summary["network_down"]
        assert summary["recoveries"] == 0

    def test_reproducible_across_runs(self):
        scn = Scenario(n=6, horizon=1500, seed=7,
                       traffic=TrafficMix(kind="poisson", rate=0.08))
        a = run_scenario(scn).summary()
        b = run_scenario(scn).summary()
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(n=6, horizon=1500,
                    traffic=TrafficMix(kind="poisson", rate=0.08))
        a = run_scenario(Scenario(seed=1, **base)).summary()
        b = run_scenario(Scenario(seed=2, **base)).summary()
        assert a["delivered"] != b["delivered"]

    def test_traffic_kinds(self):
        for kind in ("cbr", "video", "backlog", "none"):
            result = run_scenario(Scenario(
                n=5, horizon=1000,
                traffic=TrafficMix(kind=kind, period=25.0,
                                   service=ServiceClass.PREMIUM)))
            summary = result.summary()
            if kind == "none":
                assert summary["delivered"] == 0
            else:
                assert summary["delivered"] > 0

    def test_onoff_traffic_kind(self):
        result = run_scenario(Scenario(
            n=5, horizon=4000,
            traffic=TrafficMix(kind="onoff", peak_rate=0.05,
                               mean_on=200.0, mean_off=300.0)))
        assert result.summary()["delivered"] > 0
        # one unidirectional on/off source per station
        assert len(result.workload.sources) == 5

    def test_voice_traffic_kind_is_bidirectional(self):
        result = run_scenario(Scenario(
            n=5, horizon=4000,
            traffic=TrafficMix(kind="voice", peak_rate=0.05,
                               service=ServiceClass.PREMIUM,
                               deadline=200.0)))
        assert result.summary()["delivered"] > 0
        # each station's call gets a forward and a reverse leg
        assert len(result.workload.sources) == 10
        pairs = {(s.flow.src, s.flow.dst) for s in result.workload.sources}
        for src, dst in list(pairs):
            assert (dst, src) in pairs

    def test_onoff_kind_validation(self):
        with pytest.raises(ValueError):
            TrafficMix(kind="onoff", peak_rate=0.0)
        with pytest.raises(ValueError):
            TrafficMix(kind="voice", mean_on=-1.0)

    def test_custom_quotas(self):
        quotas = {sid: QuotaConfig.two_class(sid % 2 + 1, 1)
                  for sid in range(5)}
        result = run_scenario(Scenario(n=5, quotas=quotas, horizon=800))
        net = result.network
        assert net.stations[1].quota.l == 2
        assert net.stations[2].quota.l == 1

    def test_uniform_placement_dense(self):
        result = run_scenario(Scenario(
            n=8, placement="uniform", range_margin=3.0, horizon=800,
            traffic=TrafficMix(kind="poisson", rate=0.02)))
        assert not result.network.network_down

    def test_invariants_checked_when_requested(self):
        result = run_scenario(Scenario(n=5, horizon=800,
                                       check_invariants=True))
        assert result.checker is not None
        assert result.summary()["invariants_clean"]

    def test_faults_integrated(self):
        faults = FaultSchedule.builder().kill(2, at=300).build()
        result = run_scenario(Scenario(n=6, horizon=3000, faults=faults,
                                       check_invariants=True))
        summary = result.summary()
        assert 2 not in summary["members"]
        assert summary["recoveries"] == 1
        assert summary["invariants_clean"]

    def test_rap_enabled_scenario(self):
        result = run_scenario(Scenario(n=6, rap_enabled=True, horizon=2000))
        assert result.network.join_manager.raps_opened > 0

    def test_validate_phy_zero_collisions(self):
        """Every data hop through the CDMA channel model: no collisions —
        the paper's 'CDMA avoids collisions' claim on the live dataplane."""
        result = run_scenario(Scenario(
            n=6, horizon=1500, validate_phy=True,
            traffic=TrafficMix(kind="backlog",
                               service=ServiceClass.PREMIUM)))
        assert result.network.channel.stats.collisions == 0
        assert result.network.channel.stats.frames_sent > 1000
        assert result.summary()["delivered"] > 500


class TestMobilityScenarios:
    def test_static_when_no_mobility(self):
        result = run_scenario(Scenario(n=6, horizon=500))
        import numpy as np
        assert np.allclose(result.mobility.positions,
                           result.mobility.positions)
        assert result.network.config.enforce_radio_links is False

    def test_small_wander_survives(self):
        """Wander well inside the range margin: no recoveries at all."""
        result = run_scenario(Scenario(
            n=8, range_margin=2.5,
            mobility=MobilitySpec(wander_radius=1.0, speed=0.2),
            traffic=TrafficMix(kind="poisson", rate=0.03),
            horizon=5000, seed=3))
        summary = result.summary()
        assert not summary["network_down"]
        assert summary["recoveries"] == 0
        assert summary["delivered"] > 0

    def test_large_wander_triggers_recoveries(self):
        result = run_scenario(Scenario(
            n=8, range_margin=1.4,
            mobility=MobilitySpec(wander_radius=12.0, speed=1.5),
            traffic=TrafficMix(kind="poisson", rate=0.03),
            horizon=6000, seed=4))
        summary = result.summary()
        assert summary["recoveries"] > 0

    def test_mobility_enables_link_enforcement(self):
        result = run_scenario(Scenario(
            n=6, mobility=MobilitySpec(wander_radius=2.0), horizon=300))
        assert result.network.config.enforce_radio_links is True
