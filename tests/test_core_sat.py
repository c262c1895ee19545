"""Unit tests for the SAT signal object and the rotation log."""

import pytest

from repro.core import SAT, RotationLog
from repro.core.ring import NetworkMetrics
from repro.core.config import WRTRingConfig
from repro.core.packet import ServiceClass


class TestSAT:
    def test_departure_and_arrival(self):
        sat = SAT()
        sat.at_station = 0
        sat.depart(1, arrival_time=5.0)
        assert sat.in_flight and sat.at_station is None
        assert sat.in_flight_to == 1 and sat.arrival_time == 5.0
        arrived_at = sat.arrive()
        assert arrived_at == 1
        assert sat.at_station == 1 and not sat.in_flight
        assert sat.hops == 1

    def test_double_depart_rejected(self):
        sat = SAT()
        sat.at_station = 0
        sat.depart(1, 5.0)
        with pytest.raises(RuntimeError):
            sat.depart(2, 6.0)

    def test_arrive_without_flight_rejected(self):
        with pytest.raises(RuntimeError):
            SAT().arrive()

    def test_recovery_transitions(self):
        sat = SAT()
        sat.to_recovery(failed_station=3, originator=4)
        assert sat.kind == SAT.RECOVERY
        assert sat.failed_station == 3 and sat.originator == 4
        sat.to_normal()
        assert sat.kind == SAT.NORMAL
        assert sat.failed_station is None and sat.originator is None

    def test_rap_fields_default_clear(self):
        sat = SAT()
        assert not sat.rap_mutex and sat.rap_owner is None


class TestRotationLog:
    def test_per_station_samples(self):
        log = RotationLog()
        log.add(0, 5.0)
        log.add(0, 6.0)
        log.add(1, 7.0)
        assert log.samples(0) == [5.0, 6.0]
        assert log.samples(1) == [7.0]
        assert log.samples(9) == []
        assert log.stations() == [0, 1]
        assert sorted(log.all_samples()) == [5.0, 6.0, 7.0]
        assert log.worst() == 7.0
        assert log.mean() == 6.0

    def test_nonpositive_rotation_rejected(self):
        log = RotationLog()
        with pytest.raises(ValueError):
            log.add(0, 0.0)
        with pytest.raises(ValueError):
            log.add(0, -1.0)

    def test_empty_worst_raises(self):
        with pytest.raises(ValueError):
            RotationLog().worst()
        with pytest.raises(ValueError):
            RotationLog().mean()

    def test_hops_per_round_marks(self):
        log = RotationLog()
        log.mark_round(6)     # warm-up mark
        log.mark_round(12)
        log.mark_round(18)
        assert log.hops_per_round() == [6, 6, 6]

    def test_samples_are_copies(self):
        log = RotationLog()
        log.add(0, 5.0)
        log.samples(0).append(99.0)
        assert log.samples(0) == [5.0]


class TestNetworkMetrics:
    def test_network_metrics_totals(self):
        m = NetworkMetrics()
        m.delivered[ServiceClass.PREMIUM] = 3
        m.delivered[ServiceClass.BEST_EFFORT] = 4
        assert m.total_delivered == 7


class TestConfigValidation:
    def test_t_rap_sum(self):
        cfg = WRTRingConfig.homogeneous(range(3), l=1, k=1, t_ear=5,
                                        t_update=2)
        assert cfg.t_rap == 7
        assert cfg.effective_t_rap() == 7
        cfg2 = WRTRingConfig.homogeneous(range(3), l=1, k=1,
                                         rap_enabled=False)
        assert cfg2.effective_t_rap() == 0

    def test_bounds_on_fields(self):
        with pytest.raises(ValueError):
            WRTRingConfig(t_ear=1)
        with pytest.raises(ValueError):
            WRTRingConfig(t_update=0)
        with pytest.raises(ValueError):
            WRTRingConfig(s_round=-1)
        with pytest.raises(ValueError):
            WRTRingConfig(sat_hop_slots=0)
        with pytest.raises(TypeError):
            WRTRingConfig(sat_hop_slots=1.5)
        with pytest.raises(ValueError):
            WRTRingConfig(rebuild_retry_limit=0)

    def test_quota_type_checked(self):
        with pytest.raises(TypeError):
            WRTRingConfig(quotas={0: (1, 1)})
