"""Tests for fault schedules."""

import pytest

from repro.core import WRTRingConfig, WRTRingNetwork
from repro.faults import FaultEvent, FaultSchedule
from repro.sim import Engine


def make_net(n=6):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, rap_enabled=False)
    return engine, WRTRingNetwork(engine, list(range(n)), cfg)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind="kill", station=0)
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="explode", station=0)
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="kill")   # station required
        FaultEvent(time=1.0, kind="drop_signal")   # no station needed


class TestSchedule:
    def test_events_sorted(self):
        sched = FaultSchedule([
            FaultEvent(time=50.0, kind="kill", station=1),
            FaultEvent(time=10.0, kind="drop_signal"),
        ])
        assert [e.time for e in sched.events] == [10.0, 50.0]

    def test_builder_fluent(self):
        sched = (FaultSchedule.builder()
                 .kill(3, at=100)
                 .leave(4, at=200)
                 .drop_signal(at=300)
                 .join(99, at=400, parent=0)
                 .build())
        assert [e.kind for e in sched.events] == ["kill", "leave",
                                                  "drop_signal", "join"]

    def test_kill_applied(self):
        engine, net = make_net()
        sched = FaultSchedule.builder().kill(2, at=100).build()
        sched.attach(net)
        net.start()
        engine.run(until=800)
        assert 2 not in net.members
        assert len(sched.applied) == 1

    def test_leave_applied(self):
        engine, net = make_net()
        sched = FaultSchedule.builder().leave(3, at=60).build()
        sched.attach(net)
        net.start()
        engine.run(until=500)
        assert 3 not in net.members
        assert net.recovery.records[0].kind == "graceful"

    def test_drop_signal_applied(self):
        engine, net = make_net()
        sched = FaultSchedule.builder().drop_signal(at=42).build()
        sched.attach(net)
        net.start()
        engine.run(until=800)
        assert len(net.recovery.records) == 1
        assert net.recovery.records[0].kind == "sat_loss"

    def test_impossible_event_skipped_not_fatal(self):
        engine, net = make_net()
        sched = (FaultSchedule.builder()
                 .kill(2, at=100)
                 .kill(2, at=200)        # already dead: cut out by then
                 .build())
        sched.attach(net)
        net.start()
        engine.run(until=1000)
        # the second kill either applied to a dead station or was skipped —
        # the simulation must survive either way
        assert not net.network_down or len(net.members) < 6
        assert len(sched.applied) + len(sched.skipped) == 2

    def test_leave_on_departed_station_skipped(self):
        engine, net = make_net()
        sched = (FaultSchedule.builder()
                 .kill(2, at=50)
                 .leave(2, at=500)       # long gone
                 .build())
        sched.attach(net)
        net.start()
        engine.run(until=1500)
        assert len(sched.skipped) == 1
        assert "unknown station" in sched.skipped[0][1] or \
            sched.skipped[0][0].kind == "leave"

    def test_tpt_drop_signal(self):
        from repro.baselines import TPTConfig, TPTNetwork, choose_ttrt
        engine = Engine()
        children = {0: [1, 2], 1: [], 2: []}
        ttrt = choose_ttrt([1] * 3, 4, margin=2.0)
        net = TPTNetwork(engine, children, root=0,
                         config=TPTConfig(H={i: 1 for i in range(3)},
                                          ttrt=ttrt))
        sched = FaultSchedule.builder().drop_signal(at=30).build()
        sched.attach(net)
        net.start()
        engine.run(until=1000)
        assert len(net.records) == 1


class TestScheduleReuse:
    """A Scenario's schedule is a description: every build attaches its
    own copy, so counts never leak from one run into the next."""

    def test_same_scenario_run_twice_counts_once(self):
        from repro.scenarios import Scenario, run_scenario
        scn = Scenario(n=6, horizon=600.0, seed=3,
                       faults=FaultSchedule.builder().kill(2, at=100)
                       .leave(4, at=300).build())
        first = run_scenario(scn).summary()
        second = run_scenario(scn).summary()
        assert first["faults_applied"] == second["faults_applied"] == 2
        assert scn.faults.applied == []

    def test_kernel_diff_sees_each_side_once(self, monkeypatch):
        from repro.kernel import diff
        seen = []
        compare = diff._compare_runs

        def spy(label, scalar, batched):
            seen.append((scalar.summary()["faults_applied"],
                         batched.summary()["faults_applied"]))
            return compare(label, scalar, batched)

        monkeypatch.setattr(diff, "_compare_runs", spy)
        assert diff.diff_scenario(diff.seeded_grid()[6]).ok
        assert seen == [(1, 1)]


class TestJoinEvents:
    def test_wrt_join_event_creates_requester(self):
        import random

        import numpy as np

        from repro.core import QuotaConfig
        from repro.phy import ConnectivityGraph, SlottedChannel, ring_placement

        n = 6
        pos = ring_placement(n, radius=30.0)
        spot = (pos[0] + pos[1]) / 2 * 1.02
        graph = ConnectivityGraph(np.vstack([pos, spot.reshape(1, 2)]),
                                  2 * 30.0 * np.sin(np.pi / n) * 1.4,
                                  node_ids=list(range(n)) + [99])
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, rap_enabled=True,
                                        t_ear=6, t_update=3)
        net = WRTRingNetwork(engine, list(range(n)), cfg, graph=graph,
                             channel=SlottedChannel(graph))
        sched = (FaultSchedule.builder()
                 .join(99, at=100, quota=QuotaConfig.two_class(1, 1),
                       rng=random.Random(5))
                 .build())
        sched.attach(net)
        net.start()
        engine.run(until=5000)
        assert 99 in net.members
        assert len(sched.requesters) == 1

    def test_tpt_join_event(self):
        from repro.baselines import TPTConfig, TPTNetwork, choose_ttrt
        engine = Engine()
        children = {0: [1, 2], 1: [], 2: []}
        ttrt = choose_ttrt([1] * 4, 8, margin=3.0)
        net = TPTNetwork(engine, children, root=0,
                         config=TPTConfig(H={i: 1 for i in range(3)},
                                          ttrt=ttrt, rap_enabled=True,
                                          t_rap=6))
        sched = (FaultSchedule.builder()
                 .join(99, at=50, parent=0, H=1)
                 .build())
        sched.attach(net)
        net.start()
        engine.run(until=2000)
        assert 99 in net.members
