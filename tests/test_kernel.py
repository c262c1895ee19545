"""Unit tests for the batched kernel: the one tick driver (a ring that
never saturates runs the scalar schedule), saturated windows, and
budget/stop interactions.

The differential suite (test_kernel_parity.py) proves whole-run equivalence;
these tests pin the individual mechanisms — so a parity failure elsewhere can
be localized instead of bisected.
"""

import math

import pytest

from repro.core import (Packet, QuotaConfig, ServiceClass, WRTRingConfig,
                        WRTRingNetwork)
from repro.events.types import SatArrive, SatHold, SatRelease, SatRotation
from repro.kernel import install_batched_kernel
from repro.sim import Engine


def make_net(n=5, l=2, k=2, **cfg_kwargs):
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", False)
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, **cfg_kwargs)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    return engine, net


def make_pair(n=5, l=2, k=2, **cfg_kwargs):
    """Two identical networks: (scalar engine/net, batched engine/net/kernel)."""
    se, sn = make_net(n, l, k, **cfg_kwargs)
    be, bn = make_net(n, l, k, **cfg_kwargs)
    kern = install_batched_kernel(bn)
    return (se, sn), (be, bn, kern)


def pkt(src, dst, service=ServiceClass.PREMIUM, created=0.0, deadline=None):
    return Packet(src=src, dst=dst, service=service, created=created,
                  deadline=deadline)


def snapshot(net):
    """Every protocol-visible scalar of the network, for exact comparison."""
    sat = net.sat
    state = {
        "now": net.engine.now,
        "sat": (sat.kind, sat.at_station, sat.in_flight_to, sat.arrival_time,
                sat.hops, sat.rounds, sat.seq),
        "net_seq": net._sat_seq,
        "hops_per_round": net.rotation_log.hops_per_round(),
    }
    for sid in sorted(net.stations):
        st = net.stations[sid]
        state[sid] = (st.alive, st.sat_visits, st.sat_holds, st.last_sat_seq,
                      st.last_sat_arrival, st.last_sat_departure,
                      st.rt_pck, st.nrt_pck, st.as_pck, st.be_pck,
                      dict(st.sent), dict(st.received),
                      net.rotation_log.samples(sid))
    return state


def timer_deadlines(net):
    return {sid: t.deadline if t.running else None
            for sid, t in net.recovery.timers.items()}


# ======================================================================
def nonsucc_recount(st):
    """Queued packets not addressed to the station's ring successor,
    counted from the queues themselves."""
    return sum(1 for q in (st.rt_queue, st.as_queue, st.be_queue)
               for p in q if p.dst != st._succ_sid)


class TestNonSuccessorCount:
    """The saturated gate trusts each station's incremental ``_nonsucc``
    counter; it must equal a recount of the queues through sends,
    enqueues and membership changes."""

    def test_counter_matches_recount(self):
        engine, net = make_net(6, l=1, k=1)
        net.start()

        def check(step):
            for st in net.stations.values():
                assert st._nonsucc == nonsucc_recount(st), (step, st.sid)

        def enqueue_mixed():
            for sid in net.members:
                succ = net.successor(sid)
                far = net.successor(net.successor(sid))
                net.enqueue(pkt(sid, succ, created=engine.now))
                net.enqueue(pkt(sid, far, created=engine.now))
                net.enqueue(pkt(sid, succ, service=ServiceClass.BEST_EFFORT,
                                created=engine.now))
                net.enqueue(pkt(sid, far, service=ServiceClass.BEST_EFFORT,
                                created=engine.now))

        enqueue_mixed()
        check("enqueue")
        assert any(st._nonsucc for st in net.stations.values())
        engine.run(until=4.0)
        check("sends")
        # station 2's successor-addressed packets (dst 3) stop being
        # successor traffic once 77 sits between them
        net.insert_station(77, after=2, quota=QuotaConfig.two_class(1, 1))
        check("insert")
        assert net.stations[2]._nonsucc > 0
        enqueue_mixed()
        engine.run(until=8.0)
        check("sends after insert")
        net.remove_station(4)
        check("remove")
        assert net.stations[4]._nonsucc == 0
        engine.run(until=12.0)
        check("sends after remove")


# ======================================================================
class TestInstallation:
    def test_install_after_start_rejected(self):
        engine, net = make_net(4)
        net.start()
        with pytest.raises(RuntimeError):
            install_batched_kernel(net)

    def test_double_install_rejected(self):
        engine, net = make_net(4)
        install_batched_kernel(net)
        with pytest.raises(RuntimeError):
            install_batched_kernel(net)


# ======================================================================
class TestOneTickDriver:
    """The ring's own ``_tick`` is the only tick callback under both
    kernels: the batched kernel only answers the next tick time."""

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_tick_handle_runs_the_ring_tick(self, kernel):
        engine, net = make_net(6, l=2, k=1)
        kern = install_batched_kernel(net) if kernel == "batched" else None
        net.start()
        assert net._tick_handle.callback == net._tick
        prefill_successor(net, rt=40, be=20)
        engine.run(until=600.0)
        assert net._tick_handle.callback == net._tick
        if kern is not None:
            assert kern.sat_windows > 0, "no window opened; test is vacuous"


# ======================================================================
class TestScalarSchedule:
    """A ring that never saturates runs the scalar schedule under the
    batched kernel: one tick per slot, the same ``_tick_body`` and
    ``_sat_step`` calls at the same times, dispatch for dispatch."""

    def test_idle_ring_dispatches_like_scalar(self):
        (se, sn), (be, bn, kern) = make_pair(8)
        sn.start(); bn.start()
        se.run(until=5000.0); be.run(until=5000.0)
        # one tick event per slot under both kernels
        assert se.events_executed == be.events_executed == 5001
        assert be.now == 5000.0

    def test_idle_parity_with_scalar(self):
        (se, sn), (be, bn, kern) = make_pair(8)
        sn.start(); bn.start()
        se.run(until=5000.0); be.run(until=5000.0)
        assert snapshot(bn) == snapshot(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)

    def test_multi_slot_hop_parity(self):
        # SAT hop latency > 1 slot: hop times stride the slot grid
        (se, sn), (be, bn, kern) = make_pair(6, sat_hop_slots=3)
        sn.start(); bn.start()
        se.run(until=4000.0); be.run(until=4000.0)
        assert snapshot(bn) == snapshot(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)

    def test_pending_event_fires_at_its_time(self):
        # an agenda event between ticks (a traffic arrival) fires at its
        # own time, before the next slot body
        engine, net = make_net(6)
        kern = install_batched_kernel(net)
        seen = []
        net.start()

        def arrival():
            seen.append(engine.now)
            net.enqueue(pkt(2, 4, created=engine.now))

        engine.schedule_at(777.25, arrival)
        engine.run(until=2000.0)
        assert seen == [777.25]
        delivered = net.stations[4].received[ServiceClass.PREMIUM]
        assert delivered == 1
        # no packet left in any station's four buffers
        assert not any(st.transit or st.rt_queue or st.as_queue
                       or st.be_queue for st in net.stations.values())
        assert engine.now == 2000.0

    def test_mid_gap_enqueue_parity(self):
        (se, sn), (be, bn, kern) = make_pair(6)
        for eng, net in ((se, sn), (be, bn)):
            net.start()
            eng.schedule_at(
                777.25,
                lambda n=net, e=eng: n.enqueue(pkt(2, 4, created=e.now)))
            eng.run(until=2000.0)
        assert snapshot(bn) == snapshot(sn)

    def test_fractional_until_clamps_identically(self):
        (se, sn), (be, bn, kern) = make_pair(8)
        sn.start(); bn.start()
        se.run(until=1234.5); be.run(until=1234.5)
        assert se.now == be.now == 1234.5
        assert snapshot(bn) == snapshot(sn)

    def test_resume_across_run_chunks(self):
        # state must survive run() returning and being called again —
        # the pending tick a run leaves behind is where scalar would be
        (se, sn), (be, bn, kern) = make_pair(6)
        sn.start(); bn.start()
        for upto in (300.0, 301.0, 950.5, 2000.0):
            se.run(until=upto); be.run(until=upto)
            assert snapshot(bn) == snapshot(sn), f"diverged at until={upto}"

    def test_sat_subscriber_sees_every_hop_at_its_time(self):
        # each hop's events fire at the real hop time
        (se, sn), (be, bn, kern) = make_pair(8)
        releases = []
        for eng, net in ((se, sn), (be, bn)):
            times = []
            net.events.subscribe(SatRelease, lambda ev, times=times:
                                 times.append(ev.t))
            net.start()
            eng.run(until=3000.0)
            releases.append(times)
        assert releases[0]
        assert releases[1] == releases[0]
        assert snapshot(bn) == snapshot(sn)

    def test_adaptive_timers_parity(self):
        nets = []
        for batched in (False, True):
            engine = Engine()
            cfg = WRTRingConfig.homogeneous(range(8), l=2, k=2,
                                            rap_enabled=False)
            net = WRTRingNetwork(engine, list(range(8)), cfg,
                                 adaptive_timers=True)
            if batched:
                install_batched_kernel(net)
            net.start()
            engine.run(until=3000.0)
            nets.append(net)
        assert snapshot(nets[1]) == snapshot(nets[0])
        assert timer_deadlines(nets[1]) == timer_deadlines(nets[0])


# ======================================================================
def metrics_state(net):
    """Sample-order-exact view of the delay/deadline metrics."""
    mt = net.metrics
    from repro.core.diffserv import COLUMN_CLASSES
    return {
        "transmitted": dict(mt.transmitted),
        "delivered": dict(mt.delivered),
        "access": [list(mt.access_delay[c].samples) for c in COLUMN_CLASSES],
        "e2e": [list(mt.e2e_delay[c].samples) for c in COLUMN_CLASSES],
        "deadlines": (mt.deadlines.met, mt.deadlines.missed,
                      list(mt.deadlines.miss_lateness)),
    }


def prefill_successor(net, rt=0, be=0, deadline=None):
    for sid in net.members:
        dst = net.successor(sid)
        for _ in range(rt):
            net.enqueue(pkt(sid, dst, deadline=deadline))
        for _ in range(be):
            net.enqueue(pkt(sid, dst, service=ServiceClass.BEST_EFFORT))


class TestSaturatedWindow:
    """The saturated path: whole SAT windows advanced analytically,
    byte-identical to the scalar kernel.  (The parity grid's saturated
    scenarios, seeds 23-25, open windows traced and with the recorder off;
    TestSatSubscriberGate pins that a SAT subscriber that does more than
    record keeps them shut.)"""

    def test_bulk_window_matches_scalar(self):
        (se, sn), (be, bn, kern) = make_pair(6, l=2, k=1)
        sn.start(); bn.start()
        prefill_successor(sn, rt=40, be=20)
        prefill_successor(bn, rt=40, be=20)
        se.run(until=600.0); be.run(until=600.0)
        assert kern.sat_windows > 0
        assert kern.sat_slots > 100
        assert snapshot(bn) == snapshot(sn)
        assert metrics_state(bn) == metrics_state(sn)
        # a window re-arms each watchdog once, after the window
        assert timer_deadlines(bn) == timer_deadlines(sn)

    def test_bulk_window_emits_the_sat_events(self):
        # record-only subscribers of the four hop events keep the window
        # open, and it emits the events itself: the sequence the real SAT
        # step emits, fields and times included.  A deep Premium
        # backlog with l=6 on 4 stations makes the SAT wait at stations
        # inside the windows
        (se, sn), (be, bn, kern) = make_pair(4, l=6, k=1)
        logs = []
        for net in (sn, bn):
            log = []
            for etype in (SatArrive, SatHold, SatRotation, SatRelease):
                def record(ev, log=log):
                    log.append((type(ev).__name__, ev.t, ev.trace_fields()))
                record.record_only = True
                net.events.subscribe(etype, record)
            logs.append(log)
        steps = []
        bn._sat_step = lambda t, step=bn._sat_step: (steps.append(t),
                                                     step(t))
        sn.start(); bn.start()
        prefill_successor(sn, rt=300, be=50)
        prefill_successor(bn, rt=300, be=50)
        se.run(until=600.0); be.run(until=600.0)
        assert kern.sat_windows > 0
        # one SAT step per tick, none inside a window
        assert len(steps) == be.events_executed
        assert {name for name, _, _ in logs[0]} == {
            "SatArrive", "SatHold", "SatRotation", "SatRelease"}
        assert logs[1] == logs[0]
        assert snapshot(bn) == snapshot(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)

    def test_deadline_classification_matches_scalar(self):
        # tight deadlines so the analytic window classifies misses
        (se, sn), (be, bn, kern) = make_pair(6, l=1, k=1)
        sn.start(); bn.start()
        prefill_successor(sn, rt=30, deadline=40.0)
        prefill_successor(bn, rt=30, deadline=40.0)
        se.run(until=400.0); be.run(until=400.0)
        assert kern.sat_windows > 0
        assert snapshot(bn) == snapshot(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)
        state = metrics_state(bn)
        assert state == metrics_state(sn)
        assert state["deadlines"][1] > 0, "no misses; test is vacuous"

    def test_nonsuccessor_traffic_keeps_gate_closed(self):
        engine, net = make_net(6, l=2, k=1)
        kern = install_batched_kernel(net)
        net.start()
        prefill_successor(net, rt=10)
        # one two-hop packet: transit forwarding breaks the all-successor
        # precondition, so the analytic window must never engage
        net.enqueue(pkt(0, 2))
        engine.run(until=300.0)
        assert kern.sat_windows == 0

    def test_drained_ring_hands_back_to_scalar_ticks(self):
        # after the backlog drains, the idle ring runs on one tick per
        # slot, as the scalar kernel does
        (se, sn), (be, bn, kern) = make_pair(6, l=2, k=1)
        for net in (sn, bn):
            net.start()
            prefill_successor(net, rt=5, be=3)
        se.run(until=2000.0); be.run(until=2000.0)
        assert kern.sat_windows > 0
        assert bn.metrics.total_delivered == 6 * 8
        # the only ticks batched skips are the slots its windows covered
        assert se.events_executed - be.events_executed == kern.sat_slots
        assert snapshot(bn) == snapshot(sn)


class TestSatSubscriberGate:
    """A SAT subscriber that does more than record keeps every saturated
    window shut, so a subscriber that perturbs the ring from inside a hop
    acts at the slot it fires in, and the batched run stays equal to the
    scalar one."""

    @pytest.mark.parametrize("action,at,check", [
        (lambda net, sid: net.leave_gracefully(sid), 100.0,
         lambda sn: len(sn.order) == 5),
        (lambda net, sid: net.kill_station(sid), 100.0,
         lambda sn: sum(st.alive for st in sn.stations.values()) == 5),
        (lambda net, sid: net.insert_station(
            77, after=sid, quota=QuotaConfig.two_class(2, 1)), 100.0,
         lambda sn: len(sn.order) == 7),
        # from t=120 the victim's Premium queue drains within a few
        # rotations, so the extra packet turns a release into a hold
        (lambda net, sid: net.enqueue(
            pkt(sid, net.successor(sid), created=net.engine.now)), 120.0,
         lambda sn: sum(st.enqueued[ServiceClass.PREMIUM]
                        for st in sn.stations.values()) == 6 * 40 + 1),
        (lambda net, sid: net.stop(), 100.0,
         lambda sn: (sn.engine.now == 600.0 and sn.sat.arrival_time < 110.0
                     and sn.recovery.records == []
                     and not any(t.running
                                 for t in sn.recovery.timers.values()))),
    ], ids=["leave", "kill", "insert", "enqueue", "stop"])
    def test_perturbing_sat_subscriber_keeps_windows_shut(self, action, at,
                                                          check):
        (se, sn), (be, bn, kern) = make_pair(6, l=2, k=1)
        for eng, net in ((se, sn), (be, bn)):
            fired = []

            def on_release(ev, net=net, fired=fired):
                if not fired and ev.t >= at:
                    # two hops past the station the SAT is heading to
                    victim = net.successor(net.successor(ev.to))
                    fired.append(victim)
                    action(net, victim)

            net.events.subscribe(SatRelease, on_release)
            net.start()
            prefill_successor(net, rt=40, be=20)
            eng.run(until=600.0)
            assert fired
        assert kern.sat_windows == 0
        assert check(sn)
        assert snapshot(bn) == snapshot(sn)
        assert metrics_state(bn) == metrics_state(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)
        assert bn.recovery.records == sn.recovery.records


# ======================================================================
class TestBudgetAndStop:
    def test_max_events_budget_matches_scalar_clock(self):
        # budgeted runs must fall back to slot-at-a-time so chunk
        # boundaries land exactly where the scalar driver puts them
        (se, sn), (be, bn, kern) = make_pair(5)
        sn.start(); bn.start()
        for _ in range(40):
            se.run(until=10_000.0, max_events=7)
            be.run(until=10_000.0, max_events=7)
            assert be.now == se.now
        assert snapshot(bn) == snapshot(sn)

    def test_budget_then_unbudgeted_resume(self):
        (se, sn), (be, bn, kern) = make_pair(5)
        sn.start(); bn.start()
        se.run(until=10_000.0, max_events=13)
        be.run(until=10_000.0, max_events=13)
        se.run(until=800.0); be.run(until=800.0)
        assert be.now == se.now == 800.0
        assert snapshot(bn) == snapshot(sn)

    def test_stop_mid_run_leaves_consistent_clock(self):
        (se, sn), (be, bn, kern) = make_pair(5)
        sn.start(); bn.start()
        se.schedule_at(97.5, se.stop)
        be.schedule_at(97.5, be.stop)
        se.run(until=5000.0); be.run(until=5000.0)
        assert be.now == se.now
        assert snapshot(bn) == snapshot(sn)
        # and both resume cleanly after the stop
        se.run(until=500.0); be.run(until=500.0)
        assert snapshot(bn) == snapshot(sn)

    def test_clock_is_exact_at_run_edge(self):
        engine, net = make_net(8)
        install_batched_kernel(net)
        net.start()
        engine.run(until=3000.0)
        assert engine.now == 3000.0
        # the SAT's bookkeeping is still on the hop lattice
        assert net.sat.arrival_time == math.floor(net.sat.arrival_time)
