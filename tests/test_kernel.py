"""Unit tests for the batched kernel: inline batching over quiescent
stretches, saturated windows, and budget/stop interactions.

The differential suite (test_kernel_parity.py) proves whole-run equivalence;
these tests pin the individual mechanisms — so a parity failure elsewhere can
be localized instead of bisected.
"""

import math

import pytest

from repro.core import (Packet, QuotaConfig, ServiceClass, WRTRingConfig,
                        WRTRingNetwork)
from repro.events.types import SatRelease
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


def assert_batched(be, se):
    """Parity cannot tell inline batching from one agenda event per slot
    (both are byte-identical); the engines' dispatch counts can."""
    assert be.events_executed * 10 <= se.events_executed, (
        be.events_executed, se.events_executed)


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
class TestInlineBatching:
    """Quiescent stretches run slot by slot inside one agenda dispatch:
    the same ``_tick_body`` and ``_sat_step`` calls the scalar driver
    makes, with each SAT hop at its real time."""

    def test_idle_ring_batches_inline(self):
        (se, sn), (be, bn, kern) = make_pair(8)
        sn.start(); bn.start()
        se.run(until=5000.0); be.run(until=5000.0)
        # one tick event per slot against one dispatch for the whole run
        assert se.events_executed == 5001
        assert be.events_executed == 1
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
        assert_batched(be, se)
        assert snapshot(bn) == snapshot(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)

    def test_jump_never_crosses_pending_event(self):
        # an agenda event mid-gap (a traffic arrival) ends the inline run:
        # it fires at its own time, before the next slot body
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
        assert kern.buffered == 0
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
        # the pending tick an inline run leaves behind is where scalar
        # would be
        (se, sn), (be, bn, kern) = make_pair(6)
        sn.start(); bn.start()
        for upto in (300.0, 301.0, 950.5, 2000.0):
            se.run(until=upto); be.run(until=upto)
            assert snapshot(bn) == snapshot(sn), f"diverged at until={upto}"

    def test_sat_subscriber_sees_every_hop_at_its_time(self):
        # every traced run has one: each hop's events fire at the real hop
        # time, inside the batched dispatch
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
        assert_batched(be, se)
        assert snapshot(bn) == snapshot(sn)

    def test_adaptive_timers_parity(self):
        engines, nets = [], []
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
            engines.append(engine)
            nets.append(net)
        assert_batched(engines[1], engines[0])
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
    """The saturated path in trace-off bulk mode: whole SAT windows
    advanced analytically, byte-identical to the scalar kernel.  (The
    parity grid's saturated scenarios, seeds 23-25, run both modes: replay
    traced and bulk with the recorder off; TestSaturatedReplayTripwire
    pins replay's hand-back.)"""

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
        # bulk mode re-arms each watchdog once, after the window
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

    def test_drained_ring_hands_back_to_inline_batching(self):
        # after the backlog drains, the idle ring runs on in inline
        # batching
        (se, sn), (be, bn, kern) = make_pair(6, l=2, k=1)
        for net in (sn, bn):
            net.start()
            prefill_successor(net, rt=5, be=3)
        se.run(until=2000.0); be.run(until=2000.0)
        assert kern.sat_windows > 0
        assert bn.metrics.total_delivered == 6 * 8
        assert_batched(be, se)
        assert snapshot(bn) == snapshot(sn)


class TestSaturatedReplayTripwire:
    """A SAT subscriber runs every saturated window in replay mode; if it
    perturbs the ring mid-window, the window must hand back to
    slot-by-slot ticking at that slot and stay equal to the scalar run."""

    @staticmethod
    def run_pair(action):
        (se, sn), (be, bn, kern) = make_pair(6, l=2, k=1)
        for eng, net in ((se, sn), (be, bn)):
            fired = []

            def on_release(ev, net=net, fired=fired):
                if not fired and ev.t >= 100.0:
                    # two hops past the station the SAT is heading to
                    victim = net.successor(net.successor(ev.to))
                    fired.append(victim)
                    action(net, victim)

            net.events.subscribe(SatRelease, on_release)
            net.start()
            prefill_successor(net, rt=40, be=20)
            eng.run(until=600.0)
            assert fired
        assert kern.sat_windows > 0
        assert snapshot(bn) == snapshot(sn)
        assert metrics_state(bn) == metrics_state(sn)
        assert timer_deadlines(bn) == timer_deadlines(sn)
        return sn

    def test_leave_mid_window(self):
        sn = self.run_pair(lambda net, sid: net.leave_gracefully(sid))
        assert len(sn.order) == 5

    def test_kill_mid_window(self):
        sn = self.run_pair(lambda net, sid: net.kill_station(sid))
        assert sum(st.alive for st in sn.stations.values()) == 5

    def test_insert_mid_window(self):
        sn = self.run_pair(lambda net, sid: net.insert_station(
            77, after=sid, quota=QuotaConfig.two_class(2, 1)))
        assert len(sn.order) == 7


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

    def test_jump_clock_is_exact_after_ff(self):
        engine, net = make_net(8)
        install_batched_kernel(net)
        net.start()
        engine.run(until=3000.0)
        assert engine.events_executed == 1   # one inline run to the edge
        assert float(engine.now).is_integer() or engine.now == 3000.0
        assert engine.now == 3000.0
        # the SAT's bookkeeping is still on the hop lattice
        assert net.sat.arrival_time == math.floor(net.sat.arrival_time)
