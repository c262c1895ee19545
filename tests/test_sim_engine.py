"""Unit tests for the event-loop engine."""

import pytest
from hypothesis import given, strategies as st

from repro.scenarios import Scenario, TrafficMix, build_scenario
from repro.sim import Engine, SchedulingError, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        hits = []
        eng.schedule(5.0, hits.append, "late")
        eng.schedule(2.0, hits.append, "early")
        eng.schedule(3.5, hits.append, "mid")
        eng.run()
        assert hits == ["early", "mid", "late"]

    def test_same_time_fires_in_schedule_order(self):
        eng = Engine()
        hits = []
        for i in range(10):
            eng.schedule(1.0, hits.append, i)
        eng.run()
        assert hits == list(range(10))

    def test_priority_breaks_simultaneous_ties(self):
        eng = Engine()
        hits = []
        eng.schedule(1.0, hits.append, "normal", priority=0)
        eng.schedule(1.0, hits.append, "urgent", priority=-1)
        eng.run()
        assert hits == ["urgent", "normal"]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SchedulingError):
            eng.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        assert eng.now == 5.0
        with pytest.raises(SchedulingError):
            eng.schedule_at(4.0, lambda: None)

    def test_non_callable_rejected(self):
        eng = Engine()
        with pytest.raises(SchedulingError):
            eng.schedule(1.0, "not callable")

    def test_zero_delay_fires_at_current_time(self):
        eng = Engine()
        times = []
        eng.schedule(3.0, lambda: eng.schedule(0.0, lambda: times.append(eng.now)))
        eng.run()
        assert times == [3.0]

    def test_callback_args_passed_through(self):
        eng = Engine()
        got = []
        eng.schedule(1.0, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
        eng.run()
        assert got == [(1, "x", None)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        hits = []
        h = eng.schedule(1.0, hits.append, "no")
        eng.schedule(2.0, hits.append, "yes")
        h.cancel()
        eng.run()
        assert hits == ["yes"]

    def test_cancel_is_idempotent(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        eng.run()

    def test_cancel_from_within_earlier_event(self):
        eng = Engine()
        hits = []
        victim = eng.schedule(2.0, hits.append, "victim")
        eng.schedule(1.0, victim.cancel)
        eng.run()
        assert hits == []

    def test_peek_skips_cancelled(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        h.cancel()
        assert eng.peek() == 2.0


class TestRun:
    def test_run_until_advances_clock_even_without_events(self):
        eng = Engine()
        eng.run(until=100.0)
        assert eng.now == 100.0

    def test_run_until_leaves_future_events_pending(self):
        eng = Engine()
        hits = []
        eng.schedule(5.0, hits.append, "in")
        eng.schedule(15.0, hits.append, "out")
        eng.run(until=10.0)
        assert hits == ["in"]
        assert eng.now == 10.0
        eng.run()
        assert hits == ["in", "out"]

    def test_run_until_boundary_event_fires(self):
        eng = Engine()
        hits = []
        eng.schedule(10.0, hits.append, "edge")
        eng.run(until=10.0)
        assert hits == ["edge"]

    def test_run_until_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SchedulingError):
            eng.run(until=1.0)

    def test_max_events(self):
        eng = Engine()
        hits = []
        for i in range(10):
            eng.schedule(float(i + 1), hits.append, i)
        eng.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_max_events_with_until_does_not_warp_clock(self):
        # regression: run(until=..., max_events=...) used to advance `now`
        # to `until` even when the event cap broke the loop early, stranding
        # the remaining agenda events in the past
        eng = Engine()
        hits = []
        for i in range(5):
            eng.schedule(float(i + 1), hits.append, i)
        eng.run(until=100.0, max_events=2)
        assert hits == [0, 1]
        assert eng.now == 2.0
        assert eng.peek() == 3.0

    def test_resume_after_max_events_break_reaches_until(self):
        eng = Engine()
        hits = []
        for i in range(5):
            eng.schedule(float(i + 1), hits.append, i)
        eng.run(until=100.0, max_events=2)
        eng.run(until=100.0)
        assert hits == [0, 1, 2, 3, 4]
        assert eng.now == 100.0

    def test_stop_with_until_does_not_warp_clock(self):
        eng = Engine()
        hits = []
        eng.schedule(1.0, hits.append, "a")
        eng.schedule(2.0, eng.stop)
        eng.schedule(3.0, hits.append, "b")
        eng.run(until=100.0)
        assert hits == ["a"]
        assert eng.now == 2.0

    def test_until_still_advances_clock_when_agenda_drains(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run(until=10.0, max_events=50)
        assert eng.now == 10.0

    def test_stop_halts_run(self):
        eng = Engine()
        hits = []
        eng.schedule(1.0, hits.append, "a")
        eng.schedule(2.0, eng.stop)
        eng.schedule(3.0, hits.append, "b")
        eng.run()
        assert hits == ["a"]
        eng.run()
        assert hits == ["a", "b"]

    def test_reentrant_run_rejected(self):
        eng = Engine()

        def reenter():
            with pytest.raises(SimulationError):
                eng.run()

        eng.schedule(1.0, reenter)
        eng.run()

    def test_step_returns_false_when_empty(self):
        eng = Engine()
        assert eng.step() is False

    def test_step_executes_exactly_one(self):
        eng = Engine()
        hits = []
        eng.schedule(1.0, hits.append, 1)
        eng.schedule(2.0, hits.append, 2)
        assert eng.step() is True
        assert hits == [1]

    def test_events_executed_counter(self):
        eng = Engine()
        for i in range(7):
            eng.schedule(float(i), lambda: None)
        eng.run()
        assert eng.events_executed == 7

    def test_events_scheduled_during_run_fire(self):
        eng = Engine()
        hits = []

        def cascade(depth):
            hits.append(depth)
            if depth < 5:
                eng.schedule(1.0, cascade, depth + 1)

        eng.schedule(0.0, cascade, 0)
        eng.run()
        assert hits == list(range(6))
        assert eng.now == 5.0

    def test_pending_count(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending_count() == 2
        h.cancel()
        assert eng.pending_count() == 1


class TestAgendaHygiene:
    """Cancelled tombstones must not distort introspection or linger."""

    def test_mass_cancellation_compacts_the_heap(self):
        # regression: cancelled EventHandles lingered in the heap forever —
        # 10k dead entries still occupied the agenda after cancellation
        eng = Engine()
        handles = [eng.schedule(float(i + 1), lambda: None)
                   for i in range(10_000)]
        keep = eng.schedule(20_000.0, lambda: None)
        for h in handles:
            h.cancel()
        assert eng.pending_count() == 1
        assert len(eng._agenda) < 5_000
        assert eng.peek() == keep.time

    def test_pending_count_is_constant_time(self):
        # pending_count() used to scan the whole agenda per call
        eng = Engine()
        for i in range(100):
            eng.schedule(float(i + 1), lambda: None)
        h = eng.schedule(500.0, lambda: None)
        assert eng.pending_count() == 101
        h.cancel()
        assert eng.pending_count() == 100
        h.cancel()  # idempotent: must not decrement twice
        assert eng.pending_count() == 100

    def test_pending_count_tracks_mixed_fire_and_cancel(self):
        import random

        eng = Engine()
        rng = random.Random(42)
        handles = []
        for i in range(400):
            handles.append(eng.schedule(rng.uniform(1.0, 50.0), lambda: None))
        for h in rng.sample(handles, 150):
            h.cancel()
        while eng.step():
            # entries are (time, priority, seq, handle) tuples
            naive = len({id(e[3]) for e in eng._agenda if not e[3].cancelled})
            assert eng.pending_count() == naive
        assert eng.pending_count() == 0

    def test_cancel_own_handle_from_callback_is_noop(self):
        eng = Engine()
        box = {}

        def fire():
            box["h"].cancel()   # cancelling the in-flight event: no effect

        box["h"] = eng.schedule(1.0, fire)
        eng.schedule(2.0, lambda: None)
        eng.run()
        assert eng.pending_count() == 0

    def test_compaction_during_run_keeps_order(self):
        eng = Engine()
        fired = []
        handles = [eng.schedule(float(i + 100), fired.append, i)
                   for i in range(500)]

        def cancel_most():
            for h in handles[50:]:
                h.cancel()

        eng.schedule(1.0, cancel_most)
        eng.run()
        assert fired == list(range(50))


class TestSlotGridSnapping:
    """Opt-in slot-grid snapping: chained fractional delays must not drift
    off the integer slot grid (the ring sets ``slot_quantum`` on its engine;
    a bare engine keeps exact float semantics)."""

    def test_bare_engine_does_not_snap(self):
        eng = Engine()
        eng.schedule(0.9999999999, lambda: None)
        eng.run()
        assert eng.now == 0.9999999999

    def test_snap_helper_10e6_slot_drift(self):
        # 1/3 + 1/3 + 1/3 chained drifts off-grid from slot 2 without
        # snapping (final error ~3e-6 over 1e6 slots); snapped it is exact
        third = 1.0 / 3.0
        snap = Engine.snap_to_grid
        t = 0.0
        for _ in range(1_000_000):
            t = snap(snap(snap(t + third) + third) + third)
        assert t == 1_000_000.0

    def test_chained_fractional_schedules_stay_on_grid(self):
        eng = Engine()
        eng.slot_quantum = 1.0
        third = 1.0 / 3.0
        on_grid = []

        def tick(step):
            if step % 3 == 0:
                on_grid.append(eng.now == float(step // 3))
            if step < 30_000:
                eng.schedule(third, tick, step + 1)

        eng.schedule(0.0, tick, 0)
        eng.run()
        assert all(on_grid)
        assert eng.now == 10_000.0

    def test_off_grid_times_pass_through(self):
        eng = Engine()
        eng.slot_quantum = 1.0
        times = []
        eng.schedule(0.5, lambda: times.append(eng.now))
        eng.schedule(1.25, lambda: times.append(eng.now))
        eng.run()
        assert times == [0.5, 1.25]


def _bare_engine():
    return Engine()


def _ring_engine():
    # the ring sets slot_quantum, so its engine snaps times to the grid
    eng = build_scenario(Scenario(n=4, traffic=TrafficMix(kind="none"),
                                  horizon=50.0)).engine
    assert eng.slot_quantum is not None
    return eng


class TestNaNTimes:
    """NaN is not an event time: heap order cannot place it (it used to
    fire wherever the heap happened to put it, with the clock reading NaN)
    and a ring engine's grid snap cannot round it."""

    NAN = float("nan")

    @staticmethod
    def _agenda(eng):
        return list(eng._agenda), eng.pending_count(), eng.peek(), eng.now

    @pytest.mark.parametrize("make", [_bare_engine, _ring_engine],
                             ids=["bare", "ring"])
    def test_schedule_rejects_nan(self, make):
        eng = make()
        for t in (5.0, 1.0, 3.0):
            eng.schedule_at(t, lambda: None)
        before = self._agenda(eng)
        with pytest.raises(SchedulingError):
            eng.schedule_at(self.NAN, lambda: None)
        with pytest.raises(SchedulingError):
            eng.schedule(self.NAN, lambda: None)
        assert self._agenda(eng) == before

    @pytest.mark.parametrize("make", [_bare_engine, _ring_engine],
                             ids=["bare", "ring"])
    def test_reschedule_rejects_nan(self, make):
        eng = make()
        h = eng.schedule_at(5.0, lambda: None)
        before = self._agenda(eng)
        with pytest.raises(SchedulingError):
            eng.reschedule_at(h, self.NAN)
        assert self._agenda(eng) == before
        assert h.time == 5.0 and not h.cancelled

    @pytest.mark.parametrize("make", [_bare_engine, _ring_engine],
                             ids=["bare", "ring"])
    def test_run_rejects_nan_until(self, make):
        # NaN compares false with every event time, so unchecked it acts
        # as an unbounded run (the budget keeps that failure finite)
        eng = make()
        for t in (5.0, 50.0):
            eng.schedule_at(t, lambda: None)
        before = self._agenda(eng)
        with pytest.raises(SchedulingError):
            eng.run(until=self.NAN, max_events=1000)
        assert self._agenda(eng) == before
        # nothing was left half-started: a bounded run still works
        eng.run(until=60.0)
        assert eng.now == 60.0


class TestAdvanceTo:
    def test_advance_to_moves_clock(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.advance_to(7.0)
        assert eng.now == 7.0

    def test_advance_to_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SchedulingError):
            eng.advance_to(4.0)

    def test_advance_past_pending_event_rejected(self):
        eng = Engine()
        eng.schedule(3.0, lambda: None)
        with pytest.raises(SimulationError):
            eng.advance_to(5.0)

    def test_advance_to_skips_cancelled_obstacle(self):
        eng = Engine()
        h = eng.schedule(3.0, lambda: None)
        eng.schedule(9.0, lambda: None)
        h.cancel()
        eng.advance_to(5.0)
        assert eng.now == 5.0


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_execution_order_is_sorted_by_time(self, delays):
        eng = Engine()
        order = []
        for d in delays:
            eng.schedule(d, lambda d=d: order.append(d))
        eng.run()
        assert order == sorted(delays)
        assert eng.now == max(delays)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=100))
    def test_run_until_partitions_events(self, delays, cut):
        eng = Engine()
        fired = []
        for d in delays:
            eng.schedule(float(d), fired.append, d)
        eng.run(until=float(cut))
        assert sorted(fired) == sorted(d for d in delays if d <= cut)
        eng.run()
        assert sorted(fired) == sorted(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=40))
    def test_cancelled_subset_never_fires(self, items):
        eng = Engine()
        fired = []
        handles = []
        for i, (d, cancel) in enumerate(items):
            handles.append((eng.schedule(d, fired.append, i), cancel))
        for h, cancel in handles:
            if cancel:
                h.cancel()
        eng.run()
        expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
        assert set(fired) == expected
