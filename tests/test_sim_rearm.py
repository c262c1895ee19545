"""In-place re-arms: the watchdog's (``Engine.reschedule_at`` /
``Timer.restart``) and the tick's (``Engine.rearm_at``).

A re-arm must be indistinguishable from cancel-and-push: the differential
test below drives the engine and a small eager model of that agenda —
``(time, priority, seq)`` entries plus tombstones, every re-arm a tombstone
and a fresh push — with one seeded operation stream and compares everything
observable after every operation.  The stream includes a tick-style
callback: priority 5, re-armed from inside its own call the way the ring
re-arms its tick, and stopped from inside that call or from outside it.
"""

import heapq
import random

import pytest

from repro.scenarios import Scenario, TrafficMix, build_scenario
from repro.sim import Engine, SchedulingError, Timer

N_TIMERS = 4


class EagerAgenda:
    """Reference agenda: a re-arm tombstones the entry and pushes anew."""

    def __init__(self):
        self.now = 0.0
        self.heap = []            # (time, priority, seq)
        self.live = {}            # seq -> callback; absent seq = tombstone
        self.seq = 0
        self.events_executed = 0

    def schedule(self, delay, callback, priority=0):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, priority, self.seq))
        self.live[self.seq] = callback
        return self.seq

    def cancel(self, seq):
        self.live.pop(seq, None)

    def time_of(self, seq):
        return next(t for t, _, s in self.heap if s == seq)

    def _head(self):
        while self.heap and self.heap[0][2] not in self.live:
            heapq.heappop(self.heap)
        return self.heap[0] if self.heap else None

    def peek(self):
        head = self._head()
        return head[0] if head else None

    def pending_count(self):
        return len(self.live)

    def _fire(self):
        t, _, seq = heapq.heappop(self.heap)
        callback = self.live.pop(seq)
        self.now = t
        self.events_executed += 1
        callback()

    def step(self):
        if self._head() is None:
            return False
        self._fire()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            head = self._head()
            if (head is None or (until is not None and head[0] > until)
                    or (max_events is not None and executed >= max_events)):
                break
            self._fire()
            executed += 1
        if until is not None and self.now < until:
            nxt = self.peek()
            if nxt is None or nxt > until:
                self.now = until


class EagerTimer:
    """:class:`Timer` over :class:`EagerAgenda`: stop, then schedule."""

    def __init__(self, agenda, callback):
        self.agenda = agenda
        self.callback = callback
        self.entry = None

    @property
    def deadline(self):
        return None if self.entry is None else self.agenda.time_of(self.entry)

    def restart(self, duration):
        self.stop()
        self.entry = self.agenda.schedule(duration, self._expire)

    def stop(self):
        if self.entry is not None:
            self.agenda.cancel(self.entry)
            self.entry = None

    def _expire(self):
        self.entry = None
        self.callback()


class Side:
    """One side of the differential: an agenda, its timers, and a firing
    log.  Callbacks draw follow-up operations from the side's own rng, so
    both sides make the same draws exactly as long as they fire alike."""

    def __init__(self, real, seed):
        self.real = real
        if real:
            self.agenda = Engine()
            self.timers = [Timer(self.agenda, 1.0, self._on_timer(k))
                           for k in range(N_TIMERS)]
        else:
            self.agenda = EagerAgenda()
            self.timers = [EagerTimer(self.agenda, self._on_timer(k))
                           for k in range(N_TIMERS)]
        self.rng = random.Random(seed)
        self.log = []
        self.pending = {}         # label -> handle, in scheduling order
        self.labels = 0
        self.ticker = None        # the tick's handle (entry on the model)

    def _on_timer(self, k):
        return lambda: self._fired(f"T{k}")

    def _fired(self, label):
        self.log.append((label, self.agenda.now))
        self.pending.pop(label, None)
        if self.rng.random() < 0.6:
            self.apply(draw_op(self.rng, self, in_callback=True))

    def _tick(self):
        """The ring's tick in miniature: its body may stop the ticker or
        schedule more, then it re-arms itself while the ticker is set."""
        self.log.append(("tick", self.agenda.now))
        rng = self.rng
        if rng.random() < 0.2:
            self.stop_ticker()           # from inside its own call
        elif rng.random() < 0.5:
            self.apply(draw_op(rng, self, in_callback=True))
        if self.ticker is not None:
            delay = float(rng.choice((0, 1, 1, 2, 3)))
            if self.real:
                self.agenda.rearm_at(self.ticker, self.agenda.now + delay)
            else:
                self.ticker = self.agenda.schedule(delay, self._tick,
                                                   priority=5)

    def stop_ticker(self):
        if self.ticker is not None:
            if self.real:
                self.ticker.cancel()
            else:
                self.agenda.cancel(self.ticker)
            self.ticker = None

    def ticker_deadline(self):
        if self.ticker is None:
            return None
        if self.real:
            return self.ticker.time
        return self.agenda.time_of(self.ticker)

    def observe(self):
        a = self.agenda
        return (list(self.log), a.now, a.events_executed, a.peek(),
                a.pending_count(), [t.deadline for t in self.timers],
                self.ticker_deadline())

    def apply(self, op):
        a = self.agenda
        kind = op[0]
        if kind == "schedule":
            _, delay, priority = op
            self.labels += 1
            label = f"e{self.labels}"
            cb = (lambda lab=label: self._fired(lab))
            self.pending[label] = a.schedule(delay, cb, priority=priority)
        elif kind == "cancel":
            label = op[1]
            handle = self.pending.pop(label)
            if self.real:
                handle.cancel()
            else:
                a.cancel(handle)
        elif kind == "restart":
            self.timers[op[1]].restart(op[2])
        elif kind == "stop":
            self.timers[op[1]].stop()
        elif kind == "tick_start":
            self.ticker = a.schedule(op[1], self._tick, priority=5)
        elif kind == "tick_stop":
            self.stop_ticker()
        elif kind == "step":
            a.step()
        elif kind == "peek":
            a.peek()
        elif kind == "run_until":
            a.run(until=a.now + op[1])
        elif kind == "run_max":
            a.run(max_events=op[1])
        else:  # pragma: no cover
            raise AssertionError(op)


def draw_op(rng, side, in_callback):
    """A concrete operation drawn from ``rng`` against ``side``'s state.
    Times are small integers, so equal deadlines and same-time ties (broken
    by priority, then seq; priority 5 ties with the ticker) are common."""
    kinds = ["schedule", "cancel", "restart", "restart", "restart", "stop",
             "tick_stop"]
    if not in_callback:
        kinds += ["step", "peek", "run_until", "run_max", "tick_start"]
    kind = rng.choice(kinds)
    now = side.agenda.now
    if kind == "schedule":
        return ("schedule", float(rng.randint(0, 12)),
                rng.choice((-1, 0, 1, 5)))
    if kind == "tick_start":
        if side.ticker is not None:
            return ("tick_stop",)
        return ("tick_start", float(rng.randint(0, 3)))
    if kind == "cancel":
        if not side.pending:
            return ("peek",) if not in_callback else ("stop", 0)
        return ("cancel", rng.choice(sorted(side.pending)))
    if kind == "stop":
        return ("stop", rng.randrange(N_TIMERS))
    if kind == "restart":
        k = rng.randrange(N_TIMERS)
        deadline = side.timers[k].deadline
        mode = rng.choice(("later", "equal", "earlier"))
        if deadline is None:
            return ("restart", k, float(rng.randint(1, 12)))
        left = deadline - now
        if mode == "equal" and left > 0:
            return ("restart", k, left)
        if mode == "earlier" and left > 1:
            return ("restart", k, float(rng.randint(1, int(left) - 1)))
        return ("restart", k, left + rng.randint(1, 6))
    if kind == "run_until":
        return ("run_until", float(rng.randint(0, 8)))
    if kind == "run_max":
        return ("run_max", rng.randint(0, 5))
    return (kind,)


def live_entries(eng):
    """Agenda entries that still carry a pending handle."""
    return sum(1 for e in eng._agenda
               if e[2] == e[3]._filed and not e[3].cancelled)


class TestDifferentialAgainstEagerAgenda:
    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_op_stream_matches_cancel_and_push(self, seed):
        master = random.Random(seed)
        real = Side(True, 1000 + seed)
        ref = Side(False, 1000 + seed)
        for _ in range(400):
            op = draw_op(master, real, in_callback=False)
            real.apply(op)
            ref.apply(op)
            assert real.observe() == ref.observe(), op
            assert live_entries(real.agenda) == real.agenda.pending_count()
        for side in (real, ref):
            side.apply(("tick_stop",))
            side.agenda.run()
        assert real.observe() == ref.observe()
        assert real.agenda.pending_count() == 0

    def test_stream_exercises_every_rearm_path(self):
        # the seeded streams above must reach all three re-arm shapes,
        # re-arms from inside callbacks, stale-entry re-files (those met by
        # ``run`` too, which checks a fresh head inline and hands only a
        # dead or stale one to ``_head``), and the tick's re-arm, stopped
        # from inside its own call and from outside it
        counts = dict.fromkeys(("later", "equal", "earlier", "in_callback",
                                "refiled", "refiled_in_run", "tick_rearm",
                                "tick_stopped_inside",
                                "tick_stopped_outside"), 0)
        move, head, rearm = (Engine.reschedule_at, Engine._head,
                             Engine.rearm_at)
        stop_ticker = Side.stop_ticker

        def counting_move(eng, handle, time):
            key = ("later" if time > handle.time else
                   "equal" if time == handle.time else "earlier")
            counts[key] += 1
            counts["in_callback"] += eng._running
            move(eng, handle, time)

        def counting_head(eng):
            if eng._agenda:
                seq, handle = eng._agenda[0][2:]
                refiled = (not handle.cancelled
                           and seq == handle._filed != handle.seq)
                counts["refiled"] += refiled
                counts["refiled_in_run"] += refiled and eng._running
            return head(eng)

        def counting_rearm(eng, handle, time):
            counts["tick_rearm"] += 1
            rearm(eng, handle, time)

        def counting_stop(side):
            if side.real and side.ticker is not None:
                # a consumed handle is the tick stopping itself mid-call
                key = ("tick_stopped_inside" if side.ticker.cancelled
                       else "tick_stopped_outside")
                counts[key] += 1
            stop_ticker(side)

        Engine.reschedule_at, Engine._head = counting_move, counting_head
        Engine.rearm_at, Side.stop_ticker = counting_rearm, counting_stop
        try:
            for seed in range(4):
                self.test_seeded_op_stream_matches_cancel_and_push(seed)
        finally:
            Engine.reschedule_at, Engine._head = move, head
            Engine.rearm_at, Side.stop_ticker = rearm, stop_ticker
        assert min(counts.values()) > 0, counts


class TestInPlaceRearm:
    def test_later_deadline_keeps_one_entry(self):
        eng = Engine()
        t = Timer(eng, 10.0, lambda: None)
        t.start()
        for kick in range(1, 50):
            eng.run(until=float(kick))
            t.restart()
        assert len(eng._agenda) == 1
        assert eng.pending_count() == 1
        assert t.deadline == 59.0
        assert eng.peek() == 59.0

    def test_earlier_deadline_pushes_and_tombstones(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        t.restart(duration=4.0)
        assert len(eng._agenda) == 2 and eng.pending_count() == 1
        eng.run()
        assert fired == [4.0]
        assert eng.pending_count() == 0 and not eng._agenda

    def test_refile_is_not_an_event_and_keeps_the_clock(self):
        eng = Engine()
        fired = []
        h = eng.schedule_at(5.0, fired.append, "moved")
        eng.reschedule_at(h, 9.0)
        eng.schedule_at(7.0, fired.append, "other")
        eng.run(until=6.0)
        assert fired == [] and eng.events_executed == 0
        assert eng.now == 6.0
        assert eng.peek() == 7.0
        eng.run()
        assert fired == ["other", "moved"]
        assert eng.events_executed == 2

    def test_equal_deadline_goes_behind_same_time_peers(self):
        # a fresh seq, exactly as cancel-and-push would take
        eng = Engine()
        fired = []
        h = eng.schedule_at(5.0, fired.append, "first")
        eng.schedule_at(5.0, fired.append, "second")
        eng.reschedule_at(h, 5.0)
        eng.run()
        assert fired == ["second", "first"]

    def test_rejects_handles_that_are_not_pending(self):
        eng = Engine()
        done = eng.schedule(1.0, lambda: None)
        eng.run()
        cancelled = eng.schedule(1.0, lambda: None)
        cancelled.cancel()
        foreign = Engine().schedule(1.0, lambda: None)
        for h in (done, cancelled, foreign):
            with pytest.raises(SchedulingError):
                eng.reschedule_at(h, 5.0)

    def test_rejects_past_time_and_keeps_the_deadline(self):
        eng = Engine()
        h = eng.schedule(10.0, lambda: None)
        eng.run(until=4.0)
        with pytest.raises(SchedulingError):
            eng.reschedule_at(h, 3.0)
        assert h.time == 10.0 and eng.peek() == 10.0

    @pytest.mark.parametrize("quantum", [None, 1.0, 0.25])
    def test_lands_where_schedule_at_lands(self, quantum):
        """``reschedule_at`` checks and snaps its time inline; it must
        accept, snap and reject exactly as ``schedule_at`` does."""
        nan = float("nan")
        for when in (7.0, 7.0 + 1e-10, 7.0 - 5e-10, 7.0 + 2e-9, 7.3,
                     7.125 + 1e-11, 4.0, 4.0 - 1e-10, 4.0 - 1e-6, 3.5,
                     1e6 + 3e-10, nan):
            eng, ref = Engine(), Engine()
            for e in (eng, ref):
                e.slot_quantum = quantum
                e.run(until=4.0)
            h = eng.schedule(50.0, lambda: None)
            try:
                expected = ref.schedule_at(when, lambda: None).time
            except SchedulingError:
                with pytest.raises(SchedulingError):
                    eng.reschedule_at(h, when)
                assert h.time == 54.0
                continue
            eng.reschedule_at(h, when)
            assert h.time == expected, (quantum, when)
            assert eng.peek() == expected

    def test_cancel_after_move_is_counted_once(self):
        eng = Engine()
        h = eng.schedule(10.0, lambda: None)
        eng.reschedule_at(h, 3.0)     # earlier: old entry is tombstoned
        eng.reschedule_at(h, 20.0)    # later: in place
        h.cancel()
        assert eng.pending_count() == 0
        assert eng.peek() is None
        assert not eng._agenda

    @pytest.mark.parametrize("quantum", [None, 1.0, 0.25])
    def test_tick_rearm_lands_where_schedule_at_lands(self, quantum):
        """``rearm_at`` — the tick re-arming its own handle from inside its
        call — checks and snaps its time inline; it must accept, snap and
        reject exactly as ``schedule_at`` does."""
        nan = float("nan")
        for when in (7.0, 7.0 + 1e-10, 7.0 - 5e-10, 7.0 + 2e-9, 7.3,
                     7.125 + 1e-11, 4.0, 4.0 - 1e-10, 4.0 - 1e-6, 3.5,
                     1e6 + 3e-10, nan):
            eng, ref = Engine(), Engine()
            outcome = []

            def tick():
                try:
                    eng.rearm_at(handle, when)
                    outcome.append(handle.time)
                except SchedulingError:
                    outcome.append(None)

            for e in (eng, ref):
                e.slot_quantum = quantum
            handle = eng.schedule_at(4.0, tick, priority=5)
            eng.step()
            ref.run(until=4.0)
            try:
                expected = ref.schedule_at(when, lambda: None,
                                           priority=5).time
            except SchedulingError:
                assert outcome == [None], (quantum, when)
                assert handle.cancelled and eng.pending_count() == 0
                assert eng.peek() is None
                continue
            assert outcome == [expected], (quantum, when)
            assert not handle.cancelled and eng.peek() == expected
            assert len(eng._agenda) == eng.pending_count() == 1

    def test_tick_rearm_takes_its_seq_at_the_call(self):
        # same-time, same-priority peers scheduled before the re-arm fire
        # first and those scheduled after it fire later, as with a new
        # ``schedule_at`` at the same moment
        eng = Engine()
        fired = []

        def tick():
            fired.append(("tick", eng.now))
            if eng.now < 2.0:
                eng.schedule_at(eng.now + 1.0, fired.append, "before",
                                priority=5)
                eng.rearm_at(handle, eng.now + 1.0)
                eng.schedule_at(eng.now + 1.0, fired.append, "after",
                                priority=5)

        handle = eng.schedule_at(0.0, tick, priority=5)
        eng.run()
        assert fired == [("tick", 0.0), "before", ("tick", 1.0), "after",
                         "before", ("tick", 2.0), "after"]
        assert eng.events_executed == 7 and eng.pending_count() == 0

    def test_tick_rearm_rejects_handles_that_have_not_run(self):
        eng = Engine()
        pending = eng.schedule(1.0, lambda: None)
        cancelled = eng.schedule(1.0, lambda: None)
        cancelled.cancel()
        foreign = Engine().schedule(0.0, lambda: None)
        foreign.engine.run()
        for h in (pending, cancelled, foreign):
            with pytest.raises(SchedulingError):
                eng.rearm_at(h, 5.0)
        assert pending.time == 1.0 and eng.pending_count() == 1


class TestIdleRingAgenda:
    """One SAT_TIMER restart per slot on an idle ring: the watchdogs must
    not leave a tombstone per hand-off in the agenda."""

    N, SLOTS = 48, 3000

    def test_agenda_stays_at_one_entry_per_station_plus_tick(self):
        scn = Scenario(n=self.N, l=2, k=1, rap_enabled=False,
                       traffic=TrafficMix(kind="none"),
                       horizon=float(self.SLOTS))
        eng = build_scenario(scn).engine
        peak = len(eng._agenda)
        while True:
            nxt = eng.peek()
            if nxt is None or nxt > self.SLOTS:
                break
            eng.step()
            peak = max(peak, len(eng._agenda))
        # cancel-and-push kept up to 2n = 96 entries here
        assert peak <= self.N + 1
        # same events as a plain run (3000 ticks plus the start-up event)
        ref = build_scenario(scn).engine
        ref.run(until=float(self.SLOTS))
        assert eng.events_executed == ref.events_executed == 3001
