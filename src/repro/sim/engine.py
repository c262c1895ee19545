"""Event loop for the discrete-event kernel.

The :class:`Engine` owns simulated time and a binary-heap agenda of pending
callbacks.  Everything else in the kernel (processes, signals, timers) is
sugar over :meth:`Engine.schedule`.

The agenda orders events by ``(time, priority, sequence)``: events at the same
time fire in ascending priority, ties broken by scheduling order.  This gives
deterministic, reproducible runs — a hard requirement for validating the
paper's worst-case bounds, where a single out-of-order tie can change a
measured rotation time by a slot.

Agenda entries are ``(time, priority, seq, handle)`` tuples.  ``seq`` is
unique, so every heap comparison is decided before it reaches the handle and
runs in C.  An entry is *fresh* when its ``seq`` is the handle's live
``seq``; *stale* when :meth:`Engine.reschedule_at` moved the handle to a
later deadline and left the entry where it was; *dead* once the handle is
cancelled or the entry was superseded by an earlier deadline.  A stale key
is never later than its handle's live key, so when the head entry is fresh it
is the live event with the least live key — the order cancel-and-push would
give.  The head helper drops dead entries and re-files stale ones under their
live key as they surface; neither is an event and neither moves the clock.

Cancellation is O(1) (entries are tombstoned), but tombstones do not linger:
the engine counts dead entries and lazily compacts the heap when they
outnumber the live ones, so :meth:`Engine.pending_count` is O(1) and
:meth:`Engine.peek` reflects live events only — the batched kernel bounds its
inline runs and saturated windows by it (see :mod:`repro.kernel`).

NaN is not an event time: :meth:`Engine.schedule_at` and
:meth:`Engine.reschedule_at` raise :class:`SchedulingError` for it and leave
the agenda as it was, and :meth:`Engine.run` rejects a NaN ``until`` before
it touches any state.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.events.bus import EventBus
from repro.events.types import EngineRunWindow

__all__ = ["Engine", "EventHandle", "SimulationError", "SchedulingError"]

#: below this agenda size compaction is not worth the heapify
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Base class for kernel errors."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or with bad arguments."""


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Returned by :meth:`Engine.schedule` / :meth:`Engine.schedule_at`.  Calling
    :meth:`cancel` prevents the callback from running; cancellation is O(1)
    (the heap entry is tombstoned, not removed) and idempotent.
    ``(time, priority, seq)`` is the live key; :meth:`Engine.reschedule_at`
    moves it.
    """

    __slots__ = ("time", "priority", "seq", "_filed", "callback", "args",
                 "cancelled", "engine")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 engine: "Optional[Engine]" = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        #: ``seq`` of the agenda entry carrying this handle (differs from
        #: ``seq`` while that entry is stale)
        self._filed = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Tombstone this event; a cancelled event never fires."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap do not keep
        # large object graphs alive.
        self.callback = _noop
        self.args = ()
        if self.engine is not None:
            self.engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} prio={self.priority} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Engine:
    """A discrete-event simulation engine.

    Example
    -------
    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(5.0, hits.append, "a")
    >>> _ = eng.schedule(2.0, hits.append, "b")
    >>> eng.run()
    >>> hits
    ['b', 'a']
    >>> eng.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._agenda: list[tuple[float, int, int, EventHandle]] = []
        self._seq: int = 0
        self._cancelled: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self.events_executed: int = 0
        #: slot-grid quantum for schedule-time snapping.  ``None`` (default)
        #: keeps exact float semantics; the ring sets it to its slot time so
        #: chained fractional delays cannot drift off the slot grid (which
        #: would break the exact same-slot time comparisons both tick
        #: drivers rely on).
        self.slot_quantum: Optional[float] = None
        #: the ``until`` bound of the currently executing :meth:`run`
        #: (``None`` outside run() or for an unbounded run)
        self.run_until: Optional[float] = None
        #: True while the currently executing :meth:`run` has a
        #: ``max_events`` budget — consumers that batch multiple logical
        #: steps per callback must fall back to one-event-per-step so the
        #: budget keeps its exact meaning
        self.run_budgeted: bool = False
        #: kernel-side event bus: subscribing
        #: :class:`~repro.events.types.EngineRunWindow` (see
        #: ``repro.obs.integrate.attach_run_profiling``) records every
        #: :meth:`run` window — two clock reads per run() call, nothing per
        #: event, so the hot loop is untouched and the unobserved cost is
        #: one falsy-emitter check per run()
        self.events = EventBus()
        self.events.add_binder(self._bind_emitters)

    def _bind_emitters(self) -> None:
        self._ev_run = self.events.emitter(EngineRunWindow)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @staticmethod
    def snap_to_grid(time: float, quantum: float = 1.0,
                     eps: float = 1e-9) -> float:
        """Snap ``time`` to the nearest multiple of ``quantum`` when it is
        within ``eps`` (absolute) of one; off-grid times pass through.

        Accumulated float error from chained fractional delays is a few ulp
        per slot (< 1e-9 for clocks up to ~1e6 slots), while genuinely
        fractional event times (channel delays, Poisson arrivals) sit far
        from the grid — so an absolute epsilon separates the two cleanly.
        """
        k = round(time / quantum)
        snapped = k * quantum
        return snapped if abs(time - snapped) <= eps else time

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        time = self._event_time(time)
        if not callable(callback):
            raise SchedulingError(f"callback {callback!r} is not callable")
        self._seq += 1
        seq = self._seq
        handle = EventHandle(time, priority, seq, callback, args, self)
        heapq.heappush(self._agenda, (time, priority, seq, handle))
        return handle

    def reschedule_at(self, handle: EventHandle, time: float) -> None:
        """Move the pending ``handle`` to absolute simulated ``time``.

        Same outcome as cancelling it and scheduling its callback afresh at
        ``time`` with its priority: the handle takes a fresh ``seq`` exactly
        as :meth:`schedule_at` would, so its live key and the firing order
        are the ones cancel-and-push gives.  The handle object stays the
        same.  A deadline not earlier than the current one (every watchdog
        kick) leaves the agenda entry where it is, to be re-filed when it
        reaches the head; an earlier one tombstones the entry and pushes a
        new one.
        """
        if handle.cancelled or handle.engine is not self:
            raise SchedulingError(f"{handle!r} is not pending on this engine")
        time = self._event_time(time)
        self._seq += 1
        earlier = time < handle.time
        handle.time = time
        handle.seq = self._seq
        if earlier:
            handle._filed = handle.seq
            heapq.heappush(self._agenda,
                           (time, handle.priority, handle.seq, handle))
            self._note_cancelled()

    def _event_time(self, time: float) -> float:
        """``time`` snapped to the slot grid, or :class:`SchedulingError`
        when it is NaN or in the past."""
        if time != time:
            raise SchedulingError("cannot schedule at NaN")
        quantum = self.slot_quantum
        if quantum is not None:
            time = self.snap_to_grid(time, quantum)
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time!r}; current time is {self.now!r}")
        return time

    # ------------------------------------------------------------------
    # agenda hygiene
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A live agenda entry was tombstoned; compact when dead entries
        outnumber live ones (amortised O(1) per cancellation)."""
        self._cancelled += 1
        agenda = self._agenda
        if len(agenda) >= _COMPACT_MIN and self._cancelled * 2 > len(agenda):
            # in-place so aliases held by a running run() loop stay valid
            agenda[:] = [e for e in agenda
                         if e[2] == e[3]._filed and not e[3].cancelled]
            heapq.heapify(agenda)
            self._cancelled = 0

    def _head(self) -> Optional[tuple]:
        """The agenda's next live entry, or ``None`` if nothing is pending.

        Dead entries are dropped and stale ones re-filed under their live
        key on the way; neither is an event and the clock does not move."""
        agenda = self._agenda
        while agenda:
            entry = agenda[0]
            handle = entry[3]
            if not handle.cancelled:
                if entry[2] == handle.seq:
                    return entry
                if entry[2] == handle._filed:
                    handle._filed = handle.seq
                    heapq.heapreplace(agenda, (handle.time, handle.priority,
                                               handle.seq, handle))
                    continue
            heapq.heappop(agenda)
            self._cancelled -= 1
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the agenda is empty."""
        entry = self._head()
        return entry[0] if entry is not None else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if nothing is pending."""
        entry = self._head()
        if entry is None:
            return False
        heapq.heappop(self._agenda)
        handle = entry[3]
        self.now = entry[0]
        self.events_executed += 1
        # mark consumed so a late cancel() of this handle is a no-op and
        # cannot corrupt the tombstone count
        handle.cancelled = True
        handle.callback(*handle.args)
        return True

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without executing anything.

        Only valid when no pending event lies strictly before ``time`` —
        advancing past live events would strand them in the past.  Used by
        the batched kernel to step from one inline slot to the next and to
        the hop times inside a saturated window.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot advance to {time!r}; current time is {self.now!r}")
        nxt = self.peek()
        if nxt is not None and nxt < time:
            raise SimulationError(
                f"cannot advance to {time!r} past pending event at {nxt!r}")
        self.now = time

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the agenda drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given and every event up to it has fired, time is
        advanced to exactly ``until`` even if the last event fires earlier
        (mirroring SimPy semantics), so that back-to-back ``run(until=...)``
        calls tile time without gaps.  If the loop stops early — on
        ``max_events`` or :meth:`stop` — with events still pending at or
        before ``until``, the clock stays at the last executed event so those
        events are never stranded in the past.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and until != until:
            raise SchedulingError("cannot run until NaN")
        if until is not None and until < self.now:
            raise SchedulingError(f"until={until!r} is in the past (now={self.now!r})")
        self._running = True
        self._stopped = False
        self.run_until = until
        self.run_budgeted = max_events is not None
        executed = 0
        agenda = self._agenda
        head = self._head
        emit_run = self._ev_run
        if emit_run:
            import time as _time
            wall_start = _time.perf_counter()
            sim_start = self.now
        try:
            while not self._stopped:
                entry = head()
                if entry is None:
                    break
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heapq.heappop(agenda)
                handle = entry[3]
                self.now = entry[0]
                self.events_executed += 1
                executed += 1
                handle.cancelled = True   # consumed; late cancel() is a no-op
                handle.callback(*handle.args)
        finally:
            self._running = False
            self.run_until = None
            self.run_budgeted = False
            if emit_run:
                emit_run(self.now, wall_start,
                         _time.perf_counter() - wall_start,
                         executed, sim_start)
        if until is not None and not self._stopped and self.now < until:
            nxt = self.peek()
            if nxt is None or nxt > until:
                self.now = until

    def stop(self) -> None:
        """Stop a running :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True when :meth:`stop` ended (or is ending) the current run."""
        return self._stopped

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events in the agenda. O(1)."""
        return len(self._agenda) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now} pending={self.pending_count()}>"
