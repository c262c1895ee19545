"""Restartable and periodic timers.

The MAC protocols lean heavily on watchdog timers: every station arms a
``SAT_TIMER`` (WRT-Ring) or a token timer (TPT) and *restarts* it each time
the control signal departs.  :class:`Timer` provides exactly that shape —
arm / restart / stop / expire-callback — on top of the engine's cancellable
events.

A restart of a running timer moves its pending expiry in place
(:meth:`~repro.sim.engine.Engine.reschedule_at`) instead of cancelling it and
scheduling a new one: the firing order is the same, but a watchdog kicked on
every SAT hand-off keeps one agenda entry instead of leaving a tombstone per
kick.  Durations and periods must be positive; NaN is rejected like any
other non-positive value.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Engine, EventHandle

__all__ = ["Timer", "PeriodicTimer"]


class Timer:
    """A one-shot, restartable watchdog timer.

    >>> eng = Engine()
    >>> fired = []
    >>> t = Timer(eng, 10.0, lambda: fired.append(eng.now))
    >>> t.start()
    >>> eng.run(until=5.0); t.restart()   # kick the watchdog at t=5
    >>> eng.run(until=30.0)
    >>> fired
    [15.0]
    """

    def __init__(self, engine: Engine, duration: float,
                 callback: Callable[[], Any], name: str = "timer"):
        if not duration > 0:
            raise ValueError(f"timer duration must be positive, got {duration!r}")
        self.engine = engine
        self.duration = duration
        self.callback = callback
        self.name = name
        self._handle: Optional[EventHandle] = None
        self.expirations = 0

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    @property
    def deadline(self) -> Optional[float]:
        """Absolute time of the pending expiry, or None if not running."""
        return self._handle.time if self.running else None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the timer.  No-op if already running (use :meth:`restart`)."""
        if self.running:
            return
        self._handle = self.engine.schedule(self.duration, self._expire)

    def restart(self, duration: Optional[float] = None) -> None:
        """(Re-)arm the timer for a full period from now.

        A rejected ``duration`` leaves the timer exactly as it was."""
        if duration is not None:
            if not duration > 0:
                raise ValueError(f"timer duration must be positive, got {duration!r}")
            self.duration = duration
        engine = self.engine
        handle = self._handle
        if handle is not None and not handle.cancelled:   # running
            engine.reschedule_at(handle, engine.now + self.duration)
        else:
            self._handle = engine.schedule(self.duration, self._expire)

    def stop(self) -> None:
        """Disarm without firing."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _expire(self) -> None:
        self._handle = None
        self.expirations += 1
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timer {self.name!r} dur={self.duration} running={self.running}>"


class PeriodicTimer:
    """Fires ``callback()`` every ``period`` units until stopped.

    The next firing is scheduled *before* the callback runs, so a callback
    that stops the timer suppresses subsequent firings, and a slow callback
    cannot skew the phase.
    """

    def __init__(self, engine: Engine, period: float,
                 callback: Callable[[], Any], name: str = "periodic",
                 phase: float = 0.0):
        if not period > 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if not phase >= 0:
            raise ValueError(f"phase must be non-negative, got {phase!r}")
        self.engine = engine
        self.period = period
        self.callback = callback
        self.name = name
        self.phase = phase
        self._handle: Optional[EventHandle] = None
        self.firings = 0

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def start(self) -> None:
        if self.running:
            return
        self._handle = self.engine.schedule(self.phase, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = self.engine.schedule(self.period, self._fire)
        self.firings += 1
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PeriodicTimer {self.name!r} period={self.period} running={self.running}>"
