"""Subscriber bus with a branch-free disabled mode.

Emit sites do **not** call ``bus.emit(...)`` — a dict lookup per event on
the slot hot path would be real overhead.  Instead each emitter object
(network, station, manager) asks the bus for a bound *emitter callable*
per event type and stores it as an attribute::

    self._ev_release = bus.emitter(SatRelease)
    ...
    self._ev_release(t, station.sid, succ.sid)   # hot path: one call

The emitter callable is specialised to the current subscriber count:

* **0 subscribers** → the shared :data:`NULL_EMITTER`, a falsy no-op: an
  empty tuple, so its truth test runs no Python code.  The ring's hot
  sites guard with that test — the per-slot ``RingTick`` and
  ``SlotOccupancy`` emits and the per-hop ``SatArrive``, ``SatRotation``
  and ``SatRelease`` emits (``if self._ev_tick: self._ev_tick(t)``) — so
  an unsubscribed emit there runs no frame.  Any other site calls it
  unguarded: one attribute load and an empty ``__call__`` (~0.1 µs).
* **1 subscriber** (the common case: the trace adapter, or metrics) → a
  closure that constructs the typed event and calls the one callback.
* **N subscribers** → a closure fanning out over a tuple of callbacks.

Because emitters are cached in attributes, the bus must re-issue them
whenever the subscription table changes: emitter owners register a
*binder* callback via :meth:`EventBus.add_binder`, which the bus invokes
immediately and again after every subscribe/unsubscribe.  Subscribing is
rare (setup, occasionally mid-run when a timeline is enabled), so binders
re-fetching a dozen emitters is negligible.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Type

from repro.events.types import ProtocolEvent

__all__ = ["EventBus", "NULL_EMITTER"]


class _NullEmitter(tuple):
    """Shared falsy no-op emitter handed out for unsubscribed event types.

    An empty tuple, so a truth test is the tuple's own length check and
    runs no Python code; calling it still runs the no-op ``__call__``."""

    __slots__ = ()

    def __call__(self, *args: Any) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NULL_EMITTER>"


NULL_EMITTER = _NullEmitter()


class EventBus:
    """Dispatch point between protocol emit sites and their consumers."""

    __slots__ = ("_subs", "_binders")

    def __init__(self) -> None:
        self._subs: Dict[Type[ProtocolEvent], List[Callable]] = {}
        self._binders: List[Callable[[], None]] = []

    # -- consumer side -------------------------------------------------
    def subscribe(self, etype: Type[ProtocolEvent],
                  callback: Callable[[ProtocolEvent], None]) -> Callable[[], None]:
        """Register *callback* for events of *etype*; returns an unsubscriber.

        Callbacks run synchronously at the emit site in subscription
        order, receiving the constructed event record.
        """
        if not (isinstance(etype, type) and issubclass(etype, ProtocolEvent)):
            raise TypeError(f"not an event type: {etype!r}")
        self._subs.setdefault(etype, []).append(callback)
        self._notify()

        def unsubscribe() -> None:
            self.unsubscribe(etype, callback)

        return unsubscribe

    def unsubscribe(self, etype: Type[ProtocolEvent],
                    callback: Callable[[ProtocolEvent], None]) -> None:
        """Remove *callback* from *etype*'s subscribers (no-op if absent) —
        for holders that keep the callback rather than the unsubscriber
        :meth:`subscribe` returned."""
        subs = self._subs.get(etype)
        if subs and callback in subs:
            subs.remove(callback)
            if not subs:
                del self._subs[etype]
            self._notify()

    def subscriber_count(self, etype: Type[ProtocolEvent]) -> int:
        return len(self._subs.get(etype, ()))

    def subscribers(self, etype: Type[ProtocolEvent]) -> tuple:
        """The current subscriber tuple for *etype*, in subscription order.

        Identity-comparable: the batched kernel's saturated path engages
        only while the dataplane subscriber sets are *exactly* the
        consumers whose effects it replicates inline (network metrics)
        and every SAT-event subscriber is marked ``record_only``; it
        checks both against these tuples from a binder."""
        return tuple(self._subs.get(etype, ()))

    # -- emitter side --------------------------------------------------
    def emitter(self, etype: Type[ProtocolEvent]) -> Callable[..., None]:
        """A callable specialised to *etype*'s current subscriber list.

        Stale after the next subscribe/unsubscribe — hold it only via a
        binder registered with :meth:`add_binder`.
        """
        subs = self._subs.get(etype)
        if not subs:
            return NULL_EMITTER
        if len(subs) == 1:
            callback = subs[0]

            def emit_one(*args: Any, _cb: Callable = callback,
                         _et: Type[ProtocolEvent] = etype) -> None:
                _cb(_et(*args))

            return emit_one
        fanout = tuple(subs)

        def emit_many(*args: Any, _cbs: tuple = fanout,
                      _et: Type[ProtocolEvent] = etype) -> None:
            ev = _et(*args)
            for cb in _cbs:
                cb(ev)

        return emit_many

    def add_binder(self, binder: Callable[[], None]) -> None:
        """Register *binder* to (re)fetch cached emitters; called now and
        after every subscription change."""
        self._binders.append(binder)
        binder()

    def _notify(self) -> None:
        for binder in self._binders:
            binder()
