"""Fault and dynamics injection schedules.

A :class:`FaultSchedule` scripts the environment events of a scenario —
silent deaths, announced leaves, control-signal losses — against either
protocol (WRT-Ring or TPT expose the same injection surface), plus timed
join requests for WRT-Ring.  Schedules are validated up front, applied via
engine events, and keep an execution log for the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.config_io import option

__all__ = ["FaultEvent", "FaultSchedule"]

_KINDS = ("kill", "leave", "drop_signal", "join", "insert", "stale_sat")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted event.

    ``kind``:

    - ``"kill"``        — silent death of ``station``;
    - ``"leave"``       — announced departure of ``station`` (WRT-Ring only);
    - ``"drop_signal"`` — lose the SAT/token in flight;
    - ``"join"``        — a new ``station`` requests to join (``params`` are
      forwarded to :class:`~repro.core.join.JoinRequester` for WRT-Ring or
      ``request_join`` for TPT);
    - ``"insert"``      — administratively splice ``station`` into the ring
      (direct ``insert_station``, no RAP/PHY handshake — the membership
      shake-up without the join machinery; ``params``: ``after`` = ingress
      member, default the ring head; ``quota`` = a
      :class:`~repro.core.quotas.QuotaConfig` or ``[l, k1, k2]`` list,
      default ``two_class(1, 1)``; WRT-Ring only);
    - ``"stale_sat"``   — a duplicated/stale control signal appears at
      ``station`` (default: the first ring member); ``params`` may carry a
      forged ``seq`` (WRT-Ring only, see ``inject_stale_sat``).
    """

    time: float
    kind: str
    station: Optional[int] = None
    params: dict = option(default_factory=dict, omit_default=True)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {_KINDS}")
        if (self.kind in ("kill", "leave", "join", "insert")
                and self.station is None):
            raise ValueError(f"{self.kind!r} requires a station")


class FaultSchedule:
    """An ordered set of fault events bound to one network."""

    def __init__(self, events: List[FaultEvent]):
        self.events = sorted(events, key=lambda e: e.time)
        self.applied: List[FaultEvent] = []
        self.skipped: List[tuple] = []
        self.requesters: List[Any] = []

    # ------------------------------------------------------------------
    @classmethod
    def builder(cls) -> "_ScheduleBuilder":
        return _ScheduleBuilder()

    def attach(self, net) -> None:
        """Schedule every event on the network's engine."""
        for event in self.events:
            net.engine.schedule_at(event.time, self._apply, net, event,
                                   priority=-1)

    # ------------------------------------------------------------------
    def _apply(self, net, event: FaultEvent) -> None:
        try:
            if event.kind == "kill":
                net.kill_station(event.station)
            elif event.kind == "leave":
                net.leave_gracefully(event.station)
            elif event.kind == "drop_signal":
                if hasattr(net, "drop_sat"):
                    net.drop_sat()
                else:
                    net.drop_token()
            elif event.kind == "join":
                self._apply_join(net, event)
            elif event.kind == "insert":
                self._apply_insert(net, event)
            elif event.kind == "stale_sat":
                if not hasattr(net, "inject_stale_sat"):
                    raise ValueError(
                        "stale_sat faults require a WRT-Ring network")
                net.inject_stale_sat(event.station,
                                     seq=event.params.get("seq"))
        except (KeyError, RuntimeError, ValueError) as exc:
            # e.g. the station already left via an earlier fault: log, don't
            # kill the simulation — schedules run against evolving networks
            self.skipped.append((event, str(exc)))
            from repro.events import types as _ev
            net.events.emitter(_ev.FaultSkipped)(
                net.engine.now, event.kind, event.station, str(exc))
            return
        self.applied.append(event)

    def _apply_join(self, net, event: FaultEvent) -> None:
        from repro.core.quotas import QuotaConfig
        params = dict(event.params)
        if hasattr(net, "request_join"):   # TPT
            net.request_join(event.station,
                             H_new=params.get("H", 1),
                             parent=params["parent"])
            return
        from repro.core.join import JoinRequester
        quota = params.pop("quota", QuotaConfig.two_class(1, 1))
        self.requesters.append(
            JoinRequester(net, event.station, quota, **params))

    def _apply_insert(self, net, event: FaultEvent) -> None:
        from repro.core.quotas import QuotaConfig
        if not hasattr(net, "insert_station"):
            raise ValueError("insert faults require a WRT-Ring network")
        params = dict(event.params)
        quota = params.get("quota", QuotaConfig.two_class(1, 1))
        if isinstance(quota, (list, tuple)):   # JSON form: [l, k1, k2]
            quota = QuotaConfig(*quota)
        after = params.get("after", net.order[0])
        net.insert_station(event.station, after=after, quota=quota)


class _ScheduleBuilder:
    """Fluent construction: ``FaultSchedule.builder().kill(3, at=100).build()``."""

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []

    def kill(self, station: int, at: float) -> "_ScheduleBuilder":
        self._events.append(FaultEvent(time=at, kind="kill", station=station))
        return self

    def leave(self, station: int, at: float) -> "_ScheduleBuilder":
        self._events.append(FaultEvent(time=at, kind="leave", station=station))
        return self

    def drop_signal(self, at: float) -> "_ScheduleBuilder":
        self._events.append(FaultEvent(time=at, kind="drop_signal"))
        return self

    def join(self, station: int, at: float, **params) -> "_ScheduleBuilder":
        self._events.append(FaultEvent(time=at, kind="join", station=station,
                                       params=params))
        return self

    def insert(self, station: int, at: float, **params) -> "_ScheduleBuilder":
        self._events.append(FaultEvent(time=at, kind="insert",
                                       station=station, params=params))
        return self

    def stale_sat(self, at: float, station: Optional[int] = None,
                  **params) -> "_ScheduleBuilder":
        self._events.append(FaultEvent(time=at, kind="stale_sat",
                                       station=station, params=params))
        return self

    def build(self) -> FaultSchedule:
        return FaultSchedule(self._events)
