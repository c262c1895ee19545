"""The SAT control signal and rotation bookkeeping.

The SAT carries only control state: the ``RAP_mutex`` flag guarding the
Random Access Period (Sec. 2.4.1) and, while recovering, the SAT_REC fields
(Sec. 2.5): the address of the supposedly failed station and the code of the
recovery originator.

Movement/holding is orchestrated by :class:`~repro.core.ring.WRTRingNetwork`;
this module only models the token's state and the per-station rotation log
used to validate Theorems 1-2 and Proposition 3.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["SAT", "RotationLog"]


class SAT:
    """State of the circulating control signal."""

    #: signal flavours
    NORMAL = "SAT"
    RECOVERY = "SAT_REC"

    def __init__(self) -> None:
        self.kind: str = SAT.NORMAL
        # RAP coordination (Sec. 2.4.1)
        self.rap_mutex: bool = False
        self.rap_owner: Optional[int] = None
        # recovery fields (Sec. 2.5); meaningful when kind == RECOVERY
        self.failed_station: Optional[int] = None
        self.originator: Optional[int] = None
        # movement
        self.at_station: Optional[int] = None     # held/visiting here
        self.in_flight_to: Optional[int] = None   # next hop target
        self.arrival_time: Optional[float] = None
        self.hops: int = 0                         # lifetime link crossings
        self.rounds: int = 0
        #: rotation sequence number, stamped from the network's monotone
        #: counter on every hand-off; receivers discard a signal whose seq
        #: is not newer than the last one they accepted (stale/duplicate
        #: control-signal suppression — see docs/RESILIENCE.md)
        self.seq: int = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> bool:
        return self.in_flight_to is not None

    def depart(self, to_station: int, arrival_time: float) -> None:
        if self.in_flight:
            raise RuntimeError("SAT is already in flight")
        self.at_station = None
        self.in_flight_to = to_station
        self.arrival_time = arrival_time

    def arrive(self) -> int:
        if not self.in_flight:
            raise RuntimeError("SAT is not in flight")
        station = self.in_flight_to
        self.at_station = station
        self.in_flight_to = None
        self.arrival_time = None
        self.hops += 1
        return station

    def to_recovery(self, failed_station: int, originator: int) -> None:
        """Turn this signal into a SAT_REC (Sec. 2.5)."""
        self.kind = SAT.RECOVERY
        self.failed_station = failed_station
        self.originator = originator

    def to_normal(self) -> None:
        """Recovery complete: 'substitute the SAT_REC with the SAT signal'."""
        self.kind = SAT.NORMAL
        self.failed_station = None
        self.originator = None

    def __repr__(self) -> str:  # pragma: no cover
        where = (f"at {self.at_station}" if self.at_station is not None
                 else f"-> {self.in_flight_to}@{self.arrival_time}")
        return f"<{self.kind} {where} mutex={self.rap_mutex} hops={self.hops}>"


class RotationLog:
    """Per-station SAT rotation-time samples (arrival-to-arrival)."""

    def __init__(self) -> None:
        #: station -> its rotation samples, in arrival order; the ring's
        #: SAT step appends to it directly (see ``add``)
        self.by_station: Dict[int, List[float]] = {}
        self._hops_per_round: List[int] = []
        self._last_hops_mark: int = 0

    def add(self, station: int, rotation: float) -> None:
        if rotation <= 0:
            raise ValueError(f"rotation time must be positive, got {rotation!r}")
        self.by_station.setdefault(station, []).append(rotation)

    def mark_round(self, total_hops: int) -> None:
        """Record the link crossings of one completed round (E04)."""
        self._hops_per_round.append(total_hops - self._last_hops_mark)
        self._last_hops_mark = total_hops

    def samples(self, station: int) -> List[float]:
        return list(self.by_station.get(station, []))

    def all_samples(self) -> List[float]:
        out: List[float] = []
        for values in self.by_station.values():
            out.extend(values)
        return out

    def stations(self) -> List[int]:
        return sorted(self.by_station)

    def hops_per_round(self) -> List[int]:
        return list(self._hops_per_round)

    def worst(self) -> float:
        everything = self.all_samples()
        if not everything:
            raise ValueError("no rotation samples recorded")
        return max(everything)

    def mean(self) -> float:
        everything = self.all_samples()
        if not everything:
            raise ValueError("no rotation samples recorded")
        return sum(everything) / len(everything)
