"""Packets and service classes.

One packet occupies exactly one slot (the paper's normalization).  Service
classes map the paper's Sec. 2.3 Diffserv classes:

- ``PREMIUM``  — real-time traffic, consumes the guaranteed ``l`` quota;
- ``ASSURED``  — non-real-time with priority, consumes the ``k1`` share of ``k``;
- ``BEST_EFFORT`` — lowest priority, consumes the ``k2`` share of ``k``.

The base protocol of Sec. 2.2 uses two classes only; it corresponds to
``k1 = 0`` (everything non-real-time is BEST_EFFORT).
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Optional

__all__ = ["ServiceClass", "Packet"]


class ServiceClass(IntEnum):
    """Service class; lower value = higher priority."""

    PREMIUM = 0
    ASSURED = 1
    BEST_EFFORT = 2

    @property
    def is_real_time(self) -> bool:
        return self is ServiceClass.PREMIUM

    @property
    def short(self) -> str:
        return _SHORT_NAMES[self]


_SHORT_NAMES = {ServiceClass.PREMIUM: "RT", ServiceClass.ASSURED: "AS",
                ServiceClass.BEST_EFFORT: "BE"}

_packet_ids = itertools.count()


class Packet:
    """One slot-sized packet with its lifecycle timestamps.

    Timestamps (all in slot units; ``None`` until the event happens):

    - ``created``    — generation time at the application,
    - ``t_enqueue``  — entered the station's class queue,
    - ``t_send``     — first put on the medium (access delay ends here),
    - ``t_deliver``  — stripped by the destination.

    ``deadline`` is absolute (slot time by which delivery is required), or
    ``None`` for traffic without timing constraints.
    """

    __slots__ = ("pid", "src", "dst", "service", "created", "deadline",
                 "t_enqueue", "t_send", "t_deliver", "flow_id", "dropped",
                 "hops")

    def __init__(self, src: int, dst: int, service: ServiceClass,
                 created: float, deadline: Optional[float] = None,
                 flow_id: Optional[int] = None):
        if src == dst:
            raise ValueError(f"packet src == dst == {src}")
        if deadline is not None and deadline < created:
            raise ValueError(f"deadline {deadline} before creation {created}")
        self.pid: int = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.service = service
        self.created = created
        self.deadline = deadline
        self.flow_id = flow_id
        self.t_enqueue: Optional[float] = None
        self.t_send: Optional[float] = None
        self.t_deliver: Optional[float] = None
        self.dropped: bool = False
        #: ring hops travelled; the dataplane's orphan TTL (a packet whose
        #: source and destination both left would otherwise circle forever)
        self.hops: int = 0

    # ------------------------------------------------------------------
    @property
    def access_delay(self) -> Optional[float]:
        """Queueing time at the source MAC: enqueue -> first transmission."""
        if self.t_send is None or self.t_enqueue is None:
            return None
        return self.t_send - self.t_enqueue

    @property
    def end_to_end_delay(self) -> Optional[float]:
        if self.t_deliver is None:
            return None
        return self.t_deliver - self.created

    @property
    def delivered(self) -> bool:
        return self.t_deliver is not None

    @property
    def missed_deadline(self) -> bool:
        """True iff the packet has a deadline and verifiably missed it."""
        if self.deadline is None:
            return False
        if self.t_deliver is not None:
            return self.t_deliver > self.deadline
        return self.dropped

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Packet #{self.pid} {self.service.short} {self.src}->{self.dst} "
                f"created={self.created}>")
