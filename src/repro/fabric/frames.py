"""Cross-ring frames: the only state that crosses a shard boundary.

A :class:`FabricFrame` carries everything a destination shard needs to
continue an end-to-end flow, addressed by a *deterministic* identity
``(flow, seq)`` — never a ``Packet.pid``, which comes from a process-global
counter and therefore differs between serial and process-per-ring runs of
the same topology.  Frames serialize to plain JSON-safe dicts and sort by
a canonical key, so the barrier exchange (and with it every downstream
trace and table) is byte-identical regardless of shard scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config_io import decode_enum
from repro.core.packet import ServiceClass

__all__ = ["FabricFrame"]


@dataclass
class FabricFrame:
    """One end-to-end packet travelling across the fabric."""

    flow: int                      #: index into the topology's flow list
    seq: int                       #: per-flow sequence number
    src_ring: int
    src_station: int
    dst_ring: int
    dst_station: int
    service: ServiceClass
    created: float
    deadline: Optional[float]      #: absolute (all shards share the clock)
    route: Tuple[int, ...]         #: ring path, ``route[0] == src_ring``
    hop: int = 0                   #: index into ``route`` of the current ring
    #: completed legs as ``[ring, t_enter, t_exit]`` (t_exit = arrival at
    #: the ring's egress gateway, or at the final destination)
    hop_log: List[List[float]] = field(default_factory=list)

    def key(self) -> Tuple[int, int, int]:
        """Canonical exchange-sort key (unique: (flow, seq) is unique and
        a frame crosses each barrier at exactly one hop index)."""
        return (self.flow, self.seq, self.hop)

    @property
    def current_ring(self) -> int:
        return self.route[self.hop]

    @property
    def final_hop(self) -> bool:
        return self.hop == len(self.route) - 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow, "seq": self.seq,
            "src_ring": self.src_ring, "src_station": self.src_station,
            "dst_ring": self.dst_ring, "dst_station": self.dst_station,
            "service": self.service.name.lower(),
            "created": self.created, "deadline": self.deadline,
            "route": list(self.route), "hop": self.hop,
            "hop_log": [list(leg) for leg in self.hop_log],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FabricFrame":
        return FabricFrame(
            flow=data["flow"], seq=data["seq"],
            src_ring=data["src_ring"], src_station=data["src_station"],
            dst_ring=data["dst_ring"], dst_station=data["dst_station"],
            service=decode_enum(ServiceClass, data["service"], "service"),
            created=data["created"], deadline=data["deadline"],
            route=tuple(data["route"]), hop=data["hop"],
            hop_log=[list(leg) for leg in data["hop_log"]])
