"""Composable multi-ring topology descriptions.

The paper's architecture is hierarchical — many WRT-Rings bridged by
gateway stations into one larger ad hoc network (Sec. 1, Fig. 1).  A
:class:`Topology` extends the single-ring :class:`~repro.scenarios.Scenario`
with the fabric-level structure: how many rings, how they are wired
together (``layout``), where on each ring the gateway stations sit
(``gateway_placement``), and which end-to-end flows cross ring boundaries.

Everything here is *pure description + pure resolution*: gateway links,
shortest-path routes and the cross-ring flow set are deterministic
functions of the topology (flows derive from ``RandomStreams(seed)``), so
every execution mode — serial, process-per-ring, resumed — sees the exact
same fabric.

Serialization mirrors ``config_io``: the dict form keeps the per-ring
scenario template's fields at the top level (the shape
:func:`repro.config_io.scenario_to_dict` emits) and adds one ``topology``
sub-dict, so campaign sweeps address fabric axes as ``topology.rings``,
``topology.gateway_placement`` … with the ordinary dotted-key machinery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.config_io import UnknownKeyError, from_dict, option, to_dict
from repro.core.packet import ServiceClass
from repro.scenarios import Scenario, TrafficMix
from repro.sim.rng import RandomStreams

__all__ = ["GatewayLink", "CrossFlow", "Topology", "Resolution",
           "topology_to_dict", "topology_from_dict",
           "load_topology", "save_topology"]


@dataclass(frozen=True)
class GatewayLink:
    """One bridge between two rings.

    ``station_a``/``station_b`` are the *local* station ids of the gateway
    stations on each side; the pair of buffers at their feet is the only
    place the two rings interact.
    """

    ring_a: int
    station_a: int
    ring_b: int
    station_b: int

    def __post_init__(self) -> None:
        if self.ring_a == self.ring_b:
            raise ValueError(f"a gateway link must join two distinct rings, "
                             f"got ring {self.ring_a} twice")

    def key(self) -> Tuple[int, int]:
        """Canonical undirected identity of the link."""
        return (min(self.ring_a, self.ring_b), max(self.ring_a, self.ring_b))

    def endpoint(self, ring: int) -> int:
        """The gateway station of this link on ``ring``."""
        if ring == self.ring_a:
            return self.station_a
        if ring == self.ring_b:
            return self.station_b
        raise KeyError(f"ring {ring} is not an endpoint of {self}")

    def other(self, ring: int) -> int:
        if ring == self.ring_a:
            return self.ring_b
        if ring == self.ring_b:
            return self.ring_a
        raise KeyError(f"ring {ring} is not an endpoint of {self}")


def _check_flow_timing(kind: str, rate: float, period: float) -> None:
    """Reject the arrival parameter a flow of ``kind`` uses unless it is
    positive (NaN included): a cbr source steps ``period`` slots per frame
    and a poisson source draws gaps at ``rate``."""
    if kind == "cbr" and not period > 0:
        raise ValueError(f"a cbr flow needs a positive period, got {period!r}")
    if kind == "poisson" and not rate > 0:
        raise ValueError(f"a poisson flow needs a positive rate, got {rate!r}")


@dataclass(frozen=True)
class CrossFlow:
    """One end-to-end flow across the fabric.

    ``deadline`` is relative (slots after creation); ``kind`` is ``"cbr"``
    (needs ``period``) or ``"poisson"`` (needs ``rate``).
    """

    src_ring: int
    src_station: int
    dst_ring: int
    dst_station: int
    kind: str = "cbr"
    rate: float = 0.02
    period: float = 50.0
    service: ServiceClass = ServiceClass.PREMIUM
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("cbr", "poisson"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        _check_flow_timing(self.kind, self.rate, self.period)
        if self.src_ring == self.dst_ring:
            raise ValueError("cross-ring flows must join distinct rings "
                             f"(got ring {self.src_ring} twice)")


@dataclass
class Topology:
    """A fabric of gateway-bridged WRT-Rings (fields in the key order of
    :func:`topology_to_dict`)."""

    rings: int = 4
    ring_size: int = 8
    layout: str = "chain"              # "chain" | "cycle" | "star"
    gateway_placement: str = "spread"  # "first" | "spread"
    cross_flows: int = 4
    flow_kind: str = "cbr"
    flow_rate: float = 0.02
    flow_period: float = 50.0
    flow_service: ServiceClass = ServiceClass.PREMIUM
    #: relative per-frame deadline in slots (None = best effort)
    flow_deadline: Optional[float] = None
    #: generated flows span at least this many gateway hops
    min_ring_hops: int = 1
    #: bound on each gateway's cross-ring out-buffer (frames per link)
    gateway_buffer: int = 64
    #: max slots a frame may wait in a gateway buffer before it is aged out
    frame_ttl: Optional[float] = None
    #: barrier spacing in slots; None = conservative SAT-rotation lookahead
    sync_window: Optional[float] = None
    #: explicit bridge list, written as ``[ring_a, station_a, ring_b,
    #: station_b]`` rows; None derives one from ``layout``
    links: Optional[List[GatewayLink]] = option(
        None, omit_default=True, codec=(
            lambda links: [[l.ring_a, l.station_a, l.ring_b, l.station_b]
                           for l in links],
            lambda rows, where: [GatewayLink(*row) for row in rows]))
    #: explicit cross-ring flows; None generates ``cross_flows`` random ones
    flows: Optional[List[CrossFlow]] = option(None, omit_default=True)
    #: per-ring scenario template (its ``n`` and ``seed`` are overridden)
    base: Scenario = field(default_factory=lambda: Scenario(
        traffic=TrafficMix(kind="none")))
    horizon: float = 2_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rings < 2:
            raise ValueError(f"a fabric needs >= 2 rings, got {self.rings}")
        if self.ring_size < 2:
            raise ValueError(f"ring_size must be >= 2, got {self.ring_size}")
        if self.layout not in ("chain", "cycle", "star"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.gateway_placement not in ("first", "spread"):
            raise ValueError(
                f"unknown gateway_placement {self.gateway_placement!r}")
        if self.flow_kind not in ("cbr", "poisson"):
            raise ValueError(f"unknown flow_kind {self.flow_kind!r}")
        _check_flow_timing(self.flow_kind, self.flow_rate, self.flow_period)
        if self.gateway_buffer < 1:
            raise ValueError(
                f"gateway_buffer must be >= 1, got {self.gateway_buffer}")
        if self.min_ring_hops < 1:
            raise ValueError(
                f"min_ring_hops must be >= 1, got {self.min_ring_hops}")
        if self.sync_window is not None and not (
                self.sync_window > 0 and math.isfinite(self.sync_window)):
            raise ValueError(f"sync_window must be None or finite and "
                             f"positive, got {self.sync_window!r}")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError(
                f"horizon must be finite and positive, got {self.horizon!r}")
        # explicit rows must name rings and stations of this fabric, and a
        # shard keeps one link per neighbour ring
        pairs: Dict[Tuple[int, int], int] = {}
        for i, link in enumerate(self.links or ()):
            row = (f"links[{i}] [{link.ring_a}, {link.station_a}, "
                   f"{link.ring_b}, {link.station_b}]")
            self._check_endpoint(row, link.ring_a, link.station_a)
            self._check_endpoint(row, link.ring_b, link.station_b)
            first = pairs.setdefault(link.key(), i)
            if first != i:
                raise ValueError(f"{row} joins the rings links[{first}] "
                                 f"already joins; one link per ring pair")
        for i, flow in enumerate(self.flows or ()):
            row = (f"flows[{i}] ring {flow.src_ring} station "
                   f"{flow.src_station} -> ring {flow.dst_ring} station "
                   f"{flow.dst_station}")
            self._check_endpoint(row, flow.src_ring, flow.src_station)
            self._check_endpoint(row, flow.dst_ring, flow.dst_station)

    def _check_endpoint(self, row: str, ring: int, station: int) -> None:
        if not 0 <= ring < self.rings:
            raise ValueError(f"{row}: ring {ring} is outside "
                             f"[0, {self.rings})")
        if not 0 <= station < self.ring_size:
            raise ValueError(f"{row}: station {station} is outside "
                             f"[0, {self.ring_size})")

    @property
    def stations(self) -> int:
        """Total station count across the fabric."""
        return self.rings * self.ring_size

    # ------------------------------------------------------------------
    # structure resolution (pure functions of the spec)
    # ------------------------------------------------------------------
    def resolved_links(self) -> List[GatewayLink]:
        """The bridge list, deriving one from ``layout`` when not explicit."""
        if self.links is not None:
            return list(self.links)
        pairs: List[Tuple[int, int]] = []
        if self.layout == "chain":
            pairs = [(r, r + 1) for r in range(self.rings - 1)]
        elif self.layout == "cycle":
            pairs = [(r, (r + 1) % self.rings) for r in range(self.rings)]
            if self.rings == 2:          # cycle of two collapses to a chain
                pairs = pairs[:1]
        else:                            # star: ring 0 is the hub
            pairs = [(0, r) for r in range(1, self.rings)]
        # count the links per ring first so "spread" can space the gateway
        # stations around each ring
        per_ring: Dict[int, int] = {}
        for a, b in pairs:
            per_ring[a] = per_ring.get(a, 0) + 1
            per_ring[b] = per_ring.get(b, 0) + 1
        slot: Dict[int, int] = {}

        def place(ring: int) -> int:
            if self.gateway_placement == "first":
                return 0
            j = slot.get(ring, 0)
            slot[ring] = j + 1
            return (j * self.ring_size) // max(1, per_ring[ring])

        return [GatewayLink(a, place(a), b, place(b)) for a, b in pairs]

    def ring_neighbours(self) -> Dict[int, List[Tuple[int, GatewayLink]]]:
        """``ring -> sorted [(neighbour ring, link), ...]`` adjacency."""
        adj: Dict[int, List[Tuple[int, GatewayLink]]] = {
            r: [] for r in range(self.rings)}
        for link in self.resolved_links():
            adj[link.ring_a].append((link.ring_b, link))
            adj[link.ring_b].append((link.ring_a, link))
        for entries in adj.values():
            entries.sort(key=lambda e: e[0])
        return adj

    def route(self, src_ring: int, dst_ring: int) -> Tuple[int, ...]:
        """Deterministic shortest ring path (BFS, sorted neighbour order)."""
        return Resolution(self).route(src_ring, dst_ring)

    def resolved_flows(self) -> List[CrossFlow]:
        """The cross-ring flow set; generated flows derive from ``seed``."""
        return Resolution(self).flows

    def ring_scenario(self, ring: int) -> Scenario:
        """The per-ring scenario: the shared template with this ring's
        size and an independent seed derived from the fabric seed."""
        return replace(self.base, n=self.ring_size,
                       horizon=self.horizon,
                       seed=RandomStreams(self.seed).derive(f"ring:{ring}"))


class Resolution:
    """A topology's structure, resolved once for everything built from it:
    the ring neighbour map, the cross-ring flows and their shortest
    routes.  One BFS per source ring serves the flow draw and every route
    from that ring.

    A fabric runner makes one resolution and hands it to all its shards.
    The flows are drawn when first asked for (a route alone draws none)
    and then kept, as are the BFS trees; after editing the topology, make
    a new resolution (nothing is kept on the mutable :class:`Topology`).
    """

    def __init__(self, topo: Topology) -> None:
        self.topology = topo
        #: ``ring -> sorted [(neighbour ring, link), ...]`` adjacency
        self.neighbours = topo.ring_neighbours()
        #: source ring -> its BFS tree (:func:`_bfs`)
        self._trees: Dict[int, Dict[int, Tuple[int, int]]] = {}

    def _tree(self, src_ring: int) -> Dict[int, Tuple[int, int]]:
        tree = self._trees.get(src_ring)
        if tree is None:
            tree = self._trees[src_ring] = _bfs(self.neighbours, src_ring)
        return tree

    def route(self, src_ring: int, dst_ring: int) -> Tuple[int, ...]:
        """Deterministic shortest ring path (BFS, sorted neighbour order)."""
        tree = self._tree(src_ring)
        if dst_ring not in tree:
            raise ValueError(f"no gateway path from ring {src_ring} to "
                             f"ring {dst_ring}")
        path = [dst_ring]
        while path[-1] != src_ring:
            path.append(tree[path[-1]][0])
        return tuple(reversed(path))

    @cached_property
    def flows(self) -> List[CrossFlow]:
        """The cross-ring flow set; generated flows derive from ``seed``."""
        topo = self.topology
        if topo.flows is not None:
            return list(topo.flows)
        rng = RandomStreams(topo.seed).stream("fabric.flows")
        out: List[CrossFlow] = []
        for _ in range(topo.cross_flows):
            src_ring = rng.randrange(topo.rings)
            tree = self._tree(src_ring)
            if len(tree) == 1:
                raise ValueError(f"ring {src_ring} reaches no other ring, "
                                 f"so no flow can start there")
            # no ring min_ring_hops away: any reachable ring will do
            # (min_ring_hops >= 1 leaves the source ring out)
            far = (sorted(b for b, (_up, h) in tree.items()
                          if h >= topo.min_ring_hops)
                   or sorted(b for b in tree if b != src_ring))
            dst_ring = rng.choice(far)
            out.append(CrossFlow(
                src_ring=src_ring,
                src_station=rng.randrange(topo.ring_size),
                dst_ring=dst_ring,
                dst_station=rng.randrange(topo.ring_size),
                kind=topo.flow_kind, rate=topo.flow_rate,
                period=topo.flow_period, service=topo.flow_service,
                deadline=topo.flow_deadline))
        return out


def _bfs(adj: Dict[int, List[Tuple[int, GatewayLink]]],
         src_ring: int) -> Dict[int, Tuple[int, int]]:
    """BFS from ``src_ring`` in sorted neighbour order: every ring it
    reaches -> (the ring it is reached from, its gateway hops)."""
    tree = {src_ring: (src_ring, 0)}
    frontier = [src_ring]
    while frontier:
        nxt: List[int] = []
        for ring in frontier:
            for neighbour, _link in adj[ring]:
                if neighbour not in tree:
                    tree[neighbour] = (ring, tree[ring][1] + 1)
                    nxt.append(neighbour)
        frontier = nxt
    return tree


# ----------------------------------------------------------------------
# serialization (the ``config_io`` shape + one "topology" sub-dict)
# ----------------------------------------------------------------------
#: Topology fields written beside the base scenario's keys, replacing the
#: base's own values: the fabric owns the horizon and master seed
_FABRIC_OWNED = ("horizon", "seed")


def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """JSON description: base-scenario fields at top level + ``topology``."""
    sub = to_dict(topo)
    out = sub.pop("base")
    for key in _FABRIC_OWNED:
        out[key] = sub.pop(key)
    out["topology"] = sub
    return out


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Build a Topology from the dict shape :func:`topology_to_dict` emits.
    Keys left out keep the declared defaults, the base's included."""
    data = dict(data)
    sub = data.pop("topology", None) or {}
    misplaced = {"base", *_FABRIC_OWNED} & set(sub)
    if misplaced:
        raise UnknownKeyError(f"unknown topology keys: {sorted(misplaced)}")
    owned = {key: data[key] for key in _FABRIC_OWNED if key in data}
    topo = from_dict(Topology, {**sub, **owned}, "topology")
    return replace(topo, base=from_dict(Scenario, data, base=topo.base))


def save_topology(topo: Topology, path) -> None:
    Path(path).write_text(json.dumps(topology_to_dict(topo), indent=2))


def load_topology(path) -> Topology:
    return topology_from_dict(json.loads(Path(path).read_text()))
