"""Connectivity graphs, virtual-ring and token-tree construction.

The paper assumes the virtual ring exists ("the implementation of the virtual
ring goes beyond the design of a MAC protocol, since routing protocols can be
used for this purpose") and that TPT organizes stations in a tree.  To make
scenarios self-contained we implement both constructions over the unit-disk
connectivity graph:

- **Ring**: a Hamiltonian cycle in the unit-disk graph.  Finding one is
  NP-hard in general, so :func:`construct_ring` uses the geometric heuristics
  that match the paper's indoor assumption (dense deployments): angular order
  around the centroid, nearest-neighbour tours, and 2-opt repair; it verifies
  feasibility (every consecutive pair within range) and raises
  :class:`TopologyError` when no feasible ring is found.
- **Tree**: BFS spanning tree rooted at a chosen station, plus the depth-first
  Euler tour the TPT token follows — exactly ``2(N-1)`` link crossings per
  round (Sec. 3.2.1).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.phy.geometry import distance_matrix

__all__ = [
    "TopologyError",
    "ConnectivityGraph",
    "construct_ring",
    "ring_is_feasible",
    "build_bfs_tree",
    "dfs_token_tour",
]


class TopologyError(RuntimeError):
    """Raised when a requested structure cannot be built on this graph."""


class ConnectivityGraph:
    """Unit-disk connectivity over station positions.

    Node ids are external (arbitrary ints); internally rows of ``positions``
    map 1:1 onto ``node_ids``.
    """

    def __init__(self, positions: np.ndarray, radio_range: float,
                 node_ids: Optional[Sequence[int]] = None):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {self.positions.shape}")
        if radio_range <= 0:
            raise ValueError(f"radio_range must be positive, got {radio_range!r}")
        self.radio_range = float(radio_range)
        n = len(self.positions)
        self.node_ids: List[int] = list(node_ids) if node_ids is not None else list(range(n))
        if len(self.node_ids) != n:
            raise ValueError("node_ids length must match positions")
        if len(set(self.node_ids)) != n:
            raise ValueError("node_ids must be unique")
        self._index: Dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        d = distance_matrix(self.positions)
        adj = d <= radio_range
        np.fill_diagonal(adj, False)
        self._adj = adj
        self._dist = d

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.node_ids)

    def has_node(self, nid: int) -> bool:
        return nid in self._index

    def in_range(self, a: int, b: int) -> bool:
        """True iff stations ``a`` and ``b`` hear each other directly."""
        return bool(self._adj[self._index[a], self._index[b]])

    def distance(self, a: int, b: int) -> float:
        return float(self._dist[self._index[a], self._index[b]])

    def neighbors(self, nid: int) -> List[int]:
        row = self._adj[self._index[nid]]
        return [self.node_ids[j] for j in np.nonzero(row)[0]]

    def degree(self, nid: int) -> int:
        return int(self._adj[self._index[nid]].sum())

    def position(self, nid: int) -> np.ndarray:
        return self.positions[self._index[nid]]

    def is_connected(self) -> bool:
        n = len(self)
        if n <= 1:
            return True
        seen: Set[int] = set()
        stack = [0]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(int(j) for j in np.nonzero(self._adj[i])[0] if j not in seen)
        return len(seen) == n

    def min_degree(self) -> int:
        if len(self) == 0:
            raise TopologyError("empty graph")
        return int(self._adj.sum(axis=1).min())

    def subgraph(self, keep: Sequence[int]) -> "ConnectivityGraph":
        """The induced connectivity graph over the listed node ids."""
        missing = [nid for nid in keep if nid not in self._index]
        if missing:
            raise TopologyError(f"nodes not in graph: {missing}")
        idx = [self._index[nid] for nid in keep]
        return ConnectivityGraph(self.positions[idx], self.radio_range,
                                 node_ids=list(keep))


# ----------------------------------------------------------------------
# ring construction
# ----------------------------------------------------------------------
def ring_is_feasible(order: Sequence[int], graph: ConnectivityGraph) -> bool:
    """Every consecutive pair (cyclically) of ``order`` must be in range."""
    n = len(order)
    if n != len(graph):
        return False
    if set(order) != set(graph.node_ids):
        return False
    if n == 1:
        return True
    if n == 2:
        return graph.in_range(order[0], order[1])
    return all(graph.in_range(order[i], order[(i + 1) % n]) for i in range(n))


def _infeasible_edges(order: List[int], graph: ConnectivityGraph) -> int:
    n = len(order)
    return sum(1 for i in range(n) if not graph.in_range(order[i], order[(i + 1) % n]))


def _angular_order(graph: ConnectivityGraph) -> List[int]:
    centroid = graph.positions.mean(axis=0)
    rel = graph.positions - centroid
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    return [graph.node_ids[i] for i in np.argsort(angles, kind="stable")]


def _nearest_neighbour_order(graph: ConnectivityGraph, start_idx: int) -> List[int]:
    n = len(graph)
    dist = graph._dist
    visited = np.zeros(n, dtype=bool)
    order_idx = [start_idx]
    visited[start_idx] = True
    cur = start_idx
    for _ in range(n - 1):
        d = dist[cur].copy()
        d[visited] = np.inf
        nxt = int(np.argmin(d))
        order_idx.append(nxt)
        visited[nxt] = True
        cur = nxt
    return [graph.node_ids[i] for i in order_idx]


def _two_opt_repair(order: List[int], graph: ConnectivityGraph,
                    max_rounds: int = 40) -> List[int]:
    """2-opt moves that greedily reduce the number of out-of-range edges."""
    n = len(order)
    best = list(order)
    best_bad = _infeasible_edges(best, graph)
    for _ in range(max_rounds):
        if best_bad == 0:
            break
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # same edge pair
                cand = best[:i + 1] + best[i + 1:j + 1][::-1] + best[j + 1:]
                bad = _infeasible_edges(cand, graph)
                if bad < best_bad:
                    best, best_bad = cand, bad
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return best


def construct_ring(graph: ConnectivityGraph) -> List[int]:
    """Construct a feasible virtual ring (Hamiltonian cycle) over ``graph``.

    Tries angular order, then nearest-neighbour tours from several starts,
    each followed by 2-opt repair.  Each candidate is built only when every
    earlier one has failed, so a graph the angular order fits builds no
    nearest-neighbour tour (the tours are pure, so the ring returned is the
    same either way).  Raises :class:`TopologyError` if all heuristics fail
    (the caller should treat the scenario as "no ring can be formed", the
    same outcome the paper's protocol reports).
    """
    n = len(graph)
    if n == 0:
        raise TopologyError("cannot build a ring over zero stations")
    if n == 1:
        return list(graph.node_ids)
    if n == 2:
        if graph.in_range(graph.node_ids[0], graph.node_ids[1]):
            return list(graph.node_ids)
        raise TopologyError("two stations out of range of each other")
    if graph.min_degree() < 2:
        raise TopologyError(
            "a station sees fewer than 2 others; the paper requires each "
            "station to reach at least two stations over a single hop")

    candidates = itertools.chain(
        [_angular_order(graph)],
        (_nearest_neighbour_order(graph, s) for s in range(min(n, 8))))
    for cand in candidates:
        if ring_is_feasible(cand, graph):
            return cand
        repaired = _two_opt_repair(cand, graph)
        if ring_is_feasible(repaired, graph):
            return repaired
    raise TopologyError(f"no feasible virtual ring found over {n} stations")


# ----------------------------------------------------------------------
# tree construction (TPT substrate)
# ----------------------------------------------------------------------
def build_bfs_tree(graph: ConnectivityGraph, root: int) -> Dict[int, List[int]]:
    """BFS spanning tree as a ``parent -> [children]`` map (root included).

    Children are ordered by discovery (ascending node id within a level),
    which fixes the DFS token order deterministically.
    """
    if not graph.has_node(root):
        raise TopologyError(f"root {root} not in graph")
    children: Dict[int, List[int]] = {nid: [] for nid in graph.node_ids}
    seen = {root}
    frontier = [root]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            for v in sorted(graph.neighbors(u)):
                if v not in seen:
                    seen.add(v)
                    children[u].append(v)
                    nxt.append(v)
        frontier = nxt
    if len(seen) != len(graph):
        raise TopologyError(
            f"graph is disconnected: BFS from {root} reached {len(seen)}/{len(graph)}")
    return children


def dfs_token_tour(children: Dict[int, List[int]], root: int) -> List[int]:
    """The Euler tour the TPT token follows (depth-first), as station visits.

    For N stations the tour has exactly ``2(N-1)`` hops: it starts and ends at
    the root and crosses every tree edge twice (Sec. 3.2.1, Fig. 4a).  The
    returned list has length ``2(N-1) + 1``; consecutive entries are one hop
    apart.
    """
    if root not in children:
        raise TopologyError(f"root {root} not in tree")
    tour: List[int] = [root]

    def visit(u: int) -> None:
        for v in children[u]:
            tour.append(v)
            visit(v)
            tour.append(u)

    visit(root)
    n = len(children)
    assert len(tour) == 2 * (n - 1) + 1 if n > 0 else 1
    return tour
