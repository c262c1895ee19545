"""Unit + property tests for connectivity graphs, ring and tree construction."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.phy.topology as topology_module
from repro.phy import (
    Arena,
    ConnectivityGraph,
    TopologyError,
    build_bfs_tree,
    clustered_placement,
    construct_ring,
    dfs_token_tour,
    grid_placement,
    ring_is_feasible,
    ring_placement,
    uniform_placement,
)


def circle_graph(n, radius=30.0, radio_range=None):
    pos = ring_placement(n, radius=radius)
    if radio_range is None:
        # comfortably covers adjacent chords
        radio_range = 2 * radius * np.sin(np.pi / n) * 1.3
    return ConnectivityGraph(pos, radio_range)


class TestConnectivityGraph:
    def test_basic_adjacency(self):
        pos = np.array([[0, 0], [1, 0], [5, 0]], dtype=float)
        g = ConnectivityGraph(pos, 2.0)
        assert g.in_range(0, 1)
        assert not g.in_range(0, 2)
        assert g.neighbors(0) == [1]
        assert g.degree(1) == 1
        assert g.distance(0, 2) == pytest.approx(5.0)

    def test_custom_node_ids(self):
        pos = np.array([[0, 0], [1, 0]], dtype=float)
        g = ConnectivityGraph(pos, 2.0, node_ids=[10, 20])
        assert g.in_range(10, 20)
        assert g.has_node(10) and not g.has_node(0)
        assert np.allclose(g.position(20), [1, 0])

    def test_duplicate_node_ids_rejected(self):
        pos = np.zeros((2, 2))
        with pytest.raises(ValueError):
            ConnectivityGraph(pos, 1.0, node_ids=[1, 1])

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(np.zeros((2, 2)), 1.0, node_ids=[1])

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(np.zeros((2, 2)), 0.0)

    def test_is_connected(self):
        pos = np.array([[0, 0], [1, 0], [2, 0], [50, 50]], dtype=float)
        g = ConnectivityGraph(pos, 1.5)
        assert not g.is_connected()
        g2 = ConnectivityGraph(pos[:3], 1.5)
        assert g2.is_connected()

    def test_single_node_connected(self):
        g = ConnectivityGraph(np.zeros((1, 2)), 1.0)
        assert g.is_connected()
        assert g.min_degree() == 0

    def test_min_degree(self):
        g = circle_graph(6)
        assert g.min_degree() == 2


class TestRingConstruction:
    def test_circle_layout_yields_feasible_ring(self):
        g = circle_graph(10)
        order = construct_ring(g)
        assert ring_is_feasible(order, g)
        assert sorted(order) == list(range(10))

    def test_two_station_ring(self):
        g = ConnectivityGraph(np.array([[0.0, 0], [1, 0]]), 2.0)
        assert construct_ring(g) == [0, 1]

    def test_two_station_out_of_range(self):
        g = ConnectivityGraph(np.array([[0.0, 0], [10, 0]]), 2.0)
        with pytest.raises(TopologyError):
            construct_ring(g)

    def test_degree_below_two_rejected(self):
        # chain of 3: endpoints have degree 1
        pos = np.array([[0.0, 0], [1, 0], [2, 0]])
        g = ConnectivityGraph(pos, 1.5)
        with pytest.raises(TopologyError):
            construct_ring(g)

    def test_empty_graph_rejected(self):
        g = ConnectivityGraph(np.zeros((0, 2)), 1.0)
        with pytest.raises(TopologyError):
            construct_ring(g)

    def test_single_station_ring(self):
        g = ConnectivityGraph(np.zeros((1, 2)), 1.0)
        assert construct_ring(g) == [0]

    def test_feasibility_checker_rejects_wrong_sets(self):
        g = circle_graph(5)
        assert not ring_is_feasible([0, 1, 2, 3], g)       # missing node
        assert not ring_is_feasible([0, 1, 2, 3, 3], g)    # duplicate

    def test_feasibility_checker_rejects_out_of_range_edge(self):
        pos = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [0.5, 10.0]])
        g = ConnectivityGraph(pos, 1.6)
        assert not ring_is_feasible([0, 1, 2, 3, 4], g)

    def test_scrambled_circle_recovered(self):
        """Angular heuristic must recover a ring regardless of id order."""
        rng = np.random.default_rng(3)
        pos = ring_placement(12, radius=30.0)
        perm = rng.permutation(12)
        g = ConnectivityGraph(pos[perm], 2 * 30.0 * np.sin(np.pi / 12) * 1.3)
        order = construct_ring(g)
        assert ring_is_feasible(order, g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=25))
    def test_ring_on_dense_clique_always_found(self, n):
        rng = np.random.default_rng(n)
        pos = rng.uniform(0, 10, size=(n, 2))
        g = ConnectivityGraph(pos, 100.0)  # clique
        order = construct_ring(g)
        assert ring_is_feasible(order, g)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=30), st.floats(min_value=1.1, max_value=2.0))
    def test_ring_on_circle_with_margin(self, n, margin):
        g = circle_graph(n, radio_range=2 * 30.0 * np.sin(np.pi / n) * margin)
        order = construct_ring(g)
        assert ring_is_feasible(order, g)


ARENA = Arena(100.0, 100.0)


def ring_grid():
    """``(placement, graph)`` over every placement in ``phy.geometry``, n
    from 3 to 48 with several seeds and range margins, then graphs where
    the angular order fails and a nearest-neighbour tour wins as built."""
    for n in (3, 4, 5, 8, 13, 24, 48):
        chord = 2 * 30.0 * np.sin(np.pi / n)
        for margin in (1.02, 1.3, 2.2):
            yield "circle", ConnectivityGraph(ring_placement(n, radius=30.0),
                                              chord * margin)
            for seed in (0, 1):
                pos = ring_placement(n, radius=30.0, jitter=3.0,
                                     rng=np.random.default_rng(seed))
                yield "jittered", ConnectivityGraph(pos, chord * margin)
        for radio_range in (20.0, 45.0, 80.0):
            for seed in (0, 1, 2):
                pos = uniform_placement(n, ARENA, np.random.default_rng(seed))
                yield "uniform", ConnectivityGraph(pos, radio_range)
        spacing = 80.0 / max(1, int(np.ceil(np.sqrt(n))) - 1)
        for margin in (1.0, 1.5, 2.1):
            yield "grid", ConnectivityGraph(grid_placement(n, ARENA),
                                            spacing * margin)
        for radio_range in (15.0, 30.0, 60.0):
            for seed in (0, 1):
                pos = clustered_placement(n, ARENA, 3, 8.0,
                                          np.random.default_rng(seed))
                yield "clustered", ConnectivityGraph(pos, radio_range)
    for n, radio_range, seed in ((20, 35.0, 13), (10, 55.0, 23)):
        pos = uniform_placement(n, ARENA, np.random.default_rng(seed))
        yield "uniform", ConnectivityGraph(pos, radio_range)
    for n, radio_range, seed in ((24, 45.0, 30), (20, 35.0, 51),
                                 (8, 35.0, 27)):
        pos = clustered_placement(n, ARENA, 2, 12.0,
                                  np.random.default_rng(seed))
        yield "clustered", ConnectivityGraph(pos, radio_range)


class TestRingGrid:
    """``construct_ring`` over :func:`ring_grid`: what it returns, and how
    many candidate tours it builds on the way."""

    def test_rings_pinned_across_the_grid(self):
        """Every ring and every error, digest captured when all candidate
        tours were built before the first was tried."""
        digest = hashlib.sha256()
        count = 0
        for _placement, graph in ring_grid():
            try:
                row = construct_ring(graph)
            except TopologyError as exc:
                row = str(exc)
            digest.update(json.dumps(row).encode())
            count += 1
        assert count == 194
        assert digest.hexdigest() == ("eb7bf0911f3aea72cbf74ef0f0b5b86c"
                                      "265442032cd1eed489f12d14332114c4")

    def test_tours_are_built_only_when_tried(self, monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(topology_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(topology_module, name, wrapper)

        for name in ("_nearest_neighbour_order", "ring_is_feasible",
                     "_two_opt_repair"):
            counted(name)
        outcomes = Counter()
        for placement, graph in ring_grid():
            calls.clear()
            try:
                construct_ring(graph)
                won = True
            except TopologyError:
                won = False
            tours = calls["_nearest_neighbour_order"]
            # a candidate is checked once, and when that fails it is
            # repaired and checked again
            tried = calls["ring_is_feasible"] - calls["_two_opt_repair"]
            assert tours == max(tried - 1, 0), (placement, len(graph))
            if placement == "circle":
                assert tours == 0, len(graph)
            if not won:
                # "too sparse": a station hears fewer than two others
                outcomes["no ring" if tried else "too sparse"] += 1
            else:
                # only a candidate that failed as built was repaired
                repaired = calls["_two_opt_repair"] == tried
                outcomes[("angular order" if tried == 1 else "tour")
                         + (", repaired" if repaired else "")] += 1
        # the grid reaches every way out of construct_ring
        assert set(outcomes) == {"angular order", "angular order, repaired",
                                 "tour", "tour, repaired", "no ring",
                                 "too sparse"}, outcomes


class TestTree:
    def test_bfs_tree_shape(self):
        g = circle_graph(6)
        children = build_bfs_tree(g, root=0)
        # every non-root appears exactly once as a child
        all_children = [c for cs in children.values() for c in cs]
        assert sorted(all_children) == [1, 2, 3, 4, 5]

    def test_bfs_tree_respects_radio_range(self):
        g = circle_graph(8)
        children = build_bfs_tree(g, root=0)
        for parent, cs in children.items():
            for c in cs:
                assert g.in_range(parent, c)

    def test_bfs_tree_disconnected_raises(self):
        pos = np.array([[0.0, 0], [1, 0], [100, 100], [101, 100]])
        g = ConnectivityGraph(pos, 2.0)
        with pytest.raises(TopologyError):
            build_bfs_tree(g, root=0)

    def test_bfs_tree_unknown_root(self):
        g = circle_graph(4)
        with pytest.raises(TopologyError):
            build_bfs_tree(g, root=99)

    def test_dfs_tour_length_is_2n_minus_2_hops(self):
        """The Sec. 3.2.1 claim: token crosses 2(N-1) links per round."""
        for n in (3, 5, 8, 13):
            g = circle_graph(n)
            children = build_bfs_tree(g, root=0)
            tour = dfs_token_tour(children, root=0)
            assert len(tour) - 1 == 2 * (n - 1)
            assert tour[0] == tour[-1] == 0

    def test_dfs_tour_visits_every_station(self):
        g = circle_graph(9)
        children = build_bfs_tree(g, root=0)
        tour = dfs_token_tour(children, root=0)
        assert set(tour) == set(range(9))

    def test_dfs_tour_consecutive_hops_are_tree_edges(self):
        g = circle_graph(7)
        children = build_bfs_tree(g, root=0)
        edges = {(p, c) for p, cs in children.items() for c in cs}
        edges |= {(c, p) for p, c in edges}
        tour = dfs_token_tour(children, root=0)
        for a, b in zip(tour, tour[1:]):
            assert (a, b) in edges

    def test_dfs_tour_fig4_example(self):
        """Fig. 4(a): root 1 with children 2 and 3 -> tour 1,2,1,3,1."""
        children = {1: [2, 3], 2: [], 3: []}
        assert dfs_token_tour(children, root=1) == [1, 2, 1, 3, 1]

    def test_dfs_tour_unknown_root(self):
        with pytest.raises(TopologyError):
            dfs_token_tour({0: []}, root=5)
