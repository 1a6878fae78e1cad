"""Tests for the odd-tree partition and the perfect forest."""

import random
from itertools import combinations

import pytest

import locinv.partitioner as partitioner
from locinv.graph_core import Graph, reachable_mask, upper_rows
from locinv.partitioner import (
    RootedTree,
    odd_degree_spanning_subgraph,
    p3_partition,
    perfect_forest,
)

from helpers import (
    check_p3_partition,
    check_perfect_forest,
    perfect_forest_reference,
    random_connected_graph,
    random_odd_tree,
)


# -- rooted trees ---------------------------------------------------------


def test_rooted_tree_validation():
    with pytest.raises(ValueError):
        RootedTree(frozenset({0, 1, 2}), ((0, 1),), 0)  # too few edges
    with pytest.raises(ValueError):
        RootedTree(frozenset({0, 1}), ((0, 1),), 2)  # root outside
    with pytest.raises(ValueError):
        RootedTree(frozenset({0, 1, 2, 3}), ((0, 1), (2, 3), (0, 1)), 0)  # disconnected


def test_odd_tree_flag():
    assert RootedTree(frozenset({0, 1}), ((0, 1),), 0).is_odd_tree()
    assert not RootedTree(frozenset({0, 1, 2}), ((0, 1), (1, 2)), 0).is_odd_tree()


# -- the path partition ------------------------------------------------------


def test_partition_six_vertex_fixture():
    # root r=0 with children x=1, y=2, v=3; v has children u=4, w=5
    t = RootedTree(
        frozenset(range(6)),
        ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)),
        0,
    )
    part = p3_partition(t)
    assert part.p3s == ((4, 3, 5), (1, 0, 2))
    assert part.k2 == (0, 3)
    check_p3_partition(t, part)


def test_partition_single_edge():
    t = RootedTree(frozenset({7, 2}), ((2, 7),), 7)
    part = p3_partition(t)
    assert part.p3s == ()
    assert part.k2 == (7, 2)


def test_partition_star_rooted_at_leaf_and_center():
    star = Graph.star(4)
    edges = tuple(star.edges())
    for root in range(4):
        t = RootedTree(frozenset(range(4)), edges, root)
        check_p3_partition(t, p3_partition(t))


def test_partition_preconditions():
    path3 = RootedTree(frozenset(range(3)), ((0, 1), (1, 2)), 0)
    with pytest.raises(ValueError):
        p3_partition(path3)  # odd vertex count
    even_tree = RootedTree(frozenset(range(4)), ((0, 1), (1, 2), (2, 3)), 0)
    with pytest.raises(ValueError):
        p3_partition(even_tree)  # degree-2 vertices


def test_partition_random_odd_trees():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.choice(range(4, 16, 2))
        t = random_odd_tree(rng, n)
        part = p3_partition(t)
        check_p3_partition(t, part)


def test_partition_is_deterministic():
    rng = random.Random(43)
    t = random_odd_tree(rng, 12)
    assert p3_partition(t) == p3_partition(t)


# -- odd-degree spanning subgraph -----------------------------------------------


def test_spanning_subgraph_k2_and_p4():
    assert odd_degree_spanning_subgraph(Graph.complete(2)) == frozenset({(0, 1)})
    assert odd_degree_spanning_subgraph(Graph.path(4)) == frozenset({(0, 1), (2, 3)})


def test_spanning_subgraph_degree_parity():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.choice(range(2, 15, 2))
        g = random_connected_graph(rng, n)
        edges = odd_degree_spanning_subgraph(g)
        deg = [0] * n
        for u, v in edges:
            assert g.has_edge(u, v)
            deg[u] += 1
            deg[v] += 1
        assert all(d % 2 == 1 for d in deg)


def test_spanning_subgraph_preconditions():
    with pytest.raises(ValueError):
        odd_degree_spanning_subgraph(Graph.path(3))  # odd order
    with pytest.raises(ValueError):
        odd_degree_spanning_subgraph(Graph.from_edges(4, [(0, 1), (2, 3)]))  # disconnected


# -- perfect forest --------------------------------------------------------------


def test_perfect_forest_k2():
    forest = perfect_forest(Graph.complete(2))
    assert forest.trees == (((0, 1),),)


def test_perfect_forest_k4_is_a_matching():
    forest = perfect_forest(Graph.complete(4))
    assert len(forest.trees) == 2
    assert all(len(tree) == 1 for tree in forest.trees)
    check_perfect_forest(Graph.complete(4), forest)
    # no induced tree of K4 has more than 2 vertices: any 3 vertices
    # induce a triangle, which is not acyclic
    k4 = Graph.complete(4)
    for size in (3, 4):
        for vs in combinations(range(4), size):
            sub, _ = k4.induced(vs)
            assert sub.edge_count() > sub.n - 1


def test_perfect_forest_p4():
    forest = perfect_forest(Graph.path(4))
    assert forest.trees == (((0, 1),), ((2, 3),))


def test_perfect_forest_of_odd_tree_is_the_tree():
    star = Graph.star(4)
    forest = perfect_forest(star)
    assert forest.trees == (tuple(star.edges()),)


def test_perfect_forest_random():
    rng = random.Random(53)
    for _ in range(80):
        n = rng.choice(range(2, 15, 2))
        g = random_connected_graph(rng, n)
        check_perfect_forest(g, perfect_forest(g))


def test_perfect_forest_deterministic():
    rng = random.Random(59)
    g = random_connected_graph(rng, 12)
    assert perfect_forest(g) == perfect_forest(g)


def test_perfect_forest_preconditions():
    with pytest.raises(ValueError):
        perfect_forest(Graph.path(5))
    with pytest.raises(ValueError):
        perfect_forest(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_perfect_forest_matches_reference_on_all_small_graphs():
    # every labeled connected graph on 2, 4 or 6 vertices
    count = 0
    for n in (2, 4, 6):
        full = (1 << n) - 1
        for bits in range(1 << (n * (n - 1) // 2)):
            rows = upper_rows(n, bits)
            if reachable_mask(rows, 0, full) != full:
                continue
            g = Graph(n, tuple(rows))
            assert perfect_forest(g) == perfect_forest_reference(g), g
            count += 1
    assert count == 1 + 38 + 26704


def test_perfect_forest_matches_reference_on_random_graphs():
    rng = random.Random(61)
    for i in range(1200):
        n = rng.choice(range(2, 41, 2))
        extra = (0.02, 0.1, 0.3, 0.6, 0.9)[i % 5]
        g = random_connected_graph(rng, n, extra)
        forest = perfect_forest(g)
        assert forest == perfect_forest_reference(g), g
        if i % 10 == 0:
            check_perfect_forest(g, forest)


@pytest.mark.parametrize(
    "g, start",
    [
        (Graph.complete(4), lambda g: [0] * g.n),  # no edges: every degree even
        (Graph.path(4), lambda g: list(g.rows)),  # an induced tree with degree-2 vertices
    ],
)
def test_perfect_forest_postcondition_rejects_even_degrees(monkeypatch, g, start):
    # raised by a check, not an assert, so it also fires under python -O
    monkeypatch.setattr(partitioner, "_odd_spanning_rows", start)
    with pytest.raises(RuntimeError, match="not an induced odd tree"):
        perfect_forest(g)
