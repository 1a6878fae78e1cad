"""Tests for the odd-tree partition and the perfect forest."""

import random
from itertools import combinations

import pytest

import locinv.partitioner as partitioner
from locinv.graph_core import Graph, iter_bits, mask_of, reachable_mask, upper_rows
from locinv.partitioner import (
    RootedTree,
    _forest_masks,
    _odd_spanning_rows,
    _p3_rows,
    p3_partition,
    perfect_forest,
)

from helpers import (
    check_p3_partition,
    check_perfect_forest,
    induced_subgraph,
    labeled_odd_trees,
    odd_tree_shapes,
    p3_partition_reference,
    perfect_forest_reference,
    random_connected_graph,
    random_graph,
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
    with pytest.raises(ValueError, match=r"edge \(0, 5\) leaves the vertex set"):
        RootedTree(frozenset({0, 1}), ((0, 5),), 0)


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


def _tree_rows(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def test_p3_rows_match_reference_on_every_small_odd_tree():
    # every labeled odd tree on up to 8 vertices, with every root
    count = 0
    for n in (2, 4, 6, 8):
        full = (1 << n) - 1
        for edges in labeled_odd_trees(n):
            rows = _tree_rows(n, edges)
            for root in range(n):
                expected = p3_partition_reference(RootedTree(frozenset(range(n)), edges, root))
                assert _p3_rows(rows, full, root) == expected, (edges, root)
                count += 1
    assert count == 2 * 1 + 4 * 4 + 6 * 96 + 8 * 5888


def test_p3_rows_match_reference_on_every_ten_vertex_odd_tree():
    # all 7 odd trees on 10 vertices up to isomorphism, each under its own
    # labels and 30 seeded relabelings, with every root
    rng = random.Random(71)
    shapes = odd_tree_shapes(10)
    assert len(shapes) == 7
    for shape in shapes:
        for k in range(31):
            perm = list(range(10))
            if k:
                rng.shuffle(perm)
            edges = tuple((perm[u], perm[v]) for u, v in shape)
            rows = _tree_rows(10, edges)
            for root in range(10):
                expected = p3_partition_reference(RootedTree(frozenset(range(10)), edges, root))
                assert _p3_rows(rows, (1 << 10) - 1, root) == expected, (edges, root)


def test_p3_rows_match_reference_inside_a_host_graph():
    # random odd trees placed on random vertices of a larger host graph,
    # whose other vertices see the tree: the partition reads only rows & tree
    rng = random.Random(73)
    for _ in range(300):
        k = rng.choice(range(2, 41, 2))
        n = k + rng.randrange(0, 25)
        t = random_odd_tree(rng, k)
        place = rng.sample(range(n), k)
        edges = [(place[u], place[v]) for u, v in t.edges]
        host = random_graph(rng, n, rng.choice((0.1, 0.5, 0.9)))
        rows = list(host.rows)
        tree = mask_of(place)
        for v in place:
            rows[v] &= ~tree
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        for x in range(n):  # keep the rows symmetric
            for y in iter_bits(rows[x]):
                rows[y] |= 1 << x
        g = Graph(n, tuple(rows))
        assert all(g.rows[v] & tree == _tree_rows(n, edges)[v] for v in place)
        root = place[t.root]
        expected = p3_partition_reference(RootedTree(frozenset(place), tuple(edges), root))
        assert _p3_rows(g.rows, tree, root) == expected


# -- odd-degree spanning subgraph -----------------------------------------------


def test_spanning_subgraph_k2_and_p4():
    assert _odd_spanning_rows(Graph.complete(2).rows, 0b11) == [0b10, 0b01]
    assert _odd_spanning_rows(Graph.path(4).rows, 0b1111) == [0b10, 0b01, 0b1000, 0b100]


def test_spanning_subgraph_degree_parity():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.choice(range(2, 15, 2))
        g = random_connected_graph(rng, n)
        f = _odd_spanning_rows(g.rows, (1 << n) - 1)
        for u in range(n):
            assert f[u] & ~g.rows[u] == 0
            assert f[u].bit_count() % 2 == 1
            assert all((f[v] >> u) & 1 for v in iter_bits(f[u]))


def test_spanning_subgraph_preconditions():
    with pytest.raises(ValueError):
        _odd_spanning_rows(Graph.path(3).rows, 0b111)  # odd order
    with pytest.raises(ValueError):
        _odd_spanning_rows(Graph.from_edges(4, [(0, 1), (2, 3)]).rows, 0b1111)  # disconnected


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
            sub, _ = induced_subgraph(k4, vs)
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
        (Graph.complete(4), lambda rows, within: [0] * len(rows)),  # no edges: every degree even
        (Graph.path(4), lambda rows, within: list(rows)),  # an induced tree with degree-2 vertices
    ],
)
def test_perfect_forest_postcondition_rejects_even_degrees(monkeypatch, g, start):
    # raised by a check, not an assert, so it also fires under python -O
    monkeypatch.setattr(partitioner, "_odd_spanning_rows", start)
    with pytest.raises(RuntimeError, match="not an induced odd tree"):
        perfect_forest(g)


def _random_connected_subset(rng: random.Random, g: Graph) -> int | None:
    """A random connected vertex mask of even size >= 2, grown from a random vertex."""
    start = rng.randrange(g.n)
    comp = reachable_mask(g.rows, start, (1 << g.n) - 1)
    most = comp.bit_count() // 2 * 2
    if most < 2:
        return None
    size = rng.choice(range(2, most + 1, 2))
    s = 1 << start
    while s.bit_count() < size:
        border = 0
        for v in iter_bits(s):
            border |= g.rows[v]
        border &= ~s
        s |= 1 << rng.choice(list(iter_bits(border)))
    return s


def test_forest_masks_on_a_vertex_mask_match_the_induced_copy():
    # the forest of an induced subgraph, found on the host rows, equals the
    # reference forest of the relabeled copy mapped back to host ids
    rng = random.Random(67)
    cases = 0
    while cases < 600:
        n = rng.randrange(2, 41)
        g = random_graph(rng, n, rng.choice((0.05, 0.1, 0.3, 0.6, 0.9)))
        s = _random_connected_subset(rng, g)
        if s is None:
            continue
        sub, ids = induced_subgraph(g, iter_bits(s))
        expected = [
            mask_of(ids[v] for e in tree for v in e)
            for tree in perfect_forest_reference(sub).trees
        ]
        assert _forest_masks(g.rows, s) == expected, (g, s)
        cases += 1


def test_forest_masks_preconditions():
    g = Graph.path(6)
    with pytest.raises(ValueError, match="even vertex count"):
        _forest_masks(g.rows, 0b111)
    with pytest.raises(ValueError, match="connected"):
        _forest_masks(g.rows, 0b110011)
