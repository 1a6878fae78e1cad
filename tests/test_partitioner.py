"""Tests for the odd-tree partition and the perfect forest."""

import random
from itertools import combinations

import pytest

import locinv.partitioner as partitioner
from locinv.graph_core import Graph, iter_bits, mask_of, reachable_mask, upper_rows
from locinv.partitioner import _odd_spanning_rows, p3_partition, perfect_forest

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


# -- the path partition ------------------------------------------------------


def test_partition_six_vertex_fixture():
    # root r=0 with children x=1, y=2, v=3; v has children u=4, w=5
    t = Graph.from_edges(6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)))
    part = p3_partition(t.rows, 0b111111, 0)
    assert part == (((4, 3, 5), (1, 0, 2)), 3)
    check_p3_partition(t.rows, 0b111111, 0, part)


def test_partition_single_edge():
    t = Graph.from_edges(8, ((2, 7),))
    assert p3_partition(t.rows, 1 << 2 | 1 << 7, 7) == ((), 2)


def test_partition_star_rooted_at_leaf_and_center():
    star = Graph.star(4)
    for root in range(4):
        check_p3_partition(star.rows, 0b1111, root, p3_partition(star.rows, 0b1111, root))


def test_partition_checker_rejects_a_reused_edge():
    # helpers.py is registered for assertion rewriting, so its checks also
    # fire when the suite runs under python -O
    with pytest.raises(AssertionError):
        check_p3_partition(Graph.star(4).rows, 0b1111, 0, (((1, 0, 2),), 2))


def test_partition_preconditions():
    path3 = Graph.path(3)
    with pytest.raises(ValueError):
        p3_partition(path3.rows, 0b111, 0)  # odd vertex count
    even_tree = Graph.path(4)
    with pytest.raises(ValueError):
        p3_partition(even_tree.rows, 0b1111, 0)  # degree-2 vertices


@pytest.mark.parametrize(
    "g, tree, root",
    [
        (Graph.path(4), 0b0001, 0),  # one vertex
        (Graph.path(4), 0b0011, 2),  # root outside the mask
        (Graph.path(4), 0b0011, 4),  # root outside the graph
        (Graph.path(4), 0b10011, 0),  # a mask vertex outside the graph
        (Graph.path(4), 0b1111, 0),  # P4: two vertices of degree 2
        (Graph.complete(4), 0b1111, 0),  # K4: every degree odd, but a cycle
        (Graph.from_edges(4, [(0, 1), (2, 3)]), 0b1111, 0),  # 2K2: not connected
    ],
    ids=["one-vertex", "root-outside-mask", "root-outside-graph", "mask-outside-graph", "P4", "K4", "2K2"],
)
def test_partition_rejects_a_mask_that_is_not_an_odd_tree_at_its_root(g, tree, root):
    # raised by a check, not an assert, so it also fires under python -O
    with pytest.raises(ValueError):
        p3_partition(g.rows, tree, root)


def test_partition_random_odd_trees():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.choice(range(4, 16, 2))
        t, root = random_odd_tree(rng, n)
        full = (1 << n) - 1
        check_p3_partition(t.rows, full, root, p3_partition(t.rows, full, root))


def test_partition_is_deterministic():
    rng = random.Random(43)
    t, root = random_odd_tree(rng, 12)
    assert p3_partition(t.rows, (1 << 12) - 1, root) == p3_partition(t.rows, (1 << 12) - 1, root)


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
                assert p3_partition(rows, full, root) == p3_partition_reference(rows, full, root), (edges, root)
                count += 1
    assert count == 2 * 1 + 4 * 4 + 6 * 96 + 8 * 5888


def test_p3_rows_match_reference_on_every_ten_vertex_odd_tree():
    # all 7 odd trees on 10 vertices up to isomorphism, each under its own
    # labels and 30 seeded relabelings, with every root
    rng = random.Random(71)
    shapes = odd_tree_shapes(10)
    assert len(shapes) == 7
    full = (1 << 10) - 1
    for shape in shapes:
        for k in range(31):
            perm = list(range(10))
            if k:
                rng.shuffle(perm)
            edges = tuple((perm[u], perm[v]) for u, v in shape)
            rows = _tree_rows(10, edges)
            for root in range(10):
                assert p3_partition(rows, full, root) == p3_partition_reference(rows, full, root), (edges, root)


def test_p3_rows_match_reference_inside_a_host_graph():
    # random odd trees placed on random vertices of a larger host graph,
    # whose other vertices see the tree: the partition reads only rows & tree,
    # so it equals the reference on the tree alone
    rng = random.Random(73)
    for _ in range(300):
        k = rng.choice(range(2, 41, 2))
        n = k + rng.randrange(0, 25)
        t, t_root = random_odd_tree(rng, k)
        place = rng.sample(range(n), k)
        edges = [(place[u], place[v]) for u, v in t.edges()]
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
        alone = _tree_rows(n, edges)
        assert all(g.rows[v] & tree == alone[v] for v in place)
        root = place[t_root]
        assert p3_partition(g.rows, tree, root) == p3_partition_reference(alone, tree, root)


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


def _forest(g: Graph) -> list[int]:
    return perfect_forest(g.rows, (1 << g.n) - 1)


def test_perfect_forest_k2():
    assert _forest(Graph.complete(2)) == [0b11]


def test_perfect_forest_k4_is_a_matching():
    forest = _forest(Graph.complete(4))
    assert len(forest) == 2
    assert all(tree.bit_count() == 2 for tree in forest)
    check_perfect_forest(Graph.complete(4), forest)
    # no induced tree of K4 has more than 2 vertices: any 3 vertices
    # induce a triangle, which is not acyclic
    k4 = Graph.complete(4)
    for size in (3, 4):
        for vs in combinations(range(4), size):
            sub, _ = induced_subgraph(k4, vs)
            assert len(sub.edges()) > sub.n - 1


def test_perfect_forest_p4():
    assert _forest(Graph.path(4)) == [0b0011, 0b1100]


def test_perfect_forest_of_odd_tree_is_the_tree():
    assert _forest(Graph.star(4)) == [0b1111]


def test_perfect_forest_random():
    rng = random.Random(53)
    for _ in range(80):
        n = rng.choice(range(2, 15, 2))
        g = random_connected_graph(rng, n)
        check_perfect_forest(g, _forest(g))


def test_perfect_forest_deterministic():
    rng = random.Random(59)
    g = random_connected_graph(rng, 12)
    assert _forest(g) == _forest(g)


def test_perfect_forest_preconditions():
    with pytest.raises(ValueError, match="even vertex count"):
        _forest(Graph.path(5))
    with pytest.raises(ValueError, match="connected"):
        _forest(Graph.from_edges(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rows: perfect_forest(rows, 0b110000), "the vertex mask must lie inside 0..3"),
        (lambda rows: perfect_forest(rows, -1), "the vertex mask must lie inside 0..3"),
        (lambda rows: perfect_forest(rows, 0b1111 | 1 << 10), "the vertex mask must lie inside 0..3"),
        (lambda rows: p3_partition(rows, 0b11, -1), "the tree mask must lie inside 0..3 and hold the root -1"),
    ],
    ids=["forest-mask-past-rows", "forest-negative-mask", "forest-mask-reaching-past-rows", "partition-negative-root"],
)
def test_decompositions_refuse_vertices_outside_the_rows(call, message):
    # a range check, not an IndexError, a vertex count or "negative shift count"
    with pytest.raises(ValueError) as exc:
        call(Graph.path(4).rows)
    assert str(exc.value) == message


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
            assert _forest(g) == perfect_forest_reference(g), g
            count += 1
    assert count == 1 + 38 + 26704


def test_perfect_forest_matches_reference_on_random_graphs():
    rng = random.Random(61)
    for i in range(1200):
        n = rng.choice(range(2, 41, 2))
        extra = (0.02, 0.1, 0.3, 0.6, 0.9)[i % 5]
        g = random_connected_graph(rng, n, extra)
        forest = _forest(g)
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
        _forest(g)


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
        expected = [mask_of(ids[v] for v in iter_bits(tree)) for tree in perfect_forest_reference(sub)]
        assert perfect_forest(g.rows, s) == expected, (g, s)
        cases += 1


def test_forest_masks_preconditions():
    g = Graph.path(6)
    with pytest.raises(ValueError, match="even vertex count"):
        perfect_forest(g.rows, 0b111)
    with pytest.raises(ValueError, match="connected"):
        perfect_forest(g.rows, 0b110011)
