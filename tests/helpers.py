"""Shared test utilities: random instance generators and independent checkers.

The checkers here are deliberately written from the definitions, not by
calling the code under test, so they can serve as oracles.
"""

from __future__ import annotations

import random
from collections import deque

from locinv.graph_core import BicoloredGraph, Graph, _lc_rows, iter_bits
from locinv.partitioner import EdgePartition, PerfectForest, RootedTree


# -- random instances ----------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """A uniform random tree plus extra random edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return Graph.from_edges(n, edges)


def random_odd_tree(rng: random.Random, n: int) -> RootedTree:
    """Random tree with all degrees odd, on n (even) relabeled vertices.

    Grown by repeatedly attaching two fresh leaves to a random vertex,
    which preserves every degree parity; any odd tree arises this way.
    """
    assert n >= 2 and n % 2 == 0
    edges = [(0, 1)]
    size = 2
    while size < n:
        host = rng.randrange(size)
        edges.append((host, size))
        edges.append((host, size + 1))
        size += 2
    relabel = list(range(n))
    rng.shuffle(relabel)
    shuffled = [(relabel[u], relabel[v]) for u, v in edges]
    return RootedTree(frozenset(range(n)), tuple(shuffled), rng.randrange(n))


def random_coloring(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) for _ in range(n))


# -- independent oracles ---------------------------------------------------


def local_complement_reference(g: Graph, a: int) -> Graph:
    """Second implementation of local complementation, pair by pair."""
    nb = set(g.neighbors(a))
    edges = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            has = g.has_edge(u, v)
            if u in nb and v in nb:
                has = not has
            if has:
                edges.add((u, v))
    return Graph.from_edges(g.n, edges)


def min_flip_word_reference(b: BicoloredGraph, target: BicoloredGraph):
    """Tuple-state breadth-first search, the oracle before packed states.

    States are (adjacency rows, color mask) pairs and every move rebuilds
    the rows.  Frontier order and letter order match
    :func:`locinv.oracle.min_flip_word`, so both must return the same
    ``(length, witness)``, or None when the target is unreachable.
    """
    n = b.graph.n

    def cmask(coloring):
        return sum(1 << v for v, c in enumerate(coloring) if c == -1)

    start = (b.graph.rows, cmask(b.coloring))
    goal = (target.graph.rows, cmask(target.coloring))
    if start == goal:
        return (0, ())
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            rows, colors = state
            for a in range(n):
                child = (_lc_rows(rows, a), colors ^ rows[a])
                if child in parent:
                    continue
                parent[child] = (state, a)
                if child == goal:
                    letters = []
                    while parent[child] is not None:
                        child, letter = parent[child]
                        letters.append(letter)
                    return (len(letters), tuple(reversed(letters)))
                nxt.append(child)
        frontier = nxt
    return None


def perfect_forest_reference(g: Graph) -> PerfectForest:
    """Edge-set perfect forest, the construction before bitmask rows.

    Grows a BFS tree from vertex 0 on dict adjacency, keeps a vertex's
    parent edge when its degree so far is even (children first), then
    swaps chords on edge tuples: after every swap the scan restarts at the
    component with the smallest vertex and takes the lexicographically
    first chord.  :func:`locinv.partitioner.perfect_forest` must return
    the same forest.  The start is checked to be acyclic, which is why the
    cycle pass this construction once had never removed an edge.
    """
    n = g.n
    parent = {0: None}
    order = [0]
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in iter_bits(g.rows[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    assert len(order) == n, "reference needs a connected graph"
    fdeg = [0] * n
    fset: set[tuple[int, int]] = set()
    for v in reversed(order[1:]):
        if fdeg[v] % 2 == 0:
            p = parent[v]
            fset.add((min(v, p), max(v, p)))
            fdeg[v] += 1
            fdeg[p] += 1
    assert all(d % 2 == 1 for d in fdeg), "odd start"

    def forest_components():
        adj: dict[int, list[int]] = {}
        for u, v in fset:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen: set[int] = set()
        comps = []
        for start in sorted(adj):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        queue.append(y)
            comps.append((sorted(comp), adj))
        return comps

    assert len(fset) == n - len(forest_components()), "the odd start must be a forest"

    while True:
        for comp, adj in forest_components():
            sm = sum(1 << v for v in comp)
            chord = next(
                (
                    (u, v)
                    for u in comp
                    for v in iter_bits(g.rows[u] & sm & ~((1 << (u + 1)) - 1))
                    if (u, v) not in fset
                ),
                None,
            )
            if chord is None:
                continue
            u, v = chord
            prev = {u: None}
            queue = deque([u])
            while v not in prev:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in prev:
                        prev[y] = x
                        queue.append(y)
            x = v
            while prev[x] is not None:
                fset.discard((min(x, prev[x]), max(x, prev[x])))
                x = prev[x]
            fset.add(chord)
            break
        else:
            break

    trees = []
    for comp, _ in forest_components():
        cs = set(comp)
        trees.append(tuple(sorted(e for e in fset if e[0] in cs)))
    return PerfectForest(tuple(trees))


def check_p3_partition(t: RootedTree, part: EdgePartition) -> None:
    """Validate the partition conditions directly from the definitions."""
    n = len(t.vertices)
    assert len(part.p3s) == (n - 2) // 2, "triple count must be (n-2)/2"

    used = []
    for end_a, center, end_b in part.p3s:
        used.append(tuple(sorted((end_a, center))))
        used.append(tuple(sorted((center, end_b))))
    used.append(tuple(sorted(part.k2)))
    assert len(used) == len(set(used)), "pieces reuse an edge"
    assert sorted(set(used)) == sorted(t.edges), "pieces must cover E(T) exactly"

    depth = t.depths()
    for end_a, center, end_b in part.p3s:
        assert depth[end_a] == depth[center] + 1, "triple end must be a child of its center"
        assert depth[end_b] == depth[center] + 1, "triple end must be a child of its center"

    assert t.root in part.k2, "the root must be an end of the single edge"

    end_count = {v: 0 for v in t.vertices}
    for end_a, _, end_b in part.p3s:
        end_count[end_a] += 1
        end_count[end_b] += 1
    for v in part.k2:
        end_count[v] += 1
    assert all(c == 1 for c in end_count.values()), "each vertex ends exactly one piece"


def check_perfect_forest(g: Graph, forest: PerfectForest) -> None:
    """Validate spanning, disjoint, induced, odd, treeness from definitions."""
    seen: set[int] = set()
    for tree in forest.trees:
        vs = {v for e in tree for v in e}
        assert not (vs & seen), "trees must be vertex-disjoint"
        seen |= vs

        deg = {v: 0 for v in vs}
        for u, v in tree:
            assert g.has_edge(u, v), "forest edge missing from the graph"
            deg[u] += 1
            deg[v] += 1
        assert all(d % 2 == 1 for d in deg.values()), "all degrees must be odd"

        assert len(tree) == len(vs) - 1, "tree edge count"
        adj = {v: set() for v in vs}
        for u, v in tree:
            adj[u].add(v)
            adj[v].add(u)
        start = next(iter(vs))
        reach = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in reach:
                    reach.add(y)
                    queue.append(y)
        assert reach == vs, "tree must be connected"

        ordered = sorted(vs)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                assert g.has_edge(u, v) == ((u, v) in set(tree)), "tree must be induced"
    assert seen == set(range(g.n)), "forest must span all vertices"
