"""Shared test utilities: random instance generators and independent checkers.

The checkers here are deliberately written from the definitions, not by
calling the code under test, so they can serve as oracles.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import permutations, product

from locinv.graph_core import BicoloredGraph, Graph, iter_bits, reachable_mask, upper_rows
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


def complement_rows_reference(rows: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Rows after local complementation at ``a``, toggling one neighbour pair at a time."""
    nb = [u for u in range(len(rows)) if (rows[a] >> u) & 1]
    out = list(rows)
    for i, u in enumerate(nb):
        for v in nb[i + 1 :]:
            out[u] ^= 1 << v
            out[v] ^= 1 << u
    return tuple(out)


def induced_subgraph(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph of ``g`` induced by ``s``, relabelled to ``0..|s|-1``.

    Returns the subgraph and the sorted original ids: new vertex ``i`` is
    ``ids[i]``.
    """
    ids = tuple(sorted(set(s)))
    edges = [
        (i, j)
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if g.has_edge(ids[i], ids[j])
    ]
    return Graph.from_edges(len(ids), edges), ids


def tree_adjacency(t: RootedTree) -> dict[int, set[int]]:
    """Neighbour sets of the vertices of ``t``, read off its edge tuple."""
    adj: dict[int, set[int]] = {v: set() for v in t.vertices}
    for u, v in t.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def tree_depths(t: RootedTree) -> dict[int, int]:
    """Distance of every vertex of ``t`` from its root."""
    adj = tree_adjacency(t)
    depth = {t.root: 0}
    queue = deque([t.root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)
    return depth


def unpack_state(key: int, n: int) -> BicoloredGraph:
    """Bicolored graph of a packed oracle state, read off its bit layout.

    Row v of the adjacency matrix is at bits ``[n*v, n*v + n)``; bit
    ``n*n + v`` set means vertex v is colored -1.
    """
    full = (1 << n) - 1
    g = Graph(n, tuple((key >> (n * v)) & full for v in range(n)))
    cmask = key >> (n * n)
    return BicoloredGraph(g, tuple(-1 if (cmask >> v) & 1 else 1 for v in range(n)))


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
                child = (complement_rows_reference(rows, a), colors ^ rows[a])
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


def _bit_remaps(n: int) -> list[tuple[int, ...]]:
    """For each vertex permutation, where each upper-triangle bit lands."""
    index = {}
    k = 0
    for j in range(1, n):
        for i in range(j):
            index[(i, j)] = k
            k += 1
    remaps = []
    for perm in permutations(range(n)):
        table = [0] * k
        for (i, j), src in index.items():
            pi, pj = perm[i], perm[j]
            table[src] = index[(pi, pj) if pi < pj else (pj, pi)]
        remaps.append(tuple(table))
    return remaps


def connected_graphs_reference(n: int):
    """Connected graphs on ``n`` vertices by brute force, one per class.

    Every packed upper-triangle mask is tried in ascending order, and a
    connected one is kept when no vertex permutation makes it smaller.
    This is the enumerator :func:`locinv.oracle.connected_graphs` replaced;
    it needs n! permutations per mask, so it is for n <= 6.
    """
    if n <= 1:
        yield Graph(n, (0,) * n)
        return
    remaps = _bit_remaps(n)
    nbits = n * (n - 1) // 2
    full = (1 << n) - 1
    for bits in range(1 << nbits):
        rows = upper_rows(n, bits)
        if reachable_mask(rows, 0, full) != full:
            continue
        smaller = False
        for table in remaps:
            permuted = 0
            m = bits
            while m:
                low = m & -m
                permuted |= 1 << table[low.bit_length() - 1]
                m ^= low
            if permuted < bits:
                smaller = True
                break
        if not smaller:
            yield Graph(n, tuple(rows))


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


def p3_partition_reference(t: RootedTree) -> EdgePartition:
    """Dict-adjacency P3 partition, the construction before bitmask rows.

    Each round recomputes the leaves and peels two leaf children off the
    deepest vertex next to a leaf (smallest id on ties), until the root
    and one neighbour remain.  :func:`locinv.partitioner._p3_rows` must
    return the same partition.
    """
    n = len(t.vertices)
    adj = tree_adjacency(t)
    assert n >= 2 and n % 2 == 0, "reference needs an even vertex count"
    assert all(len(nb) % 2 == 1 for nb in adj.values()), "reference needs an odd tree"
    depth = tree_depths(t)
    triples = []
    while len(adj) > 2:
        leaves = {x for x, nb in adj.items() if len(nb) == 1}
        candidates = [x for x, nb in adj.items() if nb & leaves]
        v = min(candidates, key=lambda x: (-depth[x], x))
        leaf_children = sorted(
            u for u in adj[v] if u in leaves and depth[u] == depth[v] + 1
        )
        assert len(leaf_children) >= 2, "deepest leaf-neighbor must own two leaf children"
        u, w = leaf_children[0], leaf_children[1]
        triples.append((u, v, w))
        for x in (u, w):
            adj[v].discard(x)
            del adj[x]
    (a, b) = sorted(adj)
    assert t.root in (a, b), "the root survives every peeling round"
    other = b if a == t.root else a
    return EdgePartition(tuple(triples), (t.root, other))


def labeled_odd_trees(n: int):
    """Every odd tree on the labeled vertices 0..n-1, as a sorted edge tuple.

    A vertex's degree is one more than its count in the tree's Prüfer
    sequence, so odd trees are exactly the sequences in which every vertex
    occurs an even number of times.
    """
    if n == 2:
        yield ((0, 1),)
        return
    for seq in product(range(n), repeat=n - 2):
        if any(seq.count(v) % 2 for v in set(seq)):
            continue
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (x for x in range(n) if degree[x] == 1)
        edges.append((u, w))
        yield tuple(sorted(edges))


def _tree_code(n: int, edges) -> str:
    """Canonical string of a free tree: the least rooted encoding over all roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def code(x: int, parent: int) -> str:
        return "(" + "".join(sorted(code(y, x) for y in adj[x] if y != parent)) + ")"

    return min(code(r, -1) for r in range(n))


def odd_tree_shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """One labeled representative of every odd tree on n vertices up to isomorphism.

    Grown from K2 by hanging two fresh leaves on one vertex, which reaches
    every odd tree (see :func:`random_odd_tree`).
    """
    level = {_tree_code(2, [(0, 1)]): ((0, 1),)}
    for size in range(4, n + 1, 2):
        grown: dict[str, tuple[tuple[int, int], ...]] = {}
        for edges in level.values():
            for host in range(size - 2):
                bigger = edges + ((host, size - 2), (host, size - 1))
                grown.setdefault(_tree_code(size, bigger), bigger)
        level = grown
    return list(level.values())


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

    depth = tree_depths(t)
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
