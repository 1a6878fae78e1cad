"""Structural decompositions that feed word synthesis.

Two constructions live here:

* :func:`p3_partition` splits the edges of a rooted odd tree (every vertex
  of odd degree) into length-2 paths plus a single edge at the root, with
  the properties the synthesizer relies on: path ends are children of their
  center, the root is an end of the single edge, and every vertex is an end
  of exactly one piece.

* :func:`perfect_forest` finds a spanning forest of a connected even-order
  graph whose trees are induced subgraphs and odd trees.  It works on one
  neighbour bitmask per vertex.  It starts from an odd-degree spanning
  subforest of a BFS tree, which is acyclic, so no cycle needs removing,
  and then resolves chords one component at a time from a worklist; each
  swap preserves every degree parity and strictly shrinks the edge set, so
  the loop terminates with induced odd trees.

Both run in time polynomial in the graph size and are deterministic: ties
break toward smaller vertex ids throughout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph_core import Graph, iter_bits, reachable_mask

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, slots=True)
class RootedTree:
    """A tree on an arbitrary vertex set with a distinguished root."""

    vertices: frozenset[int]
    edges: tuple[Edge, ...]
    root: int

    def __post_init__(self) -> None:
        vs = frozenset(self.vertices)
        es = tuple(sorted(_norm_edge(u, v) for u, v in self.edges))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        if self.root not in vs:
            raise ValueError(f"root {self.root} not among the tree vertices")
        if len(es) != len(vs) - 1:
            raise ValueError(f"{len(vs)} vertices need {len(vs) - 1} tree edges, got {len(es)}")
        adj = self.adjacency()
        for u, v in es:
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if seen != vs:
            raise ValueError("tree edges do not connect the vertex set")

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_odd_tree(self) -> bool:
        adj = self.adjacency()
        return all(len(adj[v]) % 2 == 1 for v in self.vertices)

    def depths(self) -> dict[int, int]:
        """Distance of every vertex from the root."""
        adj = self.adjacency()
        depth = {self.root: 0}
        queue = deque([self.root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    queue.append(y)
        return depth


@dataclass(frozen=True, slots=True)
class EdgePartition:
    """Edges of an odd tree split into (end, center, end) triples plus one edge.

    The single edge keeps the root as its first entry.
    """

    p3s: tuple[tuple[int, int, int], ...]
    k2: Edge


@dataclass(frozen=True, slots=True)
class PerfectForest:
    """Vertex-disjoint induced odd trees covering the whole graph.

    ``trees`` holds one sorted edge tuple per tree, ordered by smallest
    vertex.
    """

    trees: tuple[tuple[Edge, ...], ...]

    def vertex_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(v for e in tree for v in e) for tree in self.trees
        )


def p3_partition(t: RootedTree) -> EdgePartition:
    """Partition an even-order odd tree into (end, center, end) triples and one edge.

    Follows the inductive peeling argument: take the deepest vertex ``v``
    adjacent to a leaf (smallest id on ties); all its children are then
    leaves, and since deg(v) is odd and at least 3 it has two leaf children
    ``u < w`` to detach as the triple (u, v, w).  What remains is a smaller
    odd tree; after (n-2)/2 rounds only the root and one neighbor survive,
    forming the final edge.
    """
    n = len(t.vertices)
    if n < 2 or n % 2 == 1:
        raise ValueError(f"need an even vertex count >= 2, got {n}")
    if not t.is_odd_tree():
        raise ValueError("every tree vertex must have odd degree")

    depth = t.depths()
    adj = t.adjacency()
    triples: list[tuple[int, int, int]] = []
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


def _odd_spanning_rows(g: Graph) -> list[int]:
    """Forest rows of an odd-degree spanning subgraph of a connected even-order graph.

    Root a BFS spanning tree at vertex 0 and sweep it children-first: a
    vertex keeps the edge to its parent exactly when its degree so far is
    even.  Every non-root ends odd by construction, and the root follows
    because the total degree sum is even and n is even.  Only tree edges
    are kept, so the result has no cycle.
    """
    n = g.n
    if n < 2 or n % 2 == 1:
        raise ValueError(f"need an even vertex count >= 2, got {n}")
    parent = [0] * n
    order = [0]
    seen = 1
    for x in order:  # order grows while it is read: a FIFO queue
        fresh = g.rows[x] & ~seen
        seen |= fresh
        for y in iter_bits(fresh):
            parent[y] = x
            order.append(y)
    if len(order) != n:
        raise ValueError("graph must be connected")

    f = [0] * n
    for v in reversed(order[1:]):
        if not f[v].bit_count() & 1:
            p = parent[v]
            f[v] |= 1 << p
            f[p] |= 1 << v
    return f


def odd_degree_spanning_subgraph(g: Graph) -> frozenset[Edge]:
    """Spanning edge set of a connected even-order graph with all degrees odd.

    The edges of :func:`_odd_spanning_rows`: a subforest of the BFS tree
    rooted at vertex 0.
    """
    f = _odd_spanning_rows(g)
    return frozenset((u, v) for u in range(g.n) for v in iter_bits(f[u] & ~((2 << u) - 1)))


def _swap_chord(f: list[int], u: int, v: int) -> None:
    """Replace the forest path from ``u`` to ``v`` by the chord ``uv``, in place."""
    layers = [1 << u]
    seen = 1 << u
    while not (layers[-1] >> v) & 1:
        frontier = 0
        for x in iter_bits(layers[-1]):
            frontier |= f[x]
        frontier &= ~seen
        seen |= frontier
        layers.append(frontier)
    # in a tree each vertex has one neighbour in the layer before its own
    x = v
    for layer in reversed(layers[:-1]):
        back = f[x] & layer
        y = back.bit_length() - 1
        f[x] ^= 1 << y
        f[y] ^= 1 << x
        x = y
    f[u] |= 1 << v
    f[v] |= 1 << u


def perfect_forest(g: Graph) -> PerfectForest:
    """Spanning forest of induced odd trees of a connected even-order graph.

    The forest is a list of rows, one neighbour bitmask per vertex, and
    starts as :func:`_odd_spanning_rows`, which is acyclic with every
    degree odd.  A worklist holds vertex sets to split into forest
    components.  A component with a chord (a graph edge between two of its
    vertices that is not a forest edge) takes its lexicographically first
    chord in place of the tree path between the chord's ends; that keeps
    every degree parity, drops at least one edge and splits the component,
    so the component goes back on the worklist.  A component without a
    chord is an induced odd tree.  Swaps in one component never touch
    another, so the result equals that of always resolving the first chord
    of the component with the smallest vertex.  Trees come out ordered by
    smallest vertex.

    Raises :class:`RuntimeError` if a resulting tree is not induced, has a
    vertex of even degree, or has the wrong edge count; the check does not
    rely on ``assert``.
    """
    rows = g.rows
    f = _odd_spanning_rows(g)
    work = [(1 << g.n) - 1]
    done: list[int] = []
    while work:
        rest = work.pop()
        while rest:
            comp = reachable_mask(f, (rest & -rest).bit_length() - 1, rest)
            rest &= ~comp
            for u in iter_bits(comp):
                chords = rows[u] & comp & ~f[u] & ~((2 << u) - 1)
                if chords:
                    _swap_chord(f, u, (chords & -chords).bit_length() - 1)
                    work.append(comp)
                    break
            else:
                done.append(comp)

    trees = []
    for comp in sorted(done, key=lambda c: c & -c):
        tree = []
        for u in iter_bits(comp):
            if f[u] != rows[u] & comp or not f[u].bit_count() & 1:
                raise RuntimeError(f"forest tree at vertex {u} is not an induced odd tree")
            tree.extend((u, v) for v in iter_bits(f[u] & ~((2 << u) - 1)))
        if len(tree) != comp.bit_count() - 1:
            raise RuntimeError(f"forest piece {sorted(iter_bits(comp))} is not a tree")
        trees.append(tuple(tree))
    return PerfectForest(tuple(trees))
