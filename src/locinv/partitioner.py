"""Structural decompositions that feed word synthesis.

Both constructions work on neighbour bitmask rows of a host graph
(``rows[v]`` as in :attr:`locinv.graph_core.Graph.rows`) restricted to a
vertex set given as an ``int`` mask, so a piece of a larger graph is
decomposed in place, with no relabelled copy.  A :class:`RootedTree`
validates a tree given by its edges and exposes it in the same encoding:
:meth:`RootedTree.rows` maps each tree vertex to its neighbour mask.

* :func:`_p3_rows` splits the edges of a rooted odd tree (every vertex of
  odd degree) into length-2 paths plus a single edge at the root, with the
  properties the synthesizer relies on: path ends are children of their
  center, the root is an end of the single edge, and every vertex is an
  end of exactly one piece.  :func:`p3_partition` is its
  :class:`RootedTree` form, run on the tree's rows.

* :func:`_forest_masks` finds a spanning forest of a connected even-order
  induced subgraph whose trees are induced subgraphs and odd trees, one
  vertex mask per tree.  It starts from an odd-degree spanning subforest
  of a BFS tree, which is acyclic, so no cycle needs removing, and then
  resolves chords one component at a time from a worklist, splitting
  with :func:`locinv.graph_core.component_masks`; each swap
  preserves every degree parity and strictly shrinks the edge set, so the
  loop terminates with induced odd trees.  :func:`perfect_forest` is its
  edge-tuple form for a whole graph.

Both run in time polynomial in the graph size and are deterministic: ties
break toward smaller vertex ids throughout.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Sequence

from .graph_core import Graph, _Record, bfs_layers, component_masks, iter_bits, mask_of, reachable_mask

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class RootedTree(_Record):
    """A tree on an arbitrary vertex set with a distinguished root.

    The constructor sorts the edges and checks that they span the vertex
    set as a tree; :meth:`rows` gives the tree's neighbour bitmasks.
    """

    __slots__ = ("vertices", "edges", "root")
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
        for u, v in es:
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        tree = mask_of(vs)
        if reachable_mask(self.rows(), self.root, tree) != tree:
            raise ValueError("tree edges do not connect the vertex set")

    def rows(self) -> dict[int, int]:
        """Neighbour bitmask of each tree vertex, in the encoding of :attr:`Graph.rows`."""
        rows = dict.fromkeys(self.vertices, 0)
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return rows

    def is_odd_tree(self) -> bool:
        return all(row.bit_count() & 1 for row in self.rows().values())


class EdgePartition(_Record):
    """Edges of an odd tree split into (end, center, end) triples plus one edge.

    The single edge keeps the root as its first entry.
    """

    __slots__ = ("p3s", "k2")
    p3s: tuple[tuple[int, int, int], ...]
    k2: Edge


def _p3_rows(rows: Sequence[int], tree: int, root: int) -> EdgePartition:
    """P3 partition of the odd tree on the vertex mask ``tree``, rooted at ``root``.

    ``tree`` must be an induced odd tree of ``rows``, so its edges are
    ``rows[v] & tree``.  This is the peel of :func:`p3_partition` read off
    the layers of :func:`locinv.graph_core.bfs_layers` from the root: the
    vertices of the deepest layer are leaves, and the deepest vertices next
    to a leaf are their parents one layer up.  So the smallest such parent
    gives up its two smallest leaf children as a triple, again and again,
    until it has none (every non-root vertex has an even number of
    children), then the next parent in increasing order, then the layer
    above.  The root keeps its largest child, which forms the final edge.
    """
    layers = list(bfs_layers(rows, root, tree))
    triples: list[tuple[int, int, int]] = []
    for d in range(len(layers) - 1, 0, -1):
        below = layers[d]
        for v in iter_bits(layers[d - 1]):
            kids = rows[v] & below
            while kids & (kids - 1):
                u = kids & -kids
                kids ^= u
                w = kids & -kids
                kids ^= w
                triples.append((u.bit_length() - 1, v, w.bit_length() - 1))
    # the last parent visited is the root, left with one child
    return EdgePartition(tuple(triples), (root, kids.bit_length() - 1))


def p3_partition(t: RootedTree) -> EdgePartition:
    """Partition an even-order odd tree into (end, center, end) triples and one edge.

    Follows the inductive peeling argument: take the deepest vertex ``v``
    adjacent to a leaf (smallest id on ties); all its children are then
    leaves, and since deg(v) is odd and at least 3 it has two leaf children
    ``u < w`` to detach as the triple (u, v, w).  What remains is a smaller
    odd tree; after (n-2)/2 rounds only the root and one neighbor survive,
    forming the final edge.  The tree's :meth:`RootedTree.rows` are
    partitioned by :func:`_p3_rows`.
    """
    n = len(t.vertices)
    if n < 2 or n % 2 == 1:
        raise ValueError(f"need an even vertex count >= 2, got {n}")
    if not t.is_odd_tree():
        raise ValueError("every tree vertex must have odd degree")
    return _p3_rows(t.rows(), mask_of(t.vertices), t.root)


def _odd_spanning_rows(rows: Sequence[int], within: int) -> list[int]:
    """Forest rows of an odd-degree spanning subgraph of ``rows`` on ``within``.

    The subgraph induced by the mask ``within`` must be connected with an
    even vertex count.  Root a BFS spanning tree at its smallest vertex and
    sweep it children-first: a vertex keeps the edge to its parent exactly
    when its degree so far is even.  Every non-root ends odd by
    construction, and the root follows because the total degree sum is even
    and the vertex count is even.  Only tree edges are kept, so the result
    has no cycle.  The result has one row per entry of ``rows``; rows
    outside ``within`` stay 0.
    """
    k = within.bit_count()
    if k < 2 or k % 2 == 1:
        raise ValueError(f"need an even vertex count >= 2, got {k}")
    root = (within & -within).bit_length() - 1
    parent = [0] * len(rows)
    order = [root]
    seen = 1 << root
    for x in order:  # a growing FIFO queue, not bfs_layers: its parent order fixes the forest
        fresh = rows[x] & within & ~seen
        seen |= fresh
        for y in iter_bits(fresh):
            parent[y] = x
            order.append(y)
    if len(order) != k:
        raise ValueError("graph must be connected")

    f = [0] * len(rows)
    for v in reversed(order[1:]):
        if not f[v].bit_count() & 1:
            p = parent[v]
            f[v] |= 1 << p
            f[p] |= 1 << v
    return f


def _swap_chord(f: list[int], u: int, v: int) -> None:
    """Replace the forest path from ``u`` to ``v`` by the chord ``uv``, in place."""
    layers = list(takewhile(lambda layer: not (layer >> v) & 1, bfs_layers(f, u, -1)))
    # in a tree each vertex has one neighbour in the layer before its own
    x = v
    for layer in reversed(layers):
        back = f[x] & layer
        y = back.bit_length() - 1
        f[x] ^= 1 << y
        f[y] ^= 1 << x
        x = y
    f[u] |= 1 << v
    f[v] |= 1 << u


def _forest_masks(rows: Sequence[int], within: int) -> list[int]:
    """Perfect forest of the subgraph of ``rows`` induced by ``within``, one mask per tree.

    The subgraph must be connected with an even vertex count.  The forest
    is a list of rows, one neighbour bitmask per vertex, and starts as
    :func:`_odd_spanning_rows`, which is acyclic with every degree odd.  A
    worklist holds vertex masks, each split into forest components by
    :func:`locinv.graph_core.component_masks`.  A component with a chord (a
    graph edge between two of its vertices that is not a forest edge) takes
    its lexicographically first chord in place of the tree path between the
    chord's ends, read off :func:`locinv.graph_core.bfs_layers` of the
    forest; that keeps every degree parity, drops at least one edge and
    splits the component, so the component goes back on the worklist.  A
    component without a chord is an induced odd tree, so its edges are
    ``rows[v] & mask``.  Swaps in one component never touch another, so the
    result equals that of always resolving the first chord of the component
    with the smallest vertex.  Trees come out ordered by smallest vertex.

    Raises :class:`RuntimeError` if a resulting tree is not induced, has a
    vertex of even degree, or has the wrong edge count; the check does not
    rely on ``assert``.
    """
    f = _odd_spanning_rows(rows, within)
    work = [within]
    done: list[int] = []
    while work:
        for comp in component_masks(f, work.pop()):
            for u in iter_bits(comp):
                chords = rows[u] & comp & ~f[u] & ~((2 << u) - 1)
                if chords:
                    _swap_chord(f, u, (chords & -chords).bit_length() - 1)
                    work.append(comp)
                    break
            else:
                done.append(comp)

    done.sort(key=lambda c: c & -c)
    for comp in done:
        degrees = 0
        for u in iter_bits(comp):
            if f[u] != rows[u] & comp or not f[u].bit_count() & 1:
                raise RuntimeError(f"forest tree at vertex {u} is not an induced odd tree")
            degrees += f[u].bit_count()
        if degrees != 2 * (comp.bit_count() - 1):
            raise RuntimeError(f"forest piece {sorted(iter_bits(comp))} is not a tree")
    return done


def perfect_forest(g: Graph) -> tuple[tuple[Edge, ...], ...]:
    """Spanning forest of induced odd trees of a connected even-order graph.

    The trees of :func:`_forest_masks` on all of ``g``, as sorted edge
    tuples ordered by smallest vertex.  Raises :class:`ValueError` on an
    odd-order or disconnected graph and :class:`RuntimeError` if the
    forest fails its postcondition.
    """
    rows = g.rows
    return tuple(
        tuple((u, v) for u in iter_bits(comp) for v in iter_bits(rows[u] & comp & ~((2 << u) - 1)))
        for comp in _forest_masks(rows, (1 << g.n) - 1)
    )
