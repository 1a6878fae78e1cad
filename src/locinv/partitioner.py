"""The two decompositions behind odd-tree and even-subgraph reversal.

Both work on neighbour bitmask rows of a host graph (``rows[v]`` as in
:attr:`locinv.graph_core.Graph.rows`) restricted to a vertex set given as
an ``int`` mask, so a piece of a larger graph is decomposed in place, with
no relabelled copy.

* :func:`perfect_forest` finds a spanning forest of a connected even-order
  induced subgraph whose trees are induced subgraphs and odd trees (every
  vertex of odd degree), one vertex mask per tree.  It starts from an
  odd-degree spanning subforest of a BFS tree, which is acyclic, so no
  cycle needs removing, and then resolves chords one component at a time
  from a worklist, splitting with
  :func:`locinv.graph_core.component_masks`; each swap preserves every
  degree parity and strictly shrinks the edge set, so the loop terminates
  with induced odd trees.

* :func:`p3_partition` splits the edges of such a tree, rooted at one of
  its vertices, into length-2 paths plus a single edge at the root, with
  the properties the synthesizer relies on: path ends are children of
  their centre, the root is an end of the single edge, and every vertex is
  an end of exactly one piece.

Both run in time polynomial in the graph size and are deterministic: ties
break toward smaller vertex ids throughout.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Sequence

from .graph_core import bfs_layers, component_masks, iter_bits


def p3_partition(rows: Sequence[int], tree: int, root: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """P3 partition of the odd tree on the vertex mask ``tree``, rooted at ``root``.

    Returns the (end, centre, end) triples and ``v``, the root's partner in
    the final edge.  ``tree`` must be an induced odd tree of ``rows`` that
    contains ``root``, so its edges are ``rows[x] & tree``; otherwise
    :class:`ValueError`.  The check reads each vertex's degree in the tree
    (odd, summing to 2(k-1)) and the layers of
    :func:`locinv.graph_core.bfs_layers` from the root (covering ``tree``).

    The peel follows the inductive argument and reads those layers: the
    vertices of the deepest layer are leaves, and the deepest vertices next
    to a leaf are their parents one layer up.  Every non-root vertex has an
    even number of children, so the smallest such parent gives up its two
    smallest leaf children ``u < w`` as the triple (u, parent, w), again and
    again, until it has none, then the next parent in increasing order,
    then the layer above.  The root keeps its largest child, which forms the
    final edge.
    """
    if tree >> len(rows) or root < 0 or not tree >> root & 1:
        raise ValueError(f"the tree mask must lie inside 0..{len(rows) - 1} and hold the root {root}")
    layers = list(bfs_layers(rows, root, tree))
    degrees = 0
    for x in iter_bits(tree):
        deg = (rows[x] & tree).bit_count()
        if not deg & 1:
            raise ValueError(f"vertex {x} has even degree {deg} in the tree")
        degrees += deg
    if sum(layers) != tree or degrees != 2 * (tree.bit_count() - 1):
        raise ValueError("the vertex mask does not induce a tree")
    triples: list[tuple[int, int, int]] = []
    for d in range(len(layers) - 1, 0, -1):
        below = layers[d]
        for x in iter_bits(layers[d - 1]):
            kids = rows[x] & below
            while kids & (kids - 1):
                u = kids & -kids
                kids ^= u
                w = kids & -kids
                kids ^= w
                triples.append((u.bit_length() - 1, x, w.bit_length() - 1))
    # the last parent visited is the root, left with one child
    return tuple(triples), kids.bit_length() - 1


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
    if within >> len(rows):  # also true for a negative mask
        raise ValueError(f"the vertex mask must lie inside 0..{len(rows) - 1}")
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


def perfect_forest(rows: Sequence[int], within: int) -> list[int]:
    """Perfect forest of the subgraph of ``rows`` induced by ``within``, one mask per tree.

    The mask must lie inside ``0..len(rows)-1`` and the subgraph must be
    connected with an even vertex count, or :class:`ValueError` is raised.
    The forest is a list of rows, one neighbour bitmask per vertex, and
    starts as :func:`_odd_spanning_rows`, which is acyclic with every degree
    odd.  A worklist holds vertex masks, each split into forest components by
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

    done.sort(key=lambda c: (c & -c).bit_length())
    for comp in done:
        degrees = 0
        for u in iter_bits(comp):
            if f[u] != rows[u] & comp or not f[u].bit_count() & 1:
                raise RuntimeError(f"forest tree at vertex {u} is not an induced odd tree")
            degrees += f[u].bit_count()
        if degrees != 2 * (comp.bit_count() - 1):
            raise RuntimeError(f"forest piece {sorted(iter_bits(comp))} is not a tree")
    return done
