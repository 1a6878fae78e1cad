"""Bicolored graphs and the local-inversion calculus.

A bicolored graph pairs a simple undirected graph on vertices 0..n-1 with
a coloring assigning each vertex -1 or +1.  The basic move, *local
inversion* at a vertex ``a``, complements the adjacency inside the open
neighborhood of ``a`` and negates the colors of all its neighbors, leaving
``a`` itself and everything else untouched.  Words (finite sequences of
vertices) act letter by letter, left to right.

Every move is an involution, so deleting adjacent equal letters never
changes the action of a word; :func:`reduce_word` computes the unique
freely reduced form.

Adjacency is stored as one bitmask per vertex (``rows[v]`` has bit ``u``
set when ``uv`` is an edge), and a vertex set is an ``int`` mask in the
same encoding.  A local complementation costs O(deg) integer operations.
:func:`replay` is the one word-replay loop, behind every move and word
application; it also yields the flipped set, which does not depend on the
starting coloring.  :func:`component_masks` is the one loop that splits a
vertex mask into connected components.  All values are immutable;
operations return new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]
Coloring = tuple[int, ...]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def upper_rows(n: int, bits: int) -> list[int]:
    """Adjacency rows of the packed upper triangle ``bits`` on ``n`` vertices.

    Bit ``j*(j-1)/2 + i`` holds the adjacency of pair ``(i, j)`` for
    ``i < j`` (column-major pair order, as in the graph6 format).  The rows
    are symmetric and loop-free by construction; :meth:`Graph.from_upper_bits`
    wraps them in a graph.
    """
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (bits >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected {n} adjacency rows, got 0")


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected labeled graph on vertices ``0..n-1``.

    ``rows[u]`` is the bitmask of neighbors of ``u``.  The relation is kept
    symmetric and irreflexive; ``Graph(n, rows)`` raises :class:`ValueError`
    on a violation.  The named constructors and the local-complement
    operations build rows that hold this by construction and skip the check.
    """

    n: int
    rows: tuple[int, ...]

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Wrap ``rows`` without validation.

        Only for rows that are symmetric, loop-free and inside ``0..n-1`` by
        construction: rows built edge by edge after each edge was checked,
        or the result of local complementations of a valid graph.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for u, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {u} mentions vertices outside 0..{self.n - 1}")
            if row & (1 << u):
                raise ValueError(f"loop at vertex {u}")
        for u, row in enumerate(self.rows):
            for v in iter_bits(row):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        _check_count(n)
        return Graph._trusted(n, tuple(rows))

    @staticmethod
    def from_upper_bits(n: int, bits: int) -> "Graph":
        """Build a graph from packed upper-triangle bits (see :func:`upper_rows`)."""
        _check_count(n)
        return Graph._trusted(n, tuple(upper_rows(n, bits)))

    @staticmethod
    def path(t: int) -> "Graph":
        """Path on ``t`` vertices, edges i..i+1."""
        return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])

    @staticmethod
    def complete(t: int) -> "Graph":
        return Graph.from_edges(t, [(i, j) for i in range(t) for j in range(i + 1, t)])

    @staticmethod
    def star(t: int) -> "Graph":
        """Star on ``t`` vertices: center 0, leaves 1..t-1."""
        return Graph.from_edges(t, [(0, i) for i in range(1, t)])

    # -- queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(iter_bits(self.rows[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for d in iter_bits(row):
                out.append((u, u + 1 + d))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def upper_bits(self) -> int:
        """Inverse of :meth:`from_upper_bits`."""
        bits = 0
        shift = 0
        for j in range(1, self.n):
            bits |= (self.rows[j] & ((1 << j) - 1)) << shift
            shift += j
        return bits

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")


# -- connectivity helpers ---------------------------------------------


def reachable_mask(rows: Sequence[int], start: int, within: int) -> int:
    """Bitmask of vertices reachable from ``start`` inside the mask ``within``.

    ``rows`` are adjacency rows as in :attr:`Graph.rows`.
    """
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= rows[v] & within
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return reachable_mask(g.rows, 0, full) == full


def component_masks(rows: Sequence[int], within: int) -> list[int]:
    """Connected components of the subgraph of ``rows`` induced by the mask ``within``.

    One vertex mask per component, ordered by smallest vertex.
    """
    out = []
    while within:
        comp = reachable_mask(rows, (within & -within).bit_length() - 1, within)
        out.append(comp)
        within &= ~comp
    return out


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by smallest member."""
    return [frozenset(iter_bits(c)) for c in component_masks(g.rows, (1 << g.n) - 1)]


# -- coloring and bicolored graphs ------------------------------------


def all_plus(n: int) -> Coloring:
    return (1,) * n


@dataclass(frozen=True, slots=True)
class BicoloredGraph:
    """A graph together with a coloring in {-1, +1} per vertex."""

    graph: Graph
    coloring: Coloring

    def __post_init__(self) -> None:
        if len(self.coloring) != self.graph.n:
            raise ValueError(
                f"coloring has {len(self.coloring)} entries for {self.graph.n} vertices"
            )
        for v, c in enumerate(self.coloring):
            if c not in (-1, 1):
                raise ValueError(f"color of vertex {v} is {c}, expected -1 or +1")


# -- the calculus ------------------------------------------------------


def replay(rows: Sequence[int], w: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Replay ``w`` on adjacency ``rows``; return (flip mask, final rows).

    The flip mask is the XOR of ``rows[a]`` taken at each letter ``a`` as it
    is applied, which is the set of vertices whose color the word negates
    on every starting coloring.  One list is updated in place, so a letter
    costs O(deg a) integer operations.  Raises :class:`ValueError` on a
    letter outside ``0..n-1``.
    """
    n = len(rows)
    out = list(rows)
    flipped = 0
    for a in w:
        if not (0 <= a < n):
            raise ValueError(f"word letter {a} outside 0..{n - 1}")
        nb = out[a]
        flipped ^= nb
        m = nb
        while m:
            low = m & -m
            out[low.bit_length() - 1] ^= nb ^ low
            m ^= low
    return flipped, tuple(out)


def _negate(coloring: Coloring, mask: int) -> Coloring:
    return tuple(-c if (mask >> v) & 1 else c for v, c in enumerate(coloring))


def apply_word(b: BicoloredGraph, w: Sequence[int]) -> BicoloredGraph:
    """Apply the local inversions of ``w`` left to right: one :func:`replay`."""
    flipped, rows = replay(b.graph.rows, w)
    return BicoloredGraph(Graph._trusted(b.graph.n, rows), _negate(b.coloring, flipped))


def local_complement(g: Graph, a: int) -> Graph:
    """Toggle adjacency between every pair of distinct neighbors of ``a``."""
    g._check_vertex(a)
    return Graph._trusted(g.n, replay(g.rows, (a,))[1])


def local_inversion(b: BicoloredGraph, a: int) -> BicoloredGraph:
    """Local complement at ``a`` plus color negation on all neighbors of ``a``."""
    b.graph._check_vertex(a)
    return apply_word(b, (a,))


def flip(b: BicoloredGraph, s: Iterable[int]) -> BicoloredGraph:
    """Negate the colors on ``s``; the graph is unchanged."""
    sm = mask_of(s)
    if sm >> b.graph.n:
        raise ValueError("flip set mentions vertices outside the graph")
    return BicoloredGraph(b.graph, _negate(b.coloring, sm))


def reduce_word(w: Sequence[int]) -> Word:
    """Freely reduce ``w`` by cancelling adjacent equal letters.

    One stack pass yields the normal form; the rewriting is terminating and
    confluent, so the result does not depend on cancellation order, and the
    reduced word acts exactly like the original on every bicolored graph.
    """
    out: list[int] = []
    for x in w:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)
