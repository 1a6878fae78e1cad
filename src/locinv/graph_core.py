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
starting coloring.  It decodes each letter's neighbourhood by peeling its
top bit, O(deg a) row operations per letter.  An alternating run
``a b a b ...`` on an edge ab costs at most three letters: ``(ab)^3``
restores the graph and flips exactly {a, b}, so whole blocks of six
letters are skipped.
:func:`bfs_layers` is the one breadth-first loop, :func:`component_masks`
the one that splits a vertex mask into connected components, and
:func:`cut_vertices` the one depth-first search.  All values are
immutable; operations return new values.
:class:`_Record` is the slotted base of every record type in the package.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

Word = tuple[int, ...]
Coloring = tuple[int, ...]


class _Record:
    """Immutable record whose fields are its ``__slots__``, in order.

    Construction takes the fields by position or keyword, sets them and
    then runs the ``__post_init__`` hook (validation, normalisation).
    Equality is by type and fields, the hash is that of the field tuple,
    and the repr reads ``Name(field=value, ...)``.  Pickling and copying
    rebuild through the constructor, so the hook runs again.  Assignment
    and deletion raise :class:`AttributeError`; the hook and a trusted
    constructor set fields with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        names = self.__slots__
        where = f"{type(self).__name__}()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{where} missing required arguments: {', '.join(map(repr, missing))}")
        return [values[name] for name in names]

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


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


class Graph(_Record):
    """Simple undirected labeled graph on vertices ``0..n-1``.

    ``rows[u]`` is the bitmask of neighbors of ``u``.  The relation is kept
    symmetric and irreflexive; ``Graph(n, rows)`` stores ``rows`` as a tuple
    and raises :class:`ValueError` on a violation.  The named constructors and
    the local-complement operations build rows that hold this by construction
    and skip the check.
    """

    __slots__ = ("n", "rows")
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
        object.__setattr__(self, "rows", tuple(self.rows))
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


def bfs_layers(rows: Sequence[int], start: int, within: int) -> Iterator[int]:
    """Breadth-first layers from ``start`` inside the mask ``within``, as vertex masks.

    The first is ``1 << start``, each later one the union of ``rows[v]`` over
    the previous layer, inside ``within``, less all earlier layers.
    """
    seen = layer = 1 << start
    while layer:
        yield layer
        nxt = 0
        for v in iter_bits(layer):
            nxt |= rows[v]
        layer = nxt & within & ~seen
        seen |= layer


def reachable_mask(rows: Sequence[int], start: int, within: int) -> int:
    """Bitmask of vertices reachable from ``start`` inside the mask ``within``."""
    seen = 0
    for layer in bfs_layers(rows, start, within):
        seen |= layer
    return seen


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


def cut_vertices(rows: Sequence[int], within: int) -> int:
    """Mask of the cut vertices of the connected subgraph induced by the mask ``within``.

    A cut vertex is one whose removal disconnects the rest.  One iterative
    depth-first search with low points (Hopcroft and Tarjan) finds them
    all in O(k + m) row operations for k vertices and m edges.  An edge
    back to the parent lowers a low point to the parent's order at most,
    which does not change the test ``low[v] >= order[p]``, so it needs no
    exclusion.
    """
    root = (within & -within).bit_length() - 1
    order = {root: 0}
    low = {root: 0}
    cut = 0
    root_children = 0
    stack = [(root, iter_bits(rows[root] & within))]
    while stack:
        v, nbrs = stack[-1]
        for u in nbrs:
            if u not in order:
                order[u] = low[u] = len(order)
                stack.append((u, iter_bits(rows[u] & within)))
                break
            low[v] = min(low[v], order[u])
        else:
            stack.pop()
            if not stack:
                break
            p = stack[-1][0]
            low[p] = min(low[p], low[v])
            if p == root:
                root_children += 1
            elif low[v] >= order[p]:
                cut |= 1 << p
    if root_children > 1:
        cut |= 1 << root
    return cut


# -- coloring and bicolored graphs ------------------------------------


def all_plus(n: int) -> Coloring:
    return (1,) * n


class BicoloredGraph(_Record):
    """A graph together with a coloring in {-1, +1} per vertex, stored as a tuple."""

    __slots__ = ("graph", "coloring")
    graph: Graph
    coloring: Coloring

    def __post_init__(self) -> None:
        object.__setattr__(self, "coloring", tuple(self.coloring))
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
    on every starting coloring.  One list is updated in place: a letter
    ``a`` XORs its neighbourhood ``nb`` into the row of each neighbour,
    a single row operation per neighbour.  That also toggles the
    neighbour's own diagonal bit, so while the word runs the diagonal is
    don't-care: a letter drops its own bit from ``nb``, and at the end the
    diagonal, which then equals the flip mask, is cleared by peeling it.

    The neighbours of a letter are peeled from ``nb``'s highest bit down,
    one shift and one XOR of a shrinking mask per neighbour, so a letter
    costs O(deg a) row operations of O(n/64) machine words each.  Raises
    :class:`ValueError` on a letter outside ``0..n-1``.

    An alternating run ``a b a b ...`` of m >= 4 letters on an edge ab
    (both letters in range, ``b`` a neighbour of ``a`` when the run
    starts) is replayed in closed form.  Write m = 6q + r.  The run XORs
    ``{a, b}`` into the flip mask ``q + [r >= 4]`` times, and toggles the
    diagonal bits of a and b as often, so the diagonal still follows the
    flip mask; then it replays the remainder ``()``, ``(a,)``, ``(a, b)``,
    ``(a, b, a)``, ``(b, a)`` or ``(b,)`` for r = 0..5 as ordinary
    letters.  So a run costs at most three letters, and the result is the
    one the per-letter replay returns:

    - A move at v toggles only pairs inside N(v), which never holds v, so
      every letter of the run still sees the edge ab.
    - On an edge, ``a b a`` and ``b a b`` act alike on the graph (the
      pivot; Bouchet, Combinatorica 1991).  Hence ``(ab)^3 = aba bab =
      aba aba``, which cancels to the empty word: the graph comes back.
    - Its flip set is ``{a, b}`` in every host.  A word on a and b acts on
      another vertex only through its attachment set to {a, b}, and on a
      pair of them only through their two attachment sets and their own
      edge; a vertex attached to neither is never touched.  The tier-1 test
      ``test_alternating_runs_in_every_attachment_host`` replays runs of 1
      to 12 letters on every host with ab an edge and two outside copies
      of each attachment set {a}, {b} and {a, b} (all 2^15 edge sets among
      the six) against the per-letter loop.
    - So ``(ab)^3`` changes no row and flips ``{a, b}`` whatever the graph,
      and commutes with the letters around it.  The two identities
      ``abab = (ab)^3 b a`` and ``ababa = (ab)^3 b`` (every letter is an
      involution) give the remainders for r = 4 and 5.
    """
    n = len(rows)
    out = list(rows)
    flipped = 0
    w = tuple(w)
    end = len(w)
    pos = 0
    while pos < end:
        a = w[pos]
        if not (0 <= a < n):
            raise ValueError(f"word letter {a} outside 0..{n - 1}")
        pos += 1
        letters = (a,)
        if pos + 2 < end and w[pos + 1] == a:
            b = w[pos]
            if w[pos + 2] == b and b != a and 0 <= b < n and out[a] >> b & 1:
                # a run a b a b ... of m >= 4 letters on the edge ab
                stop = pos + 3
                while stop < end and w[stop] == w[stop - 2]:
                    stop += 1
                q, r = divmod(stop - pos + 1, 6)
                if (q + (r >= 4)) & 1:
                    flipped ^= 1 << a | 1 << b
                    out[a] ^= 1 << a
                    out[b] ^= 1 << b
                letters = ((), (a,), (a, b), (a, b, a), (b, a), (b,))[r]
                pos = stop
        for a in letters:
            nb = out[a]
            if nb >> a & 1:
                nb ^= 1 << a
            flipped ^= nb
            m = nb
            while m:
                top = m.bit_length() - 1
                out[top] ^= nb
                m ^= 1 << top
    m = flipped
    while m:
        top = m.bit_length() - 1
        bit = 1 << top
        out[top] ^= bit
        m ^= bit
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
    """Negate the colors on ``s``, vertices in ``0..n-1`` (else ValueError); the graph is unchanged."""
    sm = 0
    for v in s:
        b.graph._check_vertex(v)
        sm |= 1 << v
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
