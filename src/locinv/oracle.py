"""Exact ground truth at desk scale.

A bicolored graph on n vertices packs into a single integer, row-major:
row v of the adjacency matrix sits at bits ``[n*v, n*v + n)`` and the
coloring at bits ``[n*n, n*n + n)`` (bit set means the vertex is colored
-1).  A local inversion at ``a`` with neighborhood S then XORs a fixed
integer that depends on S alone, so a move in breadth-first search is one
table lookup and one XOR.  Inversions at two non-adjacent vertices
commute, so after letter ``a`` the search tries only the letters above
``a`` and the neighbours of ``a`` below it.  The search yields shortest
transformation words, the exact color reversal number of small graphs,
and a survey of every connected graph up to :data:`MAX_CAP` vertices.

Between two colorings of one graph the search runs forward to half the
distance only (see :func:`min_flip_word`), so it visits a ball of half
the radius of the orbit: 12,225 states for the 7-vertex path (orbit
28,672), 13,047 for the 6-cycle (orbit 23,808) and 83,827 for the
7-cycle.  :data:`MAX_STATES` bounds the states of any one search.

The survey enumerates one graph per isomorphism class by vertex
augmentation, growing each order once, and searches on those
:class:`Graph` values: the 853 connected classes on 7 vertices take well
under a second, and the survey of all 995 classes up to 7 vertices runs
in under a minute on one core; only ``jobs > 1`` loads a process pool.
No search runs on more than :data:`MAX_CAP` vertices: the move table
alone has 2^n entries.
"""

from __future__ import annotations

import os
from functools import cache
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, UnsatisfiableError
from .graph_core import (
    BicoloredGraph,
    Graph,
    Word,
    _Record,
    all_plus,
    flip,
    iter_bits,
    upper_rows,
)
from .graph6 import emit_graph6, parse_graph6
from .synthesizer import color_reversal_word

# Vertex ceiling of every search, which sizes the 2^n-entry move table and
# LETTER_BITS: a larger request raises CapExceededError before allocating.
MAX_CAP = 8


# -- state packing ------------------------------------------------------


def pack_state(b: BicoloredGraph) -> int:
    """Pack a bicolored graph into one integer, adjacency rows then colors.

    Bit layout: row v of the adjacency matrix occupies bits
    ``[n*v, n*v + n)``; the coloring occupies bits ``[n*n, n*n + n)``, bit
    ``n*n + v`` set meaning vertex v is colored -1.
    """
    n = b.graph.n
    key = 0
    for v, row in enumerate(b.graph.rows):
        key |= row << (n * v)
    for v, c in enumerate(b.coloring):
        if c == -1:
            key |= 1 << (n * n + v)
    return key


@cache
def _move_table(n: int) -> tuple[int, ...]:
    """Entry S: the XOR a local inversion with neighborhood S applies to a state.

    It complements the adjacency between every two vertices of S and
    negates their colors.  The table has 2^n entries and is built the first
    time a search on n vertices needs it.
    """
    table = []
    for s in range(1 << n):
        x = s << (n * n)
        m = s
        while m:
            low = m & -m
            x ^= (s ^ low) << (n * (low.bit_length() - 1))
            m ^= low
        table.append(x)
    return tuple(table)


# -- breadth-first search ------------------------------------------------

# A visited state stores its depth above the letter that first reached it.
LETTER_BITS = (MAX_CAP - 1).bit_length()
LETTER_MASK = (1 << LETTER_BITS) - 1
# Ceiling on the states one search may hold, about 250 MB of search
# tables: a layer whose expansion could take the visited set past it raises
# CapExceededError instead.  At that check the survey up to 7 vertices
# peaks at 223,644 and the 8-cycle at 1,127,796.
MAX_STATES = 2_000_000


@cache
def _letter_table(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Entry ``[a][row]``: the ``(letter, shift)`` moves tried after letter ``a``.

    ``row`` is row a of the state.  Local inversions at two non-adjacent
    vertices commute, colors included, so after ``a`` a letter ``b < a``
    not adjacent to ``a`` only reaches a state that the word ending
    ``b a`` reaches at the same depth and earlier in vertex order; the
    entry keeps ``b > a`` and the neighbours ``b < a``, in increasing
    order.  Entry ``[n]`` is for the start state, which has no last letter:
    it tries every letter whatever its index.  Entries are shared: row a
    matters only below bit a.
    """
    moves = tuple((b, n * b) for b in range(n))
    table = []
    for a in range(n):
        after = [
            tuple(m for m in moves if m[0] > a or low >> m[0] & 1) for low in range(1 << a)
        ]
        table.append(tuple(after[row & ((1 << a) - 1)] for row in range(1 << n)))
    table.append((moves,) * (1 << n))
    return tuple(table)


def _search(start: int, goal: int, n: int) -> tuple[Word | None, int]:
    """Witness from packed state ``start`` to ``goal`` and the states visited.

    The witness is None when ``goal`` is unreachable.
    """
    moves = _move_table(n)
    after = _letter_table(n)
    full = (1 << n) - 1
    # shifts[n] reads the colors: any index does for the start's entry
    shifts = [n * a for a in range(n + 1)]
    # key -> depth << LETTER_BITS | the letter that first reached it; the
    # move at a leaves row a unchanged and is an involution, so the parent
    # is recomputed from the letter
    seen: dict[int, int] = {start: 0}
    tau = start ^ goal
    if tau >> (n * n) << (n * n) == tau:  # one graph: tau flips colors only
        meet = seen  # the distance from z to the goal is the depth of z ^ tau
    else:
        meet, tau = {goal: 0}, 0
    layer = [start]
    lasts = [n]  # the last letter of each state's first word; n at the start
    depth = 0
    while True:
        rest = None
        for y in layer:
            code = meet.get(y ^ tau)
            if code is not None and (rest is None or code >> LETTER_BITS < rest):
                rest, mid = code >> LETTER_BITS, y
                if rest < depth:  # a hit is at least depth - 1 from the goal
                    break
        if rest is not None:
            break
        if len(seen) + len(layer) * n > MAX_STATES:
            raise CapExceededError(
                f"search would exceed {MAX_STATES} states at depth {depth + 1}"
            )
        depth += 1
        base = depth << LETTER_BITS
        nxt: list[int] = []
        nlasts: list[int] = []
        for key, a in zip(layer, lasts):
            for b, shift in after[a][(key >> shifts[a]) & full]:
                nkey = key ^ moves[(key >> shift) & full]
                if nkey not in seen:
                    seen[nkey] = base | b
                    nxt.append(nkey)
                    nlasts.append(b)
        if not nxt:
            return None, len(seen)
        layer, lasts = nxt, nlasts

    letters: list[int] = []
    x = mid
    for _ in range(depth):
        a = seen[x] & LETTER_MASK
        letters.append(a)
        x ^= moves[(x >> shifts[a]) & full]
    letters.reverse()
    x = mid
    for need in range(rest - 1, -1, -1):
        for a in range(n):
            nkey = x ^ moves[(x >> shifts[a]) & full]
            code = meet.get(nkey ^ tau)
            if code is not None and code >> LETTER_BITS == need:
                break
        letters.append(a)
        x = nkey
    if x != goal:
        raise RuntimeError("meet-in-the-middle witness does not reach the target")
    return tuple(letters), len(seen)


def min_flip_word(b: BicoloredGraph, target: BicoloredGraph) -> tuple[int, Word] | None:
    """Shortest word transforming ``b`` into ``target``, or None if unreachable.

    The witness is the lexicographically first shortest word, which is the
    word plain breadth-first search returns when it tries moves in vertex
    order: by induction on the layer, a layer's discovery order is the
    lexicographic order of the first words reaching its states, since a
    state's first word extends the first word of its earliest parent by the
    smallest letter into it.  A first word never ends in ``a b`` with
    ``b < a`` and b not adjacent to a, because ``b a`` reaches the same
    state; so from a state first reached by ``a`` the search skips those
    letters (:func:`_letter_table`), which changes no discovery.

    The search runs forward only, to half the distance.  When the target
    has the start's graph, ``tau = start ^ goal`` touches colors only, so it
    commutes with every move, and every move is an involution: the distance
    from a state z to the target is the depth of ``z ^ tau``.  After each
    full layer the first state of that layer with the smallest such
    distance is a midpoint of the first shortest word; its own first word
    is the prefix, and the suffix takes, at each step, the smallest letter
    that stays on a shortest path.  A target with another graph is met only
    as itself, which makes the same loop plain breadth-first search.

    Raises :class:`CapExceededError` on more than :data:`MAX_CAP` vertices,
    and when a layer could take the search past :data:`MAX_STATES` visited
    states.
    """
    n = b.graph.n
    if target.graph.n != n:
        raise ValueError("source and target must have the same vertex count")
    if n > MAX_CAP:
        raise CapExceededError(f"{n} vertices exceed the search cap {MAX_CAP}")
    word, _ = _search(pack_state(b), pack_state(target), n)
    return None if word is None else (len(word), word)


# -- reports ---------------------------------------------------------------


class CrReport(_Record):
    """Exact color reversal data for one graph, with the synthesized word for comparison."""

    __slots__ = ("graph_id", "n", "exact_cr", "witness", "synthesized_length", "bound")
    graph_id: str
    n: int
    exact_cr: int | None
    witness: Word
    synthesized_length: int | None
    bound: int | None


def exact_cr(g: Graph) -> CrReport:
    """Exact color reversal number of ``g`` by breadth-first search.

    Searches from the all-plus coloring to the all-minus coloring; the
    flipped set of any word is coloring-independent, so this one pair
    decides reversibility for every coloring.  ``None`` entries mean the
    reversal is unreachable (isolated vertices) or synthesis declined.
    """
    start = BicoloredGraph(g, all_plus(g.n))
    target = flip(start, range(g.n))
    found = min_flip_word(start, target)
    try:
        cw = color_reversal_word(g)
        synth_len, bound = len(cw.word), cw.bound
    except UnsatisfiableError:
        synth_len, bound = None, None
    if found is None:
        return CrReport(emit_graph6(g), g.n, None, (), synth_len, bound)
    return CrReport(emit_graph6(g), g.n, found[0], found[1], synth_len, bound)


# -- enumeration -------------------------------------------------------------


def _canonical_bits(rows: Sequence[int], n: int) -> int:
    """Smallest packed upper-triangle bits over all relabelings of ``rows``.

    Labels are handed out from n - 1 down; the column of label L (its
    adjacency to labels below it) is the most significant part still open.
    The unlabeled vertices sit in ordered cells, lowest labels first, each
    owning a run of consecutive labels.  The vertex for the highest free
    label comes from the top cell, and its column is smallest when every
    cell puts that vertex's neighbours on its lowest labels: its value is
    then fixed by the neighbour count per cell, and every cell splits into
    neighbours (lower) and non-neighbours (higher).  Only the top-cell
    vertices with the smallest column survive; ties branch.  A branch is
    described by its cells alone, so branches with equal cells merge.
    """
    level = {((1 << n) - 1,)}
    bits = 0
    for top in range(n - 1, 0, -1):
        best = None
        nxt: set[tuple[int, ...]] = set()
        for cells in level:
            below, last = cells[:-1], cells[-1]
            for v in iter_bits(last):
                row = rows[v]
                col = pos = 0
                split = []
                for c in below + (last & ~(1 << v),):
                    near = c & row
                    if near:
                        col |= ((1 << near.bit_count()) - 1) << pos
                        split.append(near)
                    if c != near:
                        split.append(c ^ near)
                    pos += c.bit_count()
                if best is None or col < best:
                    best, nxt = col, set()
                if col == best:
                    nxt.add(tuple(split))
        bits |= best << (top * (top - 1) // 2)
        level = nxt
    return bits


def _levels(n_max: int) -> Iterator[list[int]]:
    """Sorted canonical bits of the connected classes of order 1, 2, ..., ``n_max``, each order grown once."""
    level = [0]  # the one-vertex graph
    yield level
    for k in range(2, n_max + 1):
        found = set()
        for bits in level:
            rows = upper_rows(k - 1, bits)
            for s in range(1, 1 << (k - 1)):
                grown = [row | (s >> i & 1) << (k - 1) for i, row in enumerate(rows)]
                grown.append(s)
                found.add(_canonical_bits(grown, k))
        level = sorted(found)
        yield level


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs on ``n`` vertices, one per isomorphism class.

    The representative of a class is its relabeling with the smallest
    packed upper-triangle bits (:func:`_canonical_bits`), and classes come
    in ascending order of those bits.  Classes of order k grow from those
    of order k - 1 by a new vertex joined to each nonempty vertex subset:
    every connected graph has a vertex whose removal leaves it connected,
    so every class arises.  Nothing is kept between calls.
    """
    *_, level = _levels(n)
    for bits in level:
        yield Graph.from_upper_bits(n, bits)


# -- survey -------------------------------------------------------------------


def survey(n_max: int, *, graph6_lines: Iterable[str] | None = None, jobs: int = 1) -> list[CrReport]:
    """Exact reports for every connected graph with 2..n_max vertices, or for each graph6 line.

    ``n_max`` above :data:`MAX_CAP` raises :class:`CapExceededError` first,
    and a negative one :class:`ValueError`.
    Graphs come from ``graph6_lines`` when given, filtered to at most
    ``n_max`` vertices and otherwise taken as they come, so graphs of order
    0 or 1 and disconnected graphs (``?``, ``@``, ``B_``) get reports too.
    Without them, internal isomorphism-free enumeration gives the connected
    graphs of order 2 and up.  Either way they reach :func:`exact_cr` as
    :class:`Graph` values.
    Workers share nothing; results keep input order, so the output is
    deterministic for fixed inputs.  ``jobs`` below 1 raises ValueError;
    more are capped at the CPU count, since more workers than cores only
    add processes.  The process pool is imported only when ``jobs > 1``.
    """
    if n_max > MAX_CAP:
        raise CapExceededError(f"n_max {n_max} exceeds the search cap {MAX_CAP}")
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if graph6_lines is not None:
        graphs = [g for g in map(parse_graph6, graph6_lines) if g.n <= n_max]
    else:
        orders = enumerate(_levels(n_max), 1)
        graphs = [Graph.from_upper_bits(n, bits) for n, level in orders if n > 1 for bits in level]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return list(map(exact_cr, graphs))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(exact_cr, graphs))


class SurveySummary(_Record):
    __slots__ = ("graphs", "max_cr", "max_ratio", "violations")
    graphs: int
    max_cr: int | None
    max_ratio: float | None
    violations: tuple[str, ...]


def summarize(reports: Iterable[CrReport]) -> SurveySummary:
    """Aggregate a survey: largest cr, largest cr/3n ratio, sandwich breaks.

    A violation is any report where exact <= synthesized <= bound fails to
    hold among its defined entries.
    """
    count = 0
    max_cr: int | None = None
    max_ratio: float | None = None
    violations: list[str] = []
    for rep in reports:
        count += 1
        if rep.exact_cr is not None:
            if max_cr is None or rep.exact_cr > max_cr:
                max_cr = rep.exact_cr
            if rep.n:  # the empty graph has no cr/3n ratio
                ratio = rep.exact_cr / (3 * rep.n)
                if max_ratio is None or ratio > max_ratio:
                    max_ratio = ratio
            if rep.synthesized_length is not None and rep.exact_cr > rep.synthesized_length:
                violations.append(f"{rep.graph_id}: exact {rep.exact_cr} > synthesized {rep.synthesized_length}")
        if (
            rep.synthesized_length is not None
            and rep.bound is not None
            and rep.synthesized_length > rep.bound
        ):
            violations.append(f"{rep.graph_id}: synthesized {rep.synthesized_length} > bound {rep.bound}")
    return SurveySummary(count, max_cr, max_ratio, tuple(violations))
