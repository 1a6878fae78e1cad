"""Exact ground truth at desk scale.

A bicolored graph on n vertices packs into a single integer, row-major:
row v of the adjacency matrix sits at bits ``[n*v, n*v + n)`` and the
coloring at bits ``[n*n, n*n + n)`` (bit set means the vertex is colored
-1).  A local inversion at ``a`` with neighborhood S then XORs a fixed
integer that depends on S alone, so breadth-first search over the n
successor moves per state is one table lookup and one XOR per move.  The
search yields shortest transformation words, the exact color reversal
number of small graphs, and an exhaustive survey of all connected graphs
up to a vertex cap.

Between two colorings of one graph the search runs forward to half the
distance only (see :func:`min_flip_word`), so it visits a ball of half
the radius of the orbit: 12,225 states for the 7-vertex path (orbit
28,672), 13,047 for the 6-cycle (orbit 23,808) and 83,827 for the
7-cycle.  The default cap is 7 vertices, and the survey of everything up
to 5 vertices runs in well under a second.  No cap lifts a
search above :data:`MAX_CAP` vertices: the move table alone has 2^n
entries, and enumeration tries every vertex permutation.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Iterable, Iterator

from .errors import CapExceededError, UnsatisfiableError
from .graph_core import (
    BicoloredGraph,
    Graph,
    Word,
    all_plus,
    flip,
    reachable_mask,
    upper_rows,
)
from .graph6 import emit_graph6
from .synthesizer import color_reversal_word

DEFAULT_CAP = 7
# Ceiling on every search, whatever ``cap`` a caller passes: a larger
# request raises CapExceededError before anything is allocated.
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


def min_flip_word(
    b: BicoloredGraph, target: BicoloredGraph, cap: int = DEFAULT_CAP
) -> tuple[int, Word] | None:
    """Shortest word transforming ``b`` into ``target``, or None if unreachable.

    The witness is the lexicographically first shortest word, which is the
    word plain breadth-first search returns when it tries moves in vertex
    order: by induction on the layer, a layer's discovery order is the
    lexicographic order of the first words reaching its states, since a
    state's first word extends the first word of its earliest parent by the
    smallest letter into it.

    The search runs forward only, to half the distance.  When the target
    has the start's graph, ``tau = start ^ goal`` touches colors only, so it
    commutes with every move, and every move is an involution: the distance
    from a state z to the target is the depth of ``z ^ tau``.  After each
    full layer the first state of that layer with the smallest such
    distance is a midpoint of the first shortest word; its own first word
    is the prefix, and the suffix takes, at each step, the smallest letter
    that stays on a shortest path.  A target with another graph is met only
    as itself, which makes the same loop plain breadth-first search.

    Raises :class:`CapExceededError` on more than ``cap`` vertices, or more
    than :data:`MAX_CAP`.
    """
    n = b.graph.n
    if target.graph.n != n:
        raise ValueError("source and target must have the same vertex count")
    limit = min(cap, MAX_CAP)
    if n > limit:
        raise CapExceededError(f"{n} vertices exceed the search cap {limit}")

    start = pack_state(b)
    goal = pack_state(target)
    moves = _move_table(n)
    full = (1 << n) - 1
    shifts = [n * a for a in range(n)]
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
        depth += 1
        steps = [(depth << LETTER_BITS | a, shift) for a, shift in enumerate(shifts)]
        nxt: list[int] = []
        for key in layer:
            for code, shift in steps:
                nkey = key ^ moves[(key >> shift) & full]
                if nkey not in seen:
                    seen[nkey] = code
                    nxt.append(nkey)
        if not nxt:
            return None
        layer = nxt

    letters: list[int] = []
    x = mid
    for _ in range(depth):
        a = seen[x] & LETTER_MASK
        letters.append(a)
        x ^= moves[(x >> shifts[a]) & full]
    letters.reverse()
    x = mid
    for need in range(rest - 1, -1, -1):
        for a, shift in enumerate(shifts):
            nkey = x ^ moves[(x >> shift) & full]
            code = meet.get(nkey ^ tau)
            if code is not None and code >> LETTER_BITS == need:
                break
        letters.append(a)
        x = nkey
    if x != goal:
        raise RuntimeError("meet-in-the-middle witness does not reach the target")
    return (len(letters), tuple(letters))


# -- reports ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CrReport:
    """Exact color reversal data for one graph, with the synthesized word for comparison."""

    graph_id: str
    n: int
    exact_cr: int | None
    witness: Word
    synthesized_length: int | None
    bound: int | None


def exact_cr(g: Graph, cap: int = DEFAULT_CAP) -> CrReport:
    """Exact color reversal number of ``g`` by breadth-first search.

    Searches from the all-plus coloring to the all-minus coloring; the
    flipped set of any word is coloring-independent, so this one pair
    decides reversibility for every coloring.  ``None`` entries mean the
    reversal is unreachable (isolated vertices) or synthesis declined.
    """
    start = BicoloredGraph(g, all_plus(g.n))
    target = flip(start, range(g.n))
    found = min_flip_word(start, target, cap=cap)
    try:
        cw = color_reversal_word(g)
        synth_len, bound = len(cw.word), cw.bound
    except UnsatisfiableError:
        synth_len, bound = None, None
    if found is None:
        return CrReport(emit_graph6(g), g.n, None, (), synth_len, bound)
    return CrReport(emit_graph6(g), g.n, found[0], found[1], synth_len, bound)


# -- enumeration -------------------------------------------------------------


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


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs on ``n`` vertices, one per isomorphism class.

    Canonical representatives minimize the packed upper-triangle bits over
    all vertex permutations, found by brute force; fine for n <= 7.
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


# -- survey -------------------------------------------------------------------


def _survey_one(args: tuple[str, int]) -> CrReport:
    from .graph6 import parse_graph6

    line, cap = args
    return exact_cr(parse_graph6(line), cap=cap)


def survey(
    n_max: int,
    *,
    graph6_lines: Iterable[str] | None = None,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> list[CrReport]:
    """Exact reports for every connected graph with 2..n_max vertices.

    Graphs come from ``graph6_lines`` when given (filtered to at most
    ``n_max`` vertices) and from internal isomorphism-free enumeration
    otherwise.  Workers share nothing; results keep input order, so the
    output is deterministic for fixed inputs.  ``jobs`` is capped at the
    CPU count, since more workers than cores only add processes.
    """
    limit = min(cap, MAX_CAP)
    if n_max > limit:
        raise CapExceededError(f"n_max {n_max} exceeds the search cap {limit}")
    if graph6_lines is not None:
        from .graph6 import parse_graph6

        ids = [line for line in graph6_lines if parse_graph6(line).n <= n_max]
    else:
        ids = [
            emit_graph6(g) for n in range(2, n_max + 1) for g in connected_graphs(n)
        ]
    tasks = [(line, cap) for line in ids]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return [_survey_one(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_survey_one, tasks))


@dataclass(frozen=True, slots=True)
class SurveySummary:
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
