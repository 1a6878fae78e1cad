"""Bound-certified word synthesis.

Every public operation returns a :class:`CertifiedWord`: a word together
with the vertex set it flips, a length bound, and a tag describing the
construction path.  Replaying the word on any coloring of the target graph
flips exactly ``target_flip`` and restores the graph.  The flipped set does
not depend on the starting coloring, so :func:`verify_certificate` decides
a certificate exactly with one bitmask replay
(:func:`locinv.graph_core.replay`).  :func:`color_reversal_word` and
:func:`transform_word` run it on every word before returning it, so a
false certificate raises :class:`VerificationError` instead of leaving the
library, also under ``python -O``.

Building blocks (lengths in letters):

* ``gadget_edge(a, b)``, 6: flips {a, b} across an edge ab.
* ``gadget_triangle(a, b, c)``, 7: flips {a} on a triangle abc.
* ``gadget_p3_ends(a, b, c)``, 8: flips {a, b} when c sees both and ab is
  a non-edge.
* ``gadget_p3_end(a, b, c)``, 7: flips {a} under the same hypotheses.
* The 3-vertex piece words, 9, on sorted ids: ``p,q,p,q,r,q,r,p,r`` for a
  triangle pqr and ``a,c,a,b,a,b,c,b,c`` for a path with ends a < b and
  centre c.  Each flips exactly the piece and restores every edge in any
  host graph, so one word serves both a whole component and a piece of a
  flip set.

On top of those: whole-graph color reversal within 4n-4 (n even) or 4n-3
(n odd) letters per connected component, arbitrary recoloring within
floor((11n-3)/2) letters (and at most 4n), and explicit 3n-letter words
for stars and complete graphs.  A color reversal is the recoloring whose
flip set is every vertex, so both tasks build their word in one place,
``_flip_set_word``, which picks each piece's word by its shape.

Each construction has one private row core that takes the host graph's
adjacency rows and its vertex sets as ``int`` masks, from the component
split (:func:`locinv.graph_core.component_masks`) down to the gadgets:
``_vertex_gadget``, ``_odd_tree_word``, ``_even_subgraph_word``,
``_odd_subgraph_word`` and ``_flip_set_word``.  The cores trust their
inputs and call each other directly.  An anchored word (odd tree, even
subgraph) always ends with its anchor; the odd-subgraph splice that needs
a word starting with the shared letter runs its triangle gadget reversed,
which is the gadget's inverse and flips the same vertex.  The public entry
points are :func:`color_reversal_word`, :func:`transform_word`,
:func:`star_word`, :func:`complete_word`, the gadgets and
:func:`verify_certificate`.  A ``frozenset`` is built only for the public
:attr:`CertifiedWord.target_flip`.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BoundExceededError, UnsatisfiableError, VerificationError
from .graph_core import (
    BicoloredGraph,
    Graph,
    Word,
    _Record,
    apply_word,  # noqa: F401  module attribute wrapped by bench/tracer.py
    component_masks,
    cut_vertices,
    iter_bits,
    mask_of,
    reachable_mask,
    reduce_word,
    replay,
)
from .partitioner import p3_partition, perfect_forest


class CertifiedWord(_Record):
    """A word plus the claim it certifies.

    ``word`` flips exactly ``target_flip`` and restores the underlying
    graph; ``len(word) <= bound`` always holds, and ``construction`` names
    the synthesis path that produced it.  The word is stored as a tuple and
    the target as a frozenset.  Builders return the word freely
    reduced: every letter is an involution, so cancelling two equal
    neighbours never changes what the word certifies.
    """

    __slots__ = ("word", "target_flip", "bound", "construction")
    word: Word
    target_flip: frozenset[int]
    bound: int
    construction: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "target_flip", frozenset(self.target_flip))
        if len(self.word) > self.bound:
            raise BoundExceededError(
                f"{self.construction}: word of length {len(self.word)} exceeds bound {self.bound}",
                witness={"word": self.word, "bound": self.bound},
            )


# -- constant gadgets ---------------------------------------------------


def gadget_edge(a: int, b: int) -> Word:
    """Flip {a, b}; valid whenever ab is an edge at application time."""
    return (a, b, a, b, a, b)


def gadget_triangle(a: int, b: int, c: int) -> Word:
    """Flip {a}; valid whenever abc is a triangle at application time."""
    return (a, b, a, c, b, a, c)


def gadget_p3_ends(a: int, b: int, c: int) -> Word:
    """Flip {a, b}; valid when a, b are neighbors of c and ab is a non-edge."""
    return (c, a, b, a, b, a, b, c)


def gadget_p3_end(a: int, b: int, c: int) -> Word:
    """Flip {a}; valid when a, b are neighbors of c and ab is a non-edge."""
    return (c, a, b, a, c, b, a)


# -- single-vertex flips --------------------------------------------------


def _vertex_gadget(rows: Sequence[int], a: int, allowed: int) -> Word | None:
    """Seven-letter word flipping exactly {a} inside the mask ``allowed``.

    A triangle abc gives ``gadget_triangle(a, b, c)`` (smallest b, then
    smallest c > b); failing that, an induced path a-c-b with ab a non-edge
    gives ``gadget_p3_end(a, b, c)`` (smallest b, then smallest c).  None if
    neither lies inside the mask.  The word's first letter gives its shape:
    a triangle word starts with a, a path word with c.  This is the one
    search behind the single flips of :func:`_flip_set_word` and
    :func:`_odd_subgraph_word`.
    """
    row_a = rows[a]
    nb = row_a & allowed
    for b in iter_bits(nb):
        third = rows[b] & nb & ~((2 << b) - 1)
        if third:
            return gadget_triangle(a, b, (third & -third).bit_length() - 1)
    # the vertices two steps from a through the mask, outside N[a]
    reach = 0
    for c in iter_bits(nb):
        reach |= rows[c]
    far = reach & allowed & ~row_a & ~(1 << a)
    if far:
        b = (far & -far).bit_length() - 1
        common = rows[b] & nb
        return gadget_p3_end(a, b, (common & -common).bit_length() - 1)
    return None


def _pendant_neighbor(rows: Sequence[int], a: int) -> int | None:
    """Smallest neighbor x of a with degree 1: inverting at x flips exactly {a}."""
    return next((x for x in iter_bits(rows[a]) if rows[x].bit_count() == 1), None)


# -- induced odd trees and subgraphs --------------------------------------


def _odd_tree_word(rows: Sequence[int], tree: int, r: int) -> Word:
    """Reversal word of the induced odd tree on the vertex mask ``tree``, ending with ``r``.

    The word has length exactly 4k-4 for a k-vertex tree (k even, at least
    4).  It is assembled from the tree's path partition
    (:func:`locinv.partitioner.p3_partition`): an 8-letter
    path-ends gadget per triple, except that the triple meeting the root
    edge merges with the edge gadget into a single 12-letter block, which
    closes the word.  ``rows`` are the host graph's rows; the tree is
    induced, so its edges are ``rows[x] & tree``.  The word always ends
    with ``r``; :func:`_odd_subgraph_word`, which needs a word starting
    with its shared letter, reverses its seven-letter gadget instead.
    """
    p3s, v = p3_partition(rows, tree, r)

    if (rows[r] & tree).bit_count() > 1:
        # r centers some triple; merge the root edge with one of them
        x, _, y = next(tr for tr in p3s if tr[1] == r)
        rest = [tr for tr in p3s if tr != (x, r, y)]
        block = (v, r, v, r, v) + (x, y, x, y, x, y, r)
    else:
        x, _, y = next(tr for tr in p3s if tr[1] == v)
        rest = [tr for tr in p3s if tr != (x, v, y)]
        block = (v, x, y, x, y, x, y) + (r, v, r, v, r)

    word: list[int] = []
    for end_a, center, end_b in rest:
        word.extend(gadget_p3_ends(end_a, end_b, center))
    word.extend(block)
    assert len(word) == 4 * tree.bit_count() - 4
    return tuple(word)


def _even_subgraph_word(rows: Sequence[int], within: int, v: int) -> Word:
    """Reversal word of the connected subgraph induced by the mask ``within``, ending with ``v``.

    ``within`` has even order at least 4.  The perfect forest of the
    subgraph gives an edge gadget per two-vertex tree and an odd-tree
    reversal per larger tree; the tree containing ``v`` goes last, with
    its word ending in ``v``, the letter :func:`_odd_subgraph_word` splices
    on.  Total length is at most 4k-4 for k vertices.
    """
    parts: list[int] = []
    for tree in perfect_forest(rows, within):
        if (tree >> v) & 1:
            v_tree = tree
        elif tree.bit_count() == 2:
            parts.extend(gadget_edge(*iter_bits(tree)))
        else:
            parts.extend(_odd_tree_word(rows, tree, (tree & -tree).bit_length() - 1))
    if v_tree.bit_count() == 2:
        parts.extend(gadget_edge((v_tree ^ (1 << v)).bit_length() - 1, v))
    else:
        parts.extend(_odd_tree_word(rows, v_tree, v))
    return tuple(parts)


def _odd_subgraph_word(rows: Sequence[int], within: int) -> Word:
    """Reversal word of the connected subgraph induced by the odd mask ``within``, k >= 5 vertices.

    Peels off the smallest vertex ``a`` whose removal keeps the subgraph
    connected and flips it with a seven-letter gadget that starts with a
    vertex ``c`` of the remainder; the even remainder's reversal word ends
    with ``c``, so the shared letter cancels, saving two letters, and the
    word stays within 4k-3 letters.  An induced-path gadget starts with its
    center ``c``.  A triangle gadget ``(a, b, a, c, b, a, c)`` ends with
    ``c``, so it runs reversed: every letter is an involution, so the
    reversed word is its inverse and flips the same {a}.
    """
    a = (within & -within).bit_length() - 1
    rest = within ^ (1 << a)
    # one search decides the smallest vertex; only when it is a cut vertex
    # does one pass find every cut vertex and so the smallest other one
    if reachable_mask(rows, (rest & -rest).bit_length() - 1, rest) != rest:
        spare = within & ~cut_vertices(rows, within)
        a = (spare & -spare).bit_length() - 1
        rest = within ^ (1 << a)
    w1 = _vertex_gadget(rows, a, within)
    assert w1 is not None, "a non-cut vertex off every triangle ends an induced path"
    if w1[0] == a:
        w1 = w1[::-1]  # the triangle word, now starting with c
    c = w1[0]
    w2 = _even_subgraph_word(rows, rest, c)
    assert w2[-1] == c, "splice needs the shared letter c"
    return w2[:-1] + w1[1:]


# -- flip sets and whole-graph color reversal -----------------------------


def _flip_set_word(rows: Sequence[int], s: int) -> Word:
    """Word flipping exactly the vertex mask ``s``, choosing cheap gadgets per shape.

    The one word builder of both tasks: a color reversal flips every
    vertex of each host component.  Each component of the induced subgraph
    on ``s`` is a piece.  A pair takes itself when it is a whole K2
    component, the only host where the pair word is valid, and the edge
    gadget when it has a neighbor outside it.  Three vertices take the
    piece word of the module docstring, and larger pieces
    :func:`_even_subgraph_word` or :func:`_odd_subgraph_word` by parity;
    these words hold in any host.  A vertex isolated in the induced
    subgraph takes the one-letter word of a pendant neighbor when it has
    one; the others are pending: two that share a neighbor pair up into
    one 8-letter path-ends gadget, cheaper than two 7-letter single flips
    (the lowest pending vertex pairs with the first later one that shares
    a neighbor, and the gadget is centred on their lowest common
    neighbor), and the rest take :func:`_vertex_gadget`, which always
    finds a triangle or an induced path: a pending vertex has neighbors,
    none of degree 1.

    At most 4 letters per vertex of each host component C that ``s``
    touches, charged to C's vertices: a piece of order m >= 2 costs at
    most 4m (2 for a whole K2, 6 for the edge gadget, 9 for m = 3, 4m - 4
    for even m >= 4, 4m - 3 for odd m >= 5), an isolate with a pendant
    neighbor 1, a paired isolate 4 (8 letters per pair), and a leftover
    single 7 = 4 + 3: 4 on itself and 3 on one of its neighbors, all of
    which lie outside ``s``.  No neighbor takes 3 twice: when the lower of
    two leftover singles was taken, the higher was still pending, so they
    share no neighbor.  Free reduction only shortens a word, and
    (11k - 3)/2 >= 4k for every k >= 1, so :func:`transform_word` stays
    within the paper's floor((11n - 3t)/2) for every n, with no small-n
    threshold; :func:`_certify` still checks that bound on every word.
    """
    parts: list[int] = []
    isolates = 0
    for comp in component_masks(rows, s):
        m = comp.bit_count()
        if m == 1:
            isolates |= comp
        elif m == 2:
            a, b = iter_bits(comp)
            parts.extend(gadget_edge(a, b) if (rows[a] | rows[b]) & ~comp else (a, b))
        elif m == 3:
            p, q, r = iter_bits(comp)
            if (rows[p] >> q) & (rows[p] >> r) & (rows[q] >> r) & 1:
                parts.extend((p, q, p, q, r, q, r, p, r))
            else:
                c = next(v for v in (p, q, r) if (rows[v] & comp).bit_count() == 2)
                a, b = iter_bits(comp ^ (1 << c))
                parts.extend((a, c, a, b, a, b, c, b, c))
        elif m % 2 == 0:
            parts.extend(_even_subgraph_word(rows, comp, (comp & -comp).bit_length() - 1))
        else:
            parts.extend(_odd_subgraph_word(rows, comp))

    pending = 0
    for u in iter_bits(isolates):
        x = _pendant_neighbor(rows, u)
        if x is None:
            pending |= 1 << u
        else:
            parts.append(x)
    # pair the 7-letter singles through a common neighbor: 8 letters beat 14
    while pending:
        u = (pending & -pending).bit_length() - 1
        pending ^= 1 << u
        partners = 0
        for c in iter_bits(rows[u]):
            partners |= rows[c]
        partners &= pending
        if partners:
            v = (partners & -partners).bit_length() - 1
            pending ^= 1 << v
            common = rows[u] & rows[v]
            parts.extend(gadget_p3_ends(u, v, (common & -common).bit_length() - 1))
        else:
            parts.extend(_vertex_gadget(rows, u, (1 << len(rows)) - 1))
    return tuple(parts)


def _certify(
    g: Graph, flip: int, target: frozenset, comps: list[int], bound: int, tag: str, what: str, instance: dict
) -> CertifiedWord:
    """Certify the reduced word of :func:`_flip_set_word` on ``flip & comp`` for each of ``comps``.

    The builders' one bound check: a word over ``bound`` raises
    :class:`BoundExceededError` before any record is built; its witness
    (``n``, ``edges``, ``instance``, ``word``) reruns the call.
    """
    parts: list[int] = []
    for comp in comps:
        parts.extend(_flip_set_word(g.rows, flip & comp))
    word = reduce_word(parts)
    if len(word) > bound:
        raise BoundExceededError(
            f"{what} of length {len(word)} exceeds bound {bound}",
            witness={"n": g.n, "edges": g.edges(), **instance, "word": word},
        )
    cw = CertifiedWord(word, target, bound, tag)
    verify_certificate(g, cw)
    return cw


def color_reversal_word(g: Graph) -> CertifiedWord:
    """Word flipping every vertex of ``g`` and restoring ``g``.

    Each connected component is one piece of :func:`_flip_set_word`: a K2
    takes its vertex pair, three vertices the 3-vertex piece word, and
    larger components an even or odd subgraph reversal.  The certified
    bound is 4n-4 for a connected even-order graph, 4n-3 for odd order,
    and 4n-3t for t >= 2 components.  Isolated vertices make the task
    unsatisfiable.  The joined word is freely reduced and checked by
    :func:`_certify`, so a word over the bound raises
    :class:`BoundExceededError` with the graph in its witness.
    """
    for v in range(g.n):
        if g.rows[v] == 0:
            raise UnsatisfiableError(f"vertex {v} is isolated; its color is invariant")
    full = (1 << g.n) - 1
    comps = component_masks(g.rows, full)
    if len(comps) <= 1:
        bound = 0 if g.n == 0 else (4 * g.n - 4 if g.n % 2 == 0 else 4 * g.n - 3)
    else:
        bound = 4 * g.n - 3 * len(comps)
    return _certify(g, full, frozenset(range(g.n)), comps, bound, "full-reversal", "full-reversal: word", {})


# -- recoloring -------------------------------------------------------------


def transform_word(g: Graph, from_colors: Sequence[int], to_colors: Sequence[int]) -> CertifiedWord:
    """Word turning the coloring ``from_colors`` into ``to_colors`` on ``g``.

    Per component, :func:`_flip_set_word` flips the disagreement set
    directly, within 4 letters per vertex of the component, so at most 4n
    in all; the joined word is freely reduced.  The certified bound is the
    paper's floor((11n-3)/2) for connected ``g`` and floor((11n-3t)/2) for
    t components; :func:`_certify` checks the word, so exceeding the bound
    raises :class:`BoundExceededError` with a witness rather than
    returning a broken certificate, and a word that fails
    :func:`verify_certificate` raises :class:`VerificationError`.
    """
    BicoloredGraph(g, tuple(from_colors))
    BicoloredGraph(g, tuple(to_colors))
    diff_all = mask_of(v for v in range(g.n) if from_colors[v] != to_colors[v])
    for v in iter_bits(diff_all):
        if g.rows[v] == 0:
            raise UnsatisfiableError(f"vertex {v} is isolated but must change color")

    comps = component_masks(g.rows, (1 << g.n) - 1)
    bound = (11 * g.n - 3 * len(comps)) // 2
    return _certify(
        g, diff_all, frozenset(iter_bits(diff_all)), comps, bound, "transform/fix-V1",
        "transform word", {"from": tuple(from_colors), "to": tuple(to_colors)},
    )


# -- stars and complete graphs ----------------------------------------------


def _star_letters(n: int) -> list[int]:
    word = [1, 0, 1, 0, 1]
    for i in range(2, n):
        word += [i, 0, i]
    word.append(0)
    return word


def star_word(n: int) -> CertifiedWord:
    """Color-reversal word of length exactly 3n for the star on n vertices.

    Center is vertex 0; the word spends five letters on the first leaf,
    three on every further leaf, and one closing letter on the center.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    word = tuple(_star_letters(n))
    assert len(word) == 3 * n
    return CertifiedWord(word, frozenset(range(n)), 3 * n, "star")


def complete_word(n: int) -> CertifiedWord:
    """Color-reversal word of length exactly 3n for the complete graph on n vertices.

    One inversion at vertex 0 turns the complete graph into a star centered
    there; the star word then reverses all colors, and a final inversion at
    0 would restore the complete graph but cancels against the star word's
    closing letter, so the emitted word drops both and keeps 3n letters.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    word = tuple([0] + _star_letters(n)[:-1])
    assert len(word) == 3 * n
    return CertifiedWord(word, frozenset(range(n)), 3 * n, "complete")


# -- verification ------------------------------------------------------------


def verify_certificate(g: Graph, cw: CertifiedWord) -> None:
    """Check that ``cw.word`` flips exactly ``cw.target_flip`` and restores ``g``.

    One bitmask replay decides this exactly: the flipped set does not
    depend on the starting coloring, so no coloring is sampled.  Raises
    :class:`VerificationError` on a length over the bound, a target vertex
    or word letter outside the graph, an unrestored graph, or a flipped set
    other than the target.
    """
    if len(cw.word) > cw.bound:
        raise VerificationError(
            f"word length {len(cw.word)} exceeds certified bound {cw.bound}"
        )
    for v in cw.target_flip:
        if not (0 <= v < g.n):
            raise VerificationError(f"target vertex {v} outside 0..{g.n - 1}")
    try:
        flipped, rows = replay(g.rows, cw.word)
    except ValueError as exc:
        raise VerificationError(f"{cw.construction}: {exc}") from None
    if rows != g.rows:
        raise VerificationError(f"{cw.construction}: graph not restored")
    target = mask_of(cw.target_flip)
    if flipped != target:
        raise VerificationError(
            f"{cw.construction}: word flips {sorted(iter_bits(flipped))}, "
            f"target is {sorted(iter_bits(target))}"
        )
