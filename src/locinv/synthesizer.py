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

On top of those: whole-graph color reversal within 4n-4 (n even) or 4n-3
(n odd) letters per connected component, arbitrary recoloring within
floor((11n-3)/2) letters, and explicit 3n-letter words for stars and
complete graphs.

Each construction has one private row core that takes the host graph's
adjacency rows and its vertex sets as ``int`` masks, from the component
split (:func:`locinv.graph_core.component_masks`) down to the gadgets:
``_base_word``, ``_odd_tree_word``, ``_even_subgraph_word``,
``_odd_subgraph_word``, ``_reverse_component_word``, ``_flip_set_word``
and ``_transform_component``.  The cores trust their inputs and call each
other directly.  The public wrappers (:func:`reverse_odd_tree`,
:func:`reverse_even_subgraph`, :func:`reverse_odd_subgraph`, ...)
validate their arguments once and call a core.  A ``frozenset`` is built
only for the public :attr:`CertifiedWord.target_flip`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import BoundExceededError, UnsatisfiableError, VerificationError
from .graph_core import (
    BicoloredGraph,
    Graph,
    Word,
    apply_word,  # noqa: F401  module attribute wrapped by bench/tracer.py
    component_masks,
    is_connected,
    iter_bits,
    mask_of,
    reachable_mask,
    reduce_word,
    replay,
)
from .partitioner import (  # noqa: F401  p3_partition, perfect_forest: wrapped by bench/tracer.py
    RootedTree,
    _forest_masks,
    _p3_rows,
    p3_partition,
    perfect_forest,
)

Anchor = Literal["end", "start"]


@dataclass(frozen=True, slots=True)
class CertifiedWord:
    """A word plus the claim it certifies.

    ``word`` flips exactly ``target_flip`` and restores the underlying
    graph; ``len(word) <= bound`` always holds, and ``construction`` names
    the synthesis path that produced it.  Words are emitted unreduced so
    that fixture strings match letter for letter; ``reduced`` gives the
    freely reduced variant, which certifies the same claim.
    """

    word: Word
    target_flip: frozenset[int]
    bound: int
    construction: str

    def __post_init__(self) -> None:
        if len(self.word) > self.bound:
            raise BoundExceededError(
                f"{self.construction}: word of length {len(self.word)} exceeds bound {self.bound}",
                witness={"word": self.word, "bound": self.bound},
            )

    @property
    def reduced(self) -> Word:
        return reduce_word(self.word)


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


# -- small whole-graph base cases ----------------------------------------


def _base_word(rows: Sequence[int], comp: int) -> tuple[Word, str]:
    """Reversal word and tag for a connected piece on the 2- or 3-vertex mask ``comp``: K2, K3 or P3."""
    vs = tuple(iter_bits(comp))
    if len(vs) == 2:
        return vs, "base/k2"
    inner_deg2 = [v for v in vs if (rows[v] & comp).bit_count() == 2]
    if len(inner_deg2) == 3:
        p, q, r = vs
        return (p, q, p, q, p, q, r, p, r), "base/k3"
    b = inner_deg2[0]
    a, c = iter_bits(comp ^ (1 << b))
    return (a, b, a, b, a, c, a, c, b), "base/p3"


def base_case_word(g: Graph) -> CertifiedWord:
    """Color-reversal word for a graph that is exactly K2, K3, or P3."""
    if (g.n, g.edge_count()) not in ((2, 1), (3, 2), (3, 3)):
        raise ValueError("graph is not K2, K3, or P3")
    word, tag = _base_word(g.rows, (1 << g.n) - 1)
    return CertifiedWord(word, frozenset(range(g.n)), len(word), tag)


# -- single-vertex flips --------------------------------------------------


def _vertex_gadget(rows: Sequence[int], a: int, allowed: int) -> tuple[Word, str] | None:
    """Seven-letter word flipping exactly {a} inside the mask ``allowed``, and its kind.

    A triangle abc gives ``gadget_triangle(a, b, c)`` (kind ``"triangle"``,
    smallest b, then smallest c > b); failing that, an induced path a-c-b
    with ab a non-edge gives ``gadget_p3_end(a, b, c)`` (kind ``"p3-end"``,
    smallest b, then smallest c).  None if neither lies inside the mask.
    This is the one search behind :func:`flip_single`,
    :func:`_single_flip_word` and :func:`_odd_subgraph_word`.
    """
    row_a = rows[a]
    nb = row_a & allowed
    for b in iter_bits(nb):
        third = rows[b] & nb & ~((2 << b) - 1)
        if third:
            return gadget_triangle(a, b, (third & -third).bit_length() - 1), "triangle"
    for b in iter_bits(allowed & ~row_a & ~(1 << a)):
        common = rows[b] & nb
        if common:
            return gadget_p3_end(a, b, (common & -common).bit_length() - 1), "p3-end"
    return None


def _single_flip_word(rows: Sequence[int], a: int) -> tuple[Word, str]:
    """Word flipping exactly {a}, using only a's component.

    Preference order: a pendant neighbor x gives the one-letter word (x),
    since inverting at x flips exactly its unique neighbor; otherwise a
    triangle or an induced-path gadget gives seven letters.  One of the
    three always applies once a has any neighbor.
    """
    nb = rows[a]
    if nb == 0:
        raise UnsatisfiableError(f"vertex {a} is isolated; its color is invariant")
    for x in iter_bits(nb):
        if rows[x].bit_count() == 1:
            return (x,), "single/pendant-neighbor"
    found = _vertex_gadget(rows, a, (1 << len(rows)) - 1)
    assert found is not None, "a non-pendant neighborhood yields a triangle or an induced path"
    word, kind = found
    return word, f"single/{kind}"


def flip_single(g: Graph, a: int) -> CertifiedWord:
    """Word flipping exactly {a} in a connected graph on at least 3 vertices.

    Strategy: a triangle through ``a`` gives seven letters; failing that, an
    induced path ending at ``a`` gives seven letters; the only remaining
    shape is a star centered at ``a``, handled by an edge gadget to one leaf
    followed by a path-end gadget between two leaves (13 letters, recorded
    as the certificate bound).
    """
    g._check_vertex(a)
    if g.n < 3:
        raise ValueError(f"need at least 3 vertices, got {g.n}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    found = _vertex_gadget(g.rows, a, (1 << g.n) - 1)
    if found is not None:
        word, kind = found
        return CertifiedWord(word, frozenset({a}), 7, f"single/{kind}")
    # no triangle and no induced-path end means every neighbor of a is
    # pendant, i.e. the graph is a star centered at a
    x, y = sorted(iter_bits(g.rows[a]))[:2]
    word = gadget_edge(a, x) + gadget_p3_end(x, y, a)
    return CertifiedWord(word, frozenset({a}), 13, "single/star-center")


# -- induced odd trees and subgraphs --------------------------------------


def _check_induced_tree(g: Graph, t: RootedTree) -> None:
    vs = sorted(t.vertices)
    for u in vs:
        g._check_vertex(u)
    tmask = mask_of(vs)
    for u, row in sorted(t.rows().items()):
        diff = ((g.rows[u] & tmask) ^ row) & ~((2 << u) - 1)
        if diff:
            v = (diff & -diff).bit_length() - 1
            raise ValueError(f"tree is not induced in the host graph at pair ({u}, {v})")


def _odd_tree_word(rows: Sequence[int], tree: int, r: int, anchor: Anchor) -> Word:
    """Reversal word of the induced odd tree on the vertex mask ``tree`` (see :func:`reverse_odd_tree`).

    ``rows`` are the host graph's rows; the tree is induced, so its edges
    are ``rows[x] & tree``.
    """
    part = _p3_rows(rows, tree, r)
    v = part.k2[1]

    if (rows[r] & tree).bit_count() > 1:
        # r centers some triple; merge the root edge with one of them
        x, _, y = next(tr for tr in part.p3s if tr[1] == r)
        rest = [tr for tr in part.p3s if tr != (x, r, y)]
        block_end = (v, r, v, r, v) + (x, y, x, y, x, y, r)
        block_start = (r, x, y, x, y, x, y) + (v, r, v, r, v)
    else:
        x, _, y = next(tr for tr in part.p3s if tr[1] == v)
        rest = [tr for tr in part.p3s if tr != (x, v, y)]
        block_end = (v, x, y, x, y, x, y) + (r, v, r, v, r)
        block_start = (r, v, r, v, r) + (x, y, x, y, x, y, v)

    middle: list[int] = []
    for end_a, center, end_b in rest:
        middle.extend(gadget_p3_ends(end_a, end_b, center))

    if anchor == "end":
        word = tuple(middle) + block_end
    else:
        word = block_start + tuple(middle)
    assert len(word) == 4 * tree.bit_count() - 4
    return word


def reverse_odd_tree(g: Graph, t: RootedTree, r: int, anchor: Anchor = "end") -> CertifiedWord:
    """Flip all vertices of an induced odd tree, anchored at ``r``.

    The word has length exactly 4k-4 for a k-vertex tree and ends
    (``anchor="end"``) or starts (``anchor="start"``) with ``r``.  It is
    assembled from the tree's path partition: an 8-letter path-ends gadget
    per triple, except that the triple meeting the root edge merges with
    the edge gadget into a single 12-letter block.
    """
    if r not in t.vertices:
        raise ValueError(f"anchor vertex {r} is not in the tree")
    if anchor not in ("end", "start"):
        raise ValueError(f"anchor must be 'end' or 'start', got {anchor!r}")
    k = len(t.vertices)
    if k < 4:
        raise ValueError(f"need at least 4 tree vertices, got {k}")
    _check_induced_tree(g, t)
    if k % 2 == 1:
        raise ValueError(f"need an even vertex count >= 2, got {k}")
    if not t.is_odd_tree():
        raise ValueError("every tree vertex must have odd degree")
    word = _odd_tree_word(g.rows, mask_of(t.vertices), r, anchor)
    return CertifiedWord(word, frozenset(t.vertices), 4 * k - 4, f"odd-tree/{anchor}")


def _connected_mask(g: Graph, s: frozenset[int]) -> int:
    """Mask of ``s``, after checking that it lies in ``g`` and induces a connected subgraph."""
    for u in sorted(s):
        g._check_vertex(u)
    within = mask_of(s)
    if len(component_masks(g.rows, within)) != 1:
        raise ValueError("induced subgraph must be connected")
    return within


def _even_subgraph_word(rows: Sequence[int], within: int, v: int, anchor: Anchor) -> Word:
    """Reversal word of the subgraph induced by the mask ``within`` (see :func:`reverse_even_subgraph`)."""
    trees = _forest_masks(rows, within)
    anchor_tree = next(tree for tree in trees if (tree >> v) & 1)
    others = [tree for tree in trees if tree != anchor_tree]
    ordered = others + [anchor_tree] if anchor == "end" else [anchor_tree] + others

    parts: list[int] = []
    for tree in ordered:
        if tree != anchor_tree:
            if tree.bit_count() == 2:
                a, b = iter_bits(tree)
                parts.extend(gadget_edge(a, b))
            else:
                parts.extend(_odd_tree_word(rows, tree, (tree & -tree).bit_length() - 1, "end"))
        elif tree.bit_count() == 2:
            u = (tree ^ (1 << v)).bit_length() - 1
            parts.extend(gadget_edge(v, u) if anchor == "start" else gadget_edge(u, v))
        else:
            parts.extend(_odd_tree_word(rows, tree, v, anchor))
    return tuple(parts)


def reverse_even_subgraph(
    g: Graph, s: Iterable[int], v: int, anchor: Anchor = "end"
) -> CertifiedWord:
    """Flip a connected induced subgraph of even order >= 4, anchored at ``v``.

    Decomposes the subgraph into a perfect forest and emits an edge gadget
    per two-vertex tree and an anchored odd-tree reversal per larger tree;
    the tree containing ``v`` goes last (or first) so the whole word ends
    (or starts) with ``v``.  Total length is at most 4|s|-4.  The forest
    and every tree are worked on ``g.rows`` restricted to vertex masks.
    """
    s = frozenset(s)
    if v not in s:
        raise ValueError(f"anchor vertex {v} is not in the subgraph")
    if len(s) < 4 or len(s) % 2 == 1:
        raise ValueError(f"need an even vertex count >= 4, got {len(s)}")
    word = _even_subgraph_word(g.rows, _connected_mask(g, s), v, anchor)
    return CertifiedWord(word, s, 4 * len(s) - 4, f"even-subgraph/{anchor}")


def _odd_subgraph_word(rows: Sequence[int], within: int) -> tuple[Word, str]:
    """Reversal word and tag of the subgraph induced by the mask ``within`` (see :func:`reverse_odd_subgraph`)."""
    for a in iter_bits(within):
        rest = within ^ (1 << a)
        # connected when one search reaches all of it; splitting every
        # component of a cut would cost up to twice as much per candidate
        if reachable_mask(rows, (rest & -rest).bit_length() - 1, rest) == rest:
            break
    found = _vertex_gadget(rows, a, within)
    assert found is not None, "a non-cut vertex off every triangle ends an induced path"
    w1, kind = found
    if kind == "triangle":
        c = w1[-1]  # gadget_triangle(a, b, c) ends with c
        w2 = _even_subgraph_word(rows, rest, c, "start")
        assert w2[0] == c, "splice needs the shared anchor letter"
        return w1[:-1] + w2[1:], "odd-subgraph/triangle"
    c = w1[0]  # gadget_p3_end(a, b, c) starts with c
    w2 = _even_subgraph_word(rows, rest, c, "end")
    assert w2[-1] == c, "splice needs the shared anchor letter"
    return w2[:-1] + w1[1:], "odd-subgraph/p3"


def reverse_odd_subgraph(g: Graph, s: Iterable[int]) -> CertifiedWord:
    """Flip a connected induced subgraph of odd order >= 5 within 4|s|-3 letters.

    Peels off the smallest vertex ``a`` whose removal keeps the subgraph
    connected, flips it with a triangle or induced-path gadget, and flips
    the even remainder with an anchored reversal; the shared anchor letter
    cancels, saving two letters.
    """
    s = frozenset(s)
    if len(s) < 5 or len(s) % 2 == 0:
        raise ValueError(f"need an odd vertex count >= 5, got {len(s)}")
    word, tag = _odd_subgraph_word(g.rows, _connected_mask(g, s))
    return CertifiedWord(word, s, 4 * len(s) - 3, tag)


# -- whole-graph color reversal -------------------------------------------


def _reverse_component_word(rows: Sequence[int], comp: int) -> Word:
    """Reversal word of the connected piece on the mask ``comp``, of order >= 2."""
    m = comp.bit_count()
    if m in (2, 3):
        return _base_word(rows, comp)[0]
    if m % 2 == 0:
        return _even_subgraph_word(rows, comp, (comp & -comp).bit_length() - 1, "end")
    return _odd_subgraph_word(rows, comp)[0]


def color_reversal_word(g: Graph) -> CertifiedWord:
    """Word flipping every vertex of ``g`` and restoring ``g``.

    Per connected component: the two- and three-vertex base words, an even
    subgraph reversal, or an odd subgraph reversal.  The certified bound is
    4n-4 for a connected even-order graph, 4n-3 for odd order, and 4n-3t
    for t >= 2 components.  Isolated vertices make the task unsatisfiable.
    The word is checked with :func:`verify_certificate` before it is
    returned.
    """
    for v in range(g.n):
        if g.rows[v] == 0:
            raise UnsatisfiableError(f"vertex {v} is isolated; its color is invariant")
    comps = component_masks(g.rows, (1 << g.n) - 1)
    parts: list[int] = []
    for comp in comps:
        parts.extend(_reverse_component_word(g.rows, comp))
    if len(comps) <= 1:
        bound = 0 if g.n == 0 else (4 * g.n - 4 if g.n % 2 == 0 else 4 * g.n - 3)
    else:
        bound = 4 * g.n - 3 * len(comps)
    cw = CertifiedWord(tuple(parts), frozenset(range(g.n)), bound, "full-reversal")
    verify_certificate(g, cw)
    return cw


# -- recoloring -------------------------------------------------------------


def _flip_set_word(rows: Sequence[int], s: int) -> Word:
    """Word flipping exactly the vertex mask ``s``, choosing cheap gadgets per shape.

    Components of the induced subgraph on ``s`` of order 4 or more, and
    those that are whole components of the graph, get their reversal word.
    Smaller ones are flipped with the edge gadget (2 vertices) or gadget
    compositions that stay valid inside the ambient graph (3 vertices).
    Vertices isolated in the induced subgraph are flipped singly, except
    that two such vertices sharing a common neighbor pair up into one
    8-letter path-ends gadget whenever that is cheaper than two single
    flips: the lowest pending vertex pairs with the first later one that
    shares a neighbor, and the gadget is centred on their lowest common
    neighbor.
    """
    parts: list[int] = []
    isolates = 0
    for comp in component_masks(rows, s):
        m = comp.bit_count()
        if m == 1:
            isolates |= comp
        elif m >= 4 or all(rows[v] & ~comp == 0 for v in iter_bits(comp)):
            # a piece that is a whole component of the graph takes the
            # standalone reversal word, which is never longer
            parts.extend(_reverse_component_word(rows, comp))
        elif m == 2:
            parts.extend(gadget_edge(*iter_bits(comp)))
        else:
            p, q, r = iter_bits(comp)
            inner_deg2 = [v for v in (p, q, r) if (rows[v] & comp).bit_count() == 2]
            if len(inner_deg2) == 3:
                parts.extend(gadget_edge(p, q))
                parts.extend(gadget_triangle(r, p, q))
            else:
                center = inner_deg2[0]
                parts.extend(gadget_p3_ends(*iter_bits(comp ^ (1 << center)), center))
                parts.extend(_single_flip_word(rows, center)[0])

    costly: dict[int, Word] = {}
    for u in iter_bits(isolates):
        word, _ = _single_flip_word(rows, u)
        if len(word) < 4:
            parts.extend(word)
        else:
            costly[u] = word
    # pair the expensive singles through a common neighbor: 8 letters beat 14
    pending = mask_of(costly)
    while pending:
        u = (pending & -pending).bit_length() - 1
        pending ^= 1 << u
        for v in iter_bits(pending):
            common = rows[u] & rows[v]
            if common:
                pending ^= 1 << v
                parts.extend(gadget_p3_ends(u, v, (common & -common).bit_length() - 1))
                break
        else:
            parts.extend(costly[u])
    return tuple(parts)


def _transform_component(rows: Sequence[int], comp: int, diff: int) -> tuple[Word, str]:
    """Recoloring word and strategy for the component mask ``comp`` and its disagreement mask ``diff``."""
    fix = _flip_set_word(rows, diff)
    if diff == comp:
        return fix, "fix-V1"
    alt = _flip_set_word(rows, comp & ~diff) + _reverse_component_word(rows, comp)
    if len(fix) <= len(alt):
        return fix, "fix-V1"
    return alt, "flip-V0-then-all"


def transform_word(g: Graph, from_colors: Sequence[int], to_colors: Sequence[int]) -> CertifiedWord:
    """Word turning the coloring ``from_colors`` into ``to_colors`` on ``g``.

    Per component, two strategies are realized and the shorter word wins:
    flip the disagreement set directly, or flip the agreement set and then
    reverse the whole component.  The certified bound is
    floor((11n-3)/2) for connected ``g`` and floor((11n-3t)/2) for t
    components; exceeding it raises :class:`BoundExceededError` with a
    witness rather than returning a broken certificate, and a word that
    fails :func:`verify_certificate` raises :class:`VerificationError`.
    """
    BicoloredGraph(g, tuple(from_colors))
    BicoloredGraph(g, tuple(to_colors))
    diff_all = mask_of(v for v in range(g.n) if from_colors[v] != to_colors[v])
    for v in iter_bits(diff_all):
        if g.rows[v] == 0:
            raise UnsatisfiableError(f"vertex {v} is isolated but must change color")

    comps = component_masks(g.rows, (1 << g.n) - 1)
    parts: list[int] = []
    tags: set[str] = set()
    for comp in comps:
        diff = diff_all & comp
        if not diff:
            continue
        word, tag = _transform_component(g.rows, comp, diff)
        parts.extend(word)
        tags.add(tag)

    t = max(len(comps), 1)
    bound = (11 * g.n - 3 * t) // 2 if g.n else 0
    strategy = tags.pop() if len(tags) == 1 else ("mixed" if tags else "fix-V1")
    word = tuple(parts)
    if len(word) > bound:
        raise BoundExceededError(
            f"transform word of length {len(word)} exceeds bound {bound}",
            witness={
                "n": g.n,
                "edges": g.edges(),
                "from": tuple(from_colors),
                "to": tuple(to_colors),
                "word": word,
            },
        )
    cw = CertifiedWord(word, frozenset(iter_bits(diff_all)), bound, f"transform/{strategy}")
    verify_certificate(g, cw)
    return cw


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
