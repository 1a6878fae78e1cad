"""Tests for certified word synthesis."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locinv
import locinv.synthesizer as synth
from locinv.errors import BoundExceededError, UnsatisfiableError, VerificationError
from locinv.graph_core import (
    BicoloredGraph,
    Graph,
    all_plus,
    apply_word,
    component_masks,
    flip,
    mask_of,
    reduce_word,
    replay,
)
from locinv.synthesizer import (
    CertifiedWord,
    color_reversal_word,
    complete_word,
    gadget_edge,
    gadget_p3_end,
    gadget_p3_ends,
    gadget_triangle,
    star_word,
    transform_word,
    verify_certificate,
)

from helpers import (
    flip_set_word_reference,
    random_coloring,
    random_connected_graph,
    random_graph,
    random_odd_tree,
    vertex_gadget_reference,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def certify(g, word, target, bound):
    """Certify that ``word`` flips exactly ``target`` on ``g`` within ``bound`` letters."""
    verify_certificate(g, CertifiedWord(word, frozenset(target), bound, "test"))


def assert_flips_exactly(g, word, target, rng, rounds=4):
    """Replay under random colorings: word flips `target`, restores g."""
    for _ in range(rounds):
        b = BicoloredGraph(g, random_coloring(rng, g.n))
        after = apply_word(b, word)
        assert after.graph == g
        assert after == flip(b, target)


# -- gadgets ------------------------------------------------------------------


def test_gadget_letter_sequences():
    assert gadget_edge(0, 1) == (0, 1, 0, 1, 0, 1)
    assert gadget_triangle(0, 1, 2) == (0, 1, 0, 2, 1, 0, 2)
    assert gadget_p3_ends(0, 1, 2) == (2, 0, 1, 0, 1, 0, 1, 2)
    assert gadget_p3_end(0, 1, 2) == (2, 0, 1, 0, 2, 1, 0)
    assert reduce_word(gadget_p3_ends(0, 1, 2)) == gadget_p3_ends(0, 1, 2)


def test_edge_gadget_on_k2_and_inside_c5():
    b = BicoloredGraph(Graph.complete(2), (1, 1))
    after = apply_word(b, gadget_edge(0, 1))
    assert after.coloring == (-1, -1)
    assert after.graph == b.graph

    rng = random.Random(2)
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert_flips_exactly(c5, gadget_edge(1, 2), {1, 2}, rng)


def test_edge_gadget_twice_is_identity():
    rng = random.Random(4)
    g = Graph.complete(4)
    w = gadget_edge(0, 2)
    assert_flips_exactly(g, w + w, set(), rng)


def test_triangle_gadget():
    b = BicoloredGraph(Graph.complete(3), all_plus(3))
    after = apply_word(b, gadget_triangle(0, 1, 2))
    assert after.coloring == (-1, 1, 1)
    assert after.graph == b.graph

    rng = random.Random(6)
    assert_flips_exactly(Graph.complete(4), gadget_triangle(1, 3, 2), {1}, rng)


def test_triangle_gadget_composes_to_full_flip():
    rng = random.Random(8)
    w = gadget_triangle(0, 1, 2) + gadget_triangle(1, 0, 2) + gadget_triangle(2, 0, 1)
    assert_flips_exactly(Graph.complete(3), w, {0, 1, 2}, rng)


def test_p3_ends_gadget():
    rng = random.Random(10)
    p3 = Graph.from_edges(3, [(0, 2), (1, 2)])  # ends 0, 1; center 2
    assert_flips_exactly(p3, gadget_p3_ends(0, 1, 2), {0, 1}, rng)

    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert_flips_exactly(c6, gadget_p3_ends(0, 2, 1), {0, 2}, rng)
    assert len(gadget_p3_ends(0, 2, 1)) == 8


def test_p3_end_gadget():
    rng = random.Random(12)
    p3 = Graph.from_edges(3, [(0, 2), (1, 2)])
    assert_flips_exactly(p3, gadget_p3_end(0, 1, 2), {0}, rng)
    assert_flips_exactly(petersen(), gadget_p3_end(0, 2, 1), {0}, rng)


def test_p3_gadgets_compose_by_symmetric_difference():
    rng = random.Random(14)
    p3 = Graph.from_edges(3, [(0, 2), (1, 2)])
    w = gadget_p3_end(0, 1, 2) + gadget_p3_ends(0, 1, 2)
    assert_flips_exactly(p3, w, {1}, rng)


# -- base cases -----------------------------------------------------------------


def test_base_case_words():
    k2 = Graph.complete(2)
    assert synth._flip_set_word(k2.rows, 0b11) == (0, 1)
    certify(k2, (0, 1), range(2), 2)

    k3 = Graph.complete(3)
    word = synth._flip_set_word(k3.rows, 0b111)
    assert word == (0, 1, 0, 1, 2, 1, 2, 0, 2)
    certify(k3, word, range(3), 9)

    # a P3 word is laid out by the centre c and the ends a < b, whatever
    # the centre's id: a, c, a, b, a, b, c, b, c
    for centre, word in [
        (0, (1, 0, 1, 2, 1, 2, 0, 2, 0)),
        (1, (0, 1, 0, 2, 0, 2, 1, 2, 1)),
        (2, (0, 2, 0, 1, 0, 1, 2, 1, 2)),
    ]:
        p3 = Graph.from_edges(3, [(centre, v) for v in range(3) if v != centre])
        assert synth._flip_set_word(p3.rows, 0b111) == word
        certify(p3, word, range(3), 9)


# the 3-vertex pieces on sorted ids p < q < r: K3, then P3 centred at each id
THREE_VERTEX_PIECES = {
    "K3": [(0, 1), (0, 2), (1, 2)],
    "P3-centre-p": [(0, 1), (0, 2)],
    "P3-centre-q": [(0, 1), (1, 2)],
    "P3-centre-r": [(0, 2), (1, 2)],
}


@pytest.mark.parametrize("ids", [(4, 9, 14), (14, 15, 16)])
@pytest.mark.parametrize("shape", THREE_VERTEX_PIECES)
def test_three_vertex_words_hold_in_every_attachment_host(shape, ids):
    # the piece plus two outside vertices for each of the 7 nonempty sets
    # of piece vertices they attach to, with no edge between outside
    # vertices: the word must flip exactly the piece and restore every
    # edge, inside the piece, to it and between the outside vertices
    n = 17
    outside = [v for v in range(n) if v not in ids]
    edges = [(ids[i], ids[j]) for i, j in THREE_VERTEX_PIECES[shape]]
    for k, attach in enumerate(s for s in range(1, 8) for _ in range(2)):
        edges += [(outside[k], ids[i]) for i in range(3) if (attach >> i) & 1]
    g = Graph.from_edges(n, edges)
    piece = sum(1 << v for v in ids)
    word = synth._flip_set_word(g.rows, piece)
    assert len(word) == 9 and set(word) == set(ids)
    assert replay(g.rows, word) == (piece, g.rows)


# -- single-vertex flips -----------------------------------------------------------


def test_flip_single_on_triangle_and_path():
    k4 = Graph.complete(4)
    word = synth._flip_set_word(k4.rows, 1 << 0)
    assert word == gadget_triangle(0, 1, 2)
    certify(k4, word, {0}, 7)

    p4 = Graph.path(4)
    word = synth._flip_set_word(p4.rows, 1 << 0)
    assert word == gadget_p3_end(0, 2, 1)
    certify(p4, word, {0}, 7)


def test_flip_single_star_center_oracle_minimum():
    # a star center has only pendant neighbors: inverting at the smallest
    # leaf flips it alone, which exhaustive search shows is shortest
    from locinv.oracle import min_flip_word

    g = Graph.star(3)
    word = synth._flip_set_word(g.rows, 1 << 0)
    assert word == (1,)
    b = BicoloredGraph(g, all_plus(3))
    assert min_flip_word(b, flip(b, {0})) == (1, word)
    certify(g, word, {0}, 1)


def test_vertex_gadget_takes_the_first_triangle_then_the_first_induced_path():
    # the one single-vertex search against a pair-by-pair scan of its definition
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randrange(1, 14)
        g = random_graph(rng, n, rng.choice((0.15, 0.4, 0.8)))
        for a in range(n):
            allowed = rng.getrandbits(n) | (1 << a)
            inside = [x for x in range(n) if (allowed >> x) & 1]
            triangles = [
                (b, c) for b in inside for c in inside
                if b < c and g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
            ]
            paths = [
                (b, c) for b in inside for c in inside
                if b != a and not g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
            ]
            if triangles:
                expected = gadget_triangle(a, *min(triangles))
            elif paths:
                expected = gadget_p3_end(a, *min(paths))
            else:
                expected = None
            assert synth._vertex_gadget(g.rows, a, allowed) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_vertex_gadget_and_isolate_pairing_match_the_scans(n, data):
    # the two-step masks pick the same b and the same partner as a scan over
    # every candidate vertex
    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    rows = Graph.from_upper_bits(n, bits).rows
    allowed = data.draw(st.integers(0, (1 << n) - 1))
    s = data.draw(st.integers(0, (1 << n) - 1))
    for a in range(n):
        assert synth._vertex_gadget(rows, a, allowed | 1 << a) == vertex_gadget_reference(rows, a, allowed | 1 << a)
    s &= sum(1 << v for v in range(n) if rows[v])  # an isolated vertex has no flip word
    assert synth._flip_set_word(rows, s) == flip_set_word_reference(rows, s)
    # an independent flip set is all isolates, so most of it goes to the pairing
    independent = 0
    for v in range(n):
        if (s >> v) & 1 and not rows[v] & independent:
            independent |= 1 << v
    assert synth._flip_set_word(rows, independent) == flip_set_word_reference(rows, independent)


def test_paired_isolates_build_no_single_flip_word(monkeypatch):
    # 0 and 2 share the neighbor 1 on C6, so they pair into one path-ends
    # gadget and no single-vertex gadget is searched for either of them
    calls = []
    real = synth._vertex_gadget

    def counting(rows, a, allowed):
        calls.append(a)
        return real(rows, a, allowed)

    monkeypatch.setattr(synth, "_vertex_gadget", counting)
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert synth._flip_set_word(c6.rows, 0b101) == gadget_p3_ends(0, 2, 1)
    assert calls == []


# -- odd-tree reversal ---------------------------------------------------------------


def test_reverse_star_as_tree_anchored():
    g = Graph.star(4)
    word = synth._odd_tree_word(g.rows, 0b1111, 1)
    assert len(word) == 4 * 4 - 4
    assert word[-1] == 1
    certify(g, word, range(4), 12)


def test_reverse_six_vertex_tree_fixture():
    edges = ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5))
    g = Graph.from_edges(6, edges)
    word = synth._odd_tree_word(g.rows, 0b111111, 0)
    assert len(word) == 4 * 6 - 4 == 20
    assert word[-1] == 0
    certify(g, word, range(6), 20)


def test_reverse_odd_tree_random_roots_and_hosts():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.choice(range(4, 13, 2))
        g, _ = random_odd_tree(rng, n)
        r = rng.randrange(n)
        word = synth._odd_tree_word(g.rows, (1 << n) - 1, r)
        assert len(word) == 4 * n - 4
        assert word[-1] == r
        certify(g, word, range(n), 4 * n - 4)


def test_reverse_odd_tree_embedded_in_larger_graph():
    # star on {0,1,2,3} induced inside a 6-vertex host
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (2, 5)])
    word = synth._odd_tree_word(g.rows, 0b1111, 2)
    assert len(word) == 4 * 4 - 4 and word[-1] == 2
    certify(g, word, {0, 1, 2, 3}, 12)


# -- even and odd subgraph reversal -----------------------------------------------------


def test_reverse_even_subgraph_p4_and_k4():
    p4 = Graph.path(4)
    word = synth._even_subgraph_word(p4.rows, 0b1111, 3)
    assert word == gadget_edge(0, 1) + gadget_edge(2, 3)
    certify(p4, word, range(4), 12)

    word = synth._even_subgraph_word(p4.rows, 0b1111, 0)
    assert word == gadget_edge(2, 3) + gadget_edge(1, 0)
    certify(p4, word, range(4), 12)

    k4 = Graph.complete(4)
    word = synth._even_subgraph_word(k4.rows, 0b1111, 0)
    assert len(word) <= 12 and word[-1] == 0
    certify(k4, word, range(4), 12)


def test_reverse_even_subgraph_single_tree_is_exact():
    g = Graph.star(4)
    word = synth._even_subgraph_word(g.rows, 0b1111, 2)
    assert len(word) == 4 * 4 - 4
    assert word[-1] == 2
    certify(g, word, range(4), 12)


def test_reverse_even_subgraph_proper_subset():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    word = synth._even_subgraph_word(c6.rows, 0b1111, 0)
    assert word[-1] == 0
    certify(c6, word, {0, 1, 2, 3}, 12)


def test_reverse_even_subgraph_random():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.choice(range(4, 13, 2))
        g = random_connected_graph(rng, n)
        v = rng.randrange(n)
        word = synth._even_subgraph_word(g.rows, (1 << n) - 1, v)
        assert len(word) <= 4 * n - 4
        assert word[-1] == v
        certify(g, word, range(n), 4 * n - 4)


def test_reverse_odd_subgraph_c5_and_k5():
    # vertex 0 is peeled: on C5 it ends an induced path, on K5 it lies on
    # a triangle; either gadget closes the word, the triangle one reversed
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    gadget = synth._vertex_gadget(c5.rows, 0, 0b11111)
    word = synth._odd_subgraph_word(c5.rows, 0b11111)
    assert gadget == gadget_p3_end(0, 2, 1) and word[-6:] == gadget[1:]
    assert len(word) <= 17
    certify(c5, word, range(5), 17)

    k5 = Graph.complete(5)
    gadget = synth._vertex_gadget(k5.rows, 0, 0b11111)
    word = synth._odd_subgraph_word(k5.rows, 0b11111)
    assert gadget == gadget_triangle(0, 1, 2) and word[-6:] == gadget[::-1][1:]
    assert len(word) <= 17
    certify(k5, word, range(5), 17)


def test_reverse_odd_subgraph_cancellation_length():
    # seven gadget letters plus the even-part word, minus the cancelled pair
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    word = synth._odd_subgraph_word(c5.rows, 0b11111)
    even_part = synth._even_subgraph_word(c5.rows, 0b11110, 1)
    assert len(word) == 7 + len(even_part) - 2


def test_reverse_odd_subgraph_random():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.choice(range(5, 14, 2))
        g = random_connected_graph(rng, n)
        word = synth._odd_subgraph_word(g.rows, (1 << n) - 1)
        assert len(word) <= 4 * n - 3
        certify(g, word, range(n), 4 * n - 3)


def _odd_path_with_high_ends(n: int) -> Graph:
    """Path on ``n`` vertices whose two ends carry the largest ids, n-2 and n-1.

    Every smaller id is an inner vertex, so each of them cuts the path and
    the peel of :func:`synth._odd_subgraph_word` must look past all of them.
    """
    order = [n - 2, *range(n - 2), n - 1]
    return Graph.from_edges(n, list(zip(order, order[1:])))


# SHA-256 of the comma-joined reversal word, computed with the peel that
# searched candidate by candidate
_ODD_PATH_DIGESTS = {
    1001: "60d022f8df7ab341a109e9bbf4c0abf8d432811cbaaeee822a450636f03ff521",
    4001: "6bee9e50d286d5d5d01ca9d97bca1370a7b3f1db3c2d5265cdb0a7a0f11b5a56",
}


@pytest.mark.parametrize("n", [1001, pytest.param(4001, marks=pytest.mark.slow)])
def test_odd_peel_past_cut_vertices_keeps_its_word(n):
    g = _odd_path_with_high_ends(n)
    word = color_reversal_word(g).word
    assert len(word) <= 4 * n - 3
    assert hashlib.sha256(",".join(map(str, word)).encode("ascii")).hexdigest() == _ODD_PATH_DIGESTS[n]


def test_odd_peel_takes_the_smallest_non_cut_vertex():
    # vertex 0 cuts the path 3-0-1-2-4; the peel falls back to the cut pass
    # and takes 3, the smallest end, exactly as a search per candidate would
    g = _odd_path_with_high_ends(5)
    word = synth._odd_subgraph_word(g.rows, 0b11111)
    assert word[-6:] == synth._vertex_gadget(g.rows, 3, 0b11111)[1:]
    certify(g, word, range(5), 17)


# -- whole-graph reversal -------------------------------------------------------------------


def test_color_reversal_small_graphs():
    cw = color_reversal_word(Graph.complete(2))
    assert cw.word == (0, 1) and len(cw.word) <= 4 * 2 - 4

    cw = color_reversal_word(Graph.path(3))
    assert len(cw.word) == 9 == 4 * 3 - 3
    verify_certificate(Graph.path(3), cw)


def test_color_reversal_isolated_vertex_unsatisfiable():
    with pytest.raises(UnsatisfiableError):
        color_reversal_word(Graph.from_edges(3, [(0, 1)]))


def test_color_reversal_multi_component_bound():
    g = Graph.from_edges(7, [(0, 1), (2, 3), (4, 5), (5, 6)])
    cw = color_reversal_word(g)
    assert cw.bound == 4 * 7 - 3 * 3
    assert len(cw.word) <= cw.bound
    verify_certificate(g, cw)


def test_builders_reach_the_partitioner_through_the_synthesizer_globals(monkeypatch):
    # bench/tracer.py times the partitioner by wrapping these two attributes
    # of locinv.synthesizer, so the builders must look them up there
    seen = {"perfect_forest": [], "p3_partition": []}
    for name, log in seen.items():
        real = getattr(synth, name)

        def counted(rows, mask, *rest, real=real, log=log):
            log.append((mask, *rest))
            return real(rows, mask, *rest)

        monkeypatch.setattr(synth, name, counted)
    star = [(0, v) for v in range(1, 6)]  # K_{1,5}: one odd tree on 6 vertices
    double_star = [(6, 7), (6, 8), (6, 9), (7, 10), (7, 11)]  # one odd tree on 6 vertices
    p5 = [(v, v + 1) for v in range(12, 16)]  # odd: 12 peels off, P4 on 13..16 is two K2
    k4 = [(u, v) for u in range(17, 21) for v in range(u + 1, 21)]  # two K2
    k2_and_triangle = [(21, 22), (23, 24), (24, 25), (23, 25)]  # no perfect forest
    g = Graph.from_edges(26, star + double_star + p5 + k4 + k2_and_triangle)
    color_reversal_word(g)
    # perfect_forest once per even piece, p3_partition once per odd tree of order >= 4
    assert seen["perfect_forest"] == [
        (mask_of(range(0, 6)),),
        (mask_of(range(6, 12)),),
        (mask_of(range(13, 17)),),
        (mask_of(range(17, 21)),),
    ]
    assert seen["p3_partition"] == [(mask_of(range(0, 6)), 0), (mask_of(range(6, 12)), 6)]


def test_color_reversal_random():
    rng = random.Random(79)
    for _ in range(100):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        cw = color_reversal_word(g)
        bound = 4 * n - 4 if n % 2 == 0 else 4 * n - 3
        assert cw.bound == bound and len(cw.word) <= bound
        verify_certificate(g, cw)


# -- transform ---------------------------------------------------------------------------------


def test_transform_identity_and_full_reversal():
    g = Graph.path(4)
    same = all_plus(4)
    cw = transform_word(g, same, same)
    assert cw.word == ()

    neg = tuple(-c for c in same)
    cw = transform_word(g, same, neg)
    assert len(cw.word) <= 4 * 4 - 3
    assert apply_word(BicoloredGraph(g, same), cw.word) == BicoloredGraph(g, neg)


def test_reversal_is_the_recoloring_of_every_vertex():
    # both builders flip through _flip_set_word, so reversing every color
    # and recoloring all-plus to all-minus give the same word: on every
    # connected class up to 6 vertices, and on seeded relabelled unions of
    # a K2, a P3 and up to three random connected pieces
    from locinv.oracle import connected_graphs

    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    rng = random.Random(0x2EF)
    for _ in range(60):
        pieces = [Graph.complete(2), Graph.path(3)]
        pieces += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(rng.randint(0, 3))]
        n = sum(p.n for p in pieces)
        labels = rng.sample(range(n), n)
        edges, offset = [], 0
        for p in pieces:
            edges += [(labels[offset + u], labels[offset + v]) for u, v in p.edges()]
            offset += p.n
        graphs.append(Graph.from_edges(n, edges))
    for g in graphs:
        plus = all_plus(g.n)
        minus = tuple(-c for c in plus)
        assert transform_word(g, plus, minus).word == color_reversal_word(g).word, g.edges()

    # the pair rule: a whole K2 takes its pair, a K2 piece with a neighbor
    # outside it the edge gadget
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert synth._flip_set_word(g.rows, 0b00011) == (0, 1)
    assert synth._flip_set_word(g.rows, 0b01100) == gadget_edge(2, 3)
    cw = transform_word(g, all_plus(5), (-1, -1, -1, -1, 1))
    assert cw.word == (0, 1) + gadget_edge(2, 3)
    verify_certificate(g, cw)


def test_transform_random():
    rng = random.Random(83)
    for _ in range(100):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        f = random_coloring(rng, n)
        t = random_coloring(rng, n)
        cw = transform_word(g, f, t)
        assert len(cw.word) <= (11 * n - 3) // 2 == cw.bound
        assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)
        verify_certificate(g, cw)


@pytest.mark.parametrize("n", [*range(2, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_transform_stays_within_4n_minus_2_on_every_small_class(n):
    # every connected class and every nonempty flip set: 7,814 pairs for
    # n = 2..6 and 108,331 at n = 7, all well under floor((11n-3)/2), and
    # every word comes out freely reduced
    from locinv.oracle import connected_graphs

    plus = all_plus(n)
    for g in connected_graphs(n):
        for s in range(1, 1 << n):
            to = tuple(-c if (s >> v) & 1 else c for v, c in enumerate(plus))
            w = transform_word(g, plus, to).word
            assert len(w) <= 4 * n - 2, (g.edges(), s)
            assert reduce_word(w) == w, (g.edges(), s)


def recoloring_graph(rng: random.Random, n: int, degree: int) -> Graph:
    """A seeded graph for the 4-letters-per-vertex checks, relabelled at random.

    One, two or four components, each a random tree plus about ``degree``
    extra neighbours per vertex, and half the time up to n/8 isolated
    vertices.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    spanned = n - rng.choice((0, rng.randint(1, n // 8)))
    cuts = sorted(rng.sample(range(2, spanned - 1), rng.choice((1, 2, 4)) - 1))
    edges = set()
    for lo, hi in zip([0, *cuts], [*cuts, spanned]):
        for v in range(lo + 1, hi):
            edges.add((labels[rng.randrange(lo, v)], labels[v]))
        for _ in range(degree * (hi - lo) // 2):
            u, v = rng.sample(range(lo, hi), 2)
            edges.add((labels[u], labels[v]))
    return Graph.from_edges(n, edges)


def assert_four_letters_per_touched_vertex(g: Graph, s: int, rng: random.Random) -> None:
    """Recolor the vertex mask ``s``: at most 4 letters per vertex of the components ``s`` touches."""
    f = random_coloring(rng, g.n)
    t = tuple(-c if (s >> v) & 1 else c for v, c in enumerate(f))
    word = transform_word(g, f, t).word
    touched = sum(c.bit_count() for c in component_masks(g.rows, (1 << g.n) - 1) if c & s)
    assert len(word) <= 4 * touched, (g.n, len(g.edges()), s)


def test_transform_spends_at_most_4_letters_per_touched_vertex():
    # sparse and dense graphs with 16 to 4,096 vertices, some disconnected,
    # some with isolated vertices, which stay out of the flip set
    rng = random.Random(0x4A4)
    for n, degrees in ((16, (0, 2, 6)), (64, (0, 2, 24)), (256, (1, 4, 64)), (1024, (1, 32)), (4096, (1, 8))):
        for degree in degrees:
            g = recoloring_graph(rng, n, degree)
            for share in (0.05, 0.5, 0.95):
                s = sum(1 << v for v in range(n) if g.rows[v] and rng.random() < share)
                assert_four_letters_per_touched_vertex(g, s, rng)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.data())
def test_transform_spends_at_most_4_letters_per_touched_vertex_property(n, data):
    g = Graph.from_upper_bits(n, data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    s = data.draw(st.integers(0, (1 << n) - 1)) & sum(1 << v for v in range(n) if g.rows[v])
    assert_four_letters_per_touched_vertex(g, s, random.Random(data.draw(st.integers(0, 2**32))))


@pytest.mark.slow
def test_transform_spends_at_most_4_letters_per_touched_vertex_at_8_and_16384_vertices():
    # 200 seeded classes on 8 vertices with 16 seeded flip sets each, then
    # two sparse graphs at 16,384 vertices
    from locinv.oracle import connected_graphs

    rng = random.Random(0x4A8)
    for g in rng.sample(list(connected_graphs(8)), 200):
        for s in rng.sample(range(1, 1 << 8), 16):
            assert_four_letters_per_touched_vertex(g, s, rng)
    for degree in (1, 3):
        g = recoloring_graph(rng, 16384, degree)
        s = sum(1 << v for v in range(g.n) if g.rows[v] and rng.random() < 0.5)
        assert_four_letters_per_touched_vertex(g, s, rng)


def test_transform_disconnected_graph():
    rng = random.Random(89)
    g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)])
    for _ in range(20):
        f = random_coloring(rng, 8)
        t = random_coloring(rng, 8)
        cw = transform_word(g, f, t)
        assert cw.bound == (11 * 8 - 3 * 3) // 2
        assert len(cw.word) <= cw.bound
        assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)


def test_transform_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(UnsatisfiableError):
        transform_word(g, (1, 1, 1), (1, 1, -1))
    cw = transform_word(g, (1, 1, 1), (-1, -1, 1))  # isolate untouched
    assert apply_word(BicoloredGraph(g, (1, 1, 1)), cw.word).coloring == (-1, -1, 1)


def test_transform_star_recolor_leaves_stays_in_bound():
    # recoloring all leaves of a star: paired path-ends gadgets keep the
    # word well under the certified bound; the two gadgets meet at the
    # centre, whose letters cancel
    g = Graph.star(5)
    f = all_plus(5)
    t = (1, -1, -1, -1, -1)
    cw = transform_word(g, f, t)
    assert len(cw.word) == 14 <= cw.bound
    assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)


def test_transform_strategy_tags():
    g = Graph.star(5)
    cw = transform_word(g, all_plus(5), (1, -1, -1, -1, -1))
    assert cw.construction == "transform/fix-V1"
    k5 = Graph.complete(5)
    cw = transform_word(k5, all_plus(5), (1, -1, -1, -1, -1))
    assert cw.construction == "transform/fix-V1"
    assert len(cw.word) <= cw.bound


def test_transform_tie_keeps_the_disagreement_word():
    # recoloring vertices 0, 1 and 3 of P4 flips them directly: the edge
    # gadget on 01, then a 7-letter single flip of 3
    g = Graph.path(4)
    fix = synth._flip_set_word(g.rows, 0b1011)
    cw = transform_word(g, all_plus(4), (-1, -1, 1, -1))
    assert cw.construction == "transform/fix-V1"
    assert cw.word == fix == (0, 1, 0, 1, 0, 1, 2, 3, 1, 3, 2, 1, 3)


def test_transform_complement_strategy_wins_on_large_star_leaves():
    # recoloring every leaf of a big star: the leaves pair up through the
    # centre, whose letters cancel between pairs, and the ninth leaf takes
    # a 7-letter single flip: 31 letters, 2 fewer than flipping the centre
    # and reversing the whole star
    g = Graph.star(10)
    f = all_plus(10)
    t = (1,) + (-1,) * 9
    cw = transform_word(g, f, t)
    assert cw.construction == "transform/fix-V1"
    assert cw.word == (
        0, 1, 2, 1, 2, 1, 2, 3, 4, 3, 4, 3, 4, 5, 6, 5, 6, 5, 6, 7, 8, 7, 8, 7, 8, 9, 1, 9, 0, 1, 9,
    )
    assert (len(cw.word), cw.bound) == (31, 53)
    assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)
    verify_certificate(g, cw)


# -- stars and complete graphs --------------------------------------------------------------------


def test_star_word_exact_lengths_and_replay():
    assert star_word(2).word == (1, 0, 1, 0, 1, 0)
    for n in (2, 4, 5, 50):
        cw = star_word(n)
        assert len(cw.word) == 3 * n == cw.bound
        verify_certificate(Graph.star(n), cw)


def test_complete_word_exact_lengths_and_replay():
    assert complete_word(3).word == (0, 1, 0, 1, 0, 1, 2, 0, 2)
    for n in (2, 3, 30):
        cw = complete_word(n)
        assert len(cw.word) == 3 * n == cw.bound
        verify_certificate(Graph.complete(n), cw)


def test_star_and_complete_reject_tiny():
    with pytest.raises(ValueError):
        star_word(1)
    with pytest.raises(ValueError):
        complete_word(0)


# -- certificates -------------------------------------------------------------------------------


def test_certificate_bound_is_enforced():
    from locinv.errors import BoundExceededError

    with pytest.raises(BoundExceededError):
        CertifiedWord((0, 1, 0), frozenset({0}), 2, "test")


def test_reduction_can_shorten_reversal_words():
    # consecutive path-ends gadgets around a high-degree center share their
    # boundary letter, which the builder cancels: 26 letters, not 28
    g = Graph.star(8)
    cw = color_reversal_word(g)
    assert len(cw.word) == 26
    assert all(x != y for x, y in zip(cw.word, cw.word[1:]))
    verify_certificate(g, cw)


def test_certificate_reduction_stability():
    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        cw = color_reversal_word(g)
        assert cw.word == reduce_word(cw.word)
        verify_certificate(g, cw)


def test_synthesis_is_deterministic():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        assert color_reversal_word(g) == color_reversal_word(g)
        f = random_coloring(rng, n)
        t = random_coloring(rng, n)
        assert transform_word(g, f, t) == transform_word(g, f, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_reversal_soundness_property(n, data):
    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = Graph.from_upper_bits(n, bits)
    assume(len(component_masks(g.rows, (1 << n) - 1)) == 1)
    cw = color_reversal_word(g)
    coloring = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(n))
    b = BicoloredGraph(g, coloring)
    assert apply_word(b, cw.word) == flip(b, range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_transform_soundness_property(n, data):
    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = Graph.from_upper_bits(n, bits)
    assume(len(component_masks(g.rows, (1 << n) - 1)) == 1)
    f = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(n))
    t = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(n))
    cw = transform_word(g, f, t)
    assert len(cw.word) <= (11 * n - 3) // 2
    assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)


def test_verify_certificate_rejects_wrong_target():
    g = Graph.complete(2)
    verify_certificate(g, CertifiedWord(gadget_edge(0, 1), frozenset({0, 1}), 6, "test"))
    bad = CertifiedWord(gadget_edge(0, 1), frozenset({0}), 6, "test")
    with pytest.raises(VerificationError, match=r"word flips \[0, 1\], target is \[0\]"):
        verify_certificate(g, bad)


def test_verify_certificate_error_paths():
    g = Graph.complete(2)
    with pytest.raises(VerificationError):
        verify_certificate(g, CertifiedWord((0,), frozenset({0, 5}), 7, "test"))
    for letter in (5, -1):
        with pytest.raises(VerificationError, match=f"word letter {letter} outside"):
            verify_certificate(g, CertifiedWord((0, letter), frozenset({0}), 6, "t"))
    # inverting at the center of P3 flips both ends but adds the edge 02
    with pytest.raises(VerificationError, match="graph not restored"):
        verify_certificate(Graph.path(3), CertifiedWord((1,), frozenset({0, 2}), 1, "t"))


def test_color_reversal_word_checks_its_own_word(monkeypatch):
    real = synth._flip_set_word
    monkeypatch.setattr(synth, "_flip_set_word", lambda rows, s: real(rows, s)[:-1])
    with pytest.raises(VerificationError):
        color_reversal_word(Graph.path(5))


def test_transform_word_checks_its_own_word(monkeypatch):
    real = synth._flip_set_word
    monkeypatch.setattr(synth, "_flip_set_word", lambda rows, s: real(rows, s)[:-1])
    with pytest.raises(VerificationError):
        transform_word(Graph.path(4), (1, 1, 1, 1), (-1, 1, 1, 1))


def test_both_builders_raise_a_witness_that_rebuilds_the_call(monkeypatch):
    # the builders check the bound before any record is built, so the
    # record's own witness (word and bound only) never reaches a caller
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    old, new = (1, 1, 1, 1, 1, 1), (-1, 1, 1, -1, -1, 1)
    flip_set = synth._flip_set_word
    monkeypatch.setattr(synth, "_flip_set_word", lambda rows, s: flip_set(rows, s) * 4)
    for build, args, instance in (
        (color_reversal_word, (g,), {}),
        (transform_word, (g, old, new), {"from": old, "to": new}),
    ):
        with pytest.raises(BoundExceededError, match="exceeds bound") as info:
            build(*args)
        witness = info.value.witness
        assert list(witness) == ["n", "edges", *instance, "word"]
        assert Graph.from_edges(witness["n"], witness["edges"]) == g
        assert {key: witness[key] for key in instance} == instance
        assert reduce_word(witness["word"]) == witness["word"]
        assert f"length {len(witness['word'])} exceeds" in str(info.value)


_TAMPERED_UNDER_O = """
import locinv.synthesizer as synth
from locinv.errors import VerificationError
from locinv.graph_core import Graph

g = Graph.path(5)
good = synth.color_reversal_word(g)
tampered = synth.CertifiedWord(good.word[:-1], good.target_flip, good.bound, "t")
seen = [__debug__]
for cw in (good, tampered):
    try:
        synth.verify_certificate(g, cw)
        seen.append("holds")
    except VerificationError:
        seen.append("rejected")
real = synth._flip_set_word
synth._flip_set_word = lambda rows, s: real(rows, s)[:-1]
try:
    synth.color_reversal_word(g)
    seen.append("returned")
except VerificationError:
    seen.append("raised")
print(seen)
"""


def test_tampered_certificate_rejected_under_optimize_flag():
    src = os.path.dirname(os.path.dirname(os.path.abspath(locinv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_UNDER_O],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[False, 'holds', 'rejected', 'raised']"
