"""Tests for certified word synthesis."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locinv
import locinv.synthesizer as synth
from locinv.errors import UnsatisfiableError, VerificationError
from locinv.graph_core import (
    BicoloredGraph,
    Graph,
    all_plus,
    apply_word,
    flip,
    reduce_word,
)
from locinv.partitioner import RootedTree
from locinv.synthesizer import (
    CertifiedWord,
    base_case_word,
    certificate_holds,
    color_reversal_word,
    complete_word,
    flip_single,
    gadget_edge,
    gadget_p3_end,
    gadget_p3_ends,
    gadget_triangle,
    reverse_even_subgraph,
    reverse_odd_subgraph,
    reverse_odd_tree,
    star_word,
    transform_word,
    verify_certificate,
)

from helpers import random_coloring, random_connected_graph, random_graph, random_odd_tree


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


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
    k2 = base_case_word(Graph.complete(2))
    assert k2.word == (0, 1) and k2.bound == 2

    k3 = base_case_word(Graph.complete(3))
    assert k3.word == (0, 1, 0, 1, 0, 1, 2, 0, 2) and k3.bound == 9
    verify_certificate(Graph.complete(3), k3)

    p3 = base_case_word(Graph.path(3))
    assert p3.word == (0, 1, 0, 1, 0, 2, 0, 2, 1) and p3.bound == 9
    verify_certificate(Graph.path(3), p3)

    # degree-2 vertex is the middle letter regardless of labeling
    p3b = base_case_word(Graph.from_edges(3, [(0, 2), (1, 2)]))
    assert p3b.word == (0, 2, 0, 2, 0, 1, 0, 1, 2)
    verify_certificate(Graph.from_edges(3, [(0, 2), (1, 2)]), p3b)

    with pytest.raises(ValueError):
        base_case_word(Graph.path(4))


# -- single-vertex flips -----------------------------------------------------------


def test_flip_single_on_triangle_and_path():
    cw = flip_single(Graph.complete(4), 0)
    assert len(cw.word) == 7 and cw.construction == "single/triangle"
    verify_certificate(Graph.complete(4), cw)

    cw = flip_single(Graph.path(4), 0)
    assert len(cw.word) == 7 and cw.construction == "single/p3-end"
    verify_certificate(Graph.path(4), cw)


def test_flip_single_star_center_fallback():
    for n in (3, 4, 6):
        g = Graph.star(n)
        cw = flip_single(g, 0)
        assert cw.construction == "single/star-center"
        assert len(cw.word) == 13 and cw.bound == 13
        verify_certificate(g, cw)


def test_flip_single_star_center_oracle_minimum():
    # exhaustive search shows the true minimum is a single inversion at a
    # leaf, far below the 13-letter constructive fallback
    from locinv.oracle import min_flip_word

    g = Graph.star(3)
    b = BicoloredGraph(g, all_plus(3))
    assert min_flip_word(b, flip(b, {0})) == (1, (1,))


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
                expected = (gadget_triangle(a, *min(triangles)), "triangle")
            elif paths:
                expected = (gadget_p3_end(a, *min(paths)), "p3-end")
            else:
                expected = None
            assert synth._vertex_gadget(g, a, allowed) == expected


def test_flip_single_preconditions():
    with pytest.raises(ValueError):
        flip_single(Graph.complete(2), 0)
    with pytest.raises(ValueError):
        flip_single(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


# -- odd-tree reversal ---------------------------------------------------------------


def test_reverse_star_as_tree_anchored():
    g = Graph.star(4)
    t = RootedTree(frozenset(range(4)), tuple(g.edges()), 1)
    for anchor, pos in (("end", -1), ("start", 0)):
        cw = reverse_odd_tree(g, t, 1, anchor)
        assert len(cw.word) == 4 * 4 - 4
        assert cw.word[pos] == 1
        verify_certificate(g, cw)


def test_reverse_six_vertex_tree_fixture():
    edges = ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5))
    g = Graph.from_edges(6, edges)
    t = RootedTree(frozenset(range(6)), edges, 0)
    cw = reverse_odd_tree(g, t, 0, "end")
    assert len(cw.word) == 4 * 6 - 4 == 20
    assert cw.word[-1] == 0
    verify_certificate(g, cw)


def test_reverse_odd_tree_random_roots_and_hosts():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.choice(range(4, 13, 2))
        t = random_odd_tree(rng, n)
        g = Graph.from_edges(n, t.edges)
        r = rng.randrange(n)
        anchor = rng.choice(("end", "start"))
        cw = reverse_odd_tree(g, t, r, anchor)
        assert len(cw.word) == 4 * n - 4
        assert (cw.word[-1] if anchor == "end" else cw.word[0]) == r
        verify_certificate(g, cw)


def test_reverse_odd_tree_embedded_in_larger_graph():
    # star on {0,1,2,3} induced inside a 6-vertex host
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (2, 5)])
    t = RootedTree(frozenset({0, 1, 2, 3}), ((0, 1), (0, 2), (0, 3)), 2)
    cw = reverse_odd_tree(g, t, 2, "end")
    verify_certificate(g, cw)


def test_reverse_odd_tree_rejects_non_induced():
    # the error names the first offending pair: smallest u, then smallest v > u
    star = RootedTree(frozenset(range(4)), ((0, 1), (0, 2), (0, 3)), 0)
    with pytest.raises(ValueError, match=r"at pair \(1, 2\)"):
        reverse_odd_tree(Graph.complete(4), star, 0)  # graph edge missing from the tree
    with pytest.raises(ValueError, match=r"at pair \(0, 2\)"):
        reverse_odd_tree(Graph.path(4), star, 0)  # tree edge missing from the graph
    outside = RootedTree(frozenset({0, 1, 2, 4}), ((0, 1), (0, 2), (0, 4)), 0)
    with pytest.raises(ValueError, match=r"vertex 4 outside 0\.\.3"):
        reverse_odd_tree(Graph.complete(4), outside, 0)


# -- even and odd subgraph reversal -----------------------------------------------------


def test_reverse_even_subgraph_p4_and_k4():
    p4 = Graph.path(4)
    cw = reverse_even_subgraph(p4, range(4), 3, "end")
    assert cw.word == gadget_edge(0, 1) + gadget_edge(2, 3)
    verify_certificate(p4, cw)

    cw = reverse_even_subgraph(p4, range(4), 0, "start")
    assert cw.word == gadget_edge(0, 1) + gadget_edge(2, 3)
    verify_certificate(p4, cw)

    k4 = Graph.complete(4)
    cw = reverse_even_subgraph(k4, range(4), 0, "end")
    assert len(cw.word) <= 12 and cw.word[-1] == 0
    verify_certificate(k4, cw)


def test_reverse_even_subgraph_single_tree_is_exact():
    g = Graph.star(4)
    cw = reverse_even_subgraph(g, range(4), 2, "start")
    assert len(cw.word) == 4 * 4 - 4
    assert cw.word[0] == 2
    verify_certificate(g, cw)


def test_reverse_even_subgraph_proper_subset():
    rng = random.Random(67)
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    cw = reverse_even_subgraph(c6, {0, 1, 2, 3}, 0, "end")
    assert cw.word[-1] == 0
    verify_certificate(c6, cw)


def test_reverse_even_subgraph_random():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.choice(range(4, 13, 2))
        g = random_connected_graph(rng, n)
        v = rng.randrange(n)
        anchor = rng.choice(("end", "start"))
        cw = reverse_even_subgraph(g, range(n), v, anchor)
        assert len(cw.word) <= 4 * n - 4
        assert (cw.word[-1] if anchor == "end" else cw.word[0]) == v
        verify_certificate(g, cw)


def test_reverse_odd_subgraph_c5_and_k5():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    cw = reverse_odd_subgraph(c5, range(5))
    assert len(cw.word) <= 17 and cw.construction == "odd-subgraph/p3"
    verify_certificate(c5, cw)

    k5 = Graph.complete(5)
    cw = reverse_odd_subgraph(k5, range(5))
    assert len(cw.word) <= 17 and cw.construction == "odd-subgraph/triangle"
    verify_certificate(k5, cw)


def test_reverse_odd_subgraph_cancellation_length():
    # seven gadget letters plus the even-part word, minus the cancelled pair
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    cw = reverse_odd_subgraph(c5, range(5))
    even_part = reverse_even_subgraph(c5, {1, 2, 3, 4}, 1, "end")
    assert len(cw.word) == 7 + len(even_part.word) - 2


def test_reverse_odd_subgraph_random():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.choice(range(5, 14, 2))
        g = random_connected_graph(rng, n)
        cw = reverse_odd_subgraph(g, range(n))
        assert len(cw.word) <= 4 * n - 3
        verify_certificate(g, cw)


def test_subgraph_reversal_preconditions():
    with pytest.raises(ValueError):
        reverse_even_subgraph(Graph.path(5), range(5), 0)
    with pytest.raises(ValueError):
        reverse_odd_subgraph(Graph.path(4), range(4))
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(ValueError):
        reverse_even_subgraph(c6, {0, 1, 3, 4}, 0)  # disconnected induced


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
    # word well under the certified bound
    g = Graph.star(5)
    f = all_plus(5)
    t = (1, -1, -1, -1, -1)
    cw = transform_word(g, f, t)
    assert len(cw.word) == 16 <= cw.bound
    assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)


def test_transform_strategy_tags():
    g = Graph.star(5)
    cw = transform_word(g, all_plus(5), (1, -1, -1, -1, -1))
    assert cw.construction == "transform/fix-V1"
    # flipping four of five vertices of K5 is cheaper via the complement
    k5 = Graph.complete(5)
    cw = transform_word(k5, all_plus(5), (1, -1, -1, -1, -1))
    assert cw.construction in ("transform/fix-V1", "transform/flip-V0-then-all")
    assert len(cw.word) <= cw.bound


def test_transform_complement_strategy_wins_on_large_star_leaves():
    # recoloring every leaf of a big star: pairing the leaves costs 8 per
    # pair, but flipping the center and reversing the whole star is shorter
    g = Graph.star(10)
    f = all_plus(10)
    t = (1,) + (-1,) * 9
    cw = transform_word(g, f, t)
    assert cw.construction == "transform/flip-V0-then-all"
    assert len(cw.word) <= cw.bound
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
    # boundary letter, which cancels under free reduction
    g = Graph.star(8)
    cw = color_reversal_word(g)
    assert len(cw.reduced) < len(cw.word)
    reduced = CertifiedWord(cw.reduced, cw.target_flip, cw.bound, cw.construction)
    verify_certificate(g, reduced)


def test_certificate_reduction_stability():
    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        cw = color_reversal_word(g)
        reduced = CertifiedWord(cw.reduced, cw.target_flip, cw.bound, cw.construction)
        verify_certificate(g, reduced)


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
    from locinv.graph_core import is_connected

    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = Graph.from_upper_bits(n, bits)
    assume(is_connected(g))
    cw = color_reversal_word(g)
    coloring = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(n))
    b = BicoloredGraph(g, coloring)
    assert apply_word(b, cw.word) == flip(b, range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_transform_soundness_property(n, data):
    from locinv.graph_core import is_connected

    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = Graph.from_upper_bits(n, bits)
    assume(is_connected(g))
    f = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(n))
    t = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(n))
    cw = transform_word(g, f, t)
    assert len(cw.word) <= (11 * n - 3) // 2
    assert apply_word(BicoloredGraph(g, f), cw.word) == BicoloredGraph(g, t)


def test_certificate_holds_rejects_wrong_target():
    g = Graph.complete(2)
    good = CertifiedWord(gadget_edge(0, 1), frozenset({0, 1}), 6, "test")
    bad = CertifiedWord(gadget_edge(0, 1), frozenset({0}), 6, "test")
    assert certificate_holds(g, good)
    assert not certificate_holds(g, bad)
    for letter in (5, -1):
        assert not certificate_holds(g, CertifiedWord((0, letter), frozenset({0}), 6, "t"))


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
    real = synth._reverse_component_word
    monkeypatch.setattr(synth, "_reverse_component_word", lambda g, comp: real(g, comp)[:-1])
    with pytest.raises(VerificationError):
        color_reversal_word(Graph.path(5))


def test_transform_word_checks_its_own_word(monkeypatch):
    real = synth._transform_component

    def dropped_letter(g, comp, diff):
        word, tag = real(g, comp, diff)
        return word[:-1], tag

    monkeypatch.setattr(synth, "_transform_component", dropped_letter)
    with pytest.raises(VerificationError):
        transform_word(Graph.path(4), (1, 1, 1, 1), (-1, 1, 1, 1))


_TAMPERED_UNDER_O = """
import locinv.synthesizer as synth
from locinv.errors import VerificationError
from locinv.graph_core import Graph

g = Graph.path(5)
good = synth.color_reversal_word(g)
tampered = synth.CertifiedWord(good.word[:-1], good.target_flip, good.bound, "t")
seen = [__debug__, synth.certificate_holds(g, good), synth.certificate_holds(g, tampered)]
real = synth._reverse_component_word
synth._reverse_component_word = lambda g, comp: real(g, comp)[:-1]
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
    assert out.stdout.strip() == "[False, True, False, 'raised']"
