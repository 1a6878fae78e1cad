"""Tests for the inversion calculus."""

import copy
import pickle
import random
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locinv.graph_core import (
    BicoloredGraph,
    Graph,
    all_plus,
    apply_word,
    bfs_layers,
    component_masks,
    cut_vertices,
    flip,
    iter_bits,
    local_complement,
    local_inversion,
    mask_of,
    reachable_mask,
    reduce_word,
    replay,
)

from locinv.errors import BoundExceededError
from locinv.oracle import CrReport, SurveySummary, exact_cr
from locinv.synthesizer import CertifiedWord, color_reversal_word, transform_word

from helpers import (
    induced_subgraph,
    local_complement_reference,
    random_coloring,
    random_connected_graph,
    random_graph,
    replay_reference,
)


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_upper_bits(n, bits)


@st.composite
def colored_graphs(draw, min_n=0, max_n=8):
    g = draw(graphs(min_n, max_n))
    coloring = tuple(draw(st.sampled_from((-1, 1))) for _ in range(g.n))
    return BicoloredGraph(g, coloring)


def words(max_n, max_len=12):
    return st.lists(st.integers(0, max_n - 1), max_size=max_len).map(tuple)


# -- construction and validation ------------------------------------------


def test_graph_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b01))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_public_constructor_still_validates_everything():
    cases = [
        (2, (0b01, 0b01), "loop at vertex 0"),
        (2, (0b10, 0b00), r"adjacency not symmetric at \(0, 1\)"),
        (3, (0b110, 0b001, 0b000), r"adjacency not symmetric at \(0, 2\)"),
        (2, (0b110, 0b001), r"row 0 mentions vertices outside 0\.\.1"),
        (2, (0b10, -1), r"row 1 mentions vertices outside 0\.\.1"),
        (3, (0, 0), "expected 3 adjacency rows, got 2"),
        (-1, (), "expected -1 adjacency rows, got 0"),
    ]
    for n, rows, message in cases:
        with pytest.raises(ValueError, match=message):
            Graph(n, rows)
    for build in (lambda: Graph.from_edges(-1, []), lambda: Graph.from_upper_bits(-2, 0)):
        with pytest.raises(ValueError, match="expected -[12] adjacency rows, got 0"):
            build()


# one record of each type: its fields, its repr as the dataclasses gave it,
# and fields its validation refuses (None where it has none) with the message
RECORDS = [
    (Graph, (3, (2, 5, 2)), "Graph(n=3, rows=(2, 5, 2))", ((2, (1, 0)), ValueError, "loop at vertex 0")),
    (
        BicoloredGraph,
        (Graph(2, (2, 1)), (1, -1)),
        "BicoloredGraph(graph=Graph(n=2, rows=(2, 1)), coloring=(1, -1))",
        ((Graph(2, (2, 1)), (1, 0)), ValueError, "color of vertex 1 is 0, expected -1 or +1"),
    ),
    (
        CertifiedWord,
        ((0, 1, 0), frozenset({1}), 9, "t"),
        "CertifiedWord(word=(0, 1, 0), target_flip=frozenset({1}), bound=9, construction='t')",
        (((0, 1, 0), frozenset(), 2, "c"), BoundExceededError, "c: word of length 3 exceeds bound 2"),
    ),
    (
        CrReport,
        ("Bw", 3, 9, (0, 1, 2), 9, 9),
        "CrReport(graph_id='Bw', n=3, exact_cr=9, witness=(0, 1, 2), synthesized_length=9, bound=9)",
        None,
    ),
    (
        SurveySummary,
        (2, 9, 0.5, ("x",)),
        "SurveySummary(graphs=2, max_cr=9, max_ratio=0.5, violations=('x',))",
        None,
    ),
]


@pytest.mark.parametrize("cls, fields, text, refused", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, text, refused):
    x = cls(*fields)
    assert repr(x) == text
    assert x == cls(*fields) and hash(x) == hash(cls(*fields)) == hash(fields)
    other_cls, other_fields = next((c, f) for c, f, _, _ in RECORDS if c is not cls)
    assert x != other_cls(*other_fields) and x != fields
    with pytest.raises(AttributeError):
        setattr(x, cls.__slots__[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(x, cls.__slots__[-1])
    with pytest.raises(AttributeError):
        x.extra = 1
    assert pickle.loads(pickle.dumps(x)) == x and copy.copy(x) == x and copy.deepcopy(x) == x
    assert cls(**dict(zip(cls.__slots__, fields))) == x
    with pytest.raises(TypeError, match="missing"):
        cls(*fields[:-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*fields, extra=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*fields, **{cls.__slots__[0]: fields[0]})
    if refused is not None:
        bad, error, message = refused
        with pytest.raises(error) as info:
            cls(*bad)
        assert str(info.value) == message


def test_records_built_from_lists_equal_their_tuple_forms():
    # the builders' replay check compares tuples of rows, and records are
    # hashed by their fields, so lists must be stored as tuples
    g = Graph(3, [2, 5, 2])
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert color_reversal_word(g) == color_reversal_word(path)
    assert transform_word(g, [1, 1, 1], [-1, 1, -1]) == transform_word(path, (1, 1, 1), (-1, 1, -1))
    assert exact_cr(g) == exact_cr(path)
    pairs = [
        (g, path),
        (BicoloredGraph(g, [1, 1, -1]), BicoloredGraph(path, (1, 1, -1))),
        (CertifiedWord([0, 1, 0], {1}, 9, "t"), CertifiedWord((0, 1, 0), frozenset({1}), 9, "t")),
    ]
    for built, expected in pairs:
        assert built == expected and hash(built) == hash(expected) and repr(built) == repr(expected)
    b = pairs[1][0]
    assert apply_word(b, ()) == b


def test_coloring_validation():
    g = Graph.complete(2)
    with pytest.raises(ValueError):
        BicoloredGraph(g, (1,))
    with pytest.raises(ValueError):
        BicoloredGraph(g, (1, 0))


def test_constructors():
    assert Graph.path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert Graph.complete(3).edges() == [(0, 1), (0, 2), (1, 2)]
    assert Graph.star(4).edges() == [(0, 1), (0, 2), (0, 3)]
    assert Graph.path(1).edges() == []


def test_upper_bits_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 10))
        assert Graph.from_upper_bits(g.n, g.upper_bits()) == g


def test_induced_subgraph():
    # the test-side reference that partitioner tests map host ids through
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, ids = induced_subgraph(g, {1, 2, 4})
    assert ids == (1, 2, 4)
    assert sub.edges() == [(0, 1)]  # only 1-2 survives


# -- local complementation ---------------------------------------------


def test_local_complement_five_vertex_fixture():
    # a=0 adjacent to x=1, y=3, y'=4; edges x-x', x-y', y-y', x'-y'
    g = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (3, 4), (2, 4)])
    got = local_complement(g, 0)
    # toggles exactly pairs {x,y}, {x,y'}, {y,y'} among the neighbors of a
    expected = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (1, 3)])
    assert got == expected


def test_local_complement_low_degree_is_identity():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        for a in range(g.n):
            if g.rows[a].bit_count() <= 1:
                assert local_complement(g, a) == g


def test_local_complement_matches_pairwise_reference():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10))
        a = rng.randrange(g.n)
        assert local_complement(g, a) == local_complement_reference(g, a)


def test_local_complement_rejects_bad_vertex():
    with pytest.raises(ValueError):
        local_complement(Graph.complete(3), 3)


@given(graphs(min_n=1))
def test_local_complement_is_involution(g):
    for a in range(g.n):
        assert local_complement(local_complement(g, a), a) == g


@given(graphs(min_n=1))
def test_local_complement_locality(g):
    for a in range(g.n):
        nb = set(g.neighbors(a))
        ga = local_complement(g, a)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not (u in nb and v in nb):
                    assert ga.has_edge(u, v) == g.has_edge(u, v)


# -- words on graphs -------------------------------------------------------


def test_word_on_triangle_stage_by_stage():
    tri = Graph.complete(3)
    stages = [tri]
    for a in (0, 1, 2, 0):
        stages.append(local_complement(stages[-1], a))
    path_a = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert stages[1] == path_a
    assert stages[2] == path_a
    assert stages[3] == path_a
    assert stages[4] == tri
    assert replay(tri.rows, (0, 1, 2, 0))[1] == tri.rows


def test_empty_word_and_double_letter():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        assert replay(g.rows, ()) == (0, g.rows)
        a = rng.randrange(g.n)
        assert replay(g.rows, (a, a)) == (0, g.rows)


# -- local inversion --------------------------------------------------------


def test_inversion_on_white_triangle():
    b = BicoloredGraph(Graph.complete(3), all_plus(3))
    b1 = local_inversion(b, 0)
    assert b1.coloring == (1, -1, -1)
    assert b1.graph == Graph.from_edges(3, [(0, 1), (0, 2)])


def test_inversion_at_isolated_vertex_is_identity():
    g = Graph.from_edges(3, [(1, 2)])
    b = BicoloredGraph(g, (1, -1, 1))
    assert local_inversion(b, 0) == b


def test_triangle_word_round_trip_with_colors():
    b = BicoloredGraph(Graph.complete(3), all_plus(3))
    stages = [b]
    for a in (0, 1, 2, 0):
        stages.append(local_inversion(stages[-1], a))
    assert stages[1].coloring == (1, -1, -1)
    assert stages[2].coloring == (-1, -1, -1)
    assert stages[3].coloring == (1, -1, -1)
    assert stages[4] == b


def test_k2_word_flips_both():
    b = BicoloredGraph(Graph.complete(2), (1, 1))
    after = apply_word(b, (0, 1))
    assert after.coloring == (-1, -1)
    assert after.graph == b.graph


def test_apply_empty_word_is_identity():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 8))
        b = BicoloredGraph(g, random_coloring(rng, g.n))
        assert apply_word(b, ()) == b


def test_word_then_reversed_word_is_identity():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        b = BicoloredGraph(g, random_coloring(rng, g.n))
        w = tuple(rng.randrange(g.n) for _ in range(rng.randint(0, 10)))
        assert apply_word(apply_word(b, w), w[::-1]) == b


def test_apply_word_rejects_bad_letter():
    b = BicoloredGraph(Graph.complete(2), (1, 1))
    with pytest.raises(ValueError):
        apply_word(b, (2,))


# -- flip --------------------------------------------------------------------


def test_flip_empty_and_involution():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        b = BicoloredGraph(g, random_coloring(rng, g.n))
        assert flip(b, ()) == b
        assert flip(flip(b, range(g.n)), range(g.n)) == b


def test_flip_rejects_a_vertex_outside_the_graph():
    b = BicoloredGraph(Graph.path(4), (1, -1, 1, 1))
    for v in (-1, 4):
        with pytest.raises(ValueError, match=rf"^vertex {v} outside 0\.\.3$"):
            flip(b, [0, v])
    assert flip(b, range(4)) == BicoloredGraph(Graph.path(4), (-1, 1, -1, -1))


def test_flip_matches_edge_word():
    rng = random.Random(29)
    done = 0
    while done < 30:
        g = random_graph(rng, rng.randint(2, 8))
        edges = g.edges()
        if not edges:
            continue
        a, b_ = rng.choice(edges)
        b = BicoloredGraph(g, random_coloring(rng, g.n))
        assert apply_word(b, (a, b_, a, b_, a, b_)) == flip(b, {a, b_})
        done += 1


# -- free reduction ------------------------------------------------------------


def test_reduce_word_examples():
    c, a, b = 2, 0, 1
    assert reduce_word((c,) + (a, b, a, c, b, a, c) + (c,)) == (c, a, b, a, c, b, a)
    assert reduce_word((0, 1, 1, 0)) == ()
    assert reduce_word(()) == ()


def test_reduce_word_star_pattern():
    # growing the star word by one leaf then reducing gives the next star word
    from locinv.synthesizer import star_word

    for n in range(3, 8):
        prev = star_word(n - 1).word
        step = (0, n - 1, 0, n - 1, 0, n - 1) + (n - 1,)
        assert reduce_word(prev + step) == star_word(n).word


@given(st.lists(st.integers(0, 5), max_size=30).map(tuple))
def test_reduce_word_idempotent_and_no_adjacent_equal(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert all(r[i] != r[i + 1] for i in range(len(r) - 1))


@given(colored_graphs(min_n=1, max_n=6), st.data())
def test_reduce_word_soundness(b, data):
    w = data.draw(words(b.graph.n))
    assert apply_word(b, w) == apply_word(b, reduce_word(w))


# -- algebraic invariants --------------------------------------------------------


@given(colored_graphs(min_n=1, max_n=6), st.data())
def test_word_homomorphism(b, data):
    u = data.draw(words(b.graph.n, 8))
    v = data.draw(words(b.graph.n, 8))
    assert apply_word(b, u + v) == apply_word(apply_word(b, u), v)


@given(colored_graphs(min_n=1, max_n=6))
def test_inversion_involution(b):
    for a in range(b.graph.n):
        assert apply_word(b, (a, a)) == b


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=6), st.data())
def test_flipped_set_is_coloring_independent(g, data):
    w = data.draw(words(g.n))
    base = BicoloredGraph(g, all_plus(g.n))
    after = apply_word(base, w)
    flipped = frozenset(
        v for v in range(g.n) if after.coloring[v] != base.coloring[v]
    )
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for _ in range(16):
        coloring = random_coloring(rng, g.n)
        b = BicoloredGraph(g, coloring)
        out = apply_word(b, w)
        assert out.graph == after.graph
        assert out.coloring == flip(b, flipped).coloring


# -- replay ------------------------------------------------------------------


def test_replay_matches_letter_by_letter_fold():
    """Differential check of the in-place replay against independent folds.

    The fold of :func:`local_inversion` copies every row and negates colors
    letter by letter; the pairwise reference complements one pair at a
    time.  Both must agree with :func:`replay` and :func:`apply_word`
    under the all-plus coloring and 16 seeded
    random colorings, and the flip mask must be the set those colorings
    see negated.
    """
    rng = random.Random(0x5EED)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        w = tuple(rng.randrange(n) for _ in range(rng.randint(0, 4 * n)))
        flipped, rows = replay(g.rows, w)
        ref = g
        for a in w:
            ref = local_complement_reference(ref, a)
        assert rows == ref.rows
        for coloring in [all_plus(n)] + [random_coloring(rng, n) for _ in range(16)]:
            b = BicoloredGraph(g, coloring)
            folded = b
            for a in w:
                folded = local_inversion(folded, a)
            assert apply_word(b, w) == folded
            assert folded == BicoloredGraph(ref, flip(b, iter_bits(flipped)).coloring)


def test_replay_leaves_its_input_alone_and_checks_letters():
    rows = list(Graph.path(4).rows)
    assert replay(rows, ()) == (0, tuple(rows))
    flipped, after = replay(rows, (1,))
    assert flipped == 0b101
    assert after == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]).rows
    assert rows == list(Graph.path(4).rows)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"word letter {bad} outside 0..3"):
            replay(rows, (0, bad))


def test_replay_matches_the_reference_at_scale():
    """Multi-byte rows through the top-bit peel, against the lowest-bit reference.

    Seeded graphs with 64 to 1,100 vertices and extra-edge densities from
    2/n to 0.3 replay random words and the builders' reversal and transform
    words, so the peel meets neighbourhoods from a handful of vertices to
    about a third of the row.
    """
    rng = random.Random(0xB17E)
    for n, p in ((64, 0.3), (100, 2 / 100), (257, 0.1), (513, 4 / 513), (800, 0.02), (1100, 2 / 1100)):
        g = random_connected_graph(rng, n, p)
        from_colors, to_colors = random_coloring(rng, n), random_coloring(rng, n)
        for w in (
            tuple(rng.randrange(n) for _ in range(2 * n)),
            color_reversal_word(g).word,
            transform_word(g, from_colors, to_colors).word,
        ):
            assert replay(g.rows, w) == replay_reference(g.rows, w)


def test_replay_at_the_density_threshold():
    # a hub of 15 to 17 neighbours on a 1,024-vertex path must agree with
    # the reference, and so must alternating runs through the hub, on two
    # of its edges (skipped in closed form but for their remainder) and on
    # a non-edge
    rng = random.Random(0x7E5)
    n = 1024
    for deg in (15, 16, 17):
        hub = rng.sample(range(1, n), deg)
        edges = {(0, v) for v in hub} | {(v, v + 1) for v in range(1, n - 1)}
        g = Graph.from_edges(n, edges)
        stranger = next(v for v in range(1, n) if v not in hub)
        runs = [(0, v) * k for v in (hub[0], hub[-1], stranger) for k in range(1, 8)]
        runs += [(hub[0], 0) * k + (hub[0],) for k in range(1, 8)]
        for w in ((0,), (0, 0), (0, hub[0], 0), tuple(rng.choice([0, *hub]) for _ in range(200)), *runs):
            assert replay(g.rows, w) == replay_reference(g.rows, w)
    with pytest.raises(ValueError, match=f"word letter {n} outside 0..{n - 1}") as exc:
        replay(g.rows, (0, 5, n))
    with pytest.raises(ValueError) as ref:
        replay_reference(g.rows, (0, 5, n))
    assert str(exc.value) == str(ref.value)


def test_alternating_runs_in_every_attachment_host():
    """The closed form of ``(ab)^3`` holds in every host: a finite check.

    A word on a = 0 and b = 1 acts on another vertex only through its
    attachment set to {a, b}, and on a pair of them only through their two
    attachment sets and their own edge.  So the hosts with ab an edge, two
    outside copies of each attachment set {a}, {b} and {a, b}, and any of
    the 2^15 edge sets among those six decide every host.  Runs of 1 to 12
    letters, from either end of the edge, must replay as the per-letter
    reference does, whose state is carried one letter at a time.
    """
    attach = (0b01, 0b01, 0b10, 0b10, 0b11, 0b11)
    pairs = [(u, v) for u in range(2, 8) for v in range(u + 1, 8)]
    for bits in range(1 << len(pairs)):
        rows = [0b10, 0b01, 0, 0, 0, 0, 0, 0]
        for v, s in enumerate(attach, 2):
            rows[v] = s
            for u in iter_bits(s):
                rows[u] |= 1 << v
        for k, (u, v) in enumerate(pairs):
            if bits >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for a, b in ((0, 1), (1, 0)):
            flipped, after = 0, rows
            for m in range(1, 13):
                f, after = replay_reference(after, ((a, b)[(m - 1) % 2],))
                flipped ^= f
                assert replay(rows, (a, b) * (m // 2) + (a,) * (m % 2)) == (flipped, after)


def test_replay_runs_match_the_reference():
    """Seeded words of alternating runs against the per-letter reference.

    Runs sit on edges and on non-edges, run to the end of the word or stop
    at another letter, and are broken part way; letters outside the graph
    inside a run, as its partner, or right after it raise the reference's
    text.
    """
    rng = random.Random(0x6AB)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.random())
        w = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(range(n), 2)
            run = [a, b] * rng.randint(2, 10) + [a] * rng.randint(0, 1)
            if rng.random() < 0.3:
                run[rng.randrange(len(run))] = rng.randrange(n)
            w += run + [rng.randrange(n) for _ in range(rng.randint(0, 2))]
            seen[bool(g.rows[a] >> b & 1)] += 1
        w = tuple(w)
        assert replay(g.rows, w) == replay_reference(g.rows, w)
        for bad in (-1, n):
            a, b = rng.sample(range(n), 2)
            for case in ((a, b, a, b, bad, b, a, b), (a, b) * 5 + (bad,), (a, bad, a, bad, a), w + (bad,)):
                with pytest.raises(ValueError) as exc:
                    replay(g.rows, case)
                with pytest.raises(ValueError) as ref:
                    replay_reference(g.rows, case)
                assert str(exc.value) == str(ref.value) == f"word letter {bad} outside 0..{n - 1}"
    assert min(seen.values()) > 100


def test_replay_sparse_decode_at_scale():
    """Builders' run-rich words on 4,096 sparse vertices, against the reference.

    Rows of 512 bytes hold a handful of neighbours each, so the peel's cost
    per letter, O(deg a), is far below one step per byte of row.
    """
    rng = random.Random(0x5A75E)
    n = 4096
    g = random_connected_graph(rng, n, 2 / n)
    from_colors, to_colors = random_coloring(rng, n), random_coloring(rng, n)
    for w in (color_reversal_word(g).word, transform_word(g, from_colors, to_colors).word):
        assert replay(g.rows, w) == replay_reference(g.rows, w)


def test_cut_vertices_match_removal_by_removal():
    rng = random.Random(0xC07)
    for _ in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.random())
        for comp in component_masks(g.rows, (1 << n) - 1):
            expected = 0
            for v in iter_bits(comp):
                rest = comp ^ (1 << v)
                if rest and reachable_mask(g.rows, (rest & -rest).bit_length() - 1, rest) != rest:
                    expected |= 1 << v
            assert cut_vertices(g.rows, comp) == expected


@given(colored_graphs(min_n=1, max_n=6), st.data())
def test_isolated_vertex_is_conserved(b, data):
    w = data.draw(words(b.graph.n))
    isolated = [v for v in range(b.graph.n) if b.graph.rows[v] == 0]
    after = apply_word(b, w)
    for v in isolated:
        assert after.graph.rows[v] == 0
        assert after.coloring[v] == b.coloring[v]


# -- connectivity helpers -----------------------------------------------------


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
    assert component_masks(g.rows, 0b111111) == [0b11, 0b11100, 0b100000]
    # inside a mask: dropping vertex 3 splits {2, 3, 4}
    assert component_masks(g.rows, 0b110111) == [0b11, 0b100, 0b10000, 0b100000]
    assert component_masks(g.rows, 0) == []
    assert component_masks(Graph.path(5).rows, 0b11111) == [0b11111]
    assert component_masks(Graph(0, ()).rows, 0) == []
    assert component_masks(Graph(1, (0,)).rows, 0b1) == [0b1]


def test_bfs_layers_match_networkx_inside_a_mask():
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(1, 24)
        g = random_graph(rng, n, rng.choice((0.05, 0.15, 0.4)))
        start = rng.randrange(n)
        # -1 is the unrestricted mask that the chord swap of the perfect forest passes
        within = -1 if rng.random() < 0.2 else mask_of(v for v in range(n) if rng.random() < 0.7)
        within |= 1 << start
        inside = within & ((1 << n) - 1)
        h = nx.Graph()
        h.add_nodes_from(iter_bits(inside))
        h.add_edges_from((u, v) for u, v in g.edges() if (inside >> u) & (inside >> v) & 1)

        layers = list(bfs_layers(g.rows, start, within))
        assert layers == [mask_of(layer) for layer in nx.bfs_layers(h, start)]
        reach = 0
        for layer in layers:
            reach |= layer
        assert reachable_mask(g.rows, start, within) == reach

        # stopping at the layer that holds a target, as the chord swap does,
        # sees the layers before it
        target = rng.choice(list(iter_bits(reach)))
        prefix = list(takewhile(lambda layer: not (layer >> target) & 1, bfs_layers(g.rows, start, within)))
        assert prefix == layers[: nx.shortest_path_length(h, start, target)]


# -- rows built without validation ----------------------------------------------


def assert_validates(g):
    """The public constructor accepts ``g``'s unvalidated rows unchanged."""
    checked = Graph(g.n, g.rows)
    assert checked == g
    assert checked.rows == g.rows


def test_from_upper_bits_rows_validate_for_every_mask():
    for n in range(6):
        for bits in range(1 << (n * (n - 1) // 2)):
            assert_validates(Graph.from_upper_bits(n, bits))


def test_from_edges_rows_validate():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(0, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        g = Graph.from_edges(n, [(u, v) for u, v in edges if u != v])
        assert_validates(g)


def test_replayed_rows_validate():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 24)
        g = random_graph(rng, n, rng.random())
        b = BicoloredGraph(g, random_coloring(rng, n))
        w = [rng.randrange(n) for _ in range(rng.randint(0, 3 * n))]
        assert_validates(apply_word(b, w).graph)
        a = rng.randrange(n)
        assert_validates(local_complement(g, a))
        assert_validates(local_inversion(b, a).graph)


@given(colored_graphs(min_n=1), st.data())
def test_replayed_rows_validate_fuzzed(b, data):
    w = data.draw(words(b.graph.n))
    a = data.draw(st.integers(0, b.graph.n - 1))
    assert_validates(apply_word(b, w).graph)
    assert_validates(local_complement(b.graph, a))
    assert_validates(local_inversion(b, a).graph)
