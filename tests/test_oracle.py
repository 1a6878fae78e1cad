"""Tests for the exhaustive search oracle."""

import random
from itertools import product

import pytest

import locinv.oracle as oracle
from locinv.errors import CapExceededError
from locinv.graph_core import (
    BicoloredGraph,
    Graph,
    all_plus,
    apply_word,
    flip,
)
from locinv.oracle import (
    MAX_CAP,
    connected_graphs,
    exact_cr,
    min_flip_word,
    pack_state,
    summarize,
    survey,
)

from helpers import min_flip_word_reference, random_coloring, random_graph, unpack_state


def brute_force_min_word(b, target, max_len):
    """Try every word up to max_len, shortest first; independent of the BFS."""
    n = b.graph.n
    for length in range(max_len + 1):
        for word in product(range(n), repeat=length):
            if apply_word(b, word) == target:
                return length, word
    return None


# -- state packing ----------------------------------------------------------


def test_pack_state_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 7)
        g = random_graph(rng, n)
        b = BicoloredGraph(g, random_coloring(rng, n))
        assert unpack_state(pack_state(b), n) == b


def test_pack_state_is_injective_small():
    seen = {}
    n = 3
    for bits in range(1 << 3):
        for cbits in range(1 << 3):
            g = Graph.from_upper_bits(n, bits)
            coloring = tuple(-1 if (cbits >> v) & 1 else 1 for v in range(n))
            key = pack_state(BicoloredGraph(g, coloring))
            assert key not in seen
            seen[key] = True


# -- shortest words ------------------------------------------------------------


def test_min_flip_word_trivial_and_k2():
    b = BicoloredGraph(Graph.complete(2), (1, 1))
    assert min_flip_word(b, b) == (0, ())
    res = min_flip_word(b, flip(b, {0, 1}))
    assert res is not None and res[0] == 2


def test_min_flip_word_isolated_vertex_unreachable():
    g = Graph.from_edges(2, [])
    b = BicoloredGraph(g, (1, 1))
    assert min_flip_word(b, flip(b, {0})) is None


def test_min_flip_word_matches_exhaustive_enumeration():
    # cross-check BFS against plain word enumeration on the 2- and 3-vertex
    # state spaces
    k2 = BicoloredGraph(Graph.complete(2), (1, 1))
    target = flip(k2, {0, 1})
    assert brute_force_min_word(k2, target, 2) == min_flip_word(k2, target)

    p3 = BicoloredGraph(Graph.path(3), all_plus(3))
    target = flip(p3, {0, 1, 2})
    bfs = min_flip_word(p3, target)
    assert bfs is not None and bfs[0] == 9
    assert brute_force_min_word(p3, target, 8) is None


def test_min_flip_word_witness_replays():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        b = BicoloredGraph(g, random_coloring(rng, n))
        target = flip(b, [v for v in range(n) if rng.random() < 0.5])
        res = min_flip_word(b, target)
        if res is not None:
            length, word = res
            assert len(word) == length
            assert apply_word(b, word) == target


def test_min_flip_word_layer_minimality():
    # no strictly shorter prefix of the state space reaches the target
    b = BicoloredGraph(Graph.star(4), all_plus(4))
    target = flip(b, range(4))
    length, word = min_flip_word(b, target)
    assert length == 12
    for cut in range(length):
        assert apply_word(b, word[:cut]) != target


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_min_flip_word_matches_tuple_search_on_every_small_connected_graph():
    for n in range(1, 6):
        for g in connected_graphs(n):
            b = BicoloredGraph(g, all_plus(n))
            target = flip(b, range(n))
            assert min_flip_word(b, target) == min_flip_word_reference(b, target)


def test_min_flip_word_matches_tuple_search_on_partial_recolorings():
    # same-graph targets other than the all-flip: the color difference
    # between start and target has some bits clear
    rng = random.Random(41)
    for n in range(1, 6):
        for g in connected_graphs(n):
            for _ in range(4):
                b = BicoloredGraph(g, random_coloring(rng, n))
                mask = rng.randrange((1 << n) - 1)
                target = flip(b, [v for v in range(n) if mask >> v & 1])
                assert min_flip_word(b, target) == min_flip_word_reference(b, target)


@pytest.mark.slow
def test_min_flip_word_matches_tuple_search_on_every_six_vertex_graph():
    for g in connected_graphs(6):
        b = BicoloredGraph(g, all_plus(6))
        target = flip(b, range(6))
        assert min_flip_word(b, target) == min_flip_word_reference(b, target)


def test_min_flip_word_matches_tuple_search_on_p7_and_c6():
    for g in (Graph.path(7), _cycle(6)):
        b = BicoloredGraph(g, all_plus(g.n))
        target = flip(b, range(g.n))
        assert min_flip_word(b, target) == min_flip_word_reference(b, target)


def test_min_flip_word_matches_tuple_search_on_random_pairs():
    # targets of three kinds: an unrelated bicolored graph (mostly
    # unreachable), a recoloring of the start, and the end of a random word
    rng = random.Random(2024)
    unreachable = 0
    for i in range(210):
        n = i % 7
        b = BicoloredGraph(random_graph(rng, n), random_coloring(rng, n))
        if i % 3 == 0:
            target = BicoloredGraph(random_graph(rng, n), random_coloring(rng, n))
        elif i % 3 == 1:
            target = flip(b, [v for v in range(n) if rng.random() < 0.5])
        else:
            word = [rng.randrange(n) for _ in range(rng.randint(0, 12))] if n else []
            target = apply_word(b, word)
        expected = min_flip_word_reference(b, target)
        assert min_flip_word(b, target) == expected
        unreachable += expected is None
    assert unreachable >= 20


def test_min_flip_word_pinned_witnesses():
    # the first shortest word in breadth-first discovery order; exact and
    # survey print these, so they must not change with the state encoding
    b = BicoloredGraph(Graph.path(7), all_plus(7))
    assert min_flip_word(b, flip(b, range(7))) == (
        17,
        (1, 0, 2, 0, 1, 3, 2, 3, 2, 4, 5, 3, 4, 6, 4, 6, 5),
    )
    b = BicoloredGraph(_cycle(6), all_plus(6))
    assert min_flip_word(b, flip(b, range(6))) == (
        18,
        (0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 4, 5, 4, 5, 4, 5),
    )


def test_min_flip_word_cap():
    g = Graph.path(8)
    b = BicoloredGraph(g, all_plus(8))
    with pytest.raises(CapExceededError):
        min_flip_word(b, flip(b, range(8)))
    # explicit cap raise permits it
    assert min_flip_word(b, b, cap=8) == (0, ())


def _must_not_search(*args):
    raise AssertionError("a search above MAX_CAP reached the move table or the enumerator")


def test_search_ceiling_holds_whatever_the_cap(monkeypatch):
    assert MAX_CAP >= 8  # n = 8 probes stay possible
    monkeypatch.setattr(oracle, "_move_table", _must_not_search)
    monkeypatch.setattr(oracle, "connected_graphs", _must_not_search)
    b = BicoloredGraph(Graph.path(MAX_CAP + 1), all_plus(MAX_CAP + 1))
    for cap in (MAX_CAP + 1, 40, 10**6):
        with pytest.raises(CapExceededError, match=f"search cap {MAX_CAP}$"):
            min_flip_word(b, flip(b, range(MAX_CAP + 1)), cap=cap)
        with pytest.raises(CapExceededError, match=f"search cap {MAX_CAP}$"):
            survey(MAX_CAP + 1, cap=cap)


# -- exact cr -------------------------------------------------------------------


def test_exact_cr_known_values():
    assert exact_cr(Graph.complete(2)).exact_cr == 2
    assert exact_cr(Graph.path(3)).exact_cr == 9
    assert exact_cr(Graph.complete(3)).exact_cr == 9
    assert exact_cr(Graph.star(4)).exact_cr == 12


def test_exact_cr_reports_sandwich():
    rep = exact_cr(Graph.star(4))
    assert rep.exact_cr <= rep.synthesized_length <= rep.bound
    assert rep.n == 4
    b = BicoloredGraph(Graph.star(4), all_plus(4))
    assert apply_word(b, rep.witness) == flip(b, range(4))


def test_exact_cr_isolated_vertex():
    rep = exact_cr(Graph.from_edges(2, []))
    assert rep.exact_cr is None
    assert rep.synthesized_length is None


def test_exact_cr_coloring_independent():
    rng = random.Random(37)
    g = Graph.complete(3)
    lengths = set()
    for _ in range(4):
        coloring = random_coloring(rng, 3)
        b = BicoloredGraph(g, coloring)
        res = min_flip_word(b, flip(b, range(3)))
        lengths.add(res[0])
    assert lengths == {9}


# -- enumeration -------------------------------------------------------------------


def test_connected_graph_census():
    counts = {n: sum(1 for _ in connected_graphs(n)) for n in range(1, 6)}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def test_connected_graphs_are_connected_and_distinct():
    from locinv.graph_core import is_connected

    seen = set()
    for g in connected_graphs(4):
        assert is_connected(g)
        assert g.upper_bits() not in seen
        seen.add(g.upper_bits())


# -- survey --------------------------------------------------------------------------


def test_survey_small():
    reports = survey(3)
    assert [r.n for r in reports] == [2, 3, 3]
    by_edges = {r.graph_id: r.exact_cr for r in reports}
    assert sorted(by_edges.values()) == [2, 9, 9]
    summary = summarize(reports)
    assert summary.graphs == 3
    assert summary.max_cr == 9
    assert summary.violations == ()


def test_survey_rejects_over_cap():
    with pytest.raises(CapExceededError):
        survey(9)


def test_survey_with_graph6_input():
    from locinv.graph6 import emit_graph6

    lines = [emit_graph6(Graph.complete(2)), emit_graph6(Graph.star(4))]
    reports = survey(5, graph6_lines=lines)
    assert [r.exact_cr for r in reports] == [2, 12]


def test_survey_summary_of_the_empty_graph_has_no_ratio():
    # graph6 "?" is the 0-vertex graph; its cr is 0 and cr/3n is undefined
    summary = summarize(survey(2, graph6_lines=["?", "A_"]))
    assert summary.graphs == 2
    assert summary.max_cr == 2
    assert summary.max_ratio == 2 / 6
    assert summarize(survey(0, graph6_lines=["?"])).max_ratio is None


def test_survey_parallel_matches_serial():
    serial = survey(3)
    parallel = survey(3, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("cpus, asked, pool_size", [(3, 1000, 3), (3, 2, 2), (None, 8, None)])
def test_survey_caps_jobs_at_cpu_count(monkeypatch, cpus, asked, pool_size):
    import locinv.oracle as oracle

    sizes = []

    class SerialPool:
        """Records max_workers and maps in process; no worker is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
    assert survey(3, jobs=asked) == survey(3)
    assert sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.slow
def test_survey_extends_to_six_vertices():
    # all 112 connected 6-vertex classes: the 3n ceiling continues to hold,
    # every witness replays, and the sandwich stays intact
    from locinv.graph6 import parse_graph6

    reports = survey(6, jobs=4)
    summary = summarize(reports)
    assert summary.graphs == 142  # 30 smaller classes plus 112 at n = 6
    assert summary.violations == ()
    assert summary.max_cr == 18
    assert summary.max_ratio == 1.0
    for rep in reports:
        assert rep.exact_cr is not None
        assert rep.exact_cr <= 3 * rep.n
        g = parse_graph6(rep.graph_id)
        b = BicoloredGraph(g, all_plus(g.n))
        assert apply_word(b, rep.witness) == flip(b, range(g.n))


@pytest.mark.slow
def test_survey_is_the_same_across_workers():
    # witnesses are rebuilt from the search tables in each worker; they must
    # not depend on the process or on hash state
    assert survey(6, jobs=2) == survey(6, jobs=1)


def test_transform_words_never_beat_the_oracle():
    # exhaustive transform sandwich on every connected graph with up to 4
    # vertices and every coloring pair: the synthesized word reaches the
    # target, stays within its bound, and is never shorter than the true
    # minimum found by search
    from itertools import product

    from locinv.synthesizer import transform_word

    for g in (g for n in (2, 3, 4) for g in connected_graphs(n)):
        n = g.n
        for f in product((-1, 1), repeat=n):
            for t in product((-1, 1), repeat=n):
                cw = transform_word(g, f, t)
                before = BicoloredGraph(g, f)
                after = BicoloredGraph(g, t)
                assert apply_word(before, cw.word) == after
                assert len(cw.word) <= cw.bound
                best = min_flip_word(before, after)
                assert best is not None
                assert best[0] <= len(cw.word)
