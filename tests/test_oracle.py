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
    component_masks,
    flip,
)
from locinv.oracle import (
    MAX_CAP,
    _canonical_bits,
    connected_graphs,
    exact_cr,
    min_flip_word,
    pack_state,
    summarize,
    survey,
)

from helpers import (
    connected_graphs_reference,
    min_flip_word_reference,
    random_coloring,
    random_graph,
    unpack_state,
)


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


def test_min_flip_word_matches_tuple_search_on_graph_changing_targets():
    # targets at the end of a random word, whose graph mostly differs from
    # the start's, on start graphs that are often disconnected
    rng = random.Random(59)
    changed = disconnected = 0
    for _ in range(80):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        b = BicoloredGraph(g, random_coloring(rng, n))
        target = apply_word(b, [rng.randrange(n) for _ in range(rng.randint(1, 8))])
        assert min_flip_word(b, target) == min_flip_word_reference(b, target)
        changed += target.graph != g
        disconnected += len(component_masks(g.rows, (1 << n) - 1)) > 1
    assert changed >= 30 and disconnected >= 20


def test_letter_table_skips_commuting_letters():
    table = oracle._letter_table(4)
    # after letter 2, the letters below it are tried only where adjacent
    assert [b for b, _ in table[2][0b0000]] == [3]
    assert [b for b, _ in table[2][0b1001]] == [0, 3]
    assert [b for b, _ in table[2][0b1011]] == [0, 1, 3]
    assert [shift for _, shift in table[2][0b1011]] == [0, 4, 12]
    # the start tries every letter, whatever its row
    assert all([b for b, _ in entry] == [0, 1, 2, 3] for entry in table[4])
    assert table[0][0b0110] is table[0][0b1000]  # entries are shared


class _CountingTable(tuple):
    """A move table that counts its lookups, one per move tried."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return tuple.__getitem__(self, i)


def _every_letter(n):
    every = tuple((b, n * b) for b in range(n))
    return ((every,) * (1 << n),) * (n + 1)


@pytest.mark.parametrize(
    "g, visited, pruned, unpruned",
    [(Graph.path(7), 12_225, 26_088, 54_626), (_cycle(6), 13_047, 31_970, 51_947)],
)
def test_search_tries_fewer_moves_and_visits_the_same_states(
    monkeypatch, g, visited, pruned, unpruned
):
    # moves counted over the whole search, witness reconstruction included;
    # trying every letter from every state is the search before the letter
    # table, and both must find the same witness over the same states
    b = BicoloredGraph(g, all_plus(g.n))
    start, goal = pack_state(b), pack_state(flip(b, range(g.n)))
    moves = oracle._move_table(g.n)
    results, tried = [], []
    for letters in (oracle._letter_table, _every_letter):
        table = _CountingTable(moves)
        monkeypatch.setattr(oracle, "_move_table", lambda n: table)
        monkeypatch.setattr(oracle, "_letter_table", letters)
        results.append(oracle._search(start, goal, g.n))
        tried.append(table.lookups)
    assert results[0] == results[1]
    assert results[0][1] == visited
    assert tried == [pruned, unpruned]


def test_state_budget_stops_a_search(monkeypatch):
    b = BicoloredGraph(Graph.path(7), all_plus(7))
    monkeypatch.setattr(oracle, "MAX_STATES", 1000)
    with pytest.raises(CapExceededError, match="search would exceed 1000 states"):
        min_flip_word(b, flip(b, range(7)))
    # a search that stays within the budget is unaffected
    small = BicoloredGraph(Graph.path(3), all_plus(3))
    assert min_flip_word(small, flip(small, range(3)))[0] == 9


def test_state_budget_holds_the_seven_vertex_searches():
    # the survey up to 7 vertices peaks at 223,644 at the budget check;
    # the slow survey test runs all of it
    assert oracle.MAX_STATES >= 223_644
    b = BicoloredGraph(_cycle(7), all_plus(7))
    assert min_flip_word(b, flip(b, range(7)))[0] == 21


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
    b = BicoloredGraph(Graph.path(9), all_plus(9))
    with pytest.raises(CapExceededError):
        min_flip_word(b, flip(b, range(9)))
    # 8 vertices are within MAX_CAP
    b = BicoloredGraph(Graph.path(8), all_plus(8))
    assert min_flip_word(b, flip(b, range(8)))[0] == 20


def _must_not_search(*args):
    raise AssertionError("a search above MAX_CAP reached the move table or the enumerator")


def test_search_ceiling_holds_whatever_the_cap(monkeypatch):
    assert MAX_CAP >= 8  # n = 8 probes stay possible
    monkeypatch.setattr(oracle, "_move_table", _must_not_search)
    monkeypatch.setattr(oracle, "connected_graphs", _must_not_search)
    b = BicoloredGraph(Graph.path(MAX_CAP + 1), all_plus(MAX_CAP + 1))
    with pytest.raises(CapExceededError, match=f"^{MAX_CAP + 1} vertices exceed the search cap {MAX_CAP}$"):
        min_flip_word(b, flip(b, range(MAX_CAP + 1)))
    with pytest.raises(CapExceededError, match=f"^n_max {MAX_CAP + 1} exceeds the search cap {MAX_CAP}$"):
        survey(MAX_CAP + 1)


# -- exact cr -------------------------------------------------------------------


def test_exact_cr_known_values():
    assert exact_cr(Graph.complete(2)).exact_cr == 2
    assert exact_cr(Graph.path(3)).exact_cr == 9
    assert exact_cr(Graph.complete(3)).exact_cr == 9
    assert exact_cr(Graph.star(4)).exact_cr == 12


@pytest.mark.parametrize(
    "g, cr",
    [(Graph.path(8), 20), (_cycle(8), 24), (Graph.complete(8), 24), (Graph.star(8), 24)],
    ids=["P8", "C8", "K8", "K1,7"],
)
def test_exact_cr_at_eight_vertices(g, cr):
    # 3n on the paper's two 3n families (stars, complete graphs) and on C8
    rep = exact_cr(g)
    assert rep.exact_cr == cr
    assert rep.exact_cr <= rep.synthesized_length <= rep.bound
    b = BicoloredGraph(g, all_plus(8))
    assert apply_word(b, rep.witness) == flip(b, range(8))


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
    counts = {n: sum(1 for _ in connected_graphs(n)) for n in range(1, 8)}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n", [*range(6), pytest.param(6, marks=pytest.mark.slow)])
def test_connected_graphs_match_the_brute_force_enumeration(n):
    # the same representatives in the same order as trying every vertex
    # permutation of every mask
    assert list(connected_graphs(n)) == list(connected_graphs_reference(n))


def test_connected_graphs_match_the_networkx_atlas():
    # an independent census: the atlas lists every graph up to 7 vertices,
    # and each connected one, under any labeling, has one of our
    # representatives as its canonical form
    nx = pytest.importorskip("networkx")
    rng = random.Random(67)
    found = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        n = h.number_of_nodes()
        label = {v: i for i, v in enumerate(h)}
        perm = rng.sample(range(n), n)
        rows, moved = [0] * n, [0] * n
        for u, v in h.edges():
            i, j = label[u], label[v]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            moved[perm[i]] |= 1 << perm[j]
            moved[perm[j]] |= 1 << perm[i]
        bits = _canonical_bits(rows, n)
        assert _canonical_bits(moved, n) == bits
        found[n].add(bits)
    for n in range(1, 8):
        assert found[n] == {g.upper_bits() for g in connected_graphs(n)}


def test_connected_graphs_are_connected_and_distinct():
    seen = set()
    for g in connected_graphs(4):
        assert component_masks(g.rows, (1 << g.n) - 1) == [(1 << g.n) - 1]
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


def test_survey_grows_each_order_once(monkeypatch):
    # one walk over the orders: 1 + 3 + 2*7 + 6*15 = 108 canonical forms for
    # n_max = 5, where regrowing every order from one vertex takes 131; the
    # classes come in the order connected_graphs gives them
    from locinv.graph6 import emit_graph6

    real = oracle._canonical_bits
    orders = []
    monkeypatch.setattr(oracle, "_canonical_bits", lambda rows, n: orders.append(n) or real(rows, n))
    reports = survey(5)
    assert len(orders) == 108
    monkeypatch.undo()
    assert [r.graph_id for r in reports] == [emit_graph6(g) for n in range(2, 6) for g in connected_graphs(n)]


def test_survey_rejects_over_cap():
    with pytest.raises(CapExceededError):
        survey(9)


@pytest.mark.parametrize("jobs", [0, -4])
def test_survey_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError) as exc:
        survey(2, jobs=jobs)
    assert str(exc.value) == f"jobs must be at least 1, got {jobs}"
    # the vertex ceiling is checked first
    with pytest.raises(CapExceededError):
        survey(9, jobs=jobs)


@pytest.mark.parametrize("n_max", [-1, -4])
def test_survey_rejects_a_negative_vertex_count(n_max):
    with pytest.raises(ValueError) as exc:
        survey(n_max, graph6_lines=["?"])
    assert str(exc.value) == f"n_max must be at least 0, got {n_max}"
    # checked before the jobs count
    with pytest.raises(ValueError, match="n_max must be at least 0"):
        survey(n_max, jobs=0)


def test_survey_with_graph6_input():
    from locinv.graph6 import emit_graph6

    lines = [emit_graph6(Graph.complete(2)), emit_graph6(Graph.star(4))]
    reports = survey(5, graph6_lines=lines)
    assert [r.exact_cr for r in reports] == [2, 12]


def test_survey_runs_at_eight_vertices():
    from locinv.graph6 import emit_graph6

    lines = [emit_graph6(Graph.path(8)), emit_graph6(_cycle(8))]
    reports = survey(8, graph6_lines=lines)
    assert [(r.graph_id, r.n, r.exact_cr) for r in reports] == [(lines[0], 8, 20), (lines[1], 8, 24)]
    assert all(r.exact_cr <= r.synthesized_length <= r.bound for r in reports)


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


def test_survey_parallel_on_graph6_input_matches_serial():
    # the graph6 branch hands parsed Graph values to the workers; C5 is
    # above n_max and is filtered out before any search
    from locinv.graph6 import emit_graph6

    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    lines = [emit_graph6(g) for g in (Graph.path(4), Graph.complete(3), c5, Graph.star(4))]
    serial = survey(4, graph6_lines=lines)
    assert [r.graph_id for r in serial] == [lines[0], lines[1], lines[3]]
    assert survey(4, graph6_lines=lines, jobs=2) == serial


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
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
def test_survey_extends_to_seven_vertices():
    # all 995 connected classes with 2 to 7 vertices, 853 of them on 7:
    # cr <= 3n holds on every one, every witness replays, and the sandwich
    # exact <= synthesized <= bound stays intact
    from locinv.graph6 import parse_graph6

    reports = survey(7, jobs=2)
    summary = summarize(reports)
    assert summary.graphs == 995
    assert sum(rep.n == 7 for rep in reports) == 853
    assert summary.violations == ()
    assert summary.max_cr == 21
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
