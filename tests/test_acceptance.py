"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from itertools import combinations

import pytest

from locinv.graph_core import (
    BicoloredGraph,
    Graph,
    all_plus,
    apply_word,
    flip,
    local_complement,
    local_inversion,
)
from locinv.oracle import survey
from locinv.partitioner import p3_partition, perfect_forest
from locinv.synthesizer import (
    complete_word,
    gadget_edge,
    gadget_p3_end,
    gadget_p3_ends,
    gadget_triangle,
    star_word,
    verify_certificate,
)
from locinv.cli import main

from helpers import (
    check_p3_partition,
    check_perfect_forest,
    random_coloring,
    random_connected_graph,
    random_graph,
    random_odd_tree,
)


def report(criterion: str, detail: str) -> None:
    print(f"acceptance {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def survey_reports():
    return survey(5)


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    from itertools import permutations

    if g1.n != g2.n:
        return False
    target = g2.upper_bits()
    return any(
        Graph.from_edges(
            g1.n, [(perm[u], perm[v]) for u, v in g1.edges()]
        ).upper_bits()
        == target
        for perm in permutations(range(g1.n))
    )


def _flips_exactly(g, word, target, rng) -> bool:
    for coloring in (all_plus(g.n), random_coloring(rng, g.n)):
        b = BicoloredGraph(g, coloring)
        after = apply_word(b, word)
        if after.graph != g or after != flip(b, target):
            return False
    return True


def test_criterion_1_gadget_identities():
    t0 = time.perf_counter()
    rng = random.Random(0xACCE551)
    graphs = checks = 0
    while graphs < 500:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        edges = g.edges()
        if not edges:
            continue
        graphs += 1

        a, b = rng.choice(edges)
        assert _flips_exactly(g, gadget_edge(a, b), {a, b}, rng)
        checks += 1

        triangles = [
            (x, y, z)
            for x, y, z in combinations(range(n), 3)
            if g.has_edge(x, y) and g.has_edge(x, z) and g.has_edge(y, z)
        ]
        if triangles:
            x, y, z = rng.choice(triangles)
            assert _flips_exactly(g, gadget_triangle(x, y, z), {x}, rng)
            checks += 1

        paths = [
            (x, y, c)
            for c in range(n)
            for x, y in combinations(g.neighbors(c), 2)
            if not g.has_edge(x, y)
        ]
        if paths:
            x, y, c = rng.choice(paths)
            assert _flips_exactly(g, gadget_p3_ends(x, y, c), {x, y}, rng)
            assert _flips_exactly(g, gadget_p3_end(x, y, c), {x}, rng)
            checks += 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"gadget identities took {elapsed:.2f}s"
    report("1 gadget identities", f"{graphs} graphs, {checks} gadget replays, {elapsed:.2f}s")


def test_criterion_2_full_reversal_bounds(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = random.Random(0xACCE552)
    path = tmp_path / "graph.txt"
    for trial in range(1000):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        lines = [f"n {n}"] + [f"{u} {v}" for u, v in g.edges()]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["reverse", "-i", str(path), "--verify"])
        out = capsys.readouterr().out
        assert rc == 0, f"reverse --verify failed on trial {trial}"
        length = int(next(ln for ln in out.splitlines() if ln.startswith("length:")).split()[1])
        bound = 4 * n - 4 if n % 2 == 0 else 4 * n - 3
        assert length <= bound, f"length {length} over bound {bound} at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"reversal acceptance took {elapsed:.2f}s"
    report("2 full reversal", f"1000 graphs verified within 4n-4/4n-3, {elapsed:.2f}s")


def test_criterion_3_transform_bounds(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = random.Random(0xACCE553)
    path = tmp_path / "graph.txt"
    for trial in range(1000):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        f = "".join(rng.choice("+-") for _ in range(n))
        t = "".join(rng.choice("+-") for _ in range(n))
        lines = [f"n {n}"] + [f"{u} {v}" for u, v in g.edges()]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["transform", "-i", str(path), f"--from={f}", f"--to={t}", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0, f"transform --verify failed on trial {trial}"
        length = int(next(ln for ln in out.splitlines() if ln.startswith("length:")).split()[1])
        assert length <= (11 * n - 3) // 2, f"length {length} over bound at n={n}"
    elapsed = time.perf_counter() - t0
    report("3 transform", f"1000 triples verified within floor((11n-3)/2), {elapsed:.2f}s")


def test_criterion_4_small_graph_survey(capsys):
    import json

    from locinv.graph6 import parse_graph6

    t0 = time.perf_counter()
    assert main(["survey", "--max-n", "5"]) == 0
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(ln) for ln in lines[:-1]]
    summary = json.loads(lines[-1])

    assert summary["graphs"] == 30  # 1 + 2 + 6 + 21 connected graphs on 2..5
    assert all(r["exact_cr"] is not None and r["exact_cr"] <= 3 * r["n"] for r in reports)
    assert summary["max_ratio"] == 1.0
    assert summary["violations"] == []

    known = [
        (Graph.complete(2), 2),
        (Graph.path(3), 9),
        (Graph.complete(3), 9),
        (Graph.star(4), 12),
    ]
    for g, expected in known:
        matches = [
            r for r in reports if _isomorphic(parse_graph6(r["graph"]), g)
        ]
        assert len(matches) == 1, "survey must list each isomorphism class once"
        assert matches[0]["exact_cr"] == expected
    assert elapsed < 60.0
    report("4 survey n<=5", f"30 graphs, max cr/3n = {summary['max_ratio']}, {elapsed:.2f}s")


def test_criterion_5_stars_and_complete_graphs():
    t0 = time.perf_counter()
    for n in range(2, 51):
        cw = star_word(n)
        assert len(cw.word) == 3 * n
        verify_certificate(Graph.star(n), cw)
        cw = complete_word(n)
        assert len(cw.word) == 3 * n
        verify_certificate(Graph.complete(n), cw)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"star/complete acceptance took {elapsed:.2f}s"
    report("5 stars and completes", f"n = 2..50 at exactly 3n letters, {elapsed:.2f}s")


def test_criterion_6_decomposition_suites():
    t0 = time.perf_counter()
    rng = random.Random(0xACCE556)
    for _ in range(500):
        n = rng.choice(range(2, 15, 2))
        g = random_connected_graph(rng, n)
        check_perfect_forest(g, perfect_forest(g.rows, (1 << n) - 1))
    for _ in range(500):
        n = rng.choice(range(4, 16, 2))
        t, root = random_odd_tree(rng, n)
        part = p3_partition(t.rows, (1 << n) - 1, root)
        check_p3_partition(t.rows, (1 << n) - 1, root, part)
        assert len(part[0]) == (n - 2) // 2
    elapsed = time.perf_counter() - t0
    report("6 decompositions", f"500 forests + 500 partitions validated, {elapsed:.2f}s")


def test_criterion_7_oracle_sandwich(survey_reports):
    from locinv.graph6 import parse_graph6

    for rep in survey_reports:
        assert rep.exact_cr is not None
        assert rep.exact_cr <= rep.synthesized_length <= rep.bound, rep
        g = parse_graph6(rep.graph_id)
        b = BicoloredGraph(g, all_plus(g.n))
        assert apply_word(b, rep.witness) == flip(b, range(g.n))
    report("7 oracle sandwich", "exact <= synthesized <= bound on all 30 graphs, witnesses replay")


def test_criterion_8_fixtures():
    # five-vertex local complement: a=0 sees x=1, y=3, y'=4; toggling the
    # pairs {x,y}, {x,y'}, {y,y'} inside the neighborhood of a
    g = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (3, 4), (2, 4)])
    expected = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (1, 3)])
    assert local_complement(g, 0) == expected

    # triangle under the word a b c a, graph stages then color stages
    tri = Graph.complete(3)
    fork = Graph.from_edges(3, [(0, 1), (0, 2)])
    stages = [tri]
    for a in (0, 1, 2, 0):
        stages.append(local_complement(stages[-1], a))
    assert stages[1:] == [fork, fork, fork, tri]

    b = BicoloredGraph(tri, all_plus(3))
    colored = [b]
    for a in (0, 1, 2, 0):
        colored.append(local_inversion(colored[-1], a))
    assert colored[1] == BicoloredGraph(fork, (1, -1, -1))
    assert colored[2] == BicoloredGraph(fork, (-1, -1, -1))
    assert colored[3] == BicoloredGraph(fork, (1, -1, -1))
    assert colored[4] == b

    # six-vertex tree partition: root r=0, children x=1, y=2, v=3; v has
    # children u=4, w=5
    t = Graph.from_edges(6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)))
    p3s, v = p3_partition(t.rows, 0b111111, 0)
    assert p3s == ((4, 3, 5), (1, 0, 2))
    assert v == 3
    report("8 fixtures", "local complement, inversion cycle, and tree partition reproduced")
