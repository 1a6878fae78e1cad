"""Tests for file formats and the command-line surface."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locinv
import locinv.cli as cli
import locinv.graph_core as graph_core
import locinv.oracle as oracle
import locinv.synthesizer as synth
from locinv.errors import Graph6Error
from locinv.graph_core import Graph
from locinv.cli import (
    MAX_CAP,
    MAX_VERTICES,
    emit_edge_list,
    emit_graph6,
    format_colors,
    main,
    parse_colors,
    parse_edge_list,
    parse_graph6,
)

from helpers import random_graph


# -- graph6 -----------------------------------------------------------------


def test_parse_graph6_hand_decoded_k2():
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.edges() == [(0, 1)]


def test_graph6_known_encodings():
    assert emit_graph6(Graph.complete(3)) == "Bw"
    assert emit_graph6(Graph.from_edges(2, [])) == "A?"
    assert parse_graph6("Bw") == Graph.complete(3)


def test_graph6_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 20))
        line = emit_graph6(g)
        assert parse_graph6(line) == g
        assert emit_graph6(parse_graph6(line)) == line


def test_graph6_round_trip_all_connected_five_vertex_graphs():
    from locinv.oracle import connected_graphs

    lines = [emit_graph6(g) for g in connected_graphs(5)]
    assert len(lines) == 21
    parsed = [parse_graph6(line) for line in lines]
    assert [g.n for g in parsed] == [5] * 21
    assert len({g.upper_bits() for g in parsed}) == 21


def test_graph6_caps_at_62_vertices():
    big = Graph.from_edges(63, [(0, 1)])  # fine in the library
    with pytest.raises(ValueError):
        emit_graph6(big)
    with pytest.raises(Graph6Error):
        parse_graph6(chr(126) + "?")  # n = 63 in the header byte


def test_graph6_errors_carry_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(30))
    assert exc.value.offset == 1

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A")  # missing adjacency byte
    assert exc.value.offset == 1

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A_?")  # extra byte
    assert exc.value.offset == 2

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(63 + 0b010000))  # nonzero padding bit
    assert exc.value.offset == 1

    with pytest.raises(Graph6Error):
        parse_graph6("")


# -- edge lists and colors --------------------------------------------------------


def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_collapses_duplicates_and_reverses():
    text = "n 3\n0 1\n1 0\n0 1\n1 2\n"
    g = parse_edge_list(text)
    assert g.edges() == [(0, 1), (1, 2)]


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")  # missing keyword
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 3\n")  # id out of range
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n1 1\n")  # loop
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("\n  \nn 4\n0 1\n\n2 2\n0 9\nx y\n1 2 3\n", "line 6: loop edge 2 2"),
        ("n 3\r\n0 1\r\n1 2 0\r\n3 0\r\n1 1\r\n", "line 3: expected 'u v', got '1 2 0'"),
        ("n 5\n\t4 0\n 0 5 \n-1 2\n2 2\n", "line 3: vertex out of range in '0 5'"),
        ("\n\nn 2\n0 1\n1 0\na 1\n0 0\n", "line 6: expected integers, got 'a 1'"),
    ],
)
def test_edge_list_reports_the_first_bad_line(text, message):
    # several bad lines: the first one, counted with blank lines, is named
    with pytest.raises(ValueError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def _edge_list_text(n, edges, rng):
    """An edge-list document for ``edges``, with pairs reversed, repeated and spaced at random."""
    lines = [f"n {n}"]
    for u, v in edges:
        lines.append(f"{u} {v}" if rng.random() < 0.5 else f" {v}\t{u} ")
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", f"{u} {v}"]))
    return "\n".join(lines) + "\n"


def _validated(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def test_edge_list_rows_pass_public_validation():
    rng = random.Random(17)
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 40), rng.random())
        edges = g.edges()
        rng.shuffle(edges)
        parsed = parse_edge_list(_edge_list_text(g.n, edges, rng))
        assert Graph(parsed.n, parsed.rows) == parsed == _validated(g.n, edges)


@st.composite
def edge_lists(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    return n, [(u, v) for u, v in pairs if u != v]


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_edge_list_rows_pass_public_validation_fuzzed(case, rng):
    n, edges = case
    parsed = parse_edge_list(_edge_list_text(n, edges, rng))
    assert Graph(parsed.n, parsed.rows) == parsed == _validated(n, edges)


def test_edge_list_vertex_count_limit():
    assert parse_edge_list(f"n {MAX_VERTICES}\n0 1\n").n == MAX_VERTICES
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_edge_list(f"n {MAX_VERTICES + 1}\n0 1\n")


def _must_not_build(*args):
    raise AssertionError("an over-limit vertex count reached the graph or word builder")


@pytest.mark.parametrize("count", [10**20, 10**9])
def test_reverse_refuses_huge_vertex_count(tmp_path, capsys, monkeypatch, count):
    # the guard fails the test if the count got as far as an allocation
    monkeypatch.setattr(Graph, "from_edges", staticmethod(_must_not_build))
    monkeypatch.setattr(Graph, "_trusted", classmethod(_must_not_build))
    path = tmp_path / "huge.txt"
    path.write_text(f"n {count}\n0 1\n")
    assert main(["reverse", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1: vertex count {count} exceeds the limit")


def test_gadget_refuses_huge_vertex_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "star_word", _must_not_build)
    assert main(["gadget", "star", str(10**12)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: gadget star: vertex count {10**12} exceeds the limit")


def test_exact_refuses_a_cap_above_the_search_ceiling(tmp_path, capsys, monkeypatch):
    # a 2^40-entry move table must never be started
    monkeypatch.setattr(oracle, "_move_table", _must_not_build)
    path = tmp_path / "p40.txt"
    path.write_text(emit_edge_list(Graph.path(40)))
    assert main(["exact", "--cap", "40", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 40 vertices exceed the search cap {MAX_CAP}\n"


def test_exact_reports_a_search_over_the_state_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STATES", 1000)
    path = tmp_path / "p7.txt"
    path.write_text(emit_edge_list(Graph.path(7)))
    assert main(["exact", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: search would exceed 1000 states at depth ")
    assert "Traceback" not in captured.err


def test_colors_round_trip_and_errors():
    assert parse_colors("+-+", 3) == (1, -1, 1)
    assert format_colors((1, -1, 1)) == "+-+"
    assert parse_colors("−+", 2) == (-1, 1)
    with pytest.raises(ValueError):
        parse_colors("++", 3)
    with pytest.raises(ValueError):
        parse_colors("+x+", 3)


# -- commands -----------------------------------------------------------------------


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    return str(path)


def test_reverse_command(p3_file, capsys):
    assert main(["reverse", "-i", p3_file, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "word: 0,1,0,1,0,2,0,2,1" in out
    assert "length: 9" in out
    assert "bound: 9" in out
    assert "verification: ok" in out


def test_reverse_with_labels_and_reduce(p3_file, capsys):
    assert main(["reverse", "-i", p3_file, "--labels", "a,b,c", "--reduce"]) == 0
    out = capsys.readouterr().out
    assert "word: a,b,a,b,a,c,a,c,b" in out
    assert "unreduced-length: 9" in out


def test_reverse_unsatisfiable_exit_code(tmp_path, capsys):
    path = tmp_path / "iso.txt"
    path.write_text("n 2\n")
    assert main(["reverse", "-i", str(path)]) == 2
    assert "unsatisfiable" in capsys.readouterr().err


def test_reverse_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("vertices: 3\n")
    assert main(["reverse", "-i", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["²", "١٢"])  # superscript two; Arabic-Indic 12
def test_reverse_rejects_a_non_ascii_vertex_count(tmp_path, capsys, count):
    # str.isdigit accepts both, but int() rejects the first and reads the
    # second as 12; the header must hold ASCII digits only
    path = tmp_path / "header.txt"
    path.write_text(f"n {count}\n0 1\n", encoding="utf-8")
    assert main(["reverse", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 1: expected header 'n <count>', got 'n {count}'\n"


def test_transform_command(p3_file, capsys):
    # all-minus targets need the = form so argparse does not read them as flags
    rc = main(["transform", "-i", p3_file, "--from=+++", "--to=---", "--verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "strategy: " in out
    assert "verification: ok" in out


def test_minus_leading_colors_in_the_space_form(tmp_path, capsys):
    # a value of "--" is argparse's end-of-options marker; both option
    # forms must still hand it over as the colors
    path = tmp_path / "k2.txt"
    path.write_text("n 2\n0 1\n")
    outs = []
    for command, rest, opt in (("transform", ["--from", "++"], "--to"), ("apply", ["--word", "0"], "--colors")):
        argv = [command, "-i", str(path), *rest]
        assert main([*argv, opt, "--"]) == 0
        outs.append(capsys.readouterr().out)
        assert main([*argv, f"{opt}=--"]) == 0
        assert capsys.readouterr().out == outs[-1]
    assert "word: 0,1\n" in outs[0]
    assert outs[1].endswith("colors: -+\n")  # the inversion at 0 negates vertex 1 only
    with pytest.raises(SystemExit) as exc:
        main(["transform", "-i", str(path), "--from", "++", "--to"])
    assert exc.value.code == 2
    assert "--to: expected one argument" in capsys.readouterr().err


def test_transform_verify_rejects_a_word_for_another_target(p3_file, capsys, monkeypatch):
    # a true certificate for the wrong flip set: the replay check passes, the
    # target check must not
    import locinv.cli as cli
    from locinv.synthesizer import color_reversal_word

    monkeypatch.setattr(cli, "transform_word", lambda g, f, t: color_reversal_word(g))
    rc = main(["transform", "-i", p3_file, "--from", "+++", "--to", "+--", "--verify"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "verification: FAILED: replay does not reach the target coloring" in err
    # the same word is accepted when it is the one asked for
    assert main(["transform", "-i", p3_file, "--from=+++", "--to=---", "--verify"]) == 0


# -- the builder's certificate check on the command line ----------------------------

P4 = "n 4\n0 1\n1 2\n2 3\n"
P4_FAILURES = {
    "reverse": "verification: FAILED: full-reversal: word flips [0, 2, 3], target is [0, 1, 2, 3]\n",
    "transform": "verification: FAILED: transform/fix-V1: word flips [0, 1], target is [0]\n",
}


def _p4_argv(command, path):
    argv = [command, "-i", str(path)]
    return argv + ["--from=++++", "--to=-+++"] if command == "transform" else argv


def _drop_a_letter(monkeypatch):
    """Make both builders emit words one letter short of a valid certificate."""
    reverse, transform = synth._reverse_component_word, synth._transform_component

    def transform_short(g, comp, diff):
        word, tag = transform(g, comp, diff)
        return word[:-1], tag

    monkeypatch.setattr(synth, "_reverse_component_word", lambda g, comp: reverse(g, comp)[:-1])
    monkeypatch.setattr(synth, "_transform_component", transform_short)


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("command", ["reverse", "transform"])
def test_a_false_certificate_is_reported_not_raised(tmp_path, capsys, monkeypatch, command, verify):
    path = tmp_path / "p4.txt"
    path.write_text(P4)
    _drop_a_letter(monkeypatch)
    assert main(_p4_argv(command, path) + ["--verify"] * verify) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == P4_FAILURES[command]


_FAULTY_BUILDERS_UNDER_O = """
import sys

import locinv.synthesizer as synth
from locinv.cli import main

reverse, transform = synth._reverse_component_word, synth._transform_component
synth._reverse_component_word = lambda g, comp: reverse(g, comp)[:-1]
synth._transform_component = lambda g, comp, diff: (
    transform(g, comp, diff)[0][:-1], transform(g, comp, diff)[1]
)
path = sys.argv[1]
codes = [__debug__]
codes.append(main(["reverse", "-i", path, "--verify"]))
codes.append(main(["transform", "-i", path, "--from=++++", "--to=-+++", "--verify"]))
print(codes)
"""


def test_a_false_certificate_is_reported_under_optimize_flag(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4)
    src = os.path.dirname(os.path.dirname(os.path.abspath(locinv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _FAULTY_BUILDERS_UNDER_O, str(path)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout == "[False, 1, 1]\n"
    assert out.stderr == P4_FAILURES["reverse"] + P4_FAILURES["transform"]


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("command", ["reverse", "transform"])
def test_one_replay_per_word(tmp_path, capsys, monkeypatch, command, verify):
    # P4 plus P3: one replay for the whole word, not one per component, and
    # --verify reports that replay instead of running a second one
    path = tmp_path / "p4p3.txt"
    path.write_text("n 7\n0 1\n1 2\n2 3\n4 5\n5 6\n")
    argv = [command, "-i", str(path)] + ["--verify"] * verify
    if command == "transform":
        argv += ["--from=+++++++", "--to=-+++-+-"]
    replays = []
    for module in (synth, graph_core):
        def counted(rows, w, real=module.replay):
            replays.append(len(w))
            return real(rows, w)

        monkeypatch.setattr(module, "replay", counted)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert ("verification: ok (exact replay)" in out) == verify
    word = out.splitlines()[0].removeprefix("word: ").split(",")
    assert replays == [len(word)]


def test_transform_unsatisfiable(tmp_path, capsys):
    path = tmp_path / "iso3.txt"
    path.write_text("n 3\n0 1\n")
    rc = main(["transform", "-i", str(path), "--from", "+++", "--to", "++-"])
    assert rc == 2


def test_unsatisfiable_names_the_smallest_isolated_vertex(tmp_path, capsys):
    # vertices 3 and 9 are isolated and both must change color; transform
    # once named whichever came first in a set's hash order (vertex 9)
    path = tmp_path / "two_isolated.txt"
    path.write_text("n 10\n0 1\n1 2\n2 4\n4 5\n5 6\n6 7\n7 8\n")
    assert main(["transform", "-i", str(path), "--from=++++++++++", "--to=+++-+++++-"]) == 2
    assert capsys.readouterr().err == "unsatisfiable: vertex 3 is isolated but must change color\n"
    assert main(["reverse", "-i", str(path)]) == 2
    assert capsys.readouterr().err == "unsatisfiable: vertex 3 is isolated; its color is invariant\n"


def test_apply_command(p3_file, capsys):
    assert main(["apply", "-i", p3_file, "--colors", "+++", "--word", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "n 3" in out
    assert "colors: ---" in out
    # empty word round-trips the input
    assert main(["apply", "-i", p3_file, "--colors", "+-+", "--word", ""]) == 0
    out = capsys.readouterr().out
    assert "colors: +-+" in out


def test_apply_rejects_bad_word(p3_file, capsys):
    assert main(["apply", "-i", p3_file, "--colors", "+++", "--word", "0,9"]) == 1


def test_exact_command(p3_file, capsys):
    assert main(["exact", "-i", p3_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "cr-report/1"
    assert report["exact_cr"] == 9
    assert report["n"] == 3
    assert report["synthesized_length"] == 9
    assert report["bound"] == 9


def test_exact_respects_cap(p3_file, capsys):
    assert main(["exact", "-i", p3_file, "--cap", "2"]) == 1
    assert "cap" in capsys.readouterr().err


def test_survey_command(capsys):
    assert main(["survey", "--max-n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(ln) for ln in lines[:-1]]
    summary = json.loads(lines[-1])
    assert len(reports) == 3
    assert summary["schema"] == "survey-summary/1"
    assert summary["max_cr"] == 9
    assert summary["violations"] == []


def test_survey_is_byte_stable(capsys):
    assert main(["survey", "--max-n", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["survey", "--max-n", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_survey_output_is_pinned(capsys):
    # every exact cr, witness and synthesized length up to 5 vertices stays
    # byte-identical, whatever search finds them
    pinned = os.path.join(os.path.dirname(__file__), "data", "survey_max5.jsonl")
    with open(pinned, encoding="utf-8") as fh:
        expected = fh.read()
    assert main(["survey", "--max-n", "5"]) == 0
    assert capsys.readouterr().out == expected


def test_survey_jobs_flag(capsys):
    assert main(["survey", "--max-n", "3"]) == 0
    serial = capsys.readouterr().out
    assert main(["survey", "--max-n", "3", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_survey_graph6_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("A_\nBw\n")
    assert main(["survey", "--max-n", "5", "--graph6", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # two reports plus summary
    assert json.loads(lines[0])["exact_cr"] == 2
    assert json.loads(lines[1])["exact_cr"] == 9


def test_gadget_commands(capsys):
    assert main(["gadget", "star", "4"]) == 0
    out = capsys.readouterr().out
    assert "word: 1,0,1,0,1,2,0,2,3,0,3,0" in out
    assert "length: 12" in out

    assert main(["gadget", "edge", "0", "1"]) == 0
    assert "word: 0,1,0,1,0,1" in capsys.readouterr().out

    assert main(["gadget", "triangle", "0", "1", "2"]) == 0
    assert "word: 0,1,0,2,1,0,2" in capsys.readouterr().out

    assert main(["gadget", "p3ends", "0", "1", "2"]) == 0
    assert "word: 2,0,1,0,1,0,1,2" in capsys.readouterr().out

    assert main(["gadget", "p3end", "0", "1", "2"]) == 0
    assert "word: 2,0,1,0,2,1,0" in capsys.readouterr().out

    assert main(["gadget", "complete", "3"]) == 0
    assert "word: 0,1,0,1,0,1,2,0,2" in capsys.readouterr().out


def test_gadget_argument_errors(capsys):
    assert main(["gadget", "edge", "0"]) == 1
    assert main(["gadget", "edge", "0", "0"]) == 1
    assert main(["gadget", "star"]) == 1
