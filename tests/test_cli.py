"""Tests for file formats and the command-line surface."""

import json
import random

import pytest

import locinv.cli as cli
from locinv.errors import Graph6Error
from locinv.graph_core import Graph
from locinv.cli import (
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


def test_transform_command(p3_file, capsys):
    # all-minus targets need the = form so argparse does not read them as flags
    rc = main(["transform", "-i", p3_file, "--from=+++", "--to=---", "--verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "strategy: " in out
    assert "verification: ok" in out


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


def test_transform_unsatisfiable(tmp_path, capsys):
    path = tmp_path / "iso3.txt"
    path.write_text("n 3\n0 1\n")
    rc = main(["transform", "-i", str(path), "--from", "+++", "--to", "++-"])
    assert rc == 2


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
