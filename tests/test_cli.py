"""Tests for file formats and the command-line surface."""

import ast
import json
import os
import random
import subprocess
import sys
import types

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
    MAX_VERTICES,
    emit_edge_list,
    format_colors,
    main,
    parse_colors,
    parse_edge_list,
)
from locinv.graph6 import emit_graph6, parse_graph6
from locinv.oracle import MAX_CAP

from helpers import cli_help_text, random_graph


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

    with pytest.raises(Graph6Error, match="nonzero padding bit") as exc:
        parse_graph6("D?@")  # n = 5: the second byte holds pairs 6..9 and 2 padding bits
    assert exc.value.offset == 2

    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_graph6_codec_matches_networkx():
    # both directions against an independent codec: every labeled graph
    # with n <= 5 (1,100 graphs), then 300 seeded random graphs up to 62
    nx = pytest.importorskip("networkx")

    rng = random.Random(62)
    graphs = [Graph.from_upper_bits(n, bits) for n in range(6) for bits in range(1 << n * (n - 1) // 2)]
    assert len(graphs) == 1100
    graphs += [random_graph(rng, rng.randint(0, 62), rng.random()) for _ in range(300)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        line = nx.to_graph6_bytes(h, header=False).decode().rstrip("\n")
        assert emit_graph6(g) == line
        back = nx.from_graph6_bytes(line.encode())
        assert parse_graph6(line) == Graph.from_edges(back.number_of_nodes(), back.edges())


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
        ("n 3\n0 1\n-1 2\n", "line 3: vertex out of range in '-1 2'"),
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


@st.composite
def edge_list_documents(draw):
    """Edge-list documents mixing strict lines with every case the strict path must pass on.

    Strict lines are ``u v`` with in-range ids and ASCII blanks.  The rest:
    blank lines, CRLF, leading blanks, signs, a non-ASCII digit, one or three
    tokens, a loop, an id out of range, a ten-digit id, a missing final
    newline, and headers that are malformed or over ``MAX_VERTICES``.
    """
    n = draw(st.integers(0, 12))
    header = draw(
        st.sampled_from(
            [f"n {n}"] * 6
            + [f"n  {n}", f" n {n}", f"n\t{n}", f"n 0{n}", f"n +{n}", f"N {n}", f"n {MAX_VERTICES + 1}", "n"]
        )
    )
    vertex = st.integers(0, max(n - 1, 0))
    blank = st.sampled_from([" ", "  ", "\t", " \t"])
    trail = st.sampled_from(["", "", " ", "\t "])
    lines = [header]
    for _ in range(draw(st.integers(0, 14))):
        u, v = draw(vertex), draw(vertex)
        kind = draw(st.sampled_from(["strict"] * 8 + ["blank", "indent", "sign", "digit", "count", "loop", "range", "long"]))
        if kind == "strict":
            lines.append(f"{u}{draw(blank)}{v}{draw(trail)}")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "indent":
            lines.append(f"{draw(blank)}{u} {v}")
        elif kind == "sign":
            lines.append(draw(st.sampled_from([f"-{u} {v}", f"+{u} {v}", f"{u} -{v}", f"{u} +{v}"])))
        elif kind == "digit":
            lines.append(draw(st.sampled_from([f"\u0663 {v}", f"{u} \u0663", f"{u}\u00a0{v}"])))
        elif kind == "count":
            lines.append(draw(st.sampled_from([f"{u}", f"{u} {v} {u}"])))
        elif kind == "loop":
            lines.append(f"{u} {u}")
        elif kind == "range":
            lines.append(draw(st.sampled_from([f"{u} {n + v}", f"{n} {v}"])))
        else:
            lines.append(f"{u:010d} {v}")
    text = draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines)
    return text + draw(st.sampled_from(["\n", "\n", "\n", "", "\r\n"]))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(edge_list_documents())
def test_strict_edge_list_path_agrees_with_the_line_parser(text):
    assert _parse_outcome(parse_edge_list, text) == _parse_outcome(cli._parse_edge_lines, text)


def test_strict_edge_list_path_reads_the_common_document(monkeypatch):
    fallback = []
    line_parser = cli._parse_edge_lines
    monkeypatch.setattr(cli, "_parse_edge_lines", lambda text: fallback.append(text) or line_parser(text))
    # the strict path reads these whole, over several chunks for the last
    long_path = "n 1001\n" + "".join(f"{v} {v + 1}\t\n" for v in range(1000))
    for text in ("n 0\n", "n 4\n", "n 4\n0 1\n1\t2 \n3 2\n2 3\n", "n 3\n00 2\n", long_path):
        assert parse_edge_list(text) == line_parser(text)
    assert len(long_path) > 4 * cli._STRICT_CHUNK
    assert fallback == []
    # and leaves these to the line parser, the last for a loop in its final chunk
    doubted = ["n 4\n0 1", "n 4\r\n0 1\r\n", "n 4\n\n0 1\n", "n 4\n-0 1\n", "n 4\n0 1 2\n", long_path + "7 7\n"]
    for text in doubted:
        _parse_outcome(parse_edge_list, text)
    assert fallback == doubted


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


@pytest.mark.parametrize("labelled", [False, True])
@pytest.mark.parametrize("kind", ["edge", "triangle", "p3ends", "p3end"])
def test_gadget_vertex_ids_stay_below_the_vertex_limit(capsys, kind, labelled):
    # the same limit as an edge list's vertex count and gadget star's; the
    # refused call names enough labels for its ids, so only the limit stops it
    def run(top):
        ids = ["0", "1", "2"][: 2 if kind == "edge" else 3]
        ids[-1] = str(top)
        labels = ["--labels", ",".join(f"v{i}" for i in range(top + 1))] * labelled
        return main(["gadget", kind, *ids, *labels])

    assert run(MAX_VERTICES) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gadget {kind}: vertex id {MAX_VERTICES} outside 0..{MAX_VERTICES - 1}\n"
    assert run(MAX_VERTICES - 1) == 0
    top = f"v{MAX_VERTICES - 1}" if labelled else str(MAX_VERTICES - 1)
    assert top in capsys.readouterr().out.split()[1].split(",")


def test_exact_refuses_a_cap_above_the_search_ceiling(tmp_path, capsys, monkeypatch):
    # a 2^40-entry move table must never be started
    monkeypatch.setattr(oracle, "_move_table", _must_not_build)
    path = tmp_path / "p40.txt"
    path.write_text(emit_edge_list(Graph.path(40)))
    assert main(["exact", "-i", str(path)]) == 1
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
    assert "word: 0,1,0,2,0,2,1,2,1" in out
    assert "length: 9" in out
    assert "bound: 9" in out
    assert "verification: ok" in out


def test_reverse_with_labels(p3_file, capsys):
    assert main(["reverse", "-i", p3_file, "--labels", "a,b,c"]) == 0
    assert capsys.readouterr().out == "word: a,b,a,c,a,c,b,c,b\nlength: 9\nbound: 9\n"


@pytest.mark.parametrize("labels", ["a,a,b", "b, a ,a"])
@pytest.mark.parametrize("command", ["reverse", "transform", "gadget"])
def test_repeated_label_names_are_refused(p3_file, capsys, command, labels):
    # a word over repeated names cannot be read back as vertices
    if command == "gadget":
        argv = ["gadget", "triangle", "0", "1", "2"]
    else:
        argv = [command, "-i", p3_file, *P3_COLORS[command]]
    assert main([*argv, "--labels", labels]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --labels names must be distinct, got 'a' twice\n"


@pytest.mark.parametrize("command", ["reverse", "transform"])
def test_the_reduce_option_is_gone(p3_file, capsys, monkeypatch, command):
    # every printed word is already freely reduced
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-i", p3_file, *P3_COLORS[command], "--reduce"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: locinv [-h] {reverse,transform,apply,exact,survey,gadget} ...\n"
        "locinv: error: unrecognized arguments: --reduce\n"
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--from", "++", "--t=--"],
        ["apply", "--colo=--", "--word", "0"],
        ["transform", "--fr", "++", "--to", "--"],
    ],
)
def test_abbreviated_options_are_usage_errors(tmp_path, capsys, argv):
    # only full option names are accepted: a prefix of a color option
    # would bypass the shield and hand argparse a bare "--" value
    path = tmp_path / "k2.txt"
    path.write_text("n 2\n0 1\n")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "-i", str(path), *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "usage: locinv " in err


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
    flip_set = synth._flip_set_word
    monkeypatch.setattr(synth, "_flip_set_word", lambda rows, s: flip_set(rows, s)[:-1])


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

flip_set = synth._flip_set_word
synth._flip_set_word = lambda rows, s: flip_set(rows, s)[:-1]
path = sys.argv[1]
codes = [__debug__]
codes.append(main(["reverse", "-i", path, "--verify"]))
codes.append(main(["transform", "-i", path, "--from=++++", "--to=-+++", "--verify"]))
print(codes)
"""


def test_importing_the_cli_loads_no_process_pool():
    # only survey --jobs N with N > 1 needs a pool; every other command
    # starts without concurrent.futures or multiprocessing.  The records are
    # slotted classes, so neither the package nor the command line pays for
    # dataclasses and the inspect module it pulls in
    src = os.path.dirname(os.path.dirname(os.path.abspath(locinv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    unwanted = ("concurrent.futures", "dataclasses", "inspect", "multiprocessing")
    for module in ("locinv", "locinv.cli"):
        code = f"import sys, {module}; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "[]\n", module


def test_the_package_root_exports_the_readme_api():
    # the root holds the names the README's Library example imports, the
    # type its builders return and the exceptions; nothing else
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "locinv"
        for alias in node.names
    }
    errors = {name for name, value in vars(locinv.errors).items() if isinstance(value, type)}
    exported = {
        name
        for name, value in vars(locinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(imported) == 9 and len(errors) == 5
    assert exported == imported | {"CertifiedWord"} | errors


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


# -- a word over its bound on the command line ---------------------------------------

# P3 with each word built four times over: the reversal word has 36
# letters (bound 9) and the transform word 24 (bound 15); the second line
# of each is the witness, as JSON
P3_BOUND_VIOLATIONS = {
    "reverse": (
        "bound violation: full-reversal: word of length 36 exceeds bound 9\n"
        '{"witness": {"n": 3, "edges": [[0, 1], [1, 2]], '
        '"word": [0, 1, 0, 2, 0, 2, 1, 2, 1, 0, 1, 0, 2, 0, 2, 1, 2, 1, '
        '0, 1, 0, 2, 0, 2, 1, 2, 1, 0, 1, 0, 2, 0, 2, 1, 2, 1]}}\n'
    ),
    "transform": (
        "bound violation: transform word of length 24 exceeds bound 15\n"
        '{"witness": {"n": 3, "edges": [[0, 1], [1, 2]], "from": [1, 1, 1], "to": [1, -1, -1], '
        '"word": [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]}}\n'
    ),
}
P3_COLORS = {"reverse": [], "transform": ["--from=+++", "--to=+--"]}


def _repeat_words(monkeypatch):
    """Make both builders emit their words four times over."""
    flip_set = synth._flip_set_word
    monkeypatch.setattr(synth, "_flip_set_word", lambda rows, s: flip_set(rows, s) * 4)


@pytest.mark.parametrize("command", ["reverse", "transform"])
def test_a_word_over_its_bound_exits_1_with_a_witness(p3_file, capsys, monkeypatch, command):
    _repeat_words(monkeypatch)
    assert main([command, "-i", p3_file, *P3_COLORS[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == P3_BOUND_VIOLATIONS[command]


_LONG_BUILDERS_UNDER_O = """
import sys

import locinv.synthesizer as synth
from locinv.cli import main

flip_set = synth._flip_set_word
synth._flip_set_word = lambda rows, s: flip_set(rows, s) * 4
path = sys.argv[1]
codes = [__debug__]
codes.append(main(["reverse", "-i", path]))
codes.append(main(["transform", "-i", path, "--from=+++", "--to=+--"]))
print(codes)
"""


def test_a_word_over_its_bound_is_reported_under_optimize_flag(p3_file):
    # the bound checks are not assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(locinv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _LONG_BUILDERS_UNDER_O, p3_file],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout == "[False, 1, 1]\n"
    assert out.stderr == P3_BOUND_VIOLATIONS["reverse"] + P3_BOUND_VIOLATIONS["transform"]


# -- help text ---------------------------------------------------------------------


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="from 3.13 argparse prints '-i, --input INPUT' for '-i INPUT, --input INPUT'",
)
def test_help_text_matches_the_pinned_file(monkeypatch):
    # argparse wraps to COLUMNS; the pinned file is rendered 80 columns wide
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(os.path.dirname(__file__), "data", "help.txt"), encoding="utf-8") as fh:
        assert cli_help_text() == fh.read()


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
    # spaces around letters are read as before
    assert main(["apply", "-i", p3_file, "--colors", "+++", "--word", " 0, 1 "]) == 0
    assert capsys.readouterr().out == out
    # empty word round-trips the input
    assert main(["apply", "-i", p3_file, "--colors", "+-+", "--word", ""]) == 0
    out = capsys.readouterr().out
    assert "colors: +-+" in out


def test_apply_rejects_bad_word(p3_file, capsys):
    assert main(["apply", "-i", p3_file, "--colors", "+++", "--word", "0,9"]) == 1
    capsys.readouterr()
    assert main(["apply", "-i", p3_file, "--colors", "+++", "--word", "0,-1"]) == 1
    assert capsys.readouterr().err == "error: word letter -1 out of range 0..2\n"


def test_exact_command(p3_file, capsys):
    assert main(["exact", "-i", p3_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "cr-report/1"
    assert report["exact_cr"] == 9
    assert report["n"] == 3
    assert report["synthesized_length"] == 9
    assert report["bound"] == 9


def test_exact_runs_at_eight_vertices(tmp_path, capsys):
    path = tmp_path / "p8.txt"
    path.write_text(emit_edge_list(Graph.path(8)))
    assert main(["exact", "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert '  "exact_cr": 20,' in captured.out.splitlines()
    report = json.loads(captured.out)
    assert (report["n"], report["synthesized_length"], report["bound"]) == (8, 24, 28)
    assert captured.err == ""


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


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_survey_refuses_jobs_below_one(capsys, jobs):
    assert main(["survey", "--max-n", "2", "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("n_max", ["-1", "-4"])
def test_survey_refuses_a_negative_max_n(capsys, n_max):
    assert main(["survey", "--max-n", n_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_max must be at least 0, got {n_max}\n"


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


def test_gadget_labels_are_checked_like_reverse_labels(p3_file, capsys):
    assert main(["gadget", "edge", "0", "1", "--labels", "a,b"]) == 0
    assert "word: a,b,a,b,a,b" in capsys.readouterr().out

    # an empty --labels is a wrong count of names, not an absent option
    assert main(["reverse", "-i", p3_file, "--labels", ""]) == 1
    assert capsys.readouterr().err == "error: --labels needs 3 comma-separated names\n"
    assert main(["gadget", "edge", "0", "1", "--labels", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --labels needs 2 comma-separated names\n"


@pytest.mark.parametrize("token", ["١٢", "1_0", "+1"])
def test_integers_are_ascii_digits_only(p3_file, tmp_path, capsys, token):
    # int() reads each of these as 12, 10 or 1
    path = tmp_path / "g.txt"
    path.write_text(f"n 3\n0 {token}\n")
    assert main(["reverse", "-i", str(path)]) == 1
    assert capsys.readouterr().err == f"error: line 2: expected integers, got '0 {token}'\n"
    assert main(["apply", "-i", p3_file, "--colors", "+++", "--word", f"0,{token}"]) == 1
    assert capsys.readouterr().err == f"error: --word must be comma-separated integers, got '0,{token}'\n"
    assert main(["gadget", "edge", "0", token]) == 1
    assert capsys.readouterr().err == f"error: gadget edge: vertex id '{token}' is not an integer\n"


@pytest.mark.parametrize("option", ["--max-n", "--jobs"])
@pytest.mark.parametrize("token", ["abc", "٣", "1_0", "+1"])
def test_survey_integer_options_are_ascii_digits_only(capsys, monkeypatch, option, token):
    # argparse's wording for a bad int, also for the tokens int() accepts;
    # the usage line is wrapped to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--max-n", token] if option == "--max-n" else ["--max-n", "3", "--jobs", token]
    with pytest.raises(SystemExit) as exc:
        main(["survey", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: locinv survey [-h] --max-n MAX_N [--graph6 GRAPH6] [--jobs JOBS]\n"
        f"locinv survey: error: argument {option}: invalid int value: '{token}'\n"
    )


def test_gadget_argument_errors(capsys):
    assert main(["gadget", "edge", "0"]) == 1
    assert main(["gadget", "edge", "0", "0"]) == 1
    assert main(["gadget", "star"]) == 1
    capsys.readouterr()
    assert main(["gadget", "edge", "a", "b"]) == 1
    assert capsys.readouterr().err == "error: gadget edge: vertex id 'a' is not an integer\n"
    assert main(["gadget", "star", "x"]) == 1
    assert capsys.readouterr().err == "error: gadget star: vertex count 'x' is not an integer\n"
    assert main(["gadget", "edge", "-1", "2"]) == 1
    assert capsys.readouterr().err == "error: gadget edge needs 2 distinct non-negative ids\n"
