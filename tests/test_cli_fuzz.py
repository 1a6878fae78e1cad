"""Property-based fuzzing of the command line: bad input never escapes as a traceback.

Every run of :func:`locinv.cli.main` must end with exit code 0 (success),
1 (failure) or 2 (unsatisfiable, or an argparse usage error raised as
``SystemExit``).  Any other exception fails the test.  Inputs stay small
(at most 8 vertices, 5 for ``exact`` and 4 for ``survey``) so that every
example finishes in milliseconds.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locinv.synthesizer as synth
from locinv.cli import main
from locinv.graph6 import emit_graph6
from locinv.graph_core import Graph

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# junk without digits, so it can never become a valid header for a huge graph
JUNK_TEXT = st.text(alphabet="nm xy,.;:+-\t", max_size=8)
JUNK_LINES = st.sampled_from(
    ["n", "n x", "m 3", "n 3 4", "n -1", "n 2.5", "n ²", "0", "0 1 2", "a b", "1 1", "-1 0", "0 9"]
)


@st.composite
def edge_list_docs(draw, max_n=8):
    """(document, n): an edge-list document for n vertices, sometimes broken in one line."""
    n = draw(st.integers(0, max_n))
    edges = []
    if n > 1:
        vertex = st.integers(0, n - 1)
        pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pairs, max_size=12))
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
    if draw(st.integers(0, 3)) == 0:
        junk = draw(JUNK_LINES | JUNK_TEXT)
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n", n


@st.composite
def connected_docs(draw, max_n=8):
    """(document, n): a connected graph on 2..max_n vertices, a random tree plus extra edges."""
    n = draw(st.integers(2, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=8))
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n", n


def colors_for(n):
    """Color tokens: mostly n valid signs, sometimes junk of any length."""
    valid = st.text(alphabet="+-−", min_size=n, max_size=n)
    return st.one_of(valid, valid, st.text(alphabet="+-x ", max_size=10))


def words_for(n):
    """Word strings: mostly comma-separated letters near 0..n-1, sometimes junk."""
    letters = st.lists(st.integers(-1, n), max_size=12).map(lambda w: ",".join(map(str, w)))
    return st.one_of(letters, letters, st.text(alphabet="0123456789,- ", max_size=20))


def labels_for(n):
    """--labels values: absent, n names, or junk."""
    names = st.lists(st.text(alphabet="abc", min_size=1, max_size=2), min_size=n, max_size=n)
    return st.one_of(st.none(), names.map(",".join), st.text(alphabet="abc,", max_size=12))


@st.composite
def graph6_lines(draw):
    """A valid graph6 line on at most 5 vertices, or a junk line."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=[chr(c) for c in range(60, 130)], max_size=5))
    n = draw(st.integers(0, 5))
    return emit_graph6(Graph.from_upper_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))


GADGET_ARGS = st.lists(st.text(alphabet="0123456789-x", min_size=1, max_size=2), max_size=4)


def run_main(argv):
    """Exit code and standard error of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code, err.getvalue()


def color_option(name, token, equals):
    return [f"{name}={token}"] if equals else [name, token]


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


@FUZZ
@given(case=edge_list_docs(), data=st.data(), verify=st.booleans())
def test_reverse_never_raises(graph_path, case, data, verify):
    doc, n = case
    graph_path.write_text(doc, encoding="utf-8")
    labels = data.draw(labels_for(n))
    argv = ["reverse", "-i", str(graph_path)] + ["--verify"] * verify
    if labels is not None:
        argv += ["--labels", labels]
    run_main(argv)


@FUZZ
@given(
    case=connected_docs() | edge_list_docs(),
    data=st.data(),
    transform=st.booleans(),
    verify=st.booleans(),
)
def test_faulty_builder_is_reported_not_raised(graph_path, case, data, transform, verify):
    # every word leaves its builder one letter short: a non-empty word is then
    # a false certificate, which must end in the FAILED line and exit code 1
    doc, n = case
    graph_path.write_text(doc, encoding="utf-8")
    argv = ["reverse", "-i", str(graph_path)]
    if transform:
        argv[0] = "transform"
        argv += color_option("--from", data.draw(colors_for(n)), True)
        argv += color_option("--to", data.draw(colors_for(n)), True)
    flip_set = synth._flip_set_word
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_flip_set_word", lambda rows, s: flip_set(rows, s)[:-1])
        code, err = run_main(argv + ["--verify"] * verify)
    if "verification" in err:
        assert code == 1
        assert err.startswith("verification: FAILED: ")


@FUZZ
@given(case=edge_list_docs(), data=st.data(), equals=st.booleans(), verify=st.booleans())
def test_transform_never_raises(graph_path, case, data, equals, verify):
    doc, n = case
    graph_path.write_text(doc, encoding="utf-8")
    src, dst = data.draw(colors_for(n)), data.draw(colors_for(n))
    argv = ["transform", "-i", str(graph_path)]
    argv += color_option("--from", src, equals) + color_option("--to", dst, equals)
    run_main(argv + ["--verify"] * verify)


@FUZZ
@given(case=edge_list_docs(), data=st.data(), equals=st.booleans())
def test_apply_never_raises(graph_path, case, data, equals):
    doc, n = case
    graph_path.write_text(doc, encoding="utf-8")
    colors, word = data.draw(colors_for(n)), data.draw(words_for(n))
    argv = ["apply", "-i", str(graph_path), *color_option("--colors", colors, equals)]
    run_main(argv + [f"--word={word}"])


@FUZZ
@given(case=edge_list_docs(max_n=5))
def test_exact_never_raises(graph_path, case):
    graph_path.write_text(case[0], encoding="utf-8")
    run_main(["exact", "-i", str(graph_path)])


@FUZZ
@given(
    kind=st.sampled_from(["edge", "triangle", "p3ends", "p3end", "star", "complete", "square"]),
    args=GADGET_ARGS,
    labels=labels_for(4),
)
def test_gadget_never_raises(kind, args, labels):
    argv = ["gadget", kind, *args]
    if labels is not None:
        argv += ["--labels", labels]
    run_main(argv)


@FUZZ
@given(lines=st.lists(graph6_lines(), max_size=4), max_n=st.integers(-1, 4))
def test_survey_graph6_never_raises(graph_path, lines, max_n):
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run_main(["survey", "--max-n", str(max_n), "--graph6", str(graph_path)])


@FUZZ
@given(
    argv=st.lists(
        st.sampled_from(
            ["reverse", "transform", "apply", "exact", "survey", "gadget", "-i", "--from",
             "--to", "--colors", "--word", "--verify", "--max-n", "--cap", "--", "---", "+-", "3",
             "--t", "--t=--", "--colo=--", "--fr"]
        ),
        max_size=6,
    )
)
def test_argument_soup_never_raises(argv):
    run_main(argv)
