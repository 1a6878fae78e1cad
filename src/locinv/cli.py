"""Command-line interface and the edge-list and color formats.

Graphs travel as edge-list documents (header ``n <count>``, one ``u v``
line per edge), or as graph6 lines for ``survey --graph6`` (decoded by
:mod:`locinv.graph6`); colorings as +/- tokens, position i being vertex
i.  :func:`parse_edge_list` reads a strict document (the form
:func:`emit_edge_list` writes: ASCII digits and blanks, a newline after
every line) with whole-text checks instead of one per line; any other
document, and any strict one with a loop or an id out of range, goes
through the line-by-line parser, so every error text names the line it
is about.  Reports are JSON: ``exact`` prints one cr-report object,
``survey`` prints one cr-report per line followed by a summary line.

Each word ``reverse`` and ``transform`` print has been replayed once,
inside the builder (:func:`locinv.synthesizer.verify_certificate`); a
failed replay prints ``verification: FAILED: <reason>`` on stderr.
``--verify`` reports the builder's verdict, and for ``transform`` it also
checks that the certified flip set is where the two colorings differ.

Exit codes: 0 success, 1 failure (bad input, verification failure, bound
violation), 2 unsatisfiable (an isolated vertex would have to change
color).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Sequence

from .errors import (
    BoundExceededError,
    CapExceededError,
    UnsatisfiableError,
    VerificationError,
)
from .graph_core import BicoloredGraph, Coloring, Graph, apply_word, mask_of
from .oracle import CrReport, exact_cr, summarize, survey
from .synthesizer import (
    CertifiedWord,
    color_reversal_word,
    complete_word,
    gadget_edge,
    gadget_p3_end,
    gadget_p3_ends,
    gadget_triangle,
    star_word,
    transform_word,
    verify_certificate,  # noqa: F401  module attribute wrapped by bench/tracer.py
)

__all__ = [
    "parse_edge_list",
    "emit_edge_list",
    "parse_colors",
    "format_colors",
    "main",
]

REPORT_SCHEMA = "cr-report/1"
SUMMARY_SCHEMA = "survey-summary/1"

# What ``--verify`` prints: every word ``color_reversal_word`` and
# ``transform_word`` return has passed ``verify_certificate``.
VERIFIED = "verification: ok (exact replay)"

# Largest vertex count a command accepts.  Graphs and words are built in
# memory in proportion to it, so a larger count is refused before anything
# is allocated.
MAX_VERTICES = 1 << 16


# -- formats -----------------------------------------------------------


def _ascii_int(token: str) -> int:
    """``int(token)`` for ASCII digits with at most a leading ``-``.

    Plain ``int()`` also reads other scripts' digits, ``_`` separators, a
    ``+`` sign and surrounding whitespace; no format here has them.
    """
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _int_option(token: str) -> int:
    """argparse ``type`` for integer options: :func:`_ascii_int` with argparse's own error text."""
    try:
        return _ascii_int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


# A strict edge-list document is a header ``n <digits>`` and then lines of
# two numbers, ASCII blanks between and after them, every line ending in
# ``\n``.  Numbers have at most nine digits, so ``int`` never reaches its
# digit limit.
_STRICT_HEADER = re.compile(r"n ([0-9]{1,9})\n")
_STRICT_LINES = re.compile(r"(?:[0-9]{1,9}[ \t]+[0-9]{1,9}[ \t]*\n)*")
# characters per strict chunk: the regex keeps backtracking state for
# every line it repeats over, so whole lines are matched and read about
# 2 KB at a time, which bounds that state and the lists of ids
_STRICT_CHUNK = 2048


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document: ``n <count>`` then one ``u v`` per line.

    A strict document (``_STRICT_HEADER`` then ``_STRICT_LINES``, the form
    :func:`emit_edge_list` writes) is checked and read a chunk of whole
    lines at a time: one regex match, one ``split`` into ids, ``max`` for
    the range and one ``map`` for loops, then a loop that sets both
    adjacency bits of each edge.  Anything it doubts (blank lines, CR,
    signs, other digits or whitespace, one or three numbers on a line, a
    loop, an id out of range, a vertex count over the limit, a missing
    final newline) sends the whole document to :func:`_parse_edge_lines`,
    which accepts or rejects it with its own error text and line number.
    """
    head = _STRICT_HEADER.match(text)
    if head and (n := int(head[1])) <= MAX_VERTICES:
        rows = [0] * n
        start, end = head.end(), len(text)
        while start < end:
            stop = text.find("\n", start + _STRICT_CHUNK) + 1 or end
            if not _STRICT_LINES.fullmatch(text, start, stop):
                break
            ids = list(map(int, text[start:stop].split()))
            us, vs = ids[0::2], ids[1::2]
            if max(ids) >= n or any(map(int.__eq__, us, vs)):
                break
            for u, v in zip(us, vs):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            start = stop
        else:
            return Graph._trusted(n, tuple(rows))
    return _parse_edge_lines(text)


def _parse_edge_lines(text: str) -> Graph:
    """:func:`parse_edge_list` line by line, for any document.

    One pass checks each line and sets both adjacency bits of its edge, so
    the rows are symmetric and loop-free by construction.  Every error
    names the first bad line.
    """
    rows = None
    for no, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln:
            continue
        if rows is None:
            parts = ln.split()
            if len(parts) != 2 or parts[0] != "n" or not (parts[1].isascii() and parts[1].isdigit()):
                raise ValueError(f"line {no}: expected header 'n <count>', got {ln!r}")
            n = int(parts[1])
            if n > MAX_VERTICES:
                raise ValueError(f"line {no}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
            rows = [0] * n
            continue
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"line {no}: expected 'u v', got {ln!r}")
        try:
            u, v = _ascii_int(toks[0]), _ascii_int(toks[1])
        except ValueError:
            raise ValueError(f"line {no}: expected integers, got {ln!r}") from None
        if u == v:
            raise ValueError(f"line {no}: loop edge {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {no}: vertex out of range in {ln!r}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if rows is None:
        raise ValueError("empty edge-list document")
    return Graph._trusted(n, tuple(rows))


def emit_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_colors(token: str, n: int) -> Coloring:
    """Parse a +/- token of length n into a coloring."""
    token = token.strip()
    if len(token) != n:
        raise ValueError(f"color string has length {len(token)}, expected {n}")
    out = []
    for k, ch in enumerate(token):
        if ch == "+":
            out.append(1)
        elif ch in ("-", "−"):
            out.append(-1)
        else:
            raise ValueError(f"color string position {k}: expected '+' or '-', got {ch!r}")
    return tuple(out)


def format_colors(coloring: Sequence[int]) -> str:
    return "".join("+" if c == 1 else "-" for c in coloring)


def _render_word(word: Sequence[int], labels: list[str] | None) -> str:
    if labels is None:
        return ",".join(map(str, word))
    return ",".join(map(labels.__getitem__, word))


def _parse_labels(raw: str | None, n: int) -> list[str] | None:
    if raw is None:
        return None
    labels = [s.strip() for s in raw.split(",")]
    if len(labels) != n or any(not s for s in labels):
        raise ValueError(f"--labels needs {n} comma-separated names")
    seen: set[str] = set()
    for s in labels:
        if s in seen:
            raise ValueError(f"--labels names must be distinct, got {s!r} twice")
        seen.add(s)
    return labels


def _parse_word(raw: str, n: int) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        word = tuple(_ascii_int(tok.strip()) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"--word must be comma-separated integers, got {raw!r}") from None
    for x in word:
        if not (0 <= x < n):
            raise ValueError(f"word letter {x} out of range 0..{n - 1}")
    return word


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# -- commands -----------------------------------------------------------


def _print_certificate(cw: CertifiedWord, labels: list[str] | None) -> None:
    print(f"word: {_render_word(cw.word, labels)}")
    print(f"length: {len(cw.word)}")
    print(f"bound: {cw.bound}")


def _cmd_reverse(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    labels = _parse_labels(args.labels, g.n)
    cw = color_reversal_word(g)
    _print_certificate(cw, labels)
    if args.verify:
        print(VERIFIED)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    labels = _parse_labels(args.labels, g.n)
    from_colors = parse_colors(args.from_colors, g.n)
    to_colors = parse_colors(args.to_colors, g.n)
    cw = transform_word(g, from_colors, to_colors)
    _print_certificate(cw, labels)
    print(f"strategy: {cw.construction.removeprefix('transform/')}")
    if args.verify:
        # the builder's replay proved the word flips exactly target_flip, so
        # the target is reached iff that set is where the two colorings differ
        changed = mask_of(v for v in range(g.n) if from_colors[v] != to_colors[v])
        if mask_of(cw.target_flip) != changed:
            print("verification: FAILED: replay does not reach the target coloring", file=sys.stderr)
            return 1
        print(VERIFIED)
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    coloring = parse_colors(args.colors, g.n)
    word = _parse_word(args.word, g.n)
    result = apply_word(BicoloredGraph(g, coloring), word)
    sys.stdout.write(emit_edge_list(result.graph))
    print(f"colors: {format_colors(result.coloring)}")
    return 0


def _report_dict(rep: CrReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "graph": rep.graph_id,
        "n": rep.n,
        "exact_cr": rep.exact_cr,
        "witness": list(rep.witness),
        "synthesized_length": rep.synthesized_length,
        "bound": rep.bound,
    }


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    rep = exact_cr(g)
    print(json.dumps(_report_dict(rep), indent=2))
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    graph6_lines = None
    if args.graph6:
        with open(args.graph6, "r", encoding="utf-8") as fh:
            graph6_lines = [ln.strip() for ln in fh if ln.strip()]
    reports = survey(args.max_n, graph6_lines=graph6_lines, jobs=args.jobs)
    for rep in reports:
        print(json.dumps(_report_dict(rep)))
    summary = summarize(reports)
    print(
        json.dumps(
            {
                "schema": SUMMARY_SCHEMA,
                "graphs": summary.graphs,
                "max_cr": summary.max_cr,
                "max_ratio": summary.max_ratio,
                "violations": list(summary.violations),
            }
        )
    )
    return 0


# kind -> (builder, argument count); star and complete look up their family at call time
_GADGETS = {
    "edge": (gadget_edge, 2),
    "triangle": (gadget_triangle, 3),
    "p3ends": (gadget_p3_ends, 3),
    "p3end": (gadget_p3_end, 3),
    "star": (lambda n: star_word(n).word, 1),
    "complete": (lambda n: complete_word(n).word, 1),
}


def _cmd_gadget(args: argparse.Namespace) -> int:
    build, count = _GADGETS[args.kind]
    word = build(_gadget_size(args)) if count == 1 else build(*_gadget_vertices(args, count))
    labels = _parse_labels(args.labels, max(word) + 1)
    print(f"word: {_render_word(word, labels)}")
    print(f"length: {len(word)}")
    return 0


def _gadget_int(args: argparse.Namespace, what: str, token: str) -> int:
    try:
        return _ascii_int(token)
    except ValueError:
        raise ValueError(f"gadget {args.kind}: {what} {token!r} is not an integer") from None


def _gadget_vertices(args: argparse.Namespace, count: int) -> list[int]:
    if len(args.args) != count:
        raise ValueError(f"gadget {args.kind} takes {count} vertex ids")
    vs = [_gadget_int(args, "vertex id", x) for x in args.args]
    if any(v < 0 for v in vs) or len(set(vs)) != count:
        raise ValueError(f"gadget {args.kind} needs {count} distinct non-negative ids")
    if (top := max(vs)) >= MAX_VERTICES:
        raise ValueError(f"gadget {args.kind}: vertex id {top} outside 0..{MAX_VERTICES - 1}")
    return vs


def _gadget_size(args: argparse.Namespace) -> int:
    if len(args.args) != 1:
        raise ValueError(f"gadget {args.kind} takes the vertex count")
    n = _gadget_int(args, "vertex count", args.args[0])
    if n > MAX_VERTICES:
        raise ValueError(f"gadget {args.kind}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locinv",
        description="Color reversal of bicolored graphs by local inversions.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # only full option names: a prefix such as --t would slip past
    # _shield_color_values and reach argparse with a bare color value
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("reverse", help="synthesize a whole-graph color reversal word")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--verify", action="store_true", help="check the word by exact replay")
    p.add_argument("--labels", help="comma-separated vertex names for word output")
    p.set_defaults(func=_cmd_reverse)

    p = add_parser("transform", help="synthesize a word turning one coloring into another")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--from", dest="from_colors", required=True, metavar="COLORS")
    p.add_argument("--to", dest="to_colors", required=True, metavar="COLORS")
    p.add_argument("--verify", action="store_true", help="check the word by exact replay")
    p.add_argument("--labels")
    p.set_defaults(func=_cmd_transform)

    p = add_parser("apply", help="apply a word to a bicolored graph")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--colors", required=True)
    p.add_argument("--word", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=_cmd_apply)

    p = add_parser("exact", help="exact color reversal number by exhaustive search")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.set_defaults(func=_cmd_exact)

    p = add_parser("survey", help="exact reports for all small connected graphs")
    p.add_argument("--max-n", type=_int_option, required=True, dest="max_n")
    p.add_argument("--graph6", help="read graphs from a graph6 file instead of enumerating")
    p.add_argument("--jobs", type=_int_option, default=1, help="worker processes, at most the CPU count")
    p.set_defaults(func=_cmd_survey)

    p = add_parser("gadget", help="print a raw gadget word")
    p.add_argument("kind", choices=_GADGETS)
    p.add_argument("args", nargs="*", help="vertex ids, or the vertex count for star/complete")
    p.add_argument("--labels")
    p.set_defaults(func=_cmd_gadget)

    return parser


_COLOR_OPTS = {"--from": "from_colors", "--to": "to_colors", "--colors": "colors"}


def _shield_color_values(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Hide minus-leading color tokens from argparse.

    argparse reads ``--to ---`` as a missing argument and silently drops a
    literal ``--`` value, so color values are extracted here, keyed by
    their argparse destination, and restored after parsing; a ``+``
    placeholder keeps required-argument checks alive.
    """
    shielded: list[str] = []
    raw: dict[str, str] = {}
    tokens = iter(argv)
    for tok in tokens:
        name, eq, value = tok.partition("=")
        dest = _COLOR_OPTS.get(name)
        if dest is None:
            shielded.append(tok)
        elif eq:
            raw[dest] = value
            shielded.append(name + "=+")
        elif (value := next(tokens, None)) is None:
            shielded.append(tok)
        else:
            raw[dest] = value
            shielded += [tok, "+"]
    return shielded, raw


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    shielded, raw = _shield_color_values(argv)
    args = parser.parse_args(shielded)
    for dest, value in raw.items():
        setattr(args, dest, value)
    try:
        return args.func(args)
    except UnsatisfiableError as exc:
        print(f"unsatisfiable: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification: FAILED: {exc}", file=sys.stderr)
        return 1
    except BoundExceededError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        if exc.witness:
            print(json.dumps({"witness": exc.witness}), file=sys.stderr)
        return 1
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
