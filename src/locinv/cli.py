"""Command-line interface and flat file formats.

Graphs travel as edge-list documents (header ``n <count>``, one ``u v``
line per edge) or graph6 lines; colorings as +/- tokens, position i being
vertex i.  Reports are JSON: ``exact`` prints one cr-report object,
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
import json
import sys
from typing import Sequence

from .errors import (
    BoundExceededError,
    CapExceededError,
    Graph6Error,
    UnsatisfiableError,
    VerificationError,
)
from .graph_core import BicoloredGraph, Coloring, Graph, apply_word, mask_of
from .graph6 import emit_graph6, parse_graph6  # re-exported format codec
from .oracle import DEFAULT_CAP, MAX_CAP, CrReport, exact_cr, summarize, survey
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
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "emit_edge_list",
    "parse_colors",
    "format_colors",
    "main",
    "entry",
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


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document: ``n <count>`` then one ``u v`` per line.

    One pass checks each line and sets both adjacency bits of its edge, so
    the rows are symmetric and loop-free by construction.
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
            u, v = int(toks[0]), int(toks[1])
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
        return ",".join(str(x) for x in word)
    return ",".join(labels[x] for x in word)


def _parse_labels(raw: str | None, n: int) -> list[str] | None:
    if raw is None:
        return None
    labels = [s.strip() for s in raw.split(",")]
    if len(labels) != n or any(not s for s in labels):
        raise ValueError(f"--labels needs {n} comma-separated names")
    return labels


def _parse_word(raw: str, n: int) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        word = tuple(int(tok) for tok in raw.split(","))
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


def _print_certificate(cw: CertifiedWord, labels: list[str] | None, reduce_flag: bool) -> None:
    word = cw.reduced if reduce_flag else cw.word
    print(f"word: {_render_word(word, labels)}")
    print(f"length: {len(word)}")
    if reduce_flag:
        print(f"unreduced-length: {len(cw.word)}")
    print(f"bound: {cw.bound}")


def _cmd_reverse(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    labels = _parse_labels(args.labels, g.n)
    cw = color_reversal_word(g)
    _print_certificate(cw, labels, args.reduce)
    if args.verify:
        print(VERIFIED)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    labels = _parse_labels(args.labels, g.n)
    from_colors = parse_colors(args.from_colors, g.n)
    to_colors = parse_colors(args.to_colors, g.n)
    cw = transform_word(g, from_colors, to_colors)
    _print_certificate(cw, labels, args.reduce)
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
    rep = exact_cr(g, cap=args.cap)
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


def _cmd_gadget(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "edge":
        word: Sequence[int] = gadget_edge(*_gadget_vertices(args, 2))
    elif kind == "triangle":
        word = gadget_triangle(*_gadget_vertices(args, 3))
    elif kind == "p3ends":
        word = gadget_p3_ends(*_gadget_vertices(args, 3))
    elif kind == "p3end":
        word = gadget_p3_end(*_gadget_vertices(args, 3))
    elif kind == "star":
        word = star_word(_gadget_size(args)).word
    else:
        word = complete_word(_gadget_size(args)).word
    labels = _parse_labels(args.labels, max(word) + 1) if args.labels else None
    print(f"word: {_render_word(word, labels)}")
    print(f"length: {len(word)}")
    return 0


def _gadget_vertices(args: argparse.Namespace, count: int) -> list[int]:
    if len(args.args) != count:
        raise ValueError(f"gadget {args.kind} takes {count} vertex ids")
    vs = [int(x) for x in args.args]
    if any(v < 0 for v in vs) or len(set(vs)) != count:
        raise ValueError(f"gadget {args.kind} needs {count} distinct non-negative ids")
    return vs


def _gadget_size(args: argparse.Namespace) -> int:
    if len(args.args) != 1:
        raise ValueError(f"gadget {args.kind} takes the vertex count")
    n = int(args.args[0])
    if n > MAX_VERTICES:
        raise ValueError(f"gadget {args.kind}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locinv",
        description="Color reversal of bicolored graphs by local inversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reverse", help="synthesize a whole-graph color reversal word")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--reduce", action="store_true", help="print the freely reduced word")
    p.add_argument("--verify", action="store_true", help="check the word by exact replay")
    p.add_argument("--labels", help="comma-separated vertex names for word output")
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("transform", help="synthesize a word turning one coloring into another")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--from", dest="from_colors", required=True, metavar="COLORS")
    p.add_argument("--to", dest="to_colors", required=True, metavar="COLORS")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--verify", action="store_true", help="check the word by exact replay")
    p.add_argument("--labels")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("apply", help="apply a word to a bicolored graph")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--colors", required=True)
    p.add_argument("--word", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("exact", help="exact color reversal number by exhaustive search")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"vertex cap for the search, at most {MAX_CAP}")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("survey", help="exact reports for all small connected graphs")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--graph6", help="read graphs from a graph6 file instead of enumerating")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("gadget", help="print a raw gadget word")
    p.add_argument("kind", choices=["edge", "triangle", "p3ends", "p3end", "star", "complete"])
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
        if hasattr(args, dest):
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
    except (ValueError, Graph6Error, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    return main()
