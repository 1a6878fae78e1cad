"""Independent checker for the CLI's printed output.

Nothing here imports the package under test.  Words are replayed with the
benchmark's own bitmask local inversion: at each letter ``a`` the colours
of ``a``'s neighbours flip and the adjacency among those neighbours is
complemented, so the set of flipped vertices after a word is the XOR of
``rows[a]`` along the replay.  A word is correct when the graph comes back
unchanged, the flip mask is exactly the one claimed, and its length stays
within the paper's bound for n.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json

from workloads import Call, rows_from_edges


def reverse_bound(n: int) -> int:
    """Paper bound for reversing a connected graph: 4n-4 (n even), 4n-3 (n odd)."""
    return 4 * n - 4 if n % 2 == 0 else 4 * n - 3


def transform_bound(n: int) -> int:
    """Paper bound for recolouring a connected graph: floor((11n-3)/2)."""
    return (11 * n - 3) // 2


def replay(rows: tuple[int, ...], word) -> tuple[tuple[int, ...], int]:
    """Final adjacency rows and flip mask after applying ``word``."""
    n = len(rows)
    out = list(rows)
    flipped = 0
    for a in word:
        if not 0 <= a < n:
            raise ValueError(f"letter {a} outside 0..{n - 1}")
        nb = out[a]
        flipped ^= nb
        m = nb
        while m:
            low = m & -m
            out[low.bit_length() - 1] ^= nb ^ low
            m ^= low
    return tuple(out), flipped


def color_mask(colors: str) -> int:
    return sum(1 << v for v, c in enumerate(colors) if c == "-")


def decode_graph6(line: str) -> tuple[int, tuple[int, ...]]:
    n = ord(line[0]) - 63
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = []
    for k, (i, j) in enumerate(pairs):
        group = ord(line[1 + k // 6]) - 63
        if (group >> (5 - k % 6)) & 1:
            edges.append((i, j))
    return n, rows_from_edges(n, edges)


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _check_word(call: Call, out: str, want_flip: int, bound: int) -> str | None:
    f = _fields(out)
    try:
        word = tuple(int(x) for x in f["word"].split(",")) if f.get("word") else ()
        length = int(f["length"])
    except (KeyError, ValueError):
        return "no parsable word/length lines"
    if length != len(word):
        return f"length line {length} but word has {len(word)} letters"
    if len(word) > bound:
        return f"word of {len(word)} letters exceeds the paper bound {bound} for n={call.n}"
    if not f.get("verification", "").startswith("ok"):
        return "missing 'verification: ok' line"
    try:
        rows, flipped = replay(call.rows, word)
    except ValueError as exc:
        return str(exc)
    if rows != call.rows:
        return "replay does not restore the graph"
    if flipped != want_flip:
        return f"replay flips mask {flipped:#x}, expected {want_flip:#x}"
    return None


def check_reverse(call: Call, out: str) -> str | None:
    return _check_word(call, out, (1 << call.n) - 1, reverse_bound(call.n))


def check_transform(call: Call, out: str) -> str | None:
    diff = color_mask(call.params["from"]) ^ color_mask(call.params["to"])
    return _check_word(call, out, diff, transform_bound(call.n))


def check_apply(call: Call, out: str) -> str | None:
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("colors: "):
        return "missing 'colors:' line"
    try:
        edges = [tuple(int(x) for x in ln.split()) for ln in lines[1:-1]]
        got_rows = rows_from_edges(call.n, edges)
    except (ValueError, IndexError):
        return "unparsable edge list"
    if lines[0] != f"n {call.n}":
        return f"header {lines[0]!r}, expected 'n {call.n}'"
    want_rows, flipped = replay(call.rows, call.params["word"])
    if got_rows != want_rows:
        return "printed graph differs from the replayed graph"
    want_colors = "".join(
        ("+" if c == "-" else "-") if (flipped >> v) & 1 else c
        for v, c in enumerate(call.params["colors"])
    )
    if lines[-1] != f"colors: {want_colors}":
        return f"printed {lines[-1]!r}, expected 'colors: {want_colors}'"
    return None


def _check_report(rep: dict, n: int, rows: tuple[int, ...]) -> str | None:
    """An exact report must hold a replayable full-flip witness of its length."""
    witness = rep.get("witness")
    if (
        rep.get("n") != n
        or "graph" not in rep
        or not isinstance(witness, list)
        or not all(isinstance(a, int) for a in witness)
    ):
        return f"malformed report {rep.get('graph')!r}"
    if rep.get("exact_cr") != len(witness):
        return f"{rep['graph']}: exact_cr {rep.get('exact_cr')} but witness has {len(witness)} letters"
    try:
        after, flipped = replay(rows, witness)
    except ValueError as exc:
        return f"{rep['graph']}: {exc}"
    if after != rows or flipped != (1 << n) - 1:
        return f"{rep['graph']}: witness does not reverse every colour"
    synth, bound = rep.get("synthesized_length"), rep.get("bound")
    if bound != reverse_bound(n) or not isinstance(synth, int) or not len(witness) <= synth <= bound:
        return f"{rep['graph']}: exact {rep['exact_cr']} <= synthesized {synth} <= bound {bound} fails"
    return None


def check_exact(call: Call, out: str) -> str | None:
    try:
        rep = json.loads(out)
    except ValueError:
        return "exact output is not JSON"
    if not isinstance(rep, dict):
        return "exact output is not a JSON object"
    if rep.get("exact_cr") != call.params["expect"]:
        return f"exact_cr {rep.get('exact_cr')}, expected {call.params['expect']}"
    return _check_report(rep, call.n, call.rows)


def check_survey(call: Call, out: str) -> str | None:
    try:
        docs = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    except ValueError:
        return "survey output is not JSON lines"
    if not docs or not all(isinstance(d, dict) for d in docs):
        return "survey output is not a list of JSON objects"
    *reports, summary = docs
    classes = call.params["classes"]
    want_total = sum(classes.values())
    if summary.get("graphs") != want_total or len(reports) != want_total:
        return f"survey has {len(reports)} reports and summary {summary.get('graphs')}, expected {want_total}"
    if summary.get("violations") != [] or summary.get("max_ratio") != 1.0:
        return f"summary violations {summary.get('violations')} max_ratio {summary.get('max_ratio')}"
    seen: dict[int, set[str]] = {}
    for rep in reports:
        graph = rep.get("graph")
        if not isinstance(graph, str) or not graph:
            return "report without a graph6 id"
        try:
            n, rows = decode_graph6(graph)
        except IndexError:
            return f"malformed graph6 id {graph!r}"
        problem = _check_report(rep, n, rows)
        if problem:
            return problem
        if rep["exact_cr"] > 3 * n:
            return f"{graph}: exact {rep['exact_cr']} > 3n"
        seen.setdefault(n, set()).add(graph)
    counts = {n: len(ids) for n, ids in seen.items()}
    if counts != classes:
        return f"classes per n {counts}, expected {classes}"
    return None


CHECKS = {
    "reverse": check_reverse,
    "transform": check_transform,
    "apply": check_apply,
    "exact": check_exact,
    "survey": check_survey,
}


def check(call: Call, rc: object, out: str) -> str | None:
    """Reason the call's exit code or output is wrong, or None."""
    if rc != 0:
        return f"exit code {rc}"
    return CHECKS[call.kind](call, out)
