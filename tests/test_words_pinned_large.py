"""Synthesized words on large seeded graphs, pinned by their SHA-256.

``data/words_pinned_large.jsonl`` holds one line per seed: the graph's
order and edge count, the SHA-256 of the reversal word and of the
transform word (letters joined by commas, ASCII), and the transform's
construction tag.  The graphs are connected, with 256 to 4,096 vertices,
sparse and dense, so the digests guard deep breadth-first layers and long
chord swaps of the perfect forest letter for letter, where
``words_pinned.jsonl`` stops at 40 vertices.  A slow test pins two sparse
graphs of 16,384 vertices the same way, read back through the edge-list
parser; their rows hold a handful of neighbours in 2,048 bytes each.

Regenerate the file (only when a change of words is intended and stated)
with ``PYTHONPATH=src:tests python tests/test_words_pinned_large.py >
tests/data/words_pinned_large.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

import locinv.cli as cli
from locinv.graph_core import Graph
from locinv.synthesizer import color_reversal_word, transform_word

PINNED = os.path.join(os.path.dirname(__file__), "data", "words_pinned_large.jsonl")
# (seed, vertices, parent window of the spanning tree (0: any earlier vertex),
#  average degree added beyond the tree, share of vertices recolored)
CASES = (
    (1, 256, 0, 1, 0.5),
    (2, 256, 0, 64, 0.95),
    (3, 512, 4, 1, 0.1),
    (4, 512, 0, 16, 0.5),
    (5, 1024, 8, 2, 0.95),
    (6, 1024, 0, 8, 0.1),
    (7, 2048, 3, 1, 0.5),
    (8, 4096, 0, 0, 0.5),
)


def large_case(
    seed: int, n: int, window: int, degree: int, share: float
) -> tuple[Graph, list[int], list[int]]:
    """The seed's connected graph and its from/to colorings.

    A random tree on ``n`` vertices, where vertex ``v`` hangs from one of
    the ``window`` vertices before it (any of them when ``window`` is 0;
    a small window makes the tree deep), plus ``degree * n / 2`` random
    extra pairs (repeats and tree edges merge), relabelled at random; each
    vertex changes color with probability ``share``.
    """
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {
        (labels[rng.randrange(max(0, v - window) if window else 0, v)], labels[v])
        for v in range(1, n)
    }
    for _ in range(degree * n // 2):
        u, v = rng.sample(range(n), 2)
        edges.add((u, v))
    g = Graph.from_edges(n, edges)
    from_colors = [rng.choice((-1, 1)) for _ in range(n)]
    to_colors = [-c if rng.random() < share else c for c in from_colors]
    return g, from_colors, to_colors


def _digest(word) -> str:
    return hashlib.sha256(",".join(map(str, word)).encode("ascii")).hexdigest()


def large_record(seed: int, n: int, window: int, degree: int, share: float) -> dict:
    g, from_colors, to_colors = large_case(seed, n, window, degree, share)
    tw = transform_word(g, from_colors, to_colors)
    return {
        "seed": seed,
        "n": g.n,
        "edges": len(g.edges()),
        "reverse": _digest(color_reversal_word(g).word),
        "transform": _digest(tw.word),
        "construction": tw.construction,
    }


def test_large_words_match_the_pinned_digests():
    with open(PINNED, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["seed"] for r in records] == [case[0] for case in CASES]
    for case, expected in zip(CASES, records):
        assert large_record(*case) == expected


# (case, reversal digest, transform digest), computed before the byte-table
# replay and the strict edge-list parse
SCALE_CASES = (
    (
        (9, 16384, 0, 1, 0.5),
        "f70ccf8c92ff0d5997b5eedbefc207c0bc5a898d838f421eb945cf26ac742db6",
        "d48b747ba9cf30b67b7c3170ef07ddbb989de67e892562e77cb0cc03a2d3f740",
    ),
    (
        (10, 16384, 6, 2, 0.1),
        "44c3cfc795822f4f8d388b3aac3cd69f7553ea82307ec74c80932dbf03f13341",
        "0acce1dbb08a15c46f8cd243116c5e06e1da553f351794a662236f5faee66eff",
    ),
)


@pytest.mark.slow
@pytest.mark.parametrize("case, reverse, transform", SCALE_CASES, ids=["seed9", "seed10"])
def test_scale_words_match_the_pinned_digests(case, reverse, transform, monkeypatch):
    g, from_colors, to_colors = large_case(*case)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_edge_lines", None)  # the strict path must read it all
        assert cli.parse_edge_list(cli.emit_edge_list(g)) == g
    assert _digest(color_reversal_word(g).word) == reverse
    assert _digest(transform_word(g, from_colors, to_colors).word) == transform


if __name__ == "__main__":
    for case in CASES:
        print(json.dumps(large_record(*case), separators=(",", ":")))
