"""Synthesized words pinned letter for letter on seeded graphs.

``data/words_pinned.jsonl`` holds one line per seed: the graph's order,
one recoloring, the reversal word, the transform word and its
construction tag.  The graph and the colorings are rebuilt here from the
seed, so the file stores outputs only.  Seeds cover connected and
disconnected graphs of both parities with n from 2 to 40, and recolorings
of every leaf of a star as well as of random vertex sets.

Regenerate the file (only when a change of words is intended and stated)
with ``PYTHONPATH=src:tests python tests/test_words_pinned.py >
tests/data/words_pinned.jsonl``.
"""

from __future__ import annotations

import json
import os
import random

from locinv.graph_core import Graph, component_masks, reduce_word
from locinv.synthesizer import color_reversal_word, transform_word

from helpers import random_connected_graph

PINNED = os.path.join(os.path.dirname(__file__), "data", "words_pinned.jsonl")
SEEDS = range(120)


def pinned_case(seed: int) -> tuple[Graph, str, str]:
    """The seed's graph and its from/to colorings.

    The graph is one to three components of order >= 2, each a star or a
    random tree with extra edges, relabelled at random.  Per component the
    recoloring changes either every leaf, which pairs the leaves through
    common neighbours, or each vertex with one probability.
    """
    rng = random.Random(seed)
    n = rng.randint(2, rng.choice((8, 16, 40)))
    k = min(rng.choice((1, 1, 2, 3)), n // 2)
    sizes = [2] * k
    for _ in range(n - 2 * k):
        sizes[rng.randrange(k)] += 1
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    changed = []
    start = 0
    for size in sizes:
        extra = rng.choice((None, None, 0.0, 0.05, 0.2, 0.5))
        part = Graph.star(size) if extra is None else random_connected_graph(rng, size, extra)
        edges += [(labels[start + u], labels[start + v]) for u, v in part.edges()]
        p = rng.choice((None, None, 0.1, 0.5, 0.95))
        for v in range(size):
            if (part.rows[v].bit_count() == 1) if p is None else rng.random() < p:
                changed.append(labels[start + v])
        start += size
    from_colors = [rng.choice("+-") for _ in range(n)]
    to_colors = list(from_colors)
    for v in changed:
        to_colors[v] = "+" if from_colors[v] == "-" else "-"
    return Graph.from_edges(n, edges), "".join(from_colors), "".join(to_colors)


def _signs(colors: str) -> tuple[int, ...]:
    return tuple(1 if c == "+" else -1 for c in colors)


def pinned_record(seed: int) -> dict:
    g, from_colors, to_colors = pinned_case(seed)
    tw = transform_word(g, _signs(from_colors), _signs(to_colors))
    return {
        "seed": seed,
        "n": g.n,
        "from": from_colors,
        "to": to_colors,
        "reverse": list(color_reversal_word(g).word),
        "transform": list(tw.word),
        "construction": tw.construction,
    }


def _pinned_records() -> list[dict]:
    with open(PINNED, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_words_match_the_pinned_file():
    records = _pinned_records()
    assert [r["seed"] for r in records] == list(SEEDS)
    for expected in records:
        assert pinned_record(expected["seed"]) == expected


def test_pinned_file_covers_every_shape():
    records = _pinned_records()
    shapes = set()
    for r in records:
        g, _, _ = pinned_case(r["seed"])
        shapes.add((len(component_masks(g.rows, (1 << g.n) - 1)) > 1, g.n % 2))
    assert shapes == {(False, 0), (False, 1), (True, 0), (True, 1)}
    assert {r["construction"] for r in records} == {"transform/fix-V1"}
    assert min(r["n"] for r in records) == 2
    assert max(r["n"] for r in records) == 40
    for r in records:
        assert reduce_word(r["reverse"]) == tuple(r["reverse"]), r["seed"]
        assert reduce_word(r["transform"]) == tuple(r["transform"]), r["seed"]


if __name__ == "__main__":
    for seed in SEEDS:
        print(json.dumps(pinned_record(seed), separators=(",", ":")))
