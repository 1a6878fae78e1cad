"""Span tracer installed around the package's public functions.

The traced run replaces each function at the module attribute its caller
looks up (``locinv.cli.verify_certificate``, ``locinv.synthesizer.apply_word``
and so on) with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the part of it that its child spans
cover.  The untraced run never constructs a :class:`Tracer`, so it runs the
package's own functions.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# span name -> (module, attribute) lookup sites that get the wrapper
SITES = {
    "cli.main": [("locinv.cli", "main")],
    "cli.build_parser": [("locinv.cli", "build_parser")],
    "cli.parse_edge_list": [("locinv.cli", "parse_edge_list")],
    "synthesizer.color_reversal_word": [
        ("locinv.cli", "color_reversal_word"),
        ("locinv.oracle", "color_reversal_word"),
    ],
    "synthesizer.transform_word": [("locinv.cli", "transform_word")],
    "synthesizer.verify_certificate": [("locinv.cli", "verify_certificate")],
    "partitioner.perfect_forest": [("locinv.synthesizer", "perfect_forest")],
    "partitioner.p3_partition": [("locinv.synthesizer", "p3_partition")],
    "graph_core.apply_word": [
        ("locinv.cli", "apply_word"),
        ("locinv.synthesizer", "apply_word"),
    ],
    "oracle.connected_graphs": [("locinv.oracle", "connected_graphs")],
    "oracle.min_flip_word": [("locinv.oracle", "min_flip_word")],
    "oracle.exact_cr": [("locinv.cli", "exact_cr"), ("locinv.oracle", "exact_cr")],
    # survey workers import parse_graph6 from locinv.graph6 at call time
    "graph6.codec": [("locinv.graph6", "parse_graph6"), ("locinv.oracle", "emit_graph6")],
}

GENERATORS = {"oracle.connected_graphs"}


def _count_word(counts, args, result) -> None:
    counts["synthesizer.words"] += 1
    counts["synthesizer.letters"] += len(result.word)
    counts["synthesizer.bound_sum"] += result.bound


def _count_letters(counts, args, result) -> None:
    counts["graph_core.apply_word.letters"] += len(args[1])


def _count_depth(counts, args, result) -> None:
    if result is not None:
        counts["oracle.min_flip_word.depth_sum"] += result[0]


COUNTERS = {
    "synthesizer.color_reversal_word": _count_word,
    "synthesizer.transform_word": _count_word,
    "graph_core.apply_word": _count_letters,
    "oracle.min_flip_word": _count_depth,
}


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _wrap_call(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """Time each ``next()`` of the generator, not the call that creates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[name + ".items"] += 1
                yield item

        return traced

    def install(self, modules: dict[str, object]) -> None:
        for name, sites in SITES.items():
            wrap = self._wrap_generator if name in GENERATORS else self._wrap_call
            for module_name, attr in sites:
                module = modules[module_name]
                fn = getattr(module, attr)
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrap(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def root_residual(spans: list[list], selfs: list[float]) -> float:
    """Largest gap between a root span's duration and its subtree's summed self time."""
    root_of: list[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        root_of.append(i if parent < 0 else root_of[parent])
    sums: defaultdict[int, float] = defaultdict(float)
    for i, s in enumerate(selfs):
        sums[root_of[i]] += s
    return max(
        (abs(sums[i] - (spans[i][2] - spans[i][1])) for i in sums),
        default=0.0,
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    selfs = self_times(tracer.spans)
    calls: defaultdict[str, int] = defaultdict(int)
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _), s in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += s
        total_s[name] += end - start
    c = tracer.counts
    apply_letters = c["graph_core.apply_word.letters"]
    apply_s = total_s["graph_core.apply_word"]
    return {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.build_parser.self_s": self_s["cli.build_parser"],
        "cli.parse_edge_list.self_s": self_s["cli.parse_edge_list"],
        "synthesizer.color_reversal_word.self_s": self_s["synthesizer.color_reversal_word"],
        "synthesizer.transform_word.self_s": self_s["synthesizer.transform_word"],
        "synthesizer.verify_certificate.self_s": self_s["synthesizer.verify_certificate"],
        "synthesizer.words": c["synthesizer.words"],
        "synthesizer.letters": c["synthesizer.letters"],
        "synthesizer.bound_use": (
            c["synthesizer.letters"] / c["synthesizer.bound_sum"] if c["synthesizer.bound_sum"] else 0.0
        ),
        "partitioner.perfect_forest.calls": calls["partitioner.perfect_forest"],
        "partitioner.perfect_forest.self_s": self_s["partitioner.perfect_forest"],
        "partitioner.p3_partition.self_s": self_s["partitioner.p3_partition"],
        "graph_core.apply_word.calls": calls["graph_core.apply_word"],
        "graph_core.apply_word.self_s": self_s["graph_core.apply_word"],
        "graph_core.apply_word.letters": apply_letters,
        "graph_core.apply_word.letters_per_s": apply_letters / apply_s if apply_s else 0.0,
        "oracle.connected_graphs.self_s": self_s["oracle.connected_graphs"],
        "oracle.connected_graphs.graphs": c["oracle.connected_graphs.items"],
        "oracle.min_flip_word.calls": calls["oracle.min_flip_word"],
        "oracle.min_flip_word.self_s": self_s["oracle.min_flip_word"],
        "oracle.min_flip_word.depth_sum": c["oracle.min_flip_word.depth_sum"],
        "oracle.exact_cr.self_s": self_s["oracle.exact_cr"],
        "graph6.codec.calls": calls["graph6.codec"],
        "graph6.codec.self_s": self_s["graph6.codec"],
    }
