"""Seeded inputs for the three benchmark workloads.

A workload is a fixed list of CLI calls.  Every call carries the graph it
runs on (as adjacency bitmask rows, which the output checker replays on)
and its own arguments; the program only ever sees the edge-list files
written by :func:`write_inputs` and the argv built by :meth:`Call.argv`.

* ``cli-small``: the scripted CLI user.  1000 calls on connected graphs
  with n in [2, 16], 40% ``reverse --verify``, 40% ``transform --verify``
  and 20% ``apply`` of a random word of length 4n.  Per-call fixed cost
  (argument parsing, file loading, verification set-up) dominates.
* ``synth-large``: certificate synthesis and replay at scale.  60 calls on
  connected graphs with n in [64, 256], half sparse (average degree about
  max(4, 1.5 ln n)) and half dense (p = 0.1), half ``reverse --verify``
  and half ``transform --verify``.
* ``oracle``: exhaustive search.  ``survey --max-n 5`` (30 graph classes,
  enumeration and many shallow searches), then ``exact`` on the 7-vertex
  path and on the 6-vertex cycle (one deep search each), in turn.  It
  does not depend on the seed.

Vertex counts are stratified over their range and the call kinds are
assigned in fixed proportions and a fixed order, so a seed changes the
graphs, colours and words but not the shape of the workload; that keeps
runs on different seeds comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-small", "synth-large", "oracle")

CLI_SMALL_CALLS = 1000
SYNTH_LARGE_CALLS = 60

# exact colour reversal numbers of P7 and C6, found by the oracle itself
# and pinned so that a change to the search that breaks them shows
EXACT_P7 = 17
EXACT_C6 = 18
SURVEY_MAX_N = 5
SURVEY_CLASSES = {2: 1, 3: 2, 4: 6, 5: 21}


@dataclass(frozen=True)
class Call:
    """One CLI call: its kind, the graph it reads, and its other arguments.

    ``rows[v]`` is the neighbourhood bitmask of vertex v.  ``params`` holds
    the colour strings (``colors``, ``from``, ``to``), the word for
    ``apply``, and the pinned answers for oracle calls.
    """

    kind: str
    n: int
    rows: tuple[int, ...]
    params: dict = field(default_factory=dict)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for v in range(self.n) for u in range(v) if (self.rows[v] >> u) & 1
        ]

    def edge_list(self) -> str:
        lines = [f"n {self.n}"] + [f"{u} {v}" for u, v in self.edges()]
        return "\n".join(lines) + "\n"

    def argv(self, path: str | None) -> list[str]:
        p = self.params
        if self.kind == "reverse":
            return ["reverse", "-i", path, "--verify"]
        if self.kind == "transform":
            return ["transform", "-i", path, f"--from={p['from']}", f"--to={p['to']}", "--verify"]
        if self.kind == "apply":
            word = ",".join(map(str, p["word"]))
            return ["apply", "-i", path, f"--colors={p['colors']}", "--word", word]
        if self.kind == "exact":
            return ["exact", "-i", path]
        if self.kind == "survey":
            return ["survey", "--max-n", str(p["max_n"]), "--jobs", "1"]
        raise ValueError(f"unknown call kind {self.kind!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    warmup: Call


# -- graphs -------------------------------------------------------------


def rows_from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def connected_graph(rng: random.Random, n: int, p_extra: float) -> tuple[int, ...]:
    """A random labelled tree plus each remaining pair with probability ``p_extra``."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for v in range(n):
        for u in range(v):
            if not (rows[v] >> u) & 1 and rng.random() < p_extra:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def _colors(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("+-") for _ in range(n))


def _graph_call(rng: random.Random, kind: str, n: int, rows: tuple[int, ...]) -> Call:
    if kind == "transform":
        return Call(kind, n, rows, {"from": _colors(rng, n), "to": _colors(rng, n)})
    if kind == "apply":
        word = tuple(rng.randrange(n) for _ in range(4 * n))
        return Call(kind, n, rows, {"colors": _colors(rng, n), "word": word})
    return Call(kind, n, rows)


def _warmup_call() -> Call:
    """The same small ``reverse --verify`` for every seed, so set-up time is seed-free."""
    rng = random.Random("warmup")
    return Call("reverse", 16, connected_graph(rng, 16, 0.3))


# -- workloads ----------------------------------------------------------


def cli_small(seed: int) -> Workload:
    rng = random.Random(f"cli-small:{seed}")
    # every 75 consecutive calls hold each n in [2, 16] with each kind of the
    # 2:2:1 mix, so a run that stops part way through the list keeps the mix
    kinds = ("reverse", "transform", "reverse", "transform", "apply")
    calls = []
    for j in range(CLI_SMALL_CALLS):
        n = 2 + (j // len(kinds)) % 15
        calls.append(_graph_call(rng, kinds[j % len(kinds)], n, connected_graph(rng, n, 0.3)))
    return Workload("cli-small", tuple(calls), _warmup_call())


def synth_large(seed: int) -> Workload:
    rng = random.Random(f"synth-large:{seed}")
    groups = [(d, k) for d in ("sparse", "dense") for k in ("reverse", "transform")]
    blocks = SYNTH_LARGE_CALLS // len(groups)
    calls = []
    # [64, 256] is cut into one stratum per call, and strata into blocks of
    # one call per group; blocks run in a strided order so that any prefix of
    # the list spreads over the whole range of n and every group
    for j in range(blocks):
        b = (4 * j) % blocks
        for g in range(len(groups)):
            stratum = b * len(groups) + g
            n = 64 + int((stratum + rng.random()) * 193 / SYNTH_LARGE_CALLS)
            density, kind = groups[(g + b) % len(groups)]
            if density == "dense":
                p = 0.1
            else:
                degree = max(4.0, 1.5 * math.log(n))
                p = (degree - 2.0) / (n - 1)
            calls.append(_graph_call(rng, kind, n, connected_graph(rng, n, p)))
    return Workload("synth-large", tuple(calls), _warmup_call())


def oracle(seed: int) -> Workload:
    del seed  # the oracle workload is the same for every seed
    path7 = rows_from_edges(7, [(i, i + 1) for i in range(6)])
    cycle6 = rows_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    # every call takes well under a second, so a run holds dozens of each and
    # its medians average over the machine's second-to-second speed changes;
    # a 15-second survey --max-n 6 or a 3-second exact C7 would be single
    # samples whose run-to-run spread exceeds the bounds on a shared machine
    calls = (
        Call("survey", 0, (), {"max_n": SURVEY_MAX_N, "classes": SURVEY_CLASSES}),
        Call("exact", 7, path7, {"expect": EXACT_P7, "label": "exact P7"}),
        Call("exact", 6, cycle6, {"expect": EXACT_C6, "label": "exact C6"}),
    )
    warmup = Call("survey", 0, (), {"max_n": 4, "classes": {2: 1, 3: 2, 4: 6}})
    return Workload("oracle", calls, warmup)


def build(name: str, seed: int) -> Workload:
    makers = {"cli-small": cli_small, "synth-large": synth_large, "oracle": oracle}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return makers[name](seed)


def write_inputs(workload: Workload, directory: Path) -> tuple[list[list[str]], list[str]]:
    """Write one edge-list file per graph; return each call's argv and the warm-up argv."""
    directory.mkdir(parents=True, exist_ok=True)

    def argv(call: Call, stem: str) -> list[str]:
        if call.kind == "survey":
            return call.argv(None)
        path = directory / f"{stem}.txt"
        path.write_text(call.edge_list(), encoding="utf-8")
        return call.argv(str(path))

    argvs = [argv(call, f"g{i:04d}") for i, call in enumerate(workload.calls)]
    return argvs, argv(workload.warmup, "warmup")
