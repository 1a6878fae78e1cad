"""Shared test utilities: random instance generators and independent checkers.

The checkers here are deliberately written from the definitions, not by
calling the code under test, so they can serve as oracles.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import deque
from itertools import permutations, product

import locinv.synthesizer as synth
from locinv.cli import main
from locinv.graph_core import BicoloredGraph, Graph, component_masks, iter_bits, mask_of, reachable_mask, upper_rows


# -- random instances ----------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """A uniform random tree plus extra random edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return Graph.from_edges(n, edges)


def random_odd_tree(rng: random.Random, n: int) -> tuple[Graph, int]:
    """Random tree with all degrees odd, on n (even) relabeled vertices, and a random root.

    Grown by repeatedly attaching two fresh leaves to a random vertex,
    which preserves every degree parity; any odd tree arises this way.
    """
    assert n >= 2 and n % 2 == 0
    edges = [(0, 1)]
    size = 2
    while size < n:
        host = rng.randrange(size)
        edges.append((host, size))
        edges.append((host, size + 1))
        size += 2
    relabel = list(range(n))
    rng.shuffle(relabel)
    shuffled = [(relabel[u], relabel[v]) for u, v in edges]
    return Graph.from_edges(n, shuffled), rng.randrange(n)


def random_coloring(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) for _ in range(n))


# -- independent oracles ---------------------------------------------------


def local_complement_reference(g: Graph, a: int) -> Graph:
    """Second implementation of local complementation, pair by pair."""
    nb = set(g.neighbors(a))
    edges = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            has = g.has_edge(u, v)
            if u in nb and v in nb:
                has = not has
            if has:
                edges.add((u, v))
    return Graph.from_edges(g.n, edges)


def complement_rows_reference(rows: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Rows after local complementation at ``a``, toggling one neighbour pair at a time."""
    nb = [u for u in range(len(rows)) if (rows[a] >> u) & 1]
    out = list(rows)
    for i, u in enumerate(nb):
        for v in nb[i + 1 :]:
            out[u] ^= 1 << v
            out[v] ^= 1 << u
    return tuple(out)


def replay_reference(rows, w):
    """``graph_core.replay`` as one lowest-bit peel per letter, without don't-care diagonals.

    Every letter is replayed, also inside the alternating runs that
    ``replay`` takes in closed form.  Each neighbour ``u`` of a letter ``a``
    gets ``rows[a]`` with its own bit ``u`` taken out, so no row ever has a
    diagonal bit.  Returns the same (flip mask, final rows) pair and raises
    the same :class:`ValueError` on a letter outside ``0..n-1``.
    """
    n = len(rows)
    out = list(rows)
    flipped = 0
    for a in w:
        if not (0 <= a < n):
            raise ValueError(f"word letter {a} outside 0..{n - 1}")
        nb = out[a]
        flipped ^= nb
        m = nb
        while m:
            low = m & -m
            out[low.bit_length() - 1] ^= nb ^ low
            m ^= low
    return flipped, tuple(out)


def induced_subgraph(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph of ``g`` induced by ``s``, relabelled to ``0..|s|-1``.

    Returns the subgraph and the sorted original ids: new vertex ``i`` is
    ``ids[i]``.
    """
    ids = tuple(sorted(set(s)))
    edges = [
        (i, j)
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if g.has_edge(ids[i], ids[j])
    ]
    return Graph.from_edges(len(ids), edges), ids


def tree_adjacency(rows, tree: int) -> dict[int, set[int]]:
    """Neighbour sets of the subgraph of ``rows`` induced by the vertex mask ``tree``."""
    return {v: set(iter_bits(rows[v] & tree)) for v in iter_bits(tree)}


def tree_depths(adj: dict[int, set[int]], root: int) -> dict[int, int]:
    """Distance from ``root`` of every vertex reachable in the neighbour sets ``adj``."""
    depth = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)
    return depth


def unpack_state(key: int, n: int) -> BicoloredGraph:
    """Bicolored graph of a packed oracle state, read off its bit layout.

    Row v of the adjacency matrix is at bits ``[n*v, n*v + n)``; bit
    ``n*n + v`` set means vertex v is colored -1.
    """
    full = (1 << n) - 1
    g = Graph(n, tuple((key >> (n * v)) & full for v in range(n)))
    cmask = key >> (n * n)
    return BicoloredGraph(g, tuple(-1 if (cmask >> v) & 1 else 1 for v in range(n)))


def min_flip_word_reference(b: BicoloredGraph, target: BicoloredGraph):
    """Tuple-state breadth-first search, the oracle before packed states.

    States are (adjacency rows, color mask) pairs and every move rebuilds
    the rows.  Frontier order and letter order match
    :func:`locinv.oracle.min_flip_word`, so both must return the same
    ``(length, witness)``, or None when the target is unreachable.
    """
    n = b.graph.n

    def cmask(coloring):
        return sum(1 << v for v, c in enumerate(coloring) if c == -1)

    start = (b.graph.rows, cmask(b.coloring))
    goal = (target.graph.rows, cmask(target.coloring))
    if start == goal:
        return (0, ())
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            rows, colors = state
            for a in range(n):
                child = (complement_rows_reference(rows, a), colors ^ rows[a])
                if child in parent:
                    continue
                parent[child] = (state, a)
                if child == goal:
                    letters = []
                    while parent[child] is not None:
                        child, letter = parent[child]
                        letters.append(letter)
                    return (len(letters), tuple(reversed(letters)))
                nxt.append(child)
        frontier = nxt
    return None


def _bit_remaps(n: int) -> list[tuple[int, ...]]:
    """For each vertex permutation, where each upper-triangle bit lands."""
    index = {}
    k = 0
    for j in range(1, n):
        for i in range(j):
            index[(i, j)] = k
            k += 1
    remaps = []
    for perm in permutations(range(n)):
        table = [0] * k
        for (i, j), src in index.items():
            pi, pj = perm[i], perm[j]
            table[src] = index[(pi, pj) if pi < pj else (pj, pi)]
        remaps.append(tuple(table))
    return remaps


def connected_graphs_reference(n: int):
    """Connected graphs on ``n`` vertices by brute force, one per class.

    Every packed upper-triangle mask is tried in ascending order, and a
    connected one is kept when no vertex permutation makes it smaller.
    This is the enumerator :func:`locinv.oracle.connected_graphs` replaced;
    it needs n! permutations per mask, so it is for n <= 6.
    """
    if n <= 1:
        yield Graph(n, (0,) * n)
        return
    remaps = _bit_remaps(n)
    nbits = n * (n - 1) // 2
    full = (1 << n) - 1
    for bits in range(1 << nbits):
        rows = upper_rows(n, bits)
        if reachable_mask(rows, 0, full) != full:
            continue
        smaller = False
        for table in remaps:
            permuted = 0
            m = bits
            while m:
                low = m & -m
                permuted |= 1 << table[low.bit_length() - 1]
                m ^= low
            if permuted < bits:
                smaller = True
                break
        if not smaller:
            yield Graph(n, tuple(rows))


def vertex_gadget_reference(rows, a: int, allowed: int):
    """``_vertex_gadget`` with the path branch as a scan over every candidate b."""
    row_a = rows[a]
    nb = row_a & allowed
    for b in iter_bits(nb):
        third = rows[b] & nb & ~((2 << b) - 1)
        if third:
            return synth.gadget_triangle(a, b, (third & -third).bit_length() - 1)
    for b in iter_bits(allowed & ~row_a & ~(1 << a)):
        common = rows[b] & nb
        if common:
            return synth.gadget_p3_end(a, b, (common & -common).bit_length() - 1)
    return None


def flip_set_word_reference(rows, s: int):
    """``_flip_set_word`` with the isolate pairing as a scan over the later pending vertices.

    The pieces of two or three vertices are spelled out from the rule:
    a whole K2 takes its pair, a pair with an outside neighbor the edge
    gadget, a triangle p < q < r the word ``p,q,p,q,r,q,r,p,r`` and a path
    with ends a < b and centre c the word ``a,c,a,b,a,b,c,b,c``.
    """
    parts: list[int] = []
    isolates = 0
    for comp in component_masks(rows, s):
        vs = list(iter_bits(comp))
        if len(vs) == 1:
            isolates |= comp
        elif len(vs) == 2:
            a, b = vs
            whole = rows[a] == 1 << b and rows[b] == 1 << a
            parts.extend((a, b) if whole else synth.gadget_edge(a, b))
        elif len(vs) == 3:
            centres = [c for c in vs if all((rows[c] >> x) & 1 for x in vs if x != c)]
            if len(centres) == 3:
                p, q, r = vs
                parts.extend((p, q, p, q, r, q, r, p, r))
            else:
                (c,) = centres
                a, b = (x for x in vs if x != c)
                parts.extend((a, c, a, b, a, b, c, b, c))
        elif len(vs) % 2 == 0:
            parts.extend(synth._even_subgraph_word(rows, comp, vs[0]))
        else:
            parts.extend(synth._odd_subgraph_word(rows, comp))
    pending = 0
    for u in iter_bits(isolates):
        x = synth._pendant_neighbor(rows, u)
        if x is None:
            pending |= 1 << u
        else:
            parts.append(x)
    while pending:
        u = (pending & -pending).bit_length() - 1
        pending ^= 1 << u
        for v in iter_bits(pending):
            common = rows[u] & rows[v]
            if common:
                pending ^= 1 << v
                parts.extend(synth.gadget_p3_ends(u, v, (common & -common).bit_length() - 1))
                break
        else:
            parts.extend(vertex_gadget_reference(rows, u, (1 << len(rows)) - 1))
    return tuple(parts)


def perfect_forest_reference(g: Graph) -> list[int]:
    """Edge-set perfect forest, the construction before bitmask rows, one vertex mask per tree.

    Grows a BFS tree from vertex 0 on dict adjacency, keeps a vertex's
    parent edge when its degree so far is even (children first), then
    swaps chords on edge tuples: after every swap the scan restarts at the
    component with the smallest vertex and takes the lexicographically
    first chord.  :func:`locinv.partitioner.perfect_forest` on the whole
    vertex set must return the same forest.  The start is checked to be
    acyclic, which is why the cycle pass this construction once had never
    removed an edge.
    """
    n = g.n
    parent = {0: None}
    order = [0]
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in iter_bits(g.rows[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    assert len(order) == n, "reference needs a connected graph"
    fdeg = [0] * n
    fset: set[tuple[int, int]] = set()
    for v in reversed(order[1:]):
        if fdeg[v] % 2 == 0:
            p = parent[v]
            fset.add((min(v, p), max(v, p)))
            fdeg[v] += 1
            fdeg[p] += 1
    assert all(d % 2 == 1 for d in fdeg), "odd start"

    def forest_components():
        adj: dict[int, list[int]] = {}
        for u, v in fset:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen: set[int] = set()
        comps = []
        for start in sorted(adj):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        queue.append(y)
            comps.append((sorted(comp), adj))
        return comps

    assert len(fset) == n - len(forest_components()), "the odd start must be a forest"

    while True:
        for comp, adj in forest_components():
            sm = sum(1 << v for v in comp)
            chord = next(
                (
                    (u, v)
                    for u in comp
                    for v in iter_bits(g.rows[u] & sm & ~((1 << (u + 1)) - 1))
                    if (u, v) not in fset
                ),
                None,
            )
            if chord is None:
                continue
            u, v = chord
            prev = {u: None}
            queue = deque([u])
            while v not in prev:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in prev:
                        prev[y] = x
                        queue.append(y)
            x = v
            while prev[x] is not None:
                fset.discard((min(x, prev[x]), max(x, prev[x])))
                x = prev[x]
            fset.add(chord)
            break
        else:
            break

    return [mask_of(comp) for comp, _ in forest_components()]


def p3_partition_reference(rows, tree: int, root: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Dict-adjacency P3 partition, the construction before bitmask rows.

    The odd tree is the subgraph of ``rows`` induced by the vertex mask
    ``tree``.  Each round recomputes the leaves and peels two leaf children
    off the deepest vertex next to a leaf (smallest id on ties), until the
    root and one neighbour remain.  :func:`locinv.partitioner.p3_partition`
    must return the same triples and the same partner of the root.
    """
    adj = tree_adjacency(rows, tree)
    n = len(adj)
    assert n >= 2 and n % 2 == 0, "reference needs an even vertex count"
    assert all(len(nb) % 2 == 1 for nb in adj.values()), "reference needs an odd tree"
    depth = tree_depths(adj, root)
    triples = []
    while len(adj) > 2:
        leaves = {x for x, nb in adj.items() if len(nb) == 1}
        candidates = [x for x, nb in adj.items() if nb & leaves]
        v = min(candidates, key=lambda x: (-depth[x], x))
        leaf_children = sorted(
            u for u in adj[v] if u in leaves and depth[u] == depth[v] + 1
        )
        assert len(leaf_children) >= 2, "deepest leaf-neighbor must own two leaf children"
        u, w = leaf_children[0], leaf_children[1]
        triples.append((u, v, w))
        for x in (u, w):
            adj[v].discard(x)
            del adj[x]
    (a, b) = sorted(adj)
    assert root in (a, b), "the root survives every peeling round"
    return tuple(triples), b if a == root else a


def labeled_odd_trees(n: int):
    """Every odd tree on the labeled vertices 0..n-1, as a sorted edge tuple.

    A vertex's degree is one more than its count in the tree's Prüfer
    sequence, so odd trees are exactly the sequences in which every vertex
    occurs an even number of times.
    """
    if n == 2:
        yield ((0, 1),)
        return
    for seq in product(range(n), repeat=n - 2):
        if any(seq.count(v) % 2 for v in set(seq)):
            continue
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (x for x in range(n) if degree[x] == 1)
        edges.append((u, w))
        yield tuple(sorted(edges))


def _tree_code(n: int, edges) -> str:
    """Canonical string of a free tree: the least rooted encoding over all roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def code(x: int, parent: int) -> str:
        return "(" + "".join(sorted(code(y, x) for y in adj[x] if y != parent)) + ")"

    return min(code(r, -1) for r in range(n))


def odd_tree_shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """One labeled representative of every odd tree on n vertices up to isomorphism.

    Grown from K2 by hanging two fresh leaves on one vertex, which reaches
    every odd tree (see :func:`random_odd_tree`).
    """
    level = {_tree_code(2, [(0, 1)]): ((0, 1),)}
    for size in range(4, n + 1, 2):
        grown: dict[str, tuple[tuple[int, int], ...]] = {}
        for edges in level.values():
            for host in range(size - 2):
                bigger = edges + ((host, size - 2), (host, size - 1))
                grown.setdefault(_tree_code(size, bigger), bigger)
        level = grown
    return list(level.values())


def check_p3_partition(rows, tree: int, root: int, part) -> None:
    """Validate the partition ``(p3s, v)`` of the odd tree on the mask ``tree``, from the definitions."""
    p3s, partner = part
    adj = tree_adjacency(rows, tree)
    assert len(p3s) == (len(adj) - 2) // 2, "triple count must be (n-2)/2"

    used = []
    for end_a, center, end_b in p3s:
        used.append(tuple(sorted((end_a, center))))
        used.append(tuple(sorted((center, end_b))))
    used.append(tuple(sorted((root, partner))))
    assert len(used) == len(set(used)), "pieces reuse an edge"
    edges = sorted((u, v) for u, nb in adj.items() for v in nb if u < v)
    assert sorted(set(used)) == edges, "pieces must cover E(T) exactly"

    depth = tree_depths(adj, root)
    for end_a, center, end_b in p3s:
        assert depth[end_a] == depth[center] + 1, "triple end must be a child of its center"
        assert depth[end_b] == depth[center] + 1, "triple end must be a child of its center"

    end_count = dict.fromkeys(adj, 0)
    for end_a, _, end_b in p3s:
        end_count[end_a] += 1
        end_count[end_b] += 1
    for v in (root, partner):
        end_count[v] += 1
    assert all(c == 1 for c in end_count.values()), "each vertex ends exactly one piece"


def check_perfect_forest(g: Graph, forest: list[int]) -> None:
    """Validate a forest of vertex masks: spanning, disjoint, and each mask inducing an odd tree."""
    seen = 0
    for tree in forest:
        assert not tree & seen, "trees must be vertex-disjoint"
        seen |= tree
        vs = [v for v in range(g.n) if (tree >> v) & 1]
        adj = {u: {v for v in vs if g.has_edge(u, v)} for u in vs}
        assert all(len(nb) % 2 == 1 for nb in adj.values()), "all degrees must be odd"
        assert sum(map(len, adj.values())) == 2 * (len(adj) - 1), "tree edge count"
        assert len(tree_depths(adj, min(adj))) == len(adj), "tree must be connected"
    assert seen == (1 << g.n) - 1, "forest must span all vertices"


def cli_help_text() -> str:
    """``locinv --help`` and each subcommand's ``--help``, each under its command line.

    argparse wraps to the ``COLUMNS`` environment variable; ``data/help.txt``
    is rendered with ``COLUMNS=80``.  Regenerate it (only when a change of
    help text is intended and stated) with ``COLUMNS=80 PYTHONPATH=src:tests
    python -c 'import helpers; print(helpers.cli_help_text(), end="")' >
    tests/data/help.txt``.
    """
    parts = []
    for cmd in ([], ["reverse"], ["transform"], ["apply"], ["exact"], ["survey"], ["gadget"]):
        argv = [*cmd, "--help"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            main(argv)
        parts.append(f"$ locinv {' '.join(argv)}\n{out.getvalue()}")
    return "\n".join(parts)
