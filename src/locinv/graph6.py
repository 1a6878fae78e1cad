"""The graph6 text encoding for graphs with at most 62 vertices.

Single-byte order only: byte 0 is 63 + n, and byte k + 1 is 63 plus bits
``[6k, 6k + 6)`` of the packed upper triangle (:meth:`Graph.upper_bits`,
pair order x01, x02, x12, x03, ...) reversed, first pair most significant.
Padding bits must be zero.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graph_core import Graph

MAX_N = 62

# entry g: the six bits of g in reverse order; the table is its own inverse
_REVERSED = tuple(int(f"{g:06b}"[::-1], 2) for g in range(64))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; byte offsets in errors are 0-based."""
    text = line.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 line", offset=0)
    for k, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"byte {ord(ch)} outside printable range 63..126", offset=k)
    n = ord(text[0]) - 63
    if n > MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds single-byte limit {MAX_N}", offset=0)
    nbits = n * (n - 1) // 2
    body_len = (nbits + 5) // 6
    if len(text) - 1 != body_len:
        bad = len(text) if len(text) - 1 < body_len else body_len + 1
        raise Graph6Error(
            f"expected {body_len} adjacency bytes for n={n}, got {len(text) - 1}",
            offset=bad,
        )
    bits = 0
    for k, ch in enumerate(text[1:]):
        bits |= _REVERSED[ord(ch) - 63] << 6 * k
    if bits >> nbits:  # only the last byte reaches past the pairs
        raise Graph6Error("nonzero padding bit", offset=len(text) - 1)
    return Graph.from_upper_bits(n, bits)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    if g.n > MAX_N:
        raise ValueError(f"vertex count {g.n} exceeds single-byte limit {MAX_N}")
    bits = g.upper_bits()
    groups = range((g.n * (g.n - 1) // 2 + 5) // 6)
    return chr(63 + g.n) + "".join(chr(63 + _REVERSED[(bits >> 6 * k) & 63]) for k in groups)
