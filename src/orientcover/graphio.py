"""Input and output formats for multigraphs.

Three formats: whitespace edge lists (multigraphs), graph6 (simple graphs
only), and a canonical JSON shape used by every artifact this package emits.
Parsers enforce a configurable size cap so user input cannot blow up the
exact solvers; internal constructions are not routed through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .errors import FormatError, Graph6FormatError, GraphTooLargeError
from .multigraph import Multigraph


@dataclass(frozen=True)
class SizeCap:
    max_vertices: int = 64
    max_edges: int = 256


DEFAULT_CAP = SizeCap()


def check_cap(g: Multigraph, cap: Optional[SizeCap]) -> Multigraph:
    if cap is not None:
        if g.num_vertices > cap.max_vertices:
            raise GraphTooLargeError(
                f"{g.num_vertices} vertices exceeds cap {cap.max_vertices}")
        if g.num_edges > cap.max_edges:
            raise GraphTooLargeError(f"{g.num_edges} edges exceeds cap {cap.max_edges}")
    return g


# -- edge list ----------------------------------------------------------------


def from_edge_list(text: str, cap: Optional[SizeCap] = DEFAULT_CAP) -> Multigraph:
    """One edge per line, "u v"; '#' starts a comment; loops/parallels fine."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        pairs.append((u, v))
    return check_cap(Multigraph.from_pairs(pairs), cap)


def to_edge_list(g: Multigraph) -> str:
    lines = [f"{u} {v}" for _, u, v in g.edge_multiset()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- graph6 -------------------------------------------------------------------


def from_graph6(text: str, cap: Optional[SizeCap] = DEFAULT_CAP) -> Multigraph:
    """Parse one graph6 line (simple graphs only)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6FormatError("empty graph6 data")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise Graph6FormatError("graph6 byte out of range")
    if data[0] <= 62:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[0] == 63 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise Graph6FormatError("unsupported graph6 size header")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise Graph6FormatError("graph6 body length does not match vertex count")
    bits = []
    for b in body:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    pairs = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                pairs.append((i, j))
            k += 1
    return check_cap(Multigraph.from_pairs(pairs, extra_vertices=range(n)), cap)


def to_graph6(g: Multigraph) -> str:
    """Encode a simple graph; loops or parallel edges are rejected."""
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    seen = set()
    adj = [[0] * n for _ in range(n)]
    for e in g.edge_ids:
        u, v = g.ends(e)
        if u == v:
            raise Graph6FormatError("graph6 cannot encode loops")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise Graph6FormatError("graph6 cannot encode parallel edges")
        seen.add(key)
        adj[index[u]][index[v]] = adj[index[v]][index[u]] = 1
    if n > 62:
        raise Graph6FormatError("graph6 writer supports at most 62 vertices")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(adj[i][j])
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        byte = 0
        for b in bits[k:k + 6]:
            byte = (byte << 1) | b
        out.append(chr(63 + byte))
    return "".join(out)


# -- JSON ----------------------------------------------------------------------


def graph_to_json(g: Multigraph) -> Dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "u": u, "v": v} for e, u, v in g.edge_multiset()],
    }


def graph_from_json(obj: Dict, cap: Optional[SizeCap] = DEFAULT_CAP) -> Multigraph:
    try:
        vertices = [int(v) for v in obj["vertices"]]
        edges = {int(rec["id"]): (int(rec["u"]), int(rec["v"])) for rec in obj["edges"]}
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed graph JSON: {exc}") from None
    if len(edges) != len(obj["edges"]):
        raise FormatError("duplicate edge ids in graph JSON")
    return check_cap(Multigraph(vertices, edges), cap)
