"""Independent checks used by the benchmark's output checker.

Plain Python over edge lists; nothing here imports the package.  An
orientation is a map edge index -> tail vertex.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from inputs import adjacency, bridges, has_triangle, vertex_set

Tails = Dict[int, int]


def _arcs(pairs: Sequence[Tuple[int, int]], tails: Tails) -> List[Tuple[int, int, int]]:
    """(edge index, tail, head) for every non-loop edge."""
    out = []
    for i, (u, v) in enumerate(pairs):
        if u != v:
            t = tails[i]
            out.append((i, t, v if t == u else u))
    return out


def _reach(vertices: Sequence[int], arcs: Sequence[Tuple[int, int, int]], src: int,
           banned: int = -1, backward: bool = False) -> Set[int]:
    nxt: Dict[int, List[int]] = {v: [] for v in vertices}
    for i, t, h in arcs:
        if i != banned:
            if backward:
                nxt[h].append(t)
            else:
                nxt[t].append(h)
    seen = {src}
    stack = [src]
    while stack:
        x = stack.pop()
        for y in nxt[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def valid_orientation(pairs: Sequence[Tuple[int, int]], tails: Tails) -> bool:
    """Every non-loop edge, and nothing else, carries one of its own ends as tail."""
    want = {i for i, (u, v) in enumerate(pairs) if u != v}
    if set(tails) != want:
        return False
    return all(tails[i] in pairs[i] for i in want)


def strongly_connected(vertices: Sequence[int], pairs: Sequence[Tuple[int, int]],
                       tails: Tails, banned: int = -1) -> bool:
    arcs = _arcs(pairs, tails)
    root = vertices[0]
    n = len(vertices)
    return (len(_reach(vertices, arcs, root, banned)) == n
            and len(_reach(vertices, arcs, root, banned, backward=True)) == n)


def deletable_arcs(vertices: Sequence[int], pairs: Sequence[Tuple[int, int]],
                   tails: Tails) -> Set[int]:
    """Edges whose arc can be deleted from a strong orientation keeping it strong."""
    return {i for i in range(len(pairs))
            if pairs[i][0] == pairs[i][1] or strongly_connected(vertices, pairs, tails, banned=i)}


def deletable_set(vertices: Sequence[int], pairs: Sequence[Tuple[int, int]], tails: Tails,
                  edges: Sequence[int]) -> bool:
    """The orientation is strong and stays strong after deleting any one arc of `edges`."""
    if not strongly_connected(vertices, pairs, tails):
        return False
    return all(pairs[e][0] == pairs[e][1] or strongly_connected(vertices, pairs, tails, banned=e)
               for e in edges)


# -- cuts -----------------------------------------------------------------------------


def has_3_edge_cut(pairs: Sequence[Tuple[int, int]]) -> bool:
    """Some set of three edges disconnects the graph (input: 3-edge-connected)."""
    degree: Dict[int, int] = {}
    for u, v in pairs:
        if u != v:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    if min(degree.values()) == 3:
        return True
    verts = vertex_set(pairs)
    m = len(pairs)
    return any(bridges(verts, pairs, frozenset((i, j)))
               for i in range(m) for j in range(i + 1, m))


def frank_lower_bound(pairs: Sequence[Tuple[int, int]]) -> int:
    """2 when a 3-edge cut exists, else 1 (input: 3-edge-connected)."""
    return 2 if has_3_edge_cut(pairs) else 1


def nontrivial_3_cut(pairs: Sequence[Tuple[int, int]]) -> bool:
    """A 3-edge cut with at least two vertices on each side exists."""
    verts = vertex_set(pairs)
    if cubic(pairs) and len(verts) >= 6 and has_triangle(pairs):
        return True  # in a cubic graph a triangle's boundary is a 3-edge cut
    m = len(pairs)
    for i in range(m):
        for j in range(i + 1, m):
            skip = frozenset((i, j))
            for k in bridges(verts, pairs, skip) or ():
                rest = [(e, u, v) for e, (u, v) in enumerate(pairs) if e not in skip and e != k]
                side = _reach(verts, rest + [(e, v, u) for e, u, v in rest], verts[0])
                if 2 <= len(side) <= len(verts) - 2:
                    return True
    return False


def three_edge_colourable(pairs: Sequence[Tuple[int, int]]) -> bool:
    """Backtracking proper 3-edge-colouring of a small cubic graph."""
    incident: Dict[int, List[int]] = {}
    for i, (u, v) in enumerate(pairs):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    colour: List[Optional[int]] = [None] * len(pairs)

    def rec(i: int) -> bool:
        if i == len(pairs):
            return True
        used = {colour[j] for x in pairs[i] for j in incident[x] if colour[j] is not None}
        for c in range(3):
            if c not in used:
                colour[i] = c
                if rec(i + 1):
                    return True
        colour[i] = None
        return False

    return rec(0)


def cubic(pairs: Sequence[Tuple[int, int]]) -> bool:
    adj = adjacency(vertex_set(pairs), pairs)
    return all(len(a) == 3 for a in adj.values()) and all(u != v for u, v in pairs)
