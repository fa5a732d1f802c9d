"""Combinatorial building blocks: matchings, colorings, T-joins, tree pairs,
cycle packings, special sets, cubic extensions, the deletable arcs of a
circuit (one call of the reachability kernel) and the path splitting used
by the certifying pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import (
    InternalVerificationError,
    NotStronglyConnectedError,
    PreconditionError,
    UnknownEdgeError,
)
from .multigraph import ContractionResult, Multigraph
from .orientation import Orientation, _deletable_among


# -- cycles and packings -----------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """A cycle as matching cyclic vertex/edge sequences.

    edges[i] joins vertices[i] and vertices[(i+1) % len].  A loop is the
    one-vertex, one-edge case; a pair of parallel edges is the two-vertex case.
    """

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]

    @property
    def edge_set(self) -> FrozenSet[int]:
        return frozenset(self.edges)

    @property
    def vertex_set(self) -> FrozenSet[int]:
        return frozenset(self.vertices)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CyclePacking:
    """Vertex-disjoint cycles of a host graph; edge_ids and vertex_set are their unions."""

    cycles: Tuple[Cycle, ...]
    edge_ids: FrozenSet[int] = field(init=False, compare=False, repr=False)
    vertex_set: FrozenSet[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seen: Set[int] = set()
        for c in self.cycles:
            overlap = seen & c.vertex_set
            if overlap:
                raise PreconditionError(f"packing cycles share vertices {sorted(overlap)}")
            seen |= c.vertex_set
        object.__setattr__(self, "edge_ids", frozenset(e for c in self.cycles for e in c.edges))
        object.__setattr__(self, "vertex_set", frozenset(seen))

    def __len__(self) -> int:
        return len(self.cycles)


EMPTY_PACKING = CyclePacking(())


def _canonical_cycle(vertices: List[int], edges: List[int]) -> Cycle:
    """Rotate/flip a closed walk so it starts at the min vertex, smaller side first."""
    if len(vertices) == 1:
        return Cycle((vertices[0],), (edges[0],))
    if len(vertices) == 2:
        u, v = sorted(vertices)
        return Cycle((u, v), tuple(sorted(edges)))
    k = vertices.index(min(vertices))
    vs = vertices[k:] + vertices[:k]
    es = edges[k:] + edges[:k]
    # two directions around the cycle; pick the lexicographically smaller successor
    fwd = vs[1]
    bwd = vs[-1]
    if bwd < fwd:
        # reversing the walk keeps the start; edge i then joins vs[i], vs[i+1]
        vs = [vs[0]] + vs[:0:-1]
        es = es[::-1]
    return Cycle(tuple(vs), tuple(es))


def cycles_from_edge_set(g: Multigraph, edge_ids: Iterable[int]) -> CyclePacking:
    """Split an edge set whose induced degrees are all 0 or 2 into cycles.

    Each cycle is walked once, from its smallest vertex by that vertex's
    first edge, leaving every later vertex by the edge it did not arrive on.
    """
    ids = set(edge_ids)
    deg: Dict[int, int] = {}
    inc: Dict[int, List[int]] = {}
    for e in sorted(ids):
        u, v = g.ends(e)
        if u == v:
            deg[u] = deg.get(u, 0) + 2
            inc.setdefault(u, []).append(e)
            continue
        for x in (u, v):
            deg[x] = deg.get(x, 0) + 1
            inc.setdefault(x, []).append(e)
    bad = [v for v, d in deg.items() if d != 2]
    if bad:
        raise PreconditionError(f"edge set is not a disjoint union of cycles; bad degrees at {sorted(bad)}")
    walked: Set[int] = set()
    cycles = []
    for start in sorted(deg):
        if start in walked:
            continue
        verts, edges = [start], [inc[start][0]]
        y = g.other_end(edges[0], start)
        while y != start:
            verts.append(y)
            a, b = inc[y]
            edges.append(b if a == edges[-1] else a)
            y = g.other_end(edges[-1], y)
        walked.update(verts)
        cycles.append(_canonical_cycle(verts, edges))
    return CyclePacking(tuple(cycles))


def orient_cycle_as_circuit(c: Cycle, g: Multigraph) -> Dict[int, int]:
    """Tails that run the cycle forward along its stored order."""
    tails = {}
    for i, e in enumerate(c.edges):
        if g.is_loop(e):
            continue
        tails[e] = c.vertices[i]
    return tails


def is_circuit_in(d: Orientation, c: Cycle) -> bool:
    nonloop = [(i, e) for i, e in enumerate(c.edges) if not d.graph.is_loop(e)]
    if not nonloop:
        return True
    n = len(c.vertices)
    forward = all(d.tail(e) == c.vertices[i] for i, e in nonloop)
    backward = all(d.tail(e) == c.vertices[(i + 1) % n] for i, e in nonloop)
    return forward or backward


# -- matchings ---------------------------------------------------------------------


def is_matching(g: Multigraph, edge_ids: Iterable[int]) -> bool:
    seen: Set[int] = set()
    for e in edge_ids:
        u, v = g.ends(e)
        if u == v or u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def _matching_search(g: Multigraph) -> Iterator[FrozenSet[int]]:
    """Every perfect matching of g once: the first unmatched vertex, by id,
    takes each of its non-loop edges to an unmatched vertex in edge id order.

    A branch stops as soon as some unmatched vertex has no unmatched
    neighbour left (free[i] counts its edges to unmatched vertices); such a
    branch holds no matching, so the order is that of the search without it.
    """
    verts, by_vertex = g.vertices, g._links()
    index = {v: i for i, v in enumerate(verts)}
    links = [[(e, index[w]) for e, w in by_vertex[v]] for v in verts]  # (edge id, other index)
    free = [len(out) for out in links]
    matched = [False] * len(verts)
    chosen: List[int] = []

    def rec(i: int) -> Iterator[FrozenSet[int]]:
        while i < len(verts) and matched[i]:
            i += 1
        if i == len(verts):
            yield frozenset(chosen)
            return
        for e, j in links[i]:
            if matched[j]:
                continue
            matched[i] = matched[j] = True
            stuck = False
            for _, k in links[i] + links[j]:
                free[k] -= 1
                stuck = stuck or (free[k] == 0 and not matched[k])
            if not stuck:
                chosen.append(e)
                yield from rec(i + 1)
                chosen.pop()
            for _, k in links[i] + links[j]:
                free[k] += 1
            matched[i] = matched[j] = False

    return rec(0) if 0 not in free else iter(())


def perfect_matching(g: Multigraph) -> Optional[FrozenSet[int]]:
    """First perfect matching in deterministic order, or None."""
    if g.num_vertices % 2:
        return None
    return next(_matching_search(g), None)


def enumerate_perfect_matchings(g: Multigraph) -> List[FrozenSet[int]]:
    if g.num_vertices % 2:
        return []
    return list(_matching_search(g))


def proper_3_edge_coloring(g: Multigraph) -> Optional[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]]:
    """Partition the edges of a cubic graph into three perfect matchings.

    Tait's equivalence: a cubic graph is 3-edge-colorable exactly when some
    perfect matching M leaves E - M a union of even cycles, and the other two
    classes then alternate around those cycles.  Returns M and the two
    alternating classes for the first such M in the order of the
    perfect-matching search, or None when there is none (loops make it
    immediately impossible).  On a graph without a coloring, such as a snark,
    every perfect matching is tried, so the worst case stays exponential.
    """
    for v in g.vertices:
        if g.degree(v) != 3:
            raise PreconditionError(f"vertex {v} has degree {g.degree(v)}; coloring needs a cubic graph")
    if any(g.is_loop(e) for e in g.edge_ids):
        return None
    for m in _matching_search(g):
        if not _even_cycles(g, m):
            continue
        rest = frozenset(g.edge_ids) - m
        cycles = cycles_from_edge_set(g, rest).cycles
        a = frozenset(e for c in cycles for e in c.edges[::2])
        return m, a, rest - a
    return None


def _even_cycles(g: Multigraph, matching: FrozenSet[int]) -> bool:
    """True when the edges outside a perfect matching of a loopless cubic graph g form even cycles.

    Walks each cycle once along g._links(), counting its edges; builds no
    cycle objects.
    """
    links = g._links()
    seen: Set[int] = set()
    for start, out in links.items():
        if start in seen:
            continue
        seen.add(start)
        came, x = next((e, w) for e, w in out if e not in matching)
        length = 1
        while x != start:
            seen.add(x)
            for e, w in links[x]:  # leave x by its other edge outside the matching
                if e != came and e not in matching:
                    break
            came, x = e, w
            length += 1
        if length % 2:
            return False
    return True


@dataclass(frozen=True)
class CoverSearchResult:
    """Outcome of the perfect-matching double-cover search."""

    status: str  # "solved" | "no" | "indeterminate"
    matchings: Optional[Tuple[FrozenSet[int], ...]] = None


def berge_fulkerson_cover(g: Multigraph, node_budget: int = 200_000) -> CoverSearchResult:
    """Six perfect matchings (repetition allowed) covering every edge exactly twice.

    Exact multi-cover search over the enumerated perfect matchings with a
    node budget; running out of budget is reported as indeterminate, never
    as a 'no'.  Checks that g is cubic and 2-edge-connected (PreconditionError
    otherwise).
    """
    for v in g.vertices:
        if g.degree(v) != 3:
            raise PreconditionError(f"vertex {v} has degree {g.degree(v)}; need a cubic graph")
    if g.num_vertices >= 2 and g._lambda_upto4() < 2:
        raise PreconditionError("double-cover search needs a 2-edge-connected graph")
    matchings = enumerate_perfect_matchings(g)
    if not matchings:
        return CoverSearchResult("no")
    edges = list(g.edge_ids)
    remaining = {e: 2 for e in edges}
    chosen: List[int] = []
    nodes = 0
    out_of_budget = False

    cover_of: Dict[int, List[int]] = {e: [] for e in edges}
    for i, m in enumerate(matchings):
        for e in m:
            cover_of[e].append(i)

    def rec(picked: int) -> Optional[List[int]]:
        nonlocal nodes, out_of_budget
        nodes += 1
        if nodes > node_budget:
            out_of_budget = True
            return None
        if picked == 6:
            return list(chosen) if all(r == 0 for r in remaining.values()) else None
        open_edges = [e for e in edges if remaining[e] > 0]
        if not open_edges:
            return None
        if any(remaining[e] > 6 - picked for e in open_edges):
            return None
        # branch on the most constrained uncovered edge; repetition is allowed
        target = min(open_edges, key=lambda e: (len(cover_of[e]), e))
        for i in cover_of[target]:
            m = matchings[i]
            if any(remaining[e] == 0 for e in m):
                continue
            for e in m:
                remaining[e] -= 1
            chosen.append(i)
            hit = rec(picked + 1)
            if hit is not None:
                return hit
            chosen.pop()
            for e in m:
                remaining[e] += 1
            if out_of_budget:
                return None
        return None

    answer = rec(0)
    if answer is not None:
        return CoverSearchResult("solved", tuple(matchings[i] for i in answer))
    if out_of_budget:
        return CoverSearchResult("indeterminate")
    return CoverSearchResult("no")


# -- T-joins -----------------------------------------------------------------------


def t_join(g: Multigraph, t: Iterable[int]) -> Optional[FrozenSet[int]]:
    """Any edge set whose odd-degree vertices are exactly t, or None.

    Exists iff every component holds evenly many t-vertices; built by parity
    propagation from the leaves of the graph's BFS forest (_bfs_forest), so
    only forest edges appear in the result.
    """
    tset = set(t)
    for v in tset:
        if not g.has_vertex(v):
            raise UnknownEdgeError(f"t contains unknown vertex {v}")
    parity = {v: (1 if v in tset else 0) for v in g.vertices}
    chosen: Set[int] = set()
    via, comps = g._bfs_forest()
    for order in comps:
        if sum(parity[v] for v in order) % 2:
            return None
        for v in reversed(order[1:]):
            if parity[v]:
                e = via[v]
                chosen.add(e)
                parity[v] = 0
                parity[g.other_end(e, v)] ^= 1
    return frozenset(chosen)


def odd_degree_vertices(g: Multigraph, edge_ids: Iterable[int]) -> FrozenSet[int]:
    deg: Dict[int, int] = {}
    for e in edge_ids:
        u, v = g.ends(e)
        if u == v:
            continue
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return frozenset(v for v, d in deg.items() if d % 2)


# -- spanning tree pairs --------------------------------------------------------------


def _forest_path(g: Multigraph, forest: Set[int], a: int, b: int) -> Optional[List[int]]:
    """Edge ids on the a-b path inside the forest, or None if disconnected."""
    if a == b:
        return []
    inc: Dict[int, List[Tuple[int, int]]] = {}
    for e in forest:
        u, v = g.ends(e)
        inc.setdefault(u, []).append((e, v))
        inc.setdefault(v, []).append((e, u))
    prev: Dict[int, Tuple[int, int]] = {}
    stack = [a]
    seen = {a}
    while stack:
        x = stack.pop()
        for e, y in inc.get(x, ()):
            if y not in seen:
                seen.add(y)
                prev[y] = (e, x)
                if y == b:
                    path = []
                    z = b
                    while z != a:
                        e, z = prev[z]
                        path.append(e)
                    return path
                stack.append(y)
    return None


def two_edge_disjoint_spanning_trees(
    g: Multigraph,
) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Two edge-disjoint spanning trees via matroid-union augmentation.

    Elements are inserted one by one; a failed insertion triggers a
    breadth-first search over circuit exchanges between the two forests.
    Returns None when the graph has no two disjoint spanning trees.
    """
    n = g.num_vertices
    if n == 0:
        return None
    if n == 1:
        return frozenset(), frozenset()
    forests: List[Set[int]] = [set(), set()]

    def try_insert(e: int) -> None:
        start_states = [(e, 0), (e, 1)]
        parent: Dict[Tuple[int, int], Tuple[int, int]] = {}
        seen = set(start_states)
        queue = list(start_states)
        qi = 0
        accept = None
        while qi < len(queue):
            x, i = queue[qi]
            qi += 1
            u, v = g.ends(x)
            path = _forest_path(g, forests[i], u, v)
            if path is None:
                accept = (x, i)
                break
            for y in path:
                nxt = (y, 1 - i)
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (x, i)
                    queue.append(nxt)
        if accept is None:
            return
        x, i = accept
        forests[i].add(x)
        state = accept
        while state in parent:
            px, pi = parent[state]
            # state's element was on the circuit of px inside forest pi
            forests[pi].discard(state[0])
            forests[pi].add(px)
            state = (px, pi)

    for e in g.edge_ids:
        u, v = g.ends(e)
        if u == v:
            continue
        try_insert(e)
        if len(forests[0]) == n - 1 and len(forests[1]) == n - 1:
            break

    for forest in forests:
        if len(forest) != n - 1:
            return None
        sub = g.subgraph_on_edges(forest)
        if not sub.is_connected():
            return None
    if forests[0] & forests[1]:  # pragma: no cover - construction keeps them disjoint
        raise InternalVerificationError("forests overlap")
    return frozenset(forests[0]), frozenset(forests[1])


def partition_into_three_tjoins(
    g: Multigraph,
) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
    """Partition all edges into three T-joins, T = odd-degree vertices.

    T-joins are carved out of two edge-disjoint spanning trees; the leftover
    third part inherits the right parity, and loops land there as well.
    """
    if g.num_vertices >= 2:
        if g._lambda_upto4() < 4:
            raise PreconditionError("T-join partition needs a 4-edge-connected graph")
    t = frozenset(v for v in g.vertices if g.degree(v) % 2)
    trees = two_edge_disjoint_spanning_trees(g)
    if trees is None:
        raise PreconditionError("no two edge-disjoint spanning trees found")
    parts: List[FrozenSet[int]] = []
    for tree in trees:
        sub = g.subgraph_on_edges(tree)
        join = t_join(sub, t)
        if join is None:  # pragma: no cover - parity holds per component by handshake
            raise InternalVerificationError("spanning tree admits no T-join")
        parts.append(join)
    rest = frozenset(set(g.edge_ids) - set(parts[0]) - set(parts[1]))
    parts.append(rest)
    for part in parts:
        if odd_degree_vertices(g, part) != t:
            raise InternalVerificationError("partition part is not a T-join")
    return parts[0], parts[1], parts[2]


# -- special sets ----------------------------------------------------------------------


def special_set(g: Multigraph, p: CyclePacking) -> FrozenSet[int]:
    """Non-packing edges lying on no 3-edge-cut of the packing's quotient.

    An edge whose ends fall into one contracted class is a quotient loop and
    lies on no cut at all; every other edge is tested on the signatures of
    the quotient, which stays 3-edge-connected, with no flow.  Checks that
    g is 3-edge-connected (PreconditionError otherwise).
    """
    if g.num_vertices >= 2 and not g.is_3_edge_connected():
        raise PreconditionError("special sets are defined over 3-edge-connected graphs")
    return _packing_quotient(g, p)[1]


def _packing_quotient(g: Multigraph, p: CyclePacking) -> Tuple[ContractionResult, FrozenSet[int]]:
    """(the contraction of p in g, p's special set read off its quotient)."""
    cr = g.contract(p.edge_ids)
    return cr, frozenset(cr.graph.edge_ids).difference(cr.graph._3cut_edges())


# -- cubic extensions --------------------------------------------------------------------


@dataclass(frozen=True)
class CubicExtension:
    """Cubic host graph expanding every vertex of degree >= 4 into a cycle."""

    host: Multigraph
    classes: Dict[int, Tuple[int, ...]]
    cycle_edges: Dict[int, Tuple[int, ...]]

    @property
    def all_cycle_edges(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for ids in self.cycle_edges.values():
            out |= set(ids)
        return frozenset(out)


def cubic_extension(g: Multigraph) -> CubicExtension:
    """Expand high-degree vertices into cycles, keeping original edge ids.

    Loops of g lie in no cut and get no host edge; a vertex's degree counts
    its non-loop edges only.  Incident edges attach to the class vertices in
    sorted edge-id order around the expansion cycle, so the construction is
    reproducible.  Contracting the expansion cycles recovers g minus its loops.
    """
    nonloop = {v: [e for e in g.incident_edges(v) if not g.is_loop(e)] for v in g.vertices}
    for v, half in nonloop.items():
        if len(half) < 3:
            raise PreconditionError(f"vertex {v} has degree {len(half)} < 3")
    next_vertex = max(g.vertices) + 1
    next_edge = max(g.edge_ids, default=-1) + 1
    classes: Dict[int, Tuple[int, ...]] = {}
    cycle_edges: Dict[int, Tuple[int, ...]] = {}
    attach: Dict[Tuple[int, int], int] = {}  # (vertex, edge) -> host vertex
    host_edges: Dict[int, Tuple[int, int]] = {}

    for v, half in nonloop.items():
        d = len(half)
        if d == 3:
            classes[v] = (v,)
            for e in half:
                attach[(v, e)] = v
            continue
        members = tuple(range(next_vertex, next_vertex + d))
        next_vertex += d
        classes[v] = members
        ring = []
        for k in range(d):
            host_edges[next_edge] = (members[k], members[(k + 1) % d])
            ring.append(next_edge)
            next_edge += 1
        cycle_edges[v] = tuple(ring)
        for k, e in enumerate(half):
            attach[(v, e)] = members[k]

    for e in g.edge_ids:
        u, v = g.ends(e)
        if u != v:
            host_edges[e] = (attach[(u, e)], attach[(v, e)])

    vertices = {w for ws in classes.values() for w in ws}
    host = Multigraph(vertices, host_edges)
    for w in host.vertices:
        if host.degree(w) != 3:  # pragma: no cover - construction is degree-exact
            raise InternalVerificationError(f"host vertex {w} has degree {host.degree(w)}")
    ext = CubicExtension(host, classes, cycle_edges)
    _check_extension_recovers(g, ext)
    return ext


def _check_extension_recovers(g: Multigraph, ext: CubicExtension) -> None:
    cr = ext.host.contract(ext.all_cycle_edges)
    nonloops = {e for e in g.edge_ids if not g.is_loop(e)}
    if set(cr.graph.edge_ids) != nonloops:
        raise InternalVerificationError("extension does not recover the original edge set")
    back = {}
    for v, members in ext.classes.items():
        for w in members:
            back[cr.vertex_map[w]] = v
    for e in nonloops:
        qu, qv = cr.graph.ends(e)
        if {back[qu], back[qv]} != set(g.ends(e)):
            raise InternalVerificationError(f"extension misroutes edge {e}")


# -- circuit arcs and path splitting ---------------------------------------------------------


def find_deletable_arc_on_circuit(d: Orientation, c: Cycle) -> int:
    """The smallest edge id among the deletable arcs of the circuit c of d.

    An arc is deletable when d stays strongly connected without it; one
    call of the reachability kernel names the circuit's deletable arcs.  A
    3-edge-connected host guarantees that one exists: an outside edge at c
    closes, through a directed path and part of c, into a circuit that
    avoids some arc of c; contracting it keeps d strong and shortens c, down
    to a loop, whose arc every contracted circuit avoids.  Checks that d is
    strongly connected (the same kernel call answers), that its graph is
    3-edge-connected and that c is a circuit of d (NotStronglyConnectedError
    or PreconditionError otherwise).
    """
    g = d.graph
    found = _deletable_among(d, c.edges)
    if found is None:
        raise NotStronglyConnectedError("circuit-arc search needs a strongly connected orientation")
    if g.num_vertices >= 2 and not g.is_3_edge_connected():
        raise PreconditionError("circuit-arc search needs a 3-edge-connected host")
    if not is_circuit_in(d, c):
        raise PreconditionError("the given cycle is not a circuit of the orientation")
    if not found:  # pragma: no cover - guaranteed on a 3-edge-connected host
        raise InternalVerificationError("no arc of the circuit is deletable")
    return min(found)


def paths_to_two_matchings(
    g: Multigraph, path_edges: Iterable[int]
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Split a packing of paths into two matchings by alternating along each path."""
    ids = sorted(set(path_edges))
    deg: Dict[int, List[int]] = {}
    for e in ids:
        u, v = g.ends(e)
        if u == v:
            raise PreconditionError(f"loop {e} cannot lie on a path")
        deg.setdefault(u, []).append(e)
        deg.setdefault(v, []).append(e)
    if any(len(es) > 2 for es in deg.values()):
        raise PreconditionError("a component has a vertex of degree 3 or more")
    first: Set[int] = set()
    second: Set[int] = set()
    used: Set[int] = set()
    endpoints = sorted(v for v, es in deg.items() if len(es) == 1)
    for start in endpoints:
        e = deg[start][0]
        if e in used:
            continue
        x = start
        side = 0
        while True:
            used.add(e)
            (first if side == 0 else second).add(e)
            side ^= 1
            x = g.other_end(e, x)
            nxt = [f for f in deg[x] if f not in used]
            if not nxt:
                break
            e = nxt[0]
    if used != set(ids):
        raise PreconditionError("a component is a cycle, not a path")
    if not is_matching(g, first) or not is_matching(g, second):  # pragma: no cover
        raise InternalVerificationError("alternation did not produce matchings")
    return frozenset(first), frozenset(second)
