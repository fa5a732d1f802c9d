"""Labeled multigraphs with stable edge identifiers.

Vertices and edges are plain integers.  Edge identifiers survive contraction
and subgraph operations, so an edge set computed in a quotient can be pulled
back to the host graph by identity.  Loops and parallel edges are first-class;
loops contribute 2 to a degree and never appear in any cut.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import UnknownEdgeError, UnknownVertexError

# Edge fates under contraction.
KEPT = "kept"
BECAME_LOOP = "became-loop"
CONTRACTED_AWAY = "contracted-away"


class Multigraph:
    """An undirected multigraph over integer vertex and edge identifiers."""

    __slots__ = ("_vertices", "_edges", "_incidence")

    def __init__(self, vertices: Iterable[int], edges: Mapping[int, Tuple[int, int]]):
        vset = frozenset(int(v) for v in vertices)
        etable: Dict[int, Tuple[int, int]] = {}
        for e in sorted(edges):
            u, v = edges[e]
            if u not in vset or v not in vset:
                raise UnknownVertexError(f"edge {e} references missing vertex ({u}, {v})")
            etable[int(e)] = (int(u), int(v))
        self._vertices = vset
        self._edges = etable
        inc: Dict[int, List[int]] = {v: [] for v in vset}
        for e, (u, v) in etable.items():
            inc[u].append(e)
            if v != u:
                inc[v].append(e)
        self._incidence = {v: tuple(sorted(ids)) for v, ids in inc.items()}

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(sorted(self._vertices))

    @property
    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def has_edge(self, e: int) -> bool:
        return e in self._edges

    def ends(self, e: int) -> Tuple[int, int]:
        try:
            return self._edges[e]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {e}") from None

    def is_loop(self, e: int) -> bool:
        u, v = self.ends(e)
        return u == v

    def other_end(self, e: int, v: int) -> int:
        a, b = self.ends(e)
        if v == a:
            return b
        if v == b:
            return a
        raise UnknownVertexError(f"vertex {v} is not an end of edge {e}")

    def incident_edges(self, v: int) -> Tuple[int, ...]:
        """Edge ids touching v, sorted; a loop appears once."""
        try:
            return self._incidence[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        """Number of edge ends at v; a loop counts twice."""
        d = 0
        for e in self.incident_edges(v):
            d += 2 if self.is_loop(e) else 1
        return d

    def edge_multiset(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple((e, *self._edges[e]) for e in self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(sorted(self._edges.items()))))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.num_vertices}, m={self.num_edges})"

    # -- derived graphs ----------------------------------------------------

    def delete_edges(self, edge_ids: Iterable[int]) -> "Multigraph":
        gone = set(edge_ids)
        for e in gone:
            if e not in self._edges:
                raise UnknownEdgeError(f"unknown edge {e}")
        return Multigraph(self._vertices, {e: uv for e, uv in self._edges.items() if e not in gone})

    def delete_vertex(self, v: int) -> "Multigraph":
        if v not in self._vertices:
            raise UnknownVertexError(f"unknown vertex {v}")
        keep = self._vertices - {v}
        return Multigraph(keep, {e: (a, b) for e, (a, b) in self._edges.items() if a != v and b != v})

    def subgraph_on_edges(self, edge_ids: Iterable[int]) -> "Multigraph":
        """Same vertex set, only the given edges."""
        keep = set(edge_ids)
        for e in keep:
            if e not in self._edges:
                raise UnknownEdgeError(f"unknown edge {e}")
        return Multigraph(self._vertices, {e: self._edges[e] for e in keep})

    def induced_edge_ids(self, xs: Iterable[int]) -> FrozenSet[int]:
        """Edges with both ends inside xs (loops included)."""
        xset = set(xs)
        return frozenset(e for e, (u, v) in self._edges.items() if u in xset and v in xset)

    def contract(self, f: Iterable[int]) -> "ContractionResult":
        """Contract the edge set f: delete each edge and identify its ends.

        Quotient vertex ids are the minimum of each merged class.  Surviving
        edges keep their ids; an edge whose ends were merged together is kept
        as a loop and flagged BECAME_LOOP.
        """
        fset = set(f)
        for e in fset:
            if e not in self._edges:
                raise UnknownEdgeError(f"unknown edge {e}")
        parent = {v: v for v in self._vertices}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in fset:
            u, v = self._edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                # keep the smaller id as the class representative
                if ru < rv:
                    parent[rv] = ru
                else:
                    parent[ru] = rv
        vertex_map = {v: find(v) for v in self._vertices}
        qvertices = set(vertex_map.values())
        qedges: Dict[int, Tuple[int, int]] = {}
        status: Dict[int, str] = {}
        for e, (u, v) in self._edges.items():
            if e in fset:
                status[e] = CONTRACTED_AWAY
                continue
            qu, qv = vertex_map[u], vertex_map[v]
            qedges[e] = (qu, qv)
            if qu == qv and u != v:
                status[e] = BECAME_LOOP
            else:
                status[e] = KEPT
        return ContractionResult(Multigraph(qvertices, qedges), vertex_map, status)

    # -- cuts and connectivity ----------------------------------------------

    def edge_cut(self, xs: Iterable[int]) -> FrozenSet[int]:
        """Non-loop edges with exactly one end in xs."""
        xset = set(xs)
        if not xset or not xset < self._vertices:
            raise UnknownVertexError("edge_cut needs a nonempty proper vertex subset")
        return frozenset(
            e for e, (u, v) in self._edges.items() if (u in xset) != (v in xset)
        )

    def connected_components(self) -> Tuple[FrozenSet[int], ...]:
        """Vertex partition by connectivity; loops are irrelevant."""
        seen: set = set()
        comps: List[FrozenSet[int]] = []
        adj = self._adjacency()
        for root in sorted(self._vertices):
            if root in seen:
                continue
            comp = {root}
            queue = deque([root])
            seen.add(root)
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        queue.append(y)
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        if self.num_vertices <= 1:
            return True
        return len(self.connected_components()) == 1

    def _adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {v: [] for v in self._vertices}
        for u, v in self._edges.values():
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        return adj

    def _capacities(self) -> Dict[int, Dict[int, int]]:
        """Parallel non-loop edges collapsed into integer capacities."""
        cap: Dict[int, Dict[int, int]] = {v: {} for v in self._vertices}
        for u, v in self._edges.values():
            if u == v:
                continue
            cap[u][v] = cap[u].get(v, 0) + 1
            cap[v][u] = cap[v].get(u, 0) + 1
        return cap

    def local_edge_connectivity(self, u: int, v: int) -> int:
        """Maximum number of pairwise edge-disjoint u-v paths (unit capacities)."""
        if u == v:
            raise UnknownVertexError("local edge connectivity needs two distinct vertices")
        if u not in self._vertices or v not in self._vertices:
            raise UnknownVertexError(f"unknown vertex in pair ({u}, {v})")
        cap = self._capacities()
        return _max_flow(cap, u, v)

    def edge_connectivity(self) -> int:
        """Size of a minimum edge cut; 0 for disconnected graphs."""
        if self.num_vertices < 2:
            raise UnknownVertexError("edge connectivity needs at least 2 vertices")
        if not self.is_connected():
            return 0
        verts = self.vertices
        s = verts[0]
        return min(self.local_edge_connectivity(s, v) for v in verts[1:])

    def is_essentially_4ec(self) -> bool:
        """3-edge-connected with every 3-edge-cut isolating a single vertex.

        Tested by the edge-pair merge method: a nontrivial 3-cut forces an
        edge inside each side, so it shows up as local connectivity exactly 3
        between the merged ends of some vertex-disjoint edge pair.
        """
        if self.num_vertices >= 2 and self.edge_connectivity() < 3:
            return False
        return self.find_nontrivial_3cut() is None

    def find_nontrivial_3cut(self) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """One (side, cut edge ids) with d(side) = 3 and both sides >= 2 vertices.

        Returns None if no such cut exists.  Assumes the graph is
        3-edge-connected; on smaller cuts the answer is still a valid cut of
        size 3 if one exists.
        """
        pairs = set()
        nonloops = [e for e in self._edges if not self.is_loop(e)]
        for i, e in enumerate(nonloops):
            a, b = self._edges[e]
            for f in nonloops[i + 1:]:
                c, d = self._edges[f]
                if a in (c, d) or b in (c, d):
                    continue
                key = (min(a, b), max(a, b), min(c, d), max(c, d))
                if key in pairs:
                    continue
                pairs.add(key)
                cap = self._capacities()
                s = _merge_nodes(cap, a, b)
                t = _merge_nodes(cap, c, d)
                value = _max_flow(cap, s, t)
                if value == 3:
                    # the residual holds original vertex ids; b rides with a
                    side = _residual_side(cap, s)
                    xs = frozenset(side | {b})
                    cut = self.edge_cut(xs)
                    if len(cut) != 3:  # pragma: no cover - guarded by flow theory
                        raise AssertionError("extracted cut does not match flow value")
                    return xs, cut
        return None

    # -- bridges and 2-edge-connected pieces ---------------------------------

    def bridges(self) -> Tuple[int, ...]:
        """Edge ids whose deletion disconnects their component."""
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        result: List[int] = []
        counter = 0
        inc = {
            v: [(e, self.other_end(e, v)) for e in self.incident_edges(v) if not self.is_loop(e)]
            for v in self._vertices
        }
        for root in sorted(self._vertices):
            if root in disc:
                continue
            stack = [(root, -1, iter(inc[root]))]
            disc[root] = low[root] = counter
            counter += 1
            while stack:
                v, via, it = stack[-1]
                advanced = False
                for e, w in it:
                    if e == via:
                        continue
                    if w not in disc:
                        disc[w] = low[w] = counter
                        counter += 1
                        stack.append((w, e, iter(inc[w])))
                        advanced = True
                        break
                    low[v] = min(low[v], disc[w])
                if advanced:
                    continue
                stack.pop()
                if stack:
                    parent, pe, _ = stack[-1]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        result.append(via)
        return tuple(sorted(result))

    def maximal_2ec_subgraphs(self) -> Tuple[FrozenSet[int], ...]:
        """Vertex classes of the maximal 2-edge-connected subgraphs.

        Equivalently the components left after deleting every bridge;
        singleton classes are allowed.
        """
        return self.delete_edges(self.bridges()).connected_components()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Sequence[Tuple[int, int]], extra_vertices: Iterable[int] = ()) -> "Multigraph":
        """Edges from a list of endpoint pairs; ids are positions in the list."""
        vertices = set(extra_vertices)
        for u, v in pairs:
            vertices.add(u)
            vertices.add(v)
        return Multigraph(vertices, {i: (u, v) for i, (u, v) in enumerate(pairs)})


@dataclass(frozen=True)
class ContractionResult:
    """Quotient graph together with the vertex and edge bookkeeping."""

    graph: Multigraph
    vertex_map: Dict[int, int]
    edge_status: Dict[int, str]


# -- flow kernel -------------------------------------------------------------


def _merge_nodes(cap: Dict[int, Dict[int, int]], a: int, b: int) -> int:
    """Merge node b into a inside a capacity map; returns a."""
    nbrs = cap.pop(b)
    for x, c in nbrs.items():
        if x == a or x == b:
            continue
        cap[a][x] = cap[a].get(x, 0) + c
        cap[x][a] = cap[x].get(a, 0) + c
        cap[x].pop(b, None)
    cap[a].pop(b, None)
    return a


def _max_flow(cap: Dict[int, Dict[int, int]], s: int, t: int) -> int:
    """Edmonds-Karp on an integer capacity map, mutating it into a residual."""
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            x = queue.popleft()
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            return flow
        # unit-style bottleneck
        bottleneck = None
        y = t
        while parent[y] is not None:
            x = parent[y]
            c = cap[x][y]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            y = x
        y = t
        while parent[y] is not None:
            x = parent[y]
            cap[x][y] -= bottleneck
            cap[y][x] = cap[y].get(x, 0) + bottleneck
            y = x
        flow += bottleneck


def _residual_side(cap: Dict[int, Dict[int, int]], s: int) -> set:
    """Vertices reachable from s in the residual left by _max_flow."""
    side = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y, c in cap[x].items():
            if c > 0 and y not in side:
                side.add(y)
                queue.append(y)
    return side
