"""Labeled multigraphs with stable edge identifiers.

Vertices and edges are plain integers.  Edge identifiers survive contraction
and subgraph operations, so an edge set computed in a quotient can be pulled
back to the host graph by identity.  Loops and parallel edges are first-class;
loops contribute 2 to a degree and never appear in any cut.

All values are immutable after construction and every operation is a pure
function of its inputs.  Derived structure (links, the BFS forest, cycle-space
signatures, small-lambda values, the flow-equivalent tree and the 3-edge cuts)
is computed once per graph, on first use, and kept on it as immutable values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import UnknownEdgeError, UnknownVertexError

def _cached(method: Callable) -> Callable:
    """A derived value of a graph, built on first use and kept in its _memo.

    The graph is immutable, so the value never goes stale; it must be
    immutable too (tuples, frozensets, MappingProxyType), since every caller
    shares it.
    """
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        try:
            return self._memo[name]
        except KeyError:
            value = self._memo[name] = method(self)
            return value

    return cached


class Multigraph:
    """An undirected multigraph over integer vertex and edge identifiers."""

    __slots__ = ("_vertices", "_edges", "_incidence", "_memo")

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
        self._memo: Dict[str, object] = {}

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
        return sum(2 if self.is_loop(e) else 1 for e in self.incident_edges(v))

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
        as a loop.
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
                parent[max(ru, rv)] = min(ru, rv)  # the smaller id represents the class
        vertex_map = {v: find(v) for v in self._vertices}
        qvertices = set(vertex_map.values())
        qedges = {e: (vertex_map[u], vertex_map[v])
                  for e, (u, v) in self._edges.items() if e not in fset}
        return ContractionResult(Multigraph(qvertices, qedges), vertex_map)

    # -- cuts and connectivity ----------------------------------------------

    def edge_cut(self, xs: Iterable[int]) -> FrozenSet[int]:
        """Non-loop edges with exactly one end in xs."""
        xset = set(xs)
        if not xset or not xset < self._vertices:
            raise UnknownVertexError("edge_cut needs a nonempty proper vertex subset")
        return frozenset(e for e, (u, v) in self._edges.items() if (u in xset) != (v in xset))

    def connected_components(self) -> Tuple[FrozenSet[int], ...]:
        """Vertex partition by connectivity; loops are irrelevant."""
        return tuple(frozenset(comp) for comp in self._bfs_forest()[1])

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    @_cached
    def _links(self) -> Mapping[int, Tuple[Tuple[int, int], ...]]:
        """(edge id, other end) for each non-loop edge at each vertex, by edge id."""
        links: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self._vertices}
        for e, (u, v) in self._edges.items():
            if u != v:
                links[u].append((e, v))
                links[v].append((e, u))
        return MappingProxyType({v: tuple(out) for v, out in links.items()})

    @_cached
    def _bfs_forest(self) -> Tuple[Mapping[int, Optional[int]], Tuple[Tuple[int, ...], ...]]:
        """(the edge that reached each vertex, each component's vertices in BFS order).

        A breadth-first tree grows from each unreached vertex in turn, by id,
        along _links(); its root is reached by None.
        """
        links = self._links()
        via: Dict[int, Optional[int]] = {}
        comps: List[Tuple[int, ...]] = []
        for root in self.vertices:
            if root in via:
                continue
            via[root] = None
            queue = [root]
            for x in queue:
                for e, y in links[x]:
                    if y not in via:
                        via[y] = e
                        queue.append(y)
            comps.append(tuple(queue))
        return MappingProxyType(via), tuple(comps)

    def _network(self) -> Tuple[Dict[int, int], "_Network"]:
        """The flow network of the non-loop edges, with the index of each vertex.

        Vertex i of the network is self.vertices[i].
        """
        index = {v: i for i, v in enumerate(self.vertices)}
        return index, _Network(len(index), ((index[u], index[v]) for u, v in self._edges.values()))

    def local_edge_connectivity(self, u: int, v: int) -> int:
        """Maximum number of pairwise edge-disjoint u-v paths (unit capacities)."""
        if u == v:
            raise UnknownVertexError("local edge connectivity needs two distinct vertices")
        if u not in self._vertices or v not in self._vertices:
            raise UnknownVertexError(f"unknown vertex in pair ({u}, {v})")
        index, net = self._network()
        return net.max_flow((index[u],), (index[v],))[0]

    def edge_connectivity(self) -> int:
        """Size of a minimum edge cut; 0 for disconnected graphs.

        Values up to 3 are those of _lambda_upto4, with no flow.  Above 3,
        the least weight on the flow-equivalent tree of _flow_tree.
        """
        low = self._lambda_upto4()
        return low if low < 4 else min(self._flow_tree().values())

    @_cached
    def _flow_tree(self) -> Mapping[Tuple[int, int], int]:
        """Edge connectivity on the n - 1 edges of a flow-equivalent tree, keyed (u < v).

        Gusfield's method (Gusfield 1990, after Gomory and Hu 1961): every vertex
        but the smallest starts as a child of the smallest; each child s in turn
        takes one flow to its parent t, and the later children of t that the
        residual still reaches from s move under s.  For every vertex pair the
        edge connectivity is the minimum weight on their tree path, so these
        n - 1 pairs carry all pairwise values.  The flows run on one network;
        any maximum flow leaves the same (smallest) side reachable from s.
        A child s whose non-loop degree d is at most _low_lambda() needs no
        flow: then d = lambda, so {s} is that smallest side and the value is d.
        """
        verts = self.vertices
        links = self._links()
        low = self._low_lambda()
        _, net = self._network()
        parent = [0] * len(verts)
        lam = {}
        for s in range(1, len(verts)):
            t = parent[s]
            if len(links[verts[s]]) <= low:
                lam[(verts[t], verts[s])] = len(links[verts[s]])
                continue
            value, residual = net.max_flow((s,), (t,))
            lam[(verts[t], verts[s])] = value
            side = net.side(residual, (s,))
            for v in range(s + 1, len(verts)):
                if side[v] and parent[v] == t:
                    parent[v] = s
        return MappingProxyType(lam)

    @_cached
    def _signatures(self) -> Tuple[Mapping[int, int], int]:
        """(signature of each non-loop edge, number of components), over a spanning forest.

        The forest is that of _bfs_forest.  Non-tree edge number i, in id
        order, has signature 1 << i, the bit of its fundamental cycle; a tree
        edge has the bits of the non-tree edges with exactly one end below
        it, those of the fundamental cycles through it.  An edge set is an
        edge cut exactly when it meets every cycle evenly, that is when the
        signatures of its edges XOR to 0 (Pritchard and Thurimella 2011, with
        exact integers in place of random labels).
        """
        via, comps = self._bfs_forest()
        tree = set(via.values())
        below = dict.fromkeys(self._vertices, 0)
        sig: Dict[int, int] = {}
        for e, (u, v) in self._edges.items():
            if u != v and e not in tree:
                sig[e] = 1 << len(sig)
                below[u] ^= sig[e]
                below[v] ^= sig[e]
        for x in reversed([x for comp in comps for x in comp]):
            e = via[x]
            if e is not None:
                sig[e] = below[x]
                below[self.other_end(e, x)] ^= below[x]
        return MappingProxyType(sig), len(comps)

    @_cached
    def _low_lambda(self) -> int:
        """min(lambda, 3) from the signature pass.

        0 when the graph is disconnected, 1 when some edge is a cut on its own
        (signature 0), 2 when two edges form one (equal signatures), else 3.
        """
        sig, components = self._signatures()
        values = set(sig.values())
        return 0 if components > 1 else 1 if 0 in values else 2 if len(values) < len(sig) else 3

    def is_3_edge_connected(self) -> bool:
        """At least 2 vertices and no edge cut of fewer than 3 edges; no flow is run."""
        return self.num_vertices >= 2 and self._low_lambda() == 3

    @_cached
    def _lambda_upto4(self) -> int:
        """min(lambda, 4) with no flow: _low_lambda, then 3 when a 3-edge cut exists.

        A vertex with three non-loop edges shows one at once; otherwise the
        cut is one of _3cuts.
        """
        if self.num_vertices < 2:
            raise UnknownVertexError("edge connectivity needs at least 2 vertices")
        low = self._low_lambda()
        if low < 3:
            return low
        return 3 if any(len(out) == 3 for out in self._links().values()) or self._3cuts() else 4

    def _3cut_edges(self) -> FrozenSet[int]:
        """The non-loop edges on some 3-edge cut of a 3-edge-connected graph.

        Deleting such a cut leaves exactly two components, since each one
        holds at least three of the cut's six edge ends.  So the cut is the
        star of a vertex with three non-loop edges or one of _3cuts; the
        3-edge cuts are laminar (lambda is odd), so _3cuts holds O(n) cuts.
        """
        stars = frozenset(e for out in self._links().values() if len(out) == 3 for e, _ in out)
        return stars.union(*(cut for _, cut in self._3cuts()))

    @_cached
    def _3cuts(self) -> Tuple[Tuple[FrozenSet[int], FrozenSet[int]], ...]:
        """(side, cut) for each edge cut of 3 edges with both sides >= 2 vertices.

        The candidates are the edge triples whose signatures XOR to 0, by edge
        id, less the stars of vertices with three non-loop edges.  A side is
        the component of G - cut holding an end of the cut's first edge; it
        is kept when the cut is exactly its boundary, which is always so when
        the graph is 3-edge-connected.
        """
        sig, _ = self._signatures()
        links = self._links()
        edges = sorted(sig)
        by_sig: Dict[int, List[int]] = {}
        for e in edges:
            by_sig.setdefault(sig[e], []).append(e)
        stars = {frozenset(e for e, _ in out) for out in links.values() if len(out) == 3}
        found = []
        for i, e in enumerate(edges):
            for f in edges[i + 1:]:
                for h in by_sig.get(sig[e] ^ sig[f], ()):
                    if h <= f:
                        continue
                    cut = frozenset((e, f, h))
                    if cut in stars:
                        continue
                    side = {self._edges[e][0]}
                    queue = list(side)
                    for x in queue:
                        for k, y in links[x]:
                            if k not in cut and y not in side:
                                side.add(y)
                                queue.append(y)
                    if 2 <= len(side) <= self.num_vertices - 2 and self.edge_cut(side) == cut:
                        found.append((frozenset(side), cut))
        return tuple(found)

    def is_essentially_4ec(self) -> bool:
        """3-edge-connected with every 3-edge-cut isolating a single vertex.

        The signature pass tests 3-edge-connectivity (so at least 2 vertices)
        and _3cuts lists the nontrivial 3-cuts; no flow is run.
        """
        return self.is_3_edge_connected() and not self._3cuts()

    def find_nontrivial_3cut(self) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """One (side, cut edge ids) with d(side) = 3 and both sides >= 2 vertices.

        Returns None if no such cut exists.  Assumes the graph is
        3-edge-connected; on other graphs a cut returned is still a valid
        nontrivial 3-cut, but None proves nothing.

        The cut is that of the first vertex-disjoint edge pair ab, cd, in edge
        id order, that a 3-cut separates; its side is the smallest one holding
        a and b and avoiding c and d.  The candidates are the cuts of _3cuts,
        so no flow is run.  In a 3-edge-connected graph every 3-cut is a
        minimum cut, and by submodularity the sides holding a and b and
        avoiding c and d are closed under intersection: the smallest is unique
        and is the side a maximum flow from {a, b} to {c, d} leaves reachable.
        """
        cuts = self._3cuts()
        if not cuts:
            return None
        for a, b in self._edges.values():
            if a == b:
                continue
            held = [(side, cut) if a in side else (self._vertices - side, cut)
                    for side, cut in cuts if (a in side) == (b in side)]
            for c, d in self._edges.values():
                if c == d or c in (a, b) or d in (a, b):
                    continue
                sides = [(side, cut) for side, cut in held if c not in side and d not in side]
                if sides:
                    return min(sides, key=lambda sc: len(sc[0]))
        return None

    # -- bridges and 2-edge-connected pieces ---------------------------------

    def bridges(self) -> Tuple[int, ...]:
        """Edge ids whose deletion disconnects their component: signature 0."""
        sig, _ = self._signatures()
        return tuple(sorted(e for e, s in sig.items() if s == 0))

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
    """Quotient graph together with the class representative of each vertex."""

    graph: Multigraph
    vertex_map: Dict[int, int]


# -- flow kernel -------------------------------------------------------------


class _Network:
    """An integer flow network on the vertices 0..n-1.

    Each vertex pair joined by an arc is two paired arcs, a in the direction
    met first and a ^ 1 back, whose capacities sit at a and a ^ 1 in one
    flat list: an undirected edge adds 1 to both, a directed one to its own
    direction.  adj[x] lists the arcs leaving x and head[a] is the end of
    arc a.  Each flow works on its own copy of the list.
    """

    __slots__ = ("adj", "head", "cap")

    def __init__(self, n: int, arcs: Iterable[Tuple[int, int]], directed: bool = False):
        self.adj: List[List[int]] = [[] for _ in range(n)]
        self.head: List[int] = []
        self.cap: List[int] = []
        pair: Dict[Tuple[int, int], int] = {}
        for t, h in arcs:
            if t == h:
                continue
            a = pair.get((t, h))
            if a is None:
                a = len(self.head)
                pair[(t, h)] = a
                pair[(h, t)] = a ^ 1
                self.head += (h, t)
                self.cap += (0, 0)
                self.adj[t].append(a)
                self.adj[h].append(a ^ 1)
            self.cap[a] += 1
            if not directed:
                self.cap[a ^ 1] += 1

    def max_flow(self, sources: Sequence[int], sinks: Sequence[int],
                 limit: Optional[int] = None) -> Tuple[int, List[int]]:
        """(value, residual capacities) of a flow from the sources to the sinks.

        Edmonds-Karp on a copy of the capacity list: breadth-first augmenting
        paths from all sources at once to the first sink reached.  The flow
        stops at its bound, the least of limit and the capacities out of the
        sources and into the sinks, so the value is min(limit, maximum flow)
        and no search is spent to prove a flow that reached the terminal
        capacity maximal.  Below limit the residual is that of a maximum flow.
        """
        adj, head = self.adj, self.head
        res = self.cap[:]
        n = len(adj)
        role = [0] * n  # 1 for a source, 2 for a sink
        for s in sources:
            role[s] = 1
        for t in sinks:
            role[t] = 2
        bound = min(sum(res[a] for s in sources for a in adj[s] if role[head[a]] != 1),
                    sum(res[a ^ 1] for t in sinks for a in adj[t] if role[head[a]] != 2))
        if limit is not None and limit < bound:
            bound = limit
        flow = 0
        while flow < bound:
            via = [-1] * n  # the arc that reached each vertex; -2 at a source
            for s in sources:
                via[s] = -2
            queue = list(sources)
            end = -1
            for x in queue:
                for a in adj[x]:
                    y = head[a]
                    if res[a] and via[y] == -1:
                        via[y] = a
                        if role[y] == 2:
                            end = y
                            break
                        queue.append(y)
                if end >= 0:
                    break
            if end < 0:
                break
            push = bound - flow
            a = via[end]
            while a >= 0:
                if res[a] < push:
                    push = res[a]
                a = via[head[a ^ 1]]
            a = via[end]
            while a >= 0:
                res[a] -= push
                res[a ^ 1] += push
                a = via[head[a ^ 1]]
            flow += push
        return flow, res

    def side(self, residual: List[int], sources: Sequence[int]) -> List[bool]:
        """A flag per vertex: reachable from the sources in residual."""
        adj, head = self.adj, self.head
        seen = [False] * len(adj)
        for s in sources:
            seen[s] = True
        queue = list(sources)
        for x in queue:
            for a in adj[x]:
                y = head[a]
                if residual[a] and not seen[y]:
                    seen[y] = True
                    queue.append(y)
        return seen
