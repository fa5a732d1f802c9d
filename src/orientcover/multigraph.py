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

        n - 1 flows from the smallest vertex on one network, each stopped at
        the smallest value found so far.
        """
        if self.num_vertices < 2:
            raise UnknownVertexError("edge connectivity needs at least 2 vertices")
        if not self.is_connected():
            return 0
        _, net = self._network()
        best = None
        for v in range(1, self.num_vertices):
            best = net.max_flow((0,), (v,), best)[0]
        return best

    def _flow_tree(self) -> Dict[Tuple[int, int], int]:
        """Edge connectivity on the n - 1 edges of a flow-equivalent tree, keyed (u < v).

        Gusfield's method (Gusfield 1990, after Gomory and Hu 1961): every vertex
        but the smallest starts as a child of the smallest; each child s in turn
        takes one flow to its parent t, and the later children of t that the
        residual still reaches from s move under s.  For every vertex pair the
        edge connectivity is the minimum weight on their tree path, so these
        n - 1 pairs carry all pairwise values.  The flows run on one network;
        any maximum flow leaves the same (smallest) side reachable from s.
        """
        verts = self.vertices
        _, net = self._network()
        parent = [0] * len(verts)
        lam = {}
        for s in range(1, len(verts)):
            t = parent[s]
            value, residual = net.max_flow((s,), (t,))
            lam[(verts[t], verts[s])] = value
            side = net.side(residual, (s,))
            for v in range(s + 1, len(verts)):
                if side[v] and parent[v] == t:
                    parent[v] = s
        return lam

    def _edge_lambdas(self, edges: Sequence[int]) -> List[int]:
        """Local edge connectivity between the ends of each (non-loop) edge.

        Read off the flow-equivalent tree of _flow_tree as the minimum weight
        on the tree path between the two ends: n - 1 flows in all instead of
        one per edge.
        """
        tree: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self._vertices}
        for (a, b), w in self._flow_tree().items():
            tree[a].append((b, w))
            tree[b].append((a, w))
        bottleneck: Dict[int, Dict[int, int]] = {}

        def from_root(root: int) -> Dict[int, int]:
            low = {root: float("inf")}
            stack = [root]
            while stack:
                x = stack.pop()
                for y, w in tree[x]:
                    if y not in low:
                        low[y] = min(low[x], w)
                        stack.append(y)
            return low

        out = []
        for e in edges:
            u, v = self.ends(e)
            if u not in bottleneck:
                bottleneck[u] = from_root(u)
            out.append(bottleneck[u][v])
        return out

    def is_essentially_4ec(self) -> bool:
        """3-edge-connected with every 3-edge-cut isolating a single vertex.

        Tested as edge connectivity >= 3 followed by the pinned-vertex search
        of find_nontrivial_3cut.
        """
        if self.num_vertices >= 2 and self.edge_connectivity() < 3:
            return False
        return self.find_nontrivial_3cut() is None

    def find_nontrivial_3cut(self) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """One (side, cut edge ids) with d(side) = 3 and both sides >= 2 vertices.

        Returns None if no such cut exists.  Assumes the graph is
        3-edge-connected; on other graphs a cut returned is still a valid
        nontrivial 3-cut, but None proves nothing.

        The cut is that of the first vertex-disjoint edge pair, in edge id
        order, whose ends have local connectivity 3 from one pair to the
        other; its side is the smallest one holding the first edge and
        avoiding the second.

        A pinned-vertex search finds it in few flows.  In a 3-edge-connected
        graph a 3-cut is a minimum cut, so both of its sides are connected.
        Pin s, an end of the first non-loop edge: a nontrivial 3-cut then has
        a neighbour u of s on the side of s and an edge inside the other side.
        One flow per distinct neighbour u and per edge avoiding s and u thus
        decides existence, at most deg(s) * m flows, all on one network.  The
        other end of the first edge goes first, which makes its flows the scan
        of the first edge.  If the first edge crosses every nontrivial 3-cut,
        the scan goes on through the next edges; each edge off the cut already
        found has a cut of its own, so at most three more edges are scanned.
        """
        nonloops = [e for e in self._edges if not self.is_loop(e)]
        if not nonloops:
            return None
        index, net = self._network()
        s, u0 = self._edges[nonloops[0]]
        neighbours = dict.fromkeys([u0] + [self.other_end(e, s) for e in self.incident_edges(s)
                                           if not self.is_loop(e)])
        for u in neighbours:
            found = self._3cut_around(index, net, s, u)
            if found is not None:
                break
        if found is None or u == u0:
            return found
        # the first edge crosses every nontrivial 3-cut: the scan goes on from the second
        return next(filter(None, (self._3cut_around(index, net, *self._edges[e]) for e in nonloops[1:])))

    def _3cut_around(self, index: Dict[int, int], net: "_Network", a: int,
                     b: int) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """The cut of the first edge cd avoiding a and b with 3 = flow({a, b}, {c, d}).

        Each flow runs from the sources a and b to the sinks c and d and stops
        at 4; a value of 3 is then a maximum flow, whose residual reaches the
        smallest side holding a and b.
        """
        sources = (index[a], index[b])
        seen = set()
        for c, d in self._edges.values():
            if c == d or c in (a, b) or d in (a, b):
                continue
            key = (min(c, d), max(c, d))
            if key in seen:
                continue
            seen.add(key)
            value, residual = net.max_flow(sources, (index[c], index[d]), 4)
            if value == 3:
                side = net.side(residual, sources)
                xs = frozenset(v for v, i in index.items() if side[i])
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
