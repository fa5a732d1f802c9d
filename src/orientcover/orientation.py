"""Orientations of a multigraph and their connectivity properties.

An orientation assigns a tail to every non-loop edge of a reference graph;
loops carry no direction and never affect any cut.  One reachability kernel
over int bitmasks of out-neighbours, `_deletable_mask`, makes every
strong-connectivity and deletable-arc test, here and in exact: one call
tests strength and names the deletable arcs from one set of bitmasks.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .corpus import named_graph
from .errors import (
    FormatError,
    GraphTooLargeError,
    InternalVerificationError,
    NotEulerianError,
    NotStronglyConnectedError,
    PreconditionError,
    SearchExhaustedError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .graphio import graph_from_json, graph_to_json
from .multigraph import Multigraph, _Network


class Orientation:
    """A direction bit per non-loop edge of a reference multigraph."""

    __slots__ = ("graph", "_tails", "_out", "_in", "_indexed")

    def __init__(self, graph: Multigraph, tails: Mapping[int, int]):
        self.graph = graph
        clean: Dict[int, int] = {}
        for e in graph.edge_ids:
            u, v = graph.ends(e)
            if u == v:
                if e in tails:
                    raise FormatError(f"loop {e} must not carry a direction")
                continue
            if e not in tails:
                raise UnknownEdgeError(f"missing direction for edge {e}")
            t = tails[e]
            if t not in (u, v):
                raise UnknownVertexError(f"tail {t} is not an end of edge {e}")
            clean[e] = t
        if len(tails) != len(clean):
            extra = set(tails) - set(clean)
            raise UnknownEdgeError(f"directions for unknown or loop edges: {sorted(extra)}")
        self._tails = clean
        out: Dict[int, List[Tuple[int, int]]] = {v: [] for v in graph.vertices}
        inc: Dict[int, List[Tuple[int, int]]] = {v: [] for v in graph.vertices}
        for e, t in sorted(clean.items()):
            h = graph.other_end(e, t)
            out[t].append((h, e))
            inc[h].append((t, e))
        self._out = {v: tuple(a) for v, a in out.items()}
        self._in = {v: tuple(a) for v, a in inc.items()}
        self._indexed: Optional[Tuple[int, List[int], List[Tuple[int, int]]]] = None

    @property
    def tails(self) -> Dict[int, int]:
        return dict(self._tails)

    def tail(self, e: int) -> int:
        try:
            return self._tails[e]
        except KeyError:
            raise UnknownEdgeError(f"edge {e} carries no direction") from None

    def head(self, e: int) -> int:
        return self.graph.other_end(e, self.tail(e))

    def arcs(self) -> Iterator[Tuple[int, int, int]]:
        """(edge id, tail, head) for every non-loop edge, by edge id."""
        for e in sorted(self._tails):
            t = self._tails[e]
            yield e, t, self.graph.other_end(e, t)

    def out_arcs(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """(head, edge id) pairs leaving v."""
        return self._out[v]

    def in_arcs(self, v: int) -> Tuple[Tuple[int, int], ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def reverse(self) -> "Orientation":
        return Orientation(self.graph, {e: self.graph.other_end(e, t) for e, t in self._tails.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.graph == other.graph and self._tails == other._tails

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self._tails.items()))))

    def __repr__(self) -> str:
        return f"Orientation({self.graph!r})"

    def to_json(self, inline_graph: bool = True) -> Dict:
        payload: Dict = {"tails": {str(e): t for e, t in sorted(self._tails.items())}}
        if inline_graph:
            payload["graph"] = graph_to_json(self.graph)
        return payload


def orientation_from_json(obj: Dict, graph: Optional[Multigraph] = None) -> Orientation:
    if not isinstance(obj, dict):
        raise FormatError("orientation JSON must be an object")
    if graph is None:
        if "graph" not in obj:
            raise FormatError("orientation JSON carries no graph and none was supplied")
        ref = obj["graph"]
        if isinstance(ref, str):
            if not ref.startswith("corpus:"):
                raise FormatError(f"unknown graph reference {ref!r}")
            graph = named_graph(ref.split(":", 1)[1])
        else:
            graph = graph_from_json(ref, cap=None)
    try:
        tails = {int(e): int(t) for e, t in obj["tails"].items()}
    except (KeyError, AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed orientation JSON: {exc}") from None
    return Orientation(graph, tails)


# -- reachability ---------------------------------------------------------------


def _deletable_mask(n: int, arcs: Sequence[Tuple[int, int]],
                    candidates: Optional[Iterable[int]] = None) -> Optional[int]:
    """Bitmask over arc indices (all, or `candidates`) whose deletion keeps strong connectivity.

    None when the (tail, head) arcs over vertices 0..n-1, which must join
    distinct vertices, are not strongly connected: vertex 0 must reach every
    vertex along the arcs and along their reversals (n <= 1 is strong).
    Only then is `candidates` read.  Each vertex gets int bitmasks of its
    out-neighbours, its in-neighbours and the heads it has two or more arcs
    to; searches keep their frontier and unseen vertices as bitmasks too.
    A parallel arc is deletable at once; an arc that is its tail's only
    out-arc or its head's only in-arc never is.  Any other arc gets one
    query tail -> head without it, which stops at the first vertex reached
    with the head as an out-neighbour.
    """
    bits = [1 << v for v in range(n)]
    out = [0] * n
    into = [0] * n
    parallel = [0] * n
    for t, h in arcs:
        bit = bits[h]
        if out[t] & bit:
            parallel[t] |= bit
        out[t] |= bit
        into[h] |= bits[t]
    for adj in (out, into) if n > 1 else ():
        unseen = (1 << n) - 2
        frontier = 1
        while frontier:
            x = frontier.bit_length() - 1
            frontier ^= bits[x]
            new = adj[x] & unseen
            if new:
                unseen ^= new
                frontier |= new
        if unseen:
            return None
    everyone = (1 << n) - 1
    result = 0
    for i in range(len(arcs)) if candidates is None else candidates:
        t, h = arcs[i]
        target = bits[h]
        if parallel[t] & target:
            result |= 1 << i
            continue
        frontier = out[t] ^ target
        if not frontier or into[h] == bits[t]:
            continue
        unseen = everyone ^ frontier ^ bits[t]
        while frontier:
            x = frontier.bit_length() - 1
            frontier ^= bits[x]
            nxt = out[x]
            if nxt & target:
                result |= 1 << i
                break
            new = nxt & unseen
            if new:
                unseen ^= new
                frontier |= new
    return result


def _indexed_arcs(d: Orientation) -> Tuple[int, List[int], List[Tuple[int, int]]]:
    """(n, edge ids, arcs) of d for the kernel; arc i runs along edge ids[i].

    Built on first use and kept on d, which is immutable.
    """
    if d._indexed is None:
        index = {v: i for i, v in enumerate(d._out)}
        edges: List[int] = []
        arcs: List[Tuple[int, int]] = []
        for t, out in d._out.items():
            for h, e in out:
                edges.append(e)
                arcs.append((index[t], index[h]))
        d._indexed = (len(index), edges, arcs)
    return d._indexed


def _deletable_among(d: Orientation, f: Sequence[int]) -> Optional[FrozenSet[int]]:
    """The edges of f whose arc deletion keeps d strongly connected.

    None when d itself is not strongly connected.  Loops are always
    deletable; an edge unknown to d's graph raises UnknownEdgeError.
    """
    n, edges, arcs = _indexed_arcs(d)
    pos = {e: i for i, e in enumerate(edges)}
    mask = _deletable_mask(n, arcs, (pos[e] for e in f if not d.graph.is_loop(e)))
    if mask is None:
        return None
    return frozenset(e for e in f if d.graph.is_loop(e) or (mask >> pos[e]) & 1)


def is_strongly_connected(d: Orientation) -> bool:
    n, _, arcs = _indexed_arcs(d)
    return _deletable_mask(n, arcs, ()) is not None


def deletable_arcs(d: Orientation) -> FrozenSet[int]:
    """All edges whose arc deletion keeps d strongly connected.

    Requires a strongly connected input; loops are always deletable.
    """
    found = _deletable_among(d, d.graph.edge_ids)
    if found is None:
        raise NotStronglyConnectedError("deletable_arcs needs a strongly connected orientation")
    return found


def is_deletable_set(d: Orientation, f: Iterable[int]) -> bool:
    """True when d and every single-arc deletion of f stay strongly connected."""
    f = list(f)
    found = _deletable_among(d, f)
    return found is not None and found.issuperset(f)


def cut_characterization_check(d: Orientation, f: Iterable[int], max_vertices: int = 18) -> bool:
    """Subset-enumeration form of the deletability test.

    Every nonempty proper vertex set must receive an in-arc outside f or at
    least two in-arcs.  Must agree with is_deletable_set; used as its oracle.
    """
    g = d.graph
    n = g.num_vertices
    if n > max_vertices:
        raise GraphTooLargeError(f"{n} vertices exceeds the subset-enumeration cap {max_vertices}")
    if n <= 1:
        return True
    fset = {e for e in f if not g.is_loop(e)}
    verts = g.vertices
    arcs = list(d.arcs())
    index = {v: i for i, v in enumerate(verts)}
    for mask in range(1, (1 << n) - 1):
        entering = 0
        has_outside = False
        for e, t, h in arcs:
            if (mask >> index[h]) & 1 and not (mask >> index[t]) & 1:
                entering += 1
                if e not in fset:
                    has_outside = True
        if entering < 2 and not has_outside:
            return False
    return True


def is_k_arc_connected(d: Orientation, k: int) -> bool:
    """Every nonempty proper vertex set has at least k out-arcs."""
    if k < 1:
        raise PreconditionError("k must be at least 1")
    g = d.graph
    if g.num_vertices <= 1:
        return True
    if k == 1:
        return is_strongly_connected(d)
    _, net = _arc_network(d)
    for v in range(1, g.num_vertices):
        if net.max_flow((0,), (v,), k)[0] < k:
            return False
        if net.max_flow((v,), (0,), k)[0] < k:
            return False
    return True


def _arc_network(d: Orientation) -> Tuple[Dict[int, int], _Network]:
    """The directed flow network of d's arcs, with the index of each vertex."""
    n, _, arcs = _indexed_arcs(d)
    return {v: i for i, v in enumerate(d.graph.vertices)}, _Network(n, arcs, directed=True)


def directed_local_connectivity(d: Orientation, u: int, v: int) -> int:
    """Maximum number of arc-disjoint directed u->v paths."""
    if u == v:
        raise UnknownVertexError("directed connectivity needs distinct vertices")
    index, net = _arc_network(d)
    if u not in index or v not in index:
        raise UnknownVertexError(f"unknown vertex in pair ({u}, {v})")
    return net.max_flow((index[u],), (index[v],))[0]


# -- Eulerian orientations ---------------------------------------------------------


def eulerian_circuit_arcs(g: Multigraph) -> Dict[int, int]:
    """Tails from one Euler circuit per component; needs all degrees even.

    Loops are traversed but receive no tail.  Deterministic: components are
    entered at their smallest vertex and edges leave in sorted id order.
    """
    for v in g.vertices:
        if g.degree(v) % 2:
            raise NotEulerianError(f"vertex {v} has odd degree {g.degree(v)}")
    unused: Dict[int, List[int]] = {v: list(reversed(g.incident_edges(v))) for v in g.vertices}
    used = set()
    tails: Dict[int, int] = {}
    for comp in g.connected_components():
        start = min(comp)
        stack = [start]
        while stack:
            x = stack[-1]
            found = None
            while unused[x]:
                e = unused[x].pop()
                if e not in used:
                    found = e
                    break
            if found is None:
                stack.pop()
                continue
            used.add(found)
            y = g.other_end(found, x)
            if y != x:
                tails[found] = x
            stack.append(y)
    return tails


def eulerian_orientation(g: Multigraph) -> Orientation:
    return Orientation(g, eulerian_circuit_arcs(g))


def eulerian_orientation_constrained(
    g: Multigraph, constraints: Mapping[int, Tuple[int, int]]
) -> Orientation:
    """Eulerian orientation where exactly one of each constraint pair enters its vertex.

    Uses vertex detachment: the two constrained edges are split onto a fresh
    degree-2 twin of the vertex, any Euler circuit of the detached graph is
    oriented, and the twin is folded back.
    """
    for v, (e1, e2) in constraints.items():
        if not g.has_vertex(v):
            raise UnknownVertexError(f"constraint names unknown vertex {v}")
        if e1 == e2:
            raise PreconditionError(f"constraint at {v} must name two distinct edges")
        for e in (e1, e2):
            if not g.has_edge(e):
                raise UnknownEdgeError(f"constraint names unknown edge {e}")
            if g.is_loop(e):
                raise PreconditionError(f"constraint edge {e} is a loop")
            if v not in g.ends(e):
                raise PreconditionError(f"constraint edge {e} is not incident to vertex {v}")
    d = Orientation(g, _detached_tails(g.vertices, {e: g.ends(e) for e in g.edge_ids}, constraints))
    _check_constrained_eulerian(d, constraints)
    return d


def _detached_tails(vertices: Sequence[int], edges: Mapping[int, Tuple[int, int]],
                    constraints: Mapping[int, Tuple[int, int]]) -> Dict[int, int]:
    """Tails of the non-loop edges for eulerian_orientation_constrained, inputs unchecked."""
    fresh = max(vertices, default=-1) + 1
    twin = {}
    for v in sorted(constraints):
        twin[v] = fresh
        fresh += 1
    moved = {}
    for v, (e1, e2) in constraints.items():
        for e in (e1, e2):
            moved.setdefault(e, []).append(v)
    aux_edges = {}
    for e, (u, v) in edges.items():
        for w in moved.get(e, ()):
            if u == w:
                u = twin[w]
            elif v == w:
                v = twin[w]
        aux_edges[e] = (u, v)
    aux = Multigraph(set(vertices) | set(twin.values()), aux_edges)
    aux_tails = eulerian_circuit_arcs(aux)
    back = {t: v for v, t in twin.items()}
    return {e: back.get(aux_tails[e], aux_tails[e]) for e, (u, v) in edges.items() if u != v}


def _check_constrained_eulerian(d: Orientation, constraints: Mapping[int, Tuple[int, int]]) -> None:
    for v in d.graph.vertices:
        if d.in_degree(v) != d.out_degree(v):
            raise InternalVerificationError(f"in/out degree mismatch at vertex {v}")
    for v, (e1, e2) in constraints.items():
        entering = sum(1 for e in (e1, e2) if d.head(e) == v)
        if entering != 1:
            raise InternalVerificationError(f"constraint at vertex {v} violated")


# -- well-balanced orientations ------------------------------------------------------


def _odd_vertices(g: Multigraph) -> List[int]:
    return [v for v in g.vertices if g.degree(v) % 2]


def pairings(odd: Sequence[int]) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """All perfect matchings on the odd-degree vertex list, deterministically."""
    odd = sorted(odd)

    def rec(rest: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, int], ...]]:
        if not rest:
            yield ()
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            tail = rest[1:i] + rest[i + 1:]
            for sub in rec(tail):
                yield ((a, b),) + sub

    return rec(tuple(odd))


def is_well_balanced(g: Multigraph, d: Orientation) -> bool:
    """Check the floor(lambda/2) pairwise directed-connectivity condition.

    The pairs checked are the edges of g's flow-equivalent tree
    (Multigraph._flow_tree), weighted by their edge connectivities.  They
    suffice: directed connectivity obeys lambda_D(u, w) >=
    min(lambda_D(u, v), lambda_D(v, w)), and floor(min / 2) is the minimum
    of the halves, so the condition on the tree edges of a path gives it for
    the path's ends.  When every weight is at least 2, every pair needs a
    path each way: one strength test answers the pairs that need 1, and
    flows only those that need more.  All flows run on one directed network
    of d, each stopped once it reaches its requirement.
    """
    lam = g._flow_tree()
    low = 2 if lam and min(lam.values()) >= 2 else 1  # the least requirement checked by flows
    if low == 2 and not is_strongly_connected(d):
        return False
    index, net = _arc_network(d)
    # high requirements first: they fail fastest
    for (u, v), l in sorted(lam.items(), key=lambda kv: -kv[1]):
        need = l // 2
        if need < low:
            continue
        iu, iv = index[u], index[v]
        if net.max_flow((iu,), (iv,), need)[0] < need:
            return False
        if net.max_flow((iv,), (iu,), need)[0] < need:
            return False
    return True


_WELL_BALANCED_PAIRINGS = 4096  # pairings tried before the fallbacks


def _pairing_orientations(
    g: Multigraph, constraints: Mapping[int, Tuple[int, int]], limit: int
) -> Iterator[Orientation]:
    """Candidate orientations of g from its first `limit` odd-vertex pairings.

    Each pairing, in the order of `pairings`, adds one new edge per pair; the
    constrained Eulerian orientation of that graph (constraints unchecked)
    is restricted to g.  An Eulerian g has the empty pairing only.
    """
    edges = {e: g.ends(e) for e in g.edge_ids}
    base = max(edges, default=-1) + 1
    nonloop = [e for e in g.edge_ids if not g.is_loop(e)]
    for pairing in itertools.islice(pairings(_odd_vertices(g)), limit):
        aug = dict(edges)
        aug.update((base + k, ab) for k, ab in enumerate(pairing))
        tails = _detached_tails(g.vertices, aug, constraints)
        yield Orientation(g, {e: tails[e] for e in nonloop})


def _robbins_tails(h: Multigraph) -> Dict[int, int]:
    """DFS orientation: tree arcs downward, all other arcs toward the shallower end.

    Each maximal 2-edge-connected piece of h comes out strongly connected
    (Robbins 1939); bridges point away from the DFS root.
    """
    tails: Dict[int, int] = {}
    disc: Dict[int, int] = {}
    counter = 0
    for root in h.vertices:
        if root in disc:
            continue
        disc[root] = counter
        counter += 1
        stack = [(root, iter(h.incident_edges(root)))]
        while stack:
            x, it = stack[-1]
            advanced = False
            for e in it:
                if e in tails or h.is_loop(e):
                    continue
                y = h.other_end(e, x)
                if y not in disc:
                    tails[e] = x
                    disc[y] = counter
                    counter += 1
                    stack.append((y, iter(h.incident_edges(y))))
                    advanced = True
                    break
                tails[e] = x if disc[x] > disc[y] else y
            if not advanced:
                stack.pop()
    return tails


def _searched_well_balanced(g: Multigraph) -> Orientation:
    """A well-balanced orientation from the exhaustive orientation search of exact.

    Each bridge takes its smaller end as tail and each maximal 2-edge-connected
    piece is searched on its own.  No path can leave a piece through a bridge
    and come back, so a piece keeps the lambdas and directed connectivities
    it has in g, and a pair split by a bridge has lambda 1 and needs no path.
    The search has no budget up to DEFAULT_LIMITS.max_enumerable_edges edges
    per piece and DEFAULT_LIMITS.node_budget nodes above that.
    """
    from .exact import DEFAULT_LIMITS, Status, _Kernel, _search  # exact imports this module

    tails = {e: min(g.ends(e)) for e in g.bridges()}
    for piece in g.maximal_2ec_subgraphs():
        h = Multigraph(piece, {e: g.ends(e) for e in g.induced_edge_ids(piece)})
        kern = _Kernel(h)
        budget = None if kern.m <= DEFAULT_LIMITS.max_enumerable_edges else DEFAULT_LIMITS.node_budget
        status, mask, _ = _search(
            kern, 0, budget, (), lambda mask, dmask: is_well_balanced(h, kern.orientation_of(mask)))
        if status is Status.INDETERMINATE:
            raise SearchExhaustedError("well-balanced orientation search ran out of nodes")
        if status is Status.NO:  # pragma: no cover - Nash-Williams' theorem
            raise InternalVerificationError("a 2-edge-connected piece has no well-balanced orientation")
        tails.update(kern.orientation_of(mask).tails)
    return Orientation(g, tails)


def well_balanced_orientation(g: Multigraph) -> Orientation:
    """An orientation giving each ordered pair floor(lambda/2) directed paths.

    Three steps, the first that applies wins.  (1) Odd-vertex pairings are
    tried in order (an Eulerian graph has only the empty one): each
    pairing's Eulerian orientation of the augmented graph is restricted to
    g and checked.  (2) When no pairing within the limit passes and every
    lambda is at most 3, the requirement is one path each way inside every
    maximal 2-edge-connected piece, which the DFS (Robbins) orientation
    meets.  (3) Otherwise the exhaustive orientation search of exact runs
    per piece; it raises SearchExhaustedError only when its node budget
    runs out on a piece above the edge limit.  A well-balanced orientation
    always exists (Nash-Williams 1960).
    """
    if not g.is_connected():
        raise PreconditionError("well-balanced orientation needs a connected graph")
    for d in _pairing_orientations(g, {}, _WELL_BALANCED_PAIRINGS):
        if is_well_balanced(g, d):
            return d
    if max(g._flow_tree().values(), default=0) <= 3:
        d = Orientation(g, _robbins_tails(g))
    else:
        d = _searched_well_balanced(g)
    if not is_well_balanced(g, d):  # pragma: no cover - guaranteed by both fallbacks
        raise InternalVerificationError("fallback orientation failed the balance check")
    return d
