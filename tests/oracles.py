"""Independent brute-force oracles for the test suite.

Deliberately naive and structurally different from the package code: strong
connectivity runs a Warshall closure over an adjacency matrix, cuts come from
explicit subset enumeration, and minimum covers come from itertools over
distinct deletable sets.  The reference flow kernel is the package's former
one: Edmonds-Karp on a dict-of-dicts capacity map copied per flow, with
terminal pairs merged into one node.  Nothing here imports solver internals.
"""

import itertools
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int, int]  # (edge id, u, v)


def closure_strongly_connected(n: int, arcs: Iterable[Tuple[int, int]]) -> bool:
    """Warshall closure over vertex indices 0..n-1."""
    if n <= 1:
        return True
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for t, h in arcs:
        reach[t][h] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


def brute_deletable_set(n: int, arcs: Sequence[Tuple[int, int, int]], f: Set[int]) -> bool:
    """arcs: (edge id, tail idx, head idx); loops must be pre-filtered by caller."""
    base = [(t, h) for _, t, h in arcs]
    if not closure_strongly_connected(n, base):
        return False
    for e, t, h in arcs:
        if e in f:
            rest = [(t2, h2) for e2, t2, h2 in arcs if e2 != e]
            if not closure_strongly_connected(n, rest):
                return False
    return True


def brute_min_cut(vertices: Sequence[int], edges: Sequence[Edge],
                  must_have: Optional[int] = None, must_not: Optional[int] = None) -> int:
    """Minimum |cut(X)| over nonempty proper X, optionally pinning two vertices."""
    verts = list(vertices)
    n = len(verts)
    best = None
    for mask in range(1, (1 << n) - 1):
        xs = {verts[i] for i in range(n) if (mask >> i) & 1}
        if must_have is not None and must_have not in xs:
            continue
        if must_not is not None and must_not in xs:
            continue
        size = sum(1 for _, u, v in edges if u != v and (u in xs) != (v in xs))
        if best is None or size < best:
            best = size
    return best


def brute_3cuts(vertices: Sequence[int], edges: Sequence[Edge]) -> List[FrozenSet[int]]:
    """All vertex sets X (up to nothing) with |cut(X)| == 3."""
    verts = list(vertices)
    n = len(verts)
    out = []
    for mask in range(1, (1 << n) - 1):
        xs = frozenset(verts[i] for i in range(n) if (mask >> i) & 1)
        size = sum(1 for _, u, v in edges if u != v and (u in xs) != (v in xs))
        if size == 3:
            out.append(xs)
    return out


def brute_3edge_cuts(vertices: Sequence[int], edges: Sequence[Edge]) -> Dict[FrozenSet[int], Set[FrozenSet[int]]]:
    """Each edge cut of exactly 3 edge ids, with every vertex set X whose cut it is."""
    verts = list(vertices)
    n = len(verts)
    out: Dict[FrozenSet[int], Set[FrozenSet[int]]] = {}
    for mask in range(1, (1 << n) - 1):
        xs = frozenset(verts[i] for i in range(n) if (mask >> i) & 1)
        cut = frozenset(e for e, u, v in edges if u != v and (u in xs) != (v in xs))
        if len(cut) == 3:
            out.setdefault(cut, set()).add(xs)
    return out


def brute_has_nontrivial_3cut(vertices: Sequence[int], edges: Sequence[Edge]) -> bool:
    return any(2 <= len(xs) <= len(vertices) - 2 for xs in brute_3cuts(vertices, edges))


def brute_first_pair_3cut(vertices: Sequence[int], edges: Sequence[Edge]) -> Optional[FrozenSet[int]]:
    """Side of the first vertex-disjoint edge pair, in list order, that a 3-cut separates.

    The side is the intersection of every 3-cut side holding the first edge
    and avoiding the second: the smallest such side on 3-edge-connected
    graphs, where every 3-cut is a minimum cut.
    """
    cuts = brute_3cuts(vertices, edges)
    nonloop = [(u, v) for _, u, v in edges if u != v]
    for i, (a, b) in enumerate(nonloop):
        for c, d in nonloop[i + 1:]:
            if {a, b} & {c, d}:
                continue
            sides = [xs for xs in cuts if a in xs and b in xs and c not in xs and d not in xs]
            if sides:
                return frozenset.intersection(*sides)
    return None


def generalized_petersen_pairs(n: int, k: int) -> List[Tuple[int, int]]:
    """gp(n, k): outer cycle 0..n-1, spokes i -- n+i, inner steps of k; list positions are edge ids."""
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    pairs += [(n + i, n + (i + k) % n) for i in range(n)]
    return [(min(u, v), max(u, v)) for u, v in pairs]


def flower_snark_pairs(k: int) -> List[Tuple[int, int]]:
    """Isaacs' flower snark J_k: vertices 4i..4i+3 are a_i, b_i, c_i, d_i for i < k.

    a_i joins b_i, c_i and d_i; the b_i form one k-cycle, and the c_i and d_i
    one 2k-cycle c_0 .. c_(k-1) d_0 .. d_(k-1).  Positions are the edge ids.
    """
    pairs = []
    for i in range(k):
        j = (i + 1) % k
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        pairs += [(a, b), (a, c), (a, d), (b, 4 * j + 1)]
        pairs += [(c, 4 * j + 2), (d, 4 * j + 3)] if j else [(c, 3), (d, 2)]
    return pairs


def ref_perfect_matchings(vertices: Sequence[int], edges: Sequence[Edge]) -> List[FrozenSet[int]]:
    """Every perfect matching by plain backtracking, with no dead-end cut.

    The first unmatched vertex, by id, takes each of its non-loop edges to an
    unmatched vertex in edge id order: the order of
    structures._matching_search.
    """
    verts = sorted(vertices)
    incident: Dict[int, List[Tuple[int, int]]] = {v: [] for v in verts}
    for e, u, v in sorted(edges):
        if u != v:
            incident[u].append((e, v))
            incident[v].append((e, u))
    matched: Set[int] = set()
    chosen: List[int] = []
    found: List[FrozenSet[int]] = []

    def rec(idx: int) -> None:
        while idx < len(verts) and verts[idx] in matched:
            idx += 1
        if idx == len(verts):
            found.append(frozenset(chosen))
            return
        v = verts[idx]
        for e, w in incident[v]:
            if w in matched:
                continue
            matched.update((v, w))
            chosen.append(e)
            rec(idx + 1)
            chosen.pop()
            matched.difference_update((v, w))

    rec(0)
    return found


def backtrack_3_edge_coloring(vertices: Sequence[int], edges: Sequence[Edge]) -> Optional[Dict[int, int]]:
    """A proper 3-edge-coloring {edge id: 1, 2 or 3} of a cubic graph, or None.

    Backtracking over the edges in id order: the first vertex's edges take
    colors 1, 2, 3 and every other edge tries each color not yet at its ends.
    """
    if any(u == v for _, u, v in edges):
        return None
    ends = {e: (u, v) for e, u, v in edges}
    at: Dict[int, List[int]] = {v: [] for v in vertices}
    for e, u, v in edges:
        at[u].append(e)
        at[v].append(e)
    order = sorted(ends)
    forced = dict(zip(sorted(at[min(vertices)]), (1, 2, 3)))
    color: Dict[int, int] = {}

    def ok(e: int, c: int) -> bool:
        return all(color.get(f) != c for x in ends[e] for f in at[x] if f != e)

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        e = order[i]
        for c in (forced[e],) if e in forced else (1, 2, 3):
            if ok(e, c):
                color[e] = c
                if rec(i + 1):
                    return True
                del color[e]
        return False

    return dict(color) if rec(0) else None


def has_triangle(pairs: Sequence[Tuple[int, int]]) -> bool:
    adj: Dict[int, Set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return any(adj[u] & adj[v] for u, v in pairs if u != v)


def random_cubic_3ec_pairs(rng, n: int, triangle: bool) -> List[Tuple[int, int]]:
    """Configuration-model cubic graph on n vertices, with or without a triangle.

    Redrawn until simple, triangle-matching and 3-edge-connected by the
    reference flows, which reach 64 vertices; positions in the list are the
    edge ids.
    """
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        keys = {(min(u, v), max(u, v)) for u, v in pairs}
        if any(u == v for u, v in pairs) or len(keys) != len(pairs):
            continue
        if has_triangle(pairs) != triangle:
            continue
        if ref_edge_connectivity(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)]) >= 3:
            return pairs


def all_orientations(edges: Sequence[Edge]):
    """Yield lists of (edge id, tail, head) over every direction choice."""
    nonloop = [(e, u, v) for e, u, v in edges if u != v]
    loops = [(e, u, v) for e, u, v in edges if u == v]
    for bits in itertools.product((0, 1), repeat=len(nonloop)):
        arcs = [(e, (v if b else u), (u if b else v))
                for (e, u, v), b in zip(nonloop, bits)]
        yield arcs, loops


def brute_deletable_arcs(vertices: Sequence[int], arcs: Sequence[Tuple[int, int, int]],
                         loop_ids: Iterable[int]) -> Optional[FrozenSet[int]]:
    """Deletable edge ids of one orientation, or None if not strongly connected."""
    index = {v: i for i, v in enumerate(vertices)}
    idx_arcs = [(e, index[t], index[h]) for e, t, h in arcs]
    base = [(t, h) for _, t, h in idx_arcs]
    n = len(vertices)
    if not closure_strongly_connected(n, base):
        return None
    good = set(loop_ids)
    for e, t, h in idx_arcs:
        rest = [(t2, h2) for e2, t2, h2 in idx_arcs if e2 != e]
        if closure_strongly_connected(n, rest):
            good.add(e)
    return frozenset(good)


def ref_t_join(vertices: Sequence[int], edges: Sequence[Edge], t: Iterable[int]) -> Optional[FrozenSet[int]]:
    """The package's former t_join: None when a component holds oddly many
    t-vertices, else parity propagated from the leaves of a BFS forest grown
    from each unreached vertex, by id, along each vertex's edges in id order."""
    incident: Dict[int, List[int]] = {v: [] for v in vertices}
    ends = {e: (u, v) for e, u, v in edges}
    for e in sorted(ends):
        u, v = ends[e]
        incident[u].append(e)
        if v != u:
            incident[v].append(e)
    tset = set(t)
    parity = {v: (1 if v in tset else 0) for v in vertices}
    chosen: Set[int] = set()
    seen: Set[int] = set()
    for root in sorted(vertices):
        if root in seen:
            continue
        order = [root]
        seen.add(root)
        parent_edge: Dict[int, Tuple[int, int]] = {}
        qi = 0
        while qi < len(order):
            x = order[qi]
            qi += 1
            for e in incident[x]:
                u, v = ends[e]
                y = v if u == x else u
                if y != x and y not in seen:
                    seen.add(y)
                    parent_edge[y] = (e, x)
                    order.append(y)
        if sum(parity[v] for v in order) % 2:
            return None
        for v in reversed(order[1:]):
            if parity[v]:
                e, p = parent_edge[v]
                chosen.add(e)
                parity[v] = 0
                parity[p] ^= 1
    return frozenset(chosen)


def ref_cycles_from_edge_set(edges: Sequence[Edge], edge_ids: Iterable[int]
                             ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The package's former cycles_from_edge_set walk, as (vertices, edges) per cycle.

    From each vertex in turn, by id, that still has an unused edge, take the
    first unused edge in id order at every step until the walk closes; each
    cycle then starts at its smallest vertex and runs towards the smaller of
    its two neighbours there.  A set with a vertex whose degree in it is not
    2 raises ValueError with the package's PreconditionError message.
    """
    ends = {e: (u, v) for e, u, v in edges}
    ids = set(edge_ids)
    deg: Dict[int, int] = {}
    inc: Dict[int, List[int]] = {}
    for e in sorted(ids):
        u, v = ends[e]
        for x in ((u,) if u == v else (u, v)):
            deg[x] = deg.get(x, 0) + (2 if u == v else 1)
            inc.setdefault(x, []).append(e)
    bad = [v for v, d in deg.items() if d != 2]
    if bad:
        raise ValueError(f"edge set is not a disjoint union of cycles; bad degrees at {sorted(bad)}")
    unused = set(ids)
    cycles = []
    for start in sorted(deg):
        if not any(e in unused for e in inc[start]):
            continue
        verts, walk, x = [start], [], start
        while True:
            e = next(e for e in inc[x] if e in unused)
            unused.discard(e)
            walk.append(e)
            u, v = ends[e]
            y = v if u == x else u
            if y == start:
                break
            verts.append(y)
            x = y
        if len(verts) == 2:
            walk.sort()
        elif len(verts) > 2 and verts[-1] < verts[1]:
            verts = [verts[0]] + verts[:0:-1]
            walk.reverse()
        cycles.append((tuple(verts), tuple(walk)))
    return cycles


def brute_frank_number(vertices: Sequence[int], edges: Sequence[Edge]) -> int:
    """Exact Frank number by full enumeration and cover search over set sizes."""
    universe = frozenset(e for e, _, _ in edges)
    loop_ids = [e for e, u, v in edges if u == v]
    distinct: Set[FrozenSet[int]] = set()
    for arcs, _ in all_orientations(edges):
        ds = brute_deletable_arcs(vertices, arcs, loop_ids)
        if ds is not None:
            distinct.add(ds)
    sets = sorted(distinct, key=lambda s: (-len(s), sorted(s)))
    for k in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, k):
            covered = frozenset().union(*combo)
            if covered == universe:
                return k
    raise AssertionError("no cover exists; graph is not 3-edge-connected?")


def brute_deletability(vertices: Sequence[int], edges: Sequence[Edge],
                       s: Set[int]) -> Optional[List[Tuple[int, int, int]]]:
    """First orientation making s deletable, or None."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    s_nonloop = {e for e in s if any(e2 == e and u != v for e2, u, v in edges)}
    for arcs, loops in all_orientations(edges):
        idx_arcs = [(e, index[t], index[h]) for e, t, h in arcs]
        if brute_deletable_set(n, idx_arcs, s_nonloop):
            return arcs + loops
    return None


def _bit_closure_strong(n: int, arcs: Sequence[Tuple[int, int]]) -> bool:
    """Warshall closure over bitset rows, vertex indices 0..n-1."""
    reach = [1 << i for i in range(n)]
    for t, h in arcs:
        reach[t] |= 1 << h
    for k in range(n):
        bit, row = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    full = (1 << n) - 1
    return all(r == full for r in reach)


def brute_deletable_profiles(vertices: Sequence[int], edges: Sequence[Edge]) -> Dict[int, int]:
    """Deletable-arc bitmask -> smallest orientation bitmask, over strong orientations.

    Bit i of both masks is the i-th non-loop edge by id; an orientation mask
    sets bit i to send that edge from v to u.  The first edge keeps its
    direction, so this loops over every even mask below 2^m in ascending
    order and keeps the first mask seen per deletable set.
    """
    index = {v: i for i, v in enumerate(vertices)}
    nonloop = sorted((e, index[u], index[v]) for e, u, v in edges if u != v)
    n, m = len(vertices), len(nonloop)
    profiles: Dict[int, int] = {}
    for mask in range(0, 1 << m, 2):
        arcs = [(v, u) if (mask >> i) & 1 else (u, v) for i, (_, u, v) in enumerate(nonloop)]
        if not _bit_closure_strong(n, arcs):
            continue
        deletable = 0
        for i in range(m):
            if _bit_closure_strong(n, arcs[:i] + arcs[i + 1:]):
                deletable |= 1 << i
        profiles.setdefault(deletable, mask)
    return profiles


# -- reference flow kernel: Edmonds-Karp on a dict-of-dicts capacity map ----------


def ref_capacities(vertices: Iterable[int], arcs: Iterable[Tuple[int, int]],
                   directed: bool = False) -> Dict[int, Dict[int, int]]:
    """Capacity map of (tail, head) pairs, loops dropped; undirected pairs count both ways."""
    cap: Dict[int, Dict[int, int]] = {v: {} for v in vertices}
    for u, v in arcs:
        if u == v:
            continue
        cap[u][v] = cap[u].get(v, 0) + 1
        if not directed:
            cap[v][u] = cap[v].get(u, 0) + 1
    return cap


def ref_copy_caps(cap: Dict[int, Dict[int, int]]) -> Dict[int, Dict[int, int]]:
    """A copy of a capacity map whose rows a flow may change."""
    return {x: dict(row) for x, row in cap.items()}


def ref_merge_nodes(cap: Dict[int, Dict[int, int]], a: int, b: int) -> int:
    """Merge node b into a inside a symmetric capacity map; returns a."""
    nbrs = cap.pop(b)
    for x, c in nbrs.items():
        if x == a or x == b:
            continue
        cap[a][x] = cap[a].get(x, 0) + c
        cap[x][a] = cap[x].get(a, 0) + c
        cap[x].pop(b, None)
    cap[a].pop(b, None)
    return a


def ref_max_flow(cap: Dict[int, Dict[int, int]], s, t) -> int:
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


def ref_residual_side(cap: Dict[int, Dict[int, int]], s) -> Set:
    """Vertices reachable from s in the residual left by ref_max_flow."""
    side = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y, c in cap[x].items():
            if c > 0 and y not in side:
                side.add(y)
                queue.append(y)
    return side


def ref_set_flow(vertices: Sequence[int], arcs: Sequence[Tuple[int, int]], directed: bool,
                 sources: Iterable[int], sinks: Iterable[int]) -> Tuple[int, FrozenSet[int]]:
    """(maximum flow, residual side) from a set of sources to a set of sinks.

    A super-source feeds every source and every sink drains into a
    super-sink, each through one arc larger than all capacities together.
    """
    cap = ref_capacities(vertices, arcs, directed)
    big = 2 * len(arcs) + 1
    cap["source"] = {s: big for s in sources}
    cap["sink"] = {}
    for t in sinks:
        cap[t]["sink"] = big
    value = ref_max_flow(cap, "source", "sink")
    return value, frozenset(ref_residual_side(cap, "source") - {"source"})


def brute_min_cut_between(vertices: Sequence[int], arcs: Sequence[Tuple[int, int]],
                          sources: Iterable[int], sinks: Iterable[int]) -> int:
    """Fewest (tail, head) arcs leaving a vertex set that holds the sources and no sink."""
    verts = list(vertices)
    src, dst = set(sources), set(sinks)
    best = len(arcs)
    for mask in range(1 << len(verts)):
        xs = {verts[i] for i in range(len(verts)) if (mask >> i) & 1}
        if src <= xs and not dst & xs:
            best = min(best, sum(1 for t, h in arcs if t in xs and h not in xs))
    return best


def ref_edge_connectivity(vertices: Sequence[int], edges: Sequence[Edge]) -> int:
    """n - 1 reference flows from the first vertex; 0 when disconnected."""
    cap = ref_capacities(vertices, [(u, v) for _, u, v in edges])
    return min(ref_max_flow(ref_copy_caps(cap), vertices[0], v) for v in vertices[1:])


def ref_flow_tree(vertices: Sequence[int], edges: Sequence[Edge]) -> Dict[Tuple[int, int], int]:
    """Multigraph._flow_tree's Gusfield tree on the reference kernel, keyed (u < v)."""
    verts = sorted(vertices)
    cap = ref_capacities(verts, [(u, v) for _, u, v in edges])
    parent = {v: verts[0] for v in verts[1:]}
    lam = {}
    for i, s in enumerate(verts[1:], 1):
        t = parent[s]
        work = ref_copy_caps(cap)
        lam[(min(s, t), max(s, t))] = ref_max_flow(work, s, t)
        side = ref_residual_side(work, s)
        for v in verts[i + 1:]:
            if v in side and parent[v] == t:
                parent[v] = s
    return lam


def ref_nontrivial_3cut(vertices: Sequence[int],
                        edges: Sequence[Edge]) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """The former flow-based 3-cut search of Multigraph.find_nontrivial_3cut,
    on the reference kernel with merged terminals.

    Pin the ends s, u0 of the first non-loop edge by id, try u0 and then the
    other neighbours of s by edge id, and scan the later edges only if the
    cut found avoids u0.  Each try takes the first edge cd avoiding its pair
    whose flow from the pair is 3, and the side its residual reaches.
    """
    ends = {e: (u, v) for e, u, v in sorted(edges)}
    cap = ref_capacities(vertices, ends.values())
    nonloops = [e for e, (u, v) in ends.items() if u != v]

    def around(a: int, b: int):
        seen = set()
        for c, d in ends.values():
            if c == d or c in (a, b) or d in (a, b) or (min(c, d), max(c, d)) in seen:
                continue
            seen.add((min(c, d), max(c, d)))
            work = ref_copy_caps(cap)
            src = ref_merge_nodes(work, a, b)
            if ref_max_flow(work, src, ref_merge_nodes(work, c, d)) == 3:
                xs = frozenset(ref_residual_side(work, src) | {b})
                return xs, frozenset(e for e, (x, y) in ends.items() if (x in xs) != (y in xs))
        return None

    if not nonloops:
        return None
    s, u0 = ends[nonloops[0]]
    neighbours = dict.fromkeys([u0] + [y if x == s else x for e, (x, y) in ends.items()
                                       if x != y and s in (x, y)])
    for u in neighbours:
        found = around(s, u)
        if found is not None:
            break
    if found is None or u == u0:
        return found
    return next(filter(None, (around(*ends[e]) for e in nonloops[1:])))
