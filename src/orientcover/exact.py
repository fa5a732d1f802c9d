"""Exact solvers: deletability decisions, exact Frank numbers, certificates.

One depth-first search over edge directions serves both solvers and the
well-balanced fallback of the orientation module.  It branches on the edges
in id order and walks the orientations up to global reversal, with the
first edge's direction pinned since deletable sets are reversal-invariant,
and cuts a branch as soon as a vertex with all of its edges directed is a
source, a sink, or is cut off by deleting one arc of the requested set.  A
vertex left with one undirected edge forces that edge's direction when only
one direction can pass the same test, and cuts the branch when neither can;
this removes only dead subtrees, so every leaf is reached in the same order
as without it.  Every answer ships a witness that is re-verified by direct
deletion checks; budget exhaustion is a distinct outcome, never conflated
with "no".  The search leaves and certificate verification run the one
reachability kernel of the orientation module, `_deletable_mask`: one call
per strongly connected leaf tests strength and returns the deletable arcs
among the candidates its caller names.

One decision core, `_decide`, serves `deletability_decide` and the exact
Frank number.  With edge connectivity 4 or more, one decision over every
edge gives f = 1.  With edge connectivity 3, the Frank number scans the
strong orientations for their distinct deletable-arc sets and decides, for
each new set, whether one other orientation makes the rest deletable; the
first yes gives f = 2.  A set that a vertex star or a refuted superset
rules out gets no search, a scan leaf that can only give such sets gets no
kernel call, and refutations are closed under the automorphisms.  With no
yes, f = 3 comes from completing a pair of scanned sets; only when no pair
completes does a full scan feed the set cover (see `frank_number_exact`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    CertificateMismatchError,
    GraphTooLargeError,
    InternalVerificationError,
    PreconditionError,
)
from .multigraph import Multigraph
from .orientation import Orientation, _deletable_among, _deletable_mask, is_deletable_set


class Status(Enum):
    FOUND = "found"
    NO = "no"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SolveLimits:
    """Budgets for the exact solvers.

    Frank numbers are refused above `max_enumerable_edges`; deletability
    decisions up to that many edges search without a budget, larger ones
    stop after `node_budget` search nodes.
    """

    max_enumerable_edges: int = 22
    node_budget: int = 2_000_000

    def __post_init__(self):
        if self.max_enumerable_edges < 1 or self.node_budget < 1:
            raise PreconditionError("solver limits must be positive")


DEFAULT_LIMITS = SolveLimits()


@dataclass(frozen=True)
class DecideResult:
    status: Status
    orientation: Optional[Orientation] = None
    nodes: int = 0


@dataclass(frozen=True)
class FrankCertificate:
    """Orientations plus, per edge, the index where its arc is deletable."""

    orientations: Tuple[Orientation, ...]
    cover: Dict[int, int]

    def to_json(self) -> Dict:
        from .graphio import graph_to_json

        graph = self.orientations[0].graph if self.orientations else None
        return {
            "graph": graph_to_json(graph) if graph is not None else None,
            "orientations": [d.to_json(inline_graph=False) for d in self.orientations],
            "cover": {str(e): idx for e, idx in sorted(self.cover.items())},
        }


def certificate_from_json(obj: Dict, graph: Optional[Multigraph] = None) -> FrankCertificate:
    from .errors import FormatError
    from .graphio import graph_from_json
    from .orientation import orientation_from_json

    if not isinstance(obj, dict):
        raise FormatError("certificate JSON must be an object")
    if graph is None:
        if obj.get("graph") is None:
            raise FormatError("certificate JSON carries no graph and none was supplied")
        graph = graph_from_json(obj["graph"], cap=None)
    try:
        orientations = tuple(
            orientation_from_json(rec, graph) for rec in obj["orientations"])
        cover = {int(e): int(i) for e, i in obj["cover"].items()}
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed certificate JSON: {exc}") from None
    return FrankCertificate(orientations, cover)


# -- orientation search -----------------------------------------------------------


class _Kernel:
    """One graph as flat arrays for the orientation search.

    Vertex i is the i-th vertex of the graph and edge i its i-th non-loop
    edge by id; bit i of an orientation mask reverses edge i, and
    `ends[i][bit]` is the (tail, head) pair edge i then takes.  `incident`
    lists the edges at each vertex.  `small_stars` holds, for a graph of two
    or more vertices, the bitmask of the edges at each vertex with fewer than
    four.  No orientation makes a set holding such a star deletable:
    deleting any one arc of it must leave its vertex an in-arc and an
    out-arc, so the vertex needs two of each.
    """

    def __init__(self, g: Multigraph):
        self.graph = g
        self.vertices = list(g.vertices)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.edges = [e for e in g.edge_ids if not g.is_loop(e)]
        self.eindex = {e: i for i, e in enumerate(self.edges)}
        self.u = [self.vindex[g.ends(e)[0]] for e in self.edges]
        self.v = [self.vindex[g.ends(e)[1]] for e in self.edges]
        self.n = len(self.vertices)
        self.m = len(self.edges)
        self.ends = [((a, b), (b, a)) for a, b in zip(self.u, self.v)]
        self.incident: List[List[int]] = [[] for _ in range(self.n)]
        stars = [0] * self.n  # bitmask of the edges at each vertex
        for i, (a, b) in enumerate(zip(self.u, self.v)):
            self.incident[a].append(i)
            self.incident[b].append(i)
            stars[a] |= 1 << i
            stars[b] |= 1 << i
        self.small_stars = [star for star, edges in zip(stars, self.incident)
                            if len(edges) < 4] if self.n >= 2 else []

    def orientation_of(self, mask: int) -> Orientation:
        tails = {}
        for i, e in enumerate(self.edges):
            u, v = self.graph.ends(e)
            tails[e] = v if (mask >> i) & 1 else u
        return Orientation(self.graph, tails)


def _search(
    kern: _Kernel, sbit: int, budget: Optional[int], candidates: Optional[Sequence[int]],
    leaf: Callable[[int, int], bool], skip: Optional[Callable[[int], bool]] = None,
) -> Tuple[Status, int, int]:
    """Depth-first search over edge directions, taken in kernel index order.

    Bit i of an orientation mask reverses edge i; edge 0 keeps its natural
    direction.  A vertex whose edges are all directed is ok when it has an
    in-arc and an out-arc, and neither its only in-arc nor its only out-arc
    lies in the bitmask `sbit`; a branch is cut as soon as a finished vertex
    is not ok.

    Directions also propagate.  After each edge is directed, an end x of it
    with exactly one undirected edge left has both directions of that edge
    tested by the same rule (at x, and at the edge's other end if that end
    is then finished).  If neither passes, the branch is cut; if one passes,
    the edge takes it at once, ahead of its turn, and the rule is applied
    again at its other end.  Later the search takes such a forced edge
    without branching.  Only subtrees without a leaf whose vertices are all
    ok are cut, so the leaves are visited in the same order as without
    propagation.

    Each leaf costs one `_deletable_mask` call over `candidates`, kernel
    edge indices or None for all, unless `skip(bound)` drops the leaf first;
    bound, the arcs that are neither their tail's only out-arc nor their
    head's only in-arc, holds every deletable arc.  A strongly connected leaf
    is handed to `leaf(mask, dmask)`, dmask being the bitmask of its
    deletable candidates, and the search stops at the first leaf it accepts.
    A node is one call of the recursive step: it branches on the next
    unforced edge, or evaluates a leaf; forced edges cost no node.  Returns (status, accepted mask or 0,
    nodes visited); a search that needs more than `budget` nodes ends
    INDETERMINATE.
    """
    n, m, us, vs, ends, incident = kern.n, kern.m, kern.u, kern.v, kern.ends, kern.incident
    limit = float("inf") if budget is None else budget
    undecided = [len(edges) for edges in incident]
    free_of = [0 if (sbit >> i) & 1 else 1 for i in range(m)]
    direction = [-1] * m  # bit of each directed edge, -1 while undirected
    trail: List[int] = []  # the directed edges, in the order they were directed
    in_count = [0] * n
    out_count = [0] * n
    in_free = [0] * n  # arcs entering that are outside sbit
    out_free = [0] * n
    nodes = 0
    found = 0

    def vertex_ok(x: int) -> bool:
        return (in_free[x] or in_count[x] > 1) and (out_free[x] or out_count[x] > 1)

    def ok_with_last(x: int, into: bool, free: int) -> bool:
        """vertex_ok(x) once its one undirected edge is directed into (or out of) x."""
        if into:
            return (in_free[x] or free or in_count[x]) and (out_free[x] or out_count[x] > 1)
        return (in_free[x] or in_count[x] > 1) and (out_free[x] or free or out_count[x])

    def propagate(stack: List[int]) -> bool:
        """Force the last undirected edges at the vertices on the stack.

        Each forced edge goes on `trail`; False at a dead end.
        """
        while stack:
            x = stack.pop()
            if undecided[x] != 1:
                continue
            for j in incident[x]:
                if direction[j] < 0:
                    break
            y = vs[j] if us[j] == x else us[j]
            free = free_of[j]
            y_last = undecided[y] == 1
            out_ok = ok_with_last(x, False, free) and (not y_last or ok_with_last(y, True, free))
            in_ok = ok_with_last(x, True, free) and (not y_last or ok_with_last(y, False, free))
            if out_ok and in_ok:
                continue
            if not (out_ok or in_ok):
                return False
            t, h = (x, y) if out_ok else (y, x)
            out_count[t] += 1
            in_count[h] += 1
            out_free[t] += free
            in_free[h] += free
            undecided[t] -= 1
            undecided[h] -= 1
            direction[j] = 0 if us[j] == t else 1
            trail.append(j)
            stack.append(y)
        return True

    def rec(i: int, mask: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > limit:
            return False
        while i < m and direction[i] >= 0:  # forced ahead of its turn
            mask |= direction[i] << i
            i += 1
        if i == m:
            arcs = [ends[j][bit] for j, bit in enumerate(direction)]
            if skip is not None and skip(sum(1 << j for j, (t, h) in enumerate(arcs)
                                             if out_count[t] > 1 and in_count[h] > 1)):
                return False
            dmask = _deletable_mask(n, arcs, candidates)
            if dmask is not None and leaf(mask, dmask):
                found = mask
                return True
            return False
        free = free_of[i]
        for bit in ((0,) if i == 0 else (0, 1)):
            t, h = ends[i][bit]
            mark = len(trail)
            trail.append(i)
            out_count[t] += 1
            in_count[h] += 1
            out_free[t] += free
            in_free[h] += free
            undecided[t] -= 1
            undecided[h] -= 1
            direction[i] = bit
            good = (undecided[t] > 0 or vertex_ok(t)) and (undecided[h] > 0 or vertex_ok(h))
            if good and (undecided[t] != 1 and undecided[h] != 1 or propagate([t, h])):
                if rec(i + 1, mask | bit << i):
                    return True
            while len(trail) > mark:  # undo the forced edges, then edge i
                j = trail.pop()
                a, b = ends[j][direction[j]]
                fj = free_of[j]
                out_count[a] -= 1
                in_count[b] -= 1
                out_free[a] -= fj
                in_free[b] -= fj
                undecided[a] += 1
                undecided[b] += 1
                direction[j] = -1
            if nodes > limit:
                return False
        return False

    if rec(0, 0):
        return Status.FOUND, found, nodes
    if nodes > limit:
        return Status.INDETERMINATE, 0, nodes
    return Status.NO, 0, nodes


def _decide(kern: _Kernel, sbit: int, budget: Optional[int]) -> Tuple[Status, int, int]:
    """`_search` for an orientation mask in which every edge of the bitmask `sbit` is deletable.

    Its callers rule out a star of the kernel inside `sbit` first; the
    search alone refutes one only once it has directed that star's edges.
    """
    candidates = [i for i in range(kern.m) if (sbit >> i) & 1]
    return _search(kern, sbit, budget, candidates, lambda mask, dmask: dmask == sbit)


def _scan_deletable_profiles(
    kern: _Kernel, stop: Optional[Callable[[int, int], bool]] = None,
    skip: Optional[Callable[[int], bool]] = None,
) -> Dict[int, int]:
    """All distinct deletable-arc masks with their smallest orientation mask.

    Edge 0 keeps its natural direction, as in every `_search`.
    Each new mask is handed to `stop(mask, orientation mask)`, with the
    orientation that first gave it, as soon as it is recorded; the scan ends
    at the first one it accepts, with only the masks seen so far.  Leaves
    that `skip` drops by their bound (see `_search`) are not scanned.
    """
    profiles: Dict[int, int] = {}

    def record(mask: int, dmask: int) -> bool:
        if dmask in profiles:
            if mask < profiles[dmask]:
                profiles[dmask] = mask
            return False
        profiles[dmask] = mask
        return stop is not None and stop(dmask, mask)

    _search(kern, 0, None, None, record, skip)
    return profiles


# -- minimum set cover -------------------------------------------------------------


def _min_cover(universe: int, sets_masks: List[int], floor: int = 0) -> List[int]:
    """Indices of a minimum subfamily covering the universe bitmask.

    Branch and bound seeded with the greedy cover; branches on the uncovered
    element with the fewest candidate sets, in a fixed order, so the optimum
    returned is deterministic.  `floor` is a size no cover goes below, known
    to the caller: the search returns as soon as its best cover has that
    size.  It only ever replaces its best cover with a strictly smaller one,
    so the floor changes the time, never the cover returned.
    """
    if universe == 0:
        return []
    order = sorted(range(len(sets_masks)), key=lambda i: (-bin(sets_masks[i]).count("1"), sets_masks[i]))
    masks = [sets_masks[i] for i in order]

    greedy: List[int] = []
    left = universe
    while left:
        best = max(range(len(masks)), key=lambda i: (bin(masks[i] & left).count("1"), -i))
        if masks[best] & left == 0:
            raise PreconditionError("sets do not cover the universe")
        greedy.append(best)
        left &= ~masks[best]
    best_sol = greedy
    if len(best_sol) <= floor:
        return [order[i] for i in best_sol]
    max_size = max(bin(m).count("1") for m in masks)

    covers_of = {pos: [i for i, m in enumerate(masks) if (m >> pos) & 1]
                 for pos in range(universe.bit_length()) if (universe >> pos) & 1}
    fewest_first = sorted(covers_of, key=lambda pos: len(covers_of[pos]))  # stable: ties by pos

    chosen: List[int] = []

    def dfs(left: int) -> bool:
        """Branch below `chosen`; True once the best cover is down to the floor."""
        nonlocal best_sol
        if left == 0:
            if len(chosen) < len(best_sol):
                best_sol = list(chosen)
            return len(best_sol) <= floor
        lower = len(chosen) + -(-bin(left).count("1") // max_size)
        if lower >= len(best_sol):
            return False
        for target in fewest_first:
            if (left >> target) & 1:
                break
        for i in covers_of[target]:
            chosen.append(i)
            done = dfs(left & ~masks[i])
            chosen.pop()
            if done:
                return True
        return False

    dfs(universe)
    return [order[i] for i in best_sol]


def _inside(holders: List[int], mask: int, count: int) -> bool:
    """Whether one of `count` recorded sets holds mask; holders[j] has bit k when set k holds edge j."""
    common = (1 << count) - 1
    while mask and common:
        low = mask & -mask
        common &= holders[low.bit_length() - 1]
        mask ^= low
    return common != 0


def _maximal_sets(kern: _Kernel, profiles: Dict[int, int]) -> List[Tuple[int, int]]:
    """The undominated (set, orientation) masks, largest sets first, ties by orientation."""
    maximal: List[Tuple[int, int]] = []
    holders = [0] * kern.m
    for dmask, omask in sorted(profiles.items(), key=lambda kv: (-bin(kv[0]).count("1"), kv[1])):
        if not _inside(holders, dmask, len(maximal)):
            holders = [h | ((dmask >> j) & 1) << len(maximal) for j, h in enumerate(holders)]
            maximal.append((dmask, omask))
    return maximal


def _maximal_cover(kern: _Kernel, profiles: Dict[int, int]) -> List[Tuple[int, int]]:
    """A minimum cover of the edges by the `_maximal_sets`, as (set, orientation) masks.

    Called only after a completion scan in which no set completed, so no
    cover has fewer than 3 sets: 3 is the floor of `_min_cover`.
    """
    maximal = _maximal_sets(kern, profiles)
    cover_idx = _min_cover((1 << kern.m) - 1, [dm for dm, _ in maximal], 3)
    return [maximal[i] for i in cover_idx]


def _complete_pair(kern: _Kernel, profiles: Dict[int, int],
                   hopeless: Callable[[int], bool]) -> Optional[List[Tuple[int, int]]]:
    """The first pair of maximal sets P1, P2, in `_maximal_sets` order, with E − (P1 ∪ P2)
    deletable, plus its witness, or None; only unions that `hopeless` keeps get a decision."""
    maximal = _maximal_sets(kern, profiles)
    for a, first in enumerate(maximal):
        for second in maximal[a + 1:]:
            rest = ((1 << kern.m) - 1) & ~(first[0] | second[0])
            if not hopeless(first[0] | second[0]):
                status, witness, _ = _decide(kern, rest, None)
                if status is Status.FOUND:
                    return [first, second, (rest, witness)]
    return None


def _automorphisms(kern: _Kernel) -> List[List[int]]:
    """The graph's automorphisms, each as the image of every kernel edge index.

    A backtracking search maps the vertices in BFS order from vertex 0, each
    to an unused vertex with the same BFS layer sizes, adjacent to the images
    of its mapped neighbours only, by as many edges.  The i-th parallel edge
    between two vertices maps to the i-th between their images, by index.
    """
    n, pairs = kern.n, list(zip(kern.u, kern.v))
    between: Dict[Tuple[int, int], List[int]] = {}
    for i, (a, b) in enumerate(pairs):
        between.setdefault((a, b), []).append(i)
        between.setdefault((b, a), []).append(i)
    nbrs = [sum(1 << b for b in range(n) if (a, b) in between) for a in range(n)]

    def layers(root: int) -> List[int]:
        out = [1 << root]
        while out[-1]:
            reach = 0
            for x in range(n):
                reach |= nbrs[x] if (out[-1] >> x) & 1 else 0
            out.append(reach & ~sum(out))  # the layers are disjoint
        return out[:-1]

    sizes = [[bin(layer).count("1") for layer in layers(x)] for x in range(n)]
    order = [x for layer in layers(0) for x in range(n) if (layer >> x) & 1]
    back = [[z for z in order[:k] if (nbrs[x] >> z) & 1] for k, x in enumerate(order)]
    rank = [between[a, b].index(i) for i, (a, b) in enumerate(pairs)]
    image, found = [-1] * n, []

    def extend(k: int, used: int) -> None:
        if k == n:
            found.append([between[image[a], image[b]][r] for (a, b), r in zip(pairs, rank)])
            return
        x, mapped = order[k], back[k]
        fits = ~used & (nbrs[image[mapped[0]]] if mapped else -1)  # next to the BFS parent's image
        for y in range(n):
            if ((fits >> y) & 1 and sizes[y] == sizes[x] and bin(nbrs[y] & used).count("1") == len(mapped)
                    and all(len(between[x, z]) == len(between.get((y, image[z]), ())) for z in mapped)):
                image[x] = y
                extend(k + 1, used | 1 << y)

    extend(0, 0)
    return found


# -- public operations ----------------------------------------------------------------


def frank_lower_bound(g: Multigraph) -> int:
    """2 when a 3-edge-cut exists, else 1.

    Checks that g is 3-edge-connected (PreconditionError otherwise).
    """
    if not g.is_3_edge_connected():
        raise PreconditionError("Frank numbers are defined for 3-edge-connected graphs")
    return 2 if g._lambda_upto4() == 3 else 1


def frank_number_exact(
    g: Multigraph, limits: SolveLimits = DEFAULT_LIMITS
) -> Tuple[int, FrankCertificate]:
    """Exact Frank number, stopped at the first certificate of lower-bound size.

    When λ ≥ 4, Nash-Williams' theorem gives a 2-arc-connected orientation,
    which one decision with every arc in the set finds: f = 1.  When λ = 3,
    f = 2 exactly when some strong orientation D1 leaves the edges outside
    its deletable set P deletable in one other orientation.  The scan of the
    strong orientations decides that for each new P and stops at the first
    yes, with D1 and the witness.  A P whose E − P holds a star of
    `_Kernel.small_stars`, or that lies inside an earlier P′ refuted by a
    search, fails without a search: E − P contains E − P′.  (When λ ≥ 4 no
    vertex has a star.)  A leaf whose bound on its deletable arcs (see
    `_search`) fails the same way is skipped with no kernel call, so P, D1
    and the witness are those of the full scan.  At the m-th refuted set the
    automorphisms are computed once; from then on every image of a refuted
    set, the earlier ones too, is refuted.  A scan with no yes proves f ≥ 3.
    Pairs of maximal scanned sets P1, P2 then get the same two rules and a
    decision on E − (P1 ∪ P2); the first yes gives f = 3.  Only when no pair
    completes (a 3-cover needs a skipped set, or f ≥ 4) does the full scan
    run, and an exact set cover over its maximal deletable sets picks the
    certificate, stopping at the first cover of 3 sets.  The edge limit
    bounds every search.
    """
    lower = frank_lower_bound(g)
    kern = _Kernel(g)
    if kern.m > limits.max_enumerable_edges:
        raise GraphTooLargeError(
            f"{kern.m} edges exceeds the enumeration limit {limits.max_enumerable_edges}")
    universe = (1 << kern.m) - 1
    if lower == 1:
        status, omask, _ = _decide(kern, universe, None)
        if status is not Status.FOUND:
            raise InternalVerificationError(
                "no 2-arc-connected orientation of a graph with edge connectivity 4 or more")
        chosen = [(universe, omask)]
    else:
        early: List[Tuple[int, int]] = []
        holders = [0] * kern.m  # the refuted sets (see `_inside`)
        refuted: Set[int] = set()
        autos: List[List[int]] = []

        def hopeless(dmask: int) -> bool:  # E − dmask holds a star, or a refuted set holds dmask
            return (any(not star & dmask for star in kern.small_stars)
                    or _inside(holders, dmask, len(refuted)))

        def refute(dmask: int) -> None:
            members = [j for j in range(kern.m) if (dmask >> j) & 1]
            for image in [sum(1 << p[j] for j in members) for p in autos] or [dmask]:
                if image not in refuted:
                    holders[:] = [h | ((image >> j) & 1) << len(refuted) for j, h in enumerate(holders)]
                    refuted.add(image)
            if not autos and len(refuted) >= kern.m:
                autos.extend(_automorphisms(kern))
                for earlier in list(refuted):
                    refute(earlier)

        def completes(dmask: int, omask: int) -> bool:
            if hopeless(dmask):
                return False
            rest = universe & ~dmask
            status, witness, _ = _decide(kern, rest, None)
            if status is Status.FOUND:
                early.extend(((dmask, omask), (rest, witness)))
                return True
            refute(dmask)
            return False

        profiles = _scan_deletable_profiles(kern, completes, hopeless)
        chosen = (early or _complete_pair(kern, profiles, hopeless)
                  or _maximal_cover(kern, _scan_deletable_profiles(kern)))
    orientations = tuple(kern.orientation_of(omask) for _, omask in chosen)
    # each edge goes to the first chosen set that holds it; loops to index 0
    cover = {e: 0 if g.is_loop(e) else next(
        k for k, (dmask, _) in enumerate(chosen) if (dmask >> kern.eindex[e]) & 1)
        for e in g.edge_ids}
    cert = FrankCertificate(orientations, cover)
    ok, bad = verify_certificate(g, cert)
    if not ok:
        raise InternalVerificationError(
            f"internal certificate failed verification on {sorted(bad)}")
    return len(orientations), cert


def deletability_decide(
    g: Multigraph, s: Iterable[int], limits: SolveLimits = DEFAULT_LIMITS
) -> DecideResult:
    """Search for an orientation in which every edge of s is deletable.

    The search branches on the edges in id order and needs no max flow.  It
    has no node budget up to the edge limit and stops after
    `limits.node_budget` nodes above it; a budget exhaustion is reported as
    INDETERMINATE.  Any FOUND answer carries a witness re-verified with
    is_deletable_set; a witness that fails raises InternalVerificationError.
    A vertex with fewer than four non-loop edges, all in s, gives NO in 0
    nodes, before any search state is built: s's non-loop edges are counted
    per vertex they touch and compared with that vertex's non-loop degree
    (see `_Kernel` for why such a star refutes s).
    """
    sset = frozenset(s)
    for e in sset:
        if not g.has_edge(e):
            raise PreconditionError(f"unknown edge {e} in the requested set")
    if not g.is_connected():
        raise PreconditionError("deletability needs a connected graph")
    inside = Counter(x for u, v in map(g.ends, sset) if u != v for x in (u, v))
    for x, k in inside.items():
        if k < 4 and k == sum(not g.is_loop(e) for e in g.incident_edges(x)):
            return DecideResult(Status.NO, None, 0)
    kern = _Kernel(g)
    sbit = 0
    for e in sset:
        if not g.is_loop(e):
            sbit |= 1 << kern.eindex[e]
    budget = None if kern.m <= limits.max_enumerable_edges else limits.node_budget
    status, mask, nodes = _decide(kern, sbit, budget)
    if status is not Status.FOUND:
        return DecideResult(status, None, nodes)
    witness = kern.orientation_of(mask)
    if not is_deletable_set(witness, sset):
        raise InternalVerificationError("decision witness failed re-verification")
    return DecideResult(status, witness, nodes)


def verify_certificate(g: Multigraph, cert: FrankCertificate) -> Tuple[bool, FrozenSet[int]]:
    """Re-check a certificate by direct deletion tests.

    Returns (ok, offending edges): edges missing from the cover, pointing at
    invalid indices, or not actually deletable where claimed.
    """
    for d in cert.orientations:
        if d.graph != g:
            raise CertificateMismatchError("certificate orientations reference a different graph")
    bad: Set[int] = set()
    claimed: Dict[int, List[int]] = {}
    for e in g.edge_ids:
        idx = cert.cover.get(e)
        if idx is None or not 0 <= idx < len(cert.orientations):
            bad.add(e)
        else:
            claimed.setdefault(idx, []).append(e)
    for idx, edges in claimed.items():
        found = _deletable_among(cert.orientations[idx], edges)
        bad.update(e for e in edges if found is None or e not in found)
    return (not bad, frozenset(bad))
