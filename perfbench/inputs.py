"""Seeded input generators for the benchmark.

Everything here is plain Python over edge lists (pairs of vertex ids); no
package code is imported, so the program under test receives only the
generated inputs.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

Pairs = List[Tuple[int, int]]


# -- graph predicates (independent of the package) --------------------------------


def adjacency(vertices: Sequence[int], pairs: Sequence[Tuple[int, int]],
              skip: FrozenSet[int] = frozenset()) -> Dict[int, List[Tuple[int, int]]]:
    """vertex -> [(neighbour, edge index)], loops and skipped edges left out."""
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in vertices}
    for i, (u, v) in enumerate(pairs):
        if i in skip or u == v:
            continue
        adj[u].append((v, i))
        adj[v].append((u, i))
    return adj


def vertex_set(pairs: Sequence[Tuple[int, int]]) -> List[int]:
    return sorted({x for uv in pairs for x in uv})


def bridges(vertices: Sequence[int], pairs: Sequence[Tuple[int, int]],
            skip: FrozenSet[int] = frozenset()) -> Optional[List[int]]:
    """Bridge edge indices, or None when the graph minus `skip` is disconnected."""
    adj = adjacency(vertices, pairs, skip)
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    out: List[int] = []
    root = vertices[0]
    disc[root] = low[root] = 0
    counter = 1
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, via, it = stack[-1]
        advanced = False
        for w, e in it:
            if e == via:
                continue
            if w not in disc:
                disc[w] = low[w] = counter
                counter += 1
                stack.append((w, e, iter(adj[w])))
                advanced = True
                break
            low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            parent = stack[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] > disc[parent]:
                out.append(via)
    if len(disc) != len(vertices):
        return None
    return out


def is_3_edge_connected(pairs: Sequence[Tuple[int, int]]) -> bool:
    """No edge set of size below 3 disconnects the graph."""
    verts = vertex_set(pairs)
    if len(verts) < 2 or bridges(verts, pairs) != []:
        return False
    return all(bridges(verts, pairs, frozenset([i])) == [] for i in range(len(pairs)))


def has_triangle(pairs: Sequence[Tuple[int, int]]) -> bool:
    nbrs: Dict[int, Set[int]] = {}
    for u, v in pairs:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    return any(nbrs[u] & nbrs[v] for u, v in pairs)


# -- structured graphs ---------------------------------------------------------------


def generalized_petersen(n: int, k: int) -> Pairs:
    """gp(n, k): outer cycle 0..n-1, spokes i -- n+i, inner steps of k."""
    if n < 3 or not 1 <= k < n / 2:
        raise ValueError(f"gp({n},{k}) is not a simple cubic graph")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, n + i) for i in range(n)]
    pairs += [(n + i, n + (i + k) % n) for i in range(n)]
    return [(min(u, v), max(u, v)) for u, v in pairs]


# -- random cubic graphs -------------------------------------------------------------


def random_cubic_3ec(rng: random.Random, n: int, need_triangle: bool = False) -> Pairs:
    """A 3-edge-connected cubic graph from the configuration model.

    Pairs 3n half-edges uniformly at random and rejects until the result is
    3-edge-connected (which also makes it simple for n >= 4).  With
    `need_triangle`, graphs without a triangle are rejected too, so the graph
    has a nontrivial 3-edge cut (the triangle's boundary).
    """
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even vertex count of at least 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = [(min(points[i], points[i + 1]), max(points[i], points[i + 1]))
                 for i in range(0, len(points), 2)]
        if any(u == v for u, v in pairs) or len(set(pairs)) != len(pairs):
            continue
        if need_triangle and not has_triangle(pairs):
            continue
        if is_3_edge_connected(pairs):
            return sorted(pairs)


# -- NAE-3SAT formulas ---------------------------------------------------------------


Clause = Tuple[int, int, int]


def preprocess_clauses(clauses: Sequence[Clause]) -> List[Clause]:
    """Drop clauses holding a variable that occurs once, to a fixpoint; compact ids."""
    cs = [tuple(sorted(c)) for c in clauses]
    while True:
        count: Dict[int, int] = {}
        for c in cs:
            for x in c:
                count[x] = count.get(x, 0) + 1
        lonely = {x for x, k in count.items() if k == 1}
        if not lonely:
            break
        cs = [c for c in cs if not lonely.intersection(c)]
    used = sorted({x for c in cs for x in c})
    remap = {x: i + 1 for i, x in enumerate(used)}
    return [tuple(remap[x] for x in c) for c in cs]


def clauses_connected(clauses: Sequence[Clause]) -> bool:
    if not clauses:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j, c in enumerate(clauses):
            if j not in seen and set(c) & set(clauses[i]):
                seen.add(j)
                stack.append(j)
    return len(seen) == len(clauses)


def random_nae_formula(rng: random.Random, num_vars: int, num_clauses: int) -> List[Clause]:
    """A connected, preprocessed monotone 3-clause formula of the given size.

    Draws `num_clauses` distinct clauses over variables 1..num_vars and keeps
    the draw when every variable occurs at least twice (so preprocessing
    leaves it unchanged) and the clauses form one connected formula.
    """
    if not 3 <= num_vars <= 3 * num_clauses // 2:
        raise ValueError("every variable must be able to occur twice")
    while True:
        drawn: Set[Clause] = set()
        while len(drawn) < num_clauses:
            drawn.add(tuple(sorted(rng.sample(range(1, num_vars + 1), 3))))
        cs = sorted(drawn)
        used = {x for c in cs for x in c}
        if len(used) == num_vars and preprocess_clauses(cs) == cs and clauses_connected(cs):
            return cs


def nae_feasible(num_vars: int, clauses: Sequence[Clause]) -> Optional[Dict[int, bool]]:
    """First not-all-equal assignment in counting order, or None; brute force."""
    for bits in range(1 << num_vars):
        if all(len({(bits >> (x - 1)) & 1 for x in c}) == 2 for c in clauses):
            return {i: bool((bits >> (i - 1)) & 1) for i in range(1, num_vars + 1)}
    return None
