"""Monotone not-all-equal 3-SAT and its deletability gadget.

A preprocessed connected formula maps to a cubic 3-edge-connected graph with
a distinguished edge set S: one even cycle per variable, one vertex per
clause, one long clause cycle, and two canonical perfect matchings tying the
layers together.  Feasible assignments and S-certifying orientations
translate into each other in both directions, and both maps verify their
output before returning it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import FormatError, InternalVerificationError, PreconditionError
from .graphio import graph_to_json
from .multigraph import Multigraph
from .orientation import Orientation, is_deletable_set

_VAR_TOKEN = re.compile(r"^(?:x)?(\d+)$")


@dataclass(frozen=True)
class NaeFormula:
    """Monotone 3-clause formula over contiguously indexed variables 1..m."""

    num_vars: int
    clauses: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        for c in self.clauses:
            if len(c) != 3:
                raise FormatError(f"clause {sorted(c)} does not have 3 distinct variables")
            for x in c:
                if not 1 <= x <= self.num_vars:
                    raise FormatError(f"variable x{x} out of range 1..{self.num_vars}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def occurrences(self) -> Dict[int, int]:
        count = {i: 0 for i in range(1, self.num_vars + 1)}
        for c in self.clauses:
            for x in c:
                count[x] += 1
        return count


Assignment = Dict[int, bool]


def parse_formula(text: str) -> NaeFormula:
    """One clause per line: three distinct positive variable tokens (x7 or 7)."""
    clauses: List[FrozenSet[int]] = []
    raw_ids: Set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise FormatError(f"line {lineno}: clause must have exactly 3 variables")
        ids = []
        for tok in tokens:
            m = _VAR_TOKEN.match(tok)
            if not m or int(m.group(1)) < 1:
                raise FormatError(f"line {lineno}: bad variable token {tok!r}")
            ids.append(int(m.group(1)))
        if len(set(ids)) != 3:
            raise FormatError(f"line {lineno}: repeated variable in clause")
        clauses.append(frozenset(ids))
        raw_ids.update(ids)
    remap = {x: i + 1 for i, x in enumerate(sorted(raw_ids))}
    return NaeFormula(len(remap), tuple(frozenset(remap[x] for x in c) for c in clauses))


def is_feasible(f: NaeFormula, a: Assignment) -> bool:
    """Every clause sees at least one true and at least one false literal."""
    for c in f.clauses:
        values = {a[x] for x in c}
        if len(values) != 2:
            return False
    return True


def preprocess(f: NaeFormula) -> NaeFormula:
    """Drop single-occurrence variables with their clauses, to a fixpoint.

    A variable in only one clause can always be set to make that clause
    mixed, so the clause goes too; afterwards every remaining variable
    occurs at least twice.  Unused variables are dropped and indices are
    compacted.
    """
    clauses = list(f.clauses)
    while True:
        count: Dict[int, int] = {}
        for c in clauses:
            for x in c:
                count[x] = count.get(x, 0) + 1
        lonely = {x for x, k in count.items() if k == 1}
        if not lonely:
            break
        clauses = [c for c in clauses if not (c & lonely)]
    used = sorted({x for c in clauses for x in c})
    remap = {x: i + 1 for i, x in enumerate(used)}
    return NaeFormula(len(used), tuple(frozenset(remap[x] for x in c) for c in clauses))


def decompose_connected(f: NaeFormula) -> Tuple[NaeFormula, ...]:
    """Split along the components of the variable-clause incidence graph."""
    parent = {("v", i): ("v", i) for i in range(1, f.num_vars + 1)}
    parent.update({("c", j): ("c", j) for j in range(len(f.clauses))})

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for j, c in enumerate(f.clauses):
        for x in c:
            union(("c", j), ("v", x))
    groups: Dict[Tuple, List[int]] = {}
    for j in range(len(f.clauses)):
        groups.setdefault(find(("c", j)), []).append(j)
    parts = []
    for key in sorted(groups, key=lambda k: min(groups[k])):
        sub = [f.clauses[j] for j in groups[key]]
        used = sorted({x for c in sub for x in c})
        remap = {x: i + 1 for i, x in enumerate(used)}
        parts.append(NaeFormula(len(used), tuple(frozenset(remap[x] for x in c) for c in sub)))
    return tuple(parts)


def is_connected_formula(f: NaeFormula) -> bool:
    if not f.clauses:
        return True
    return len(decompose_connected(f)) == 1 and f.num_vars == len({x for c in f.clauses for x in c})


def nae_solve_bruteforce(f: NaeFormula, max_vars: int = 24) -> Optional[Assignment]:
    """First feasible assignment in lexicographic order, or None."""
    if f.num_vars > max_vars:
        raise PreconditionError(f"{f.num_vars} variables exceeds the brute-force cap {max_vars}")
    if not f.clauses:
        return {i: False for i in range(1, f.num_vars + 1)}
    for bits in range(1 << f.num_vars):
        a = {i + 1: bool((bits >> i) & 1) for i in range(f.num_vars)}
        if is_feasible(f, a):
            return a
    return None


# -- the gadget -----------------------------------------------------------------------


@dataclass(frozen=True)
class VariableCycle:
    index: int
    vertices: Tuple[int, ...]  # cyclic order around the even cycle
    a_side: Tuple[int, ...]
    b_side: Tuple[int, ...]
    edge_ids: Tuple[int, ...]


@dataclass(frozen=True)
class GadgetInstance:
    """The deletability instance built from a formula."""

    graph: Multigraph
    s: FrozenSet[int]
    formula: NaeFormula
    variable_cycles: Tuple[VariableCycle, ...]
    clause_vertices: Tuple[int, ...]  # position j holds the vertex of clause j
    clause_cycle_vertices: Tuple[int, ...]
    clause_cycle_edges: Tuple[int, ...]
    a_matching: Dict[int, int]  # edge id -> variable index (A_i side matchings)
    b_matching: Dict[int, int]  # edge id -> variable index (B_i to clause cycle)

    def to_json(self) -> Dict:
        return {
            "graph": graph_to_json(self.graph),
            "labels": {
                "variableCycles": [
                    {
                        "variable": vc.index,
                        "vertices": list(vc.vertices),
                        "A": list(vc.a_side),
                        "B": list(vc.b_side),
                        "edges": list(vc.edge_ids),
                    }
                    for vc in self.variable_cycles
                ],
                "clauseVertices": list(self.clause_vertices),
                "clauseCycle": {
                    "vertices": list(self.clause_cycle_vertices),
                    "edges": list(self.clause_cycle_edges),
                },
                "S": sorted(self.s),
            },
            "formula": {
                "numVars": self.formula.num_vars,
                "clauses": [sorted(c) for c in self.formula.clauses],
            },
        }


def build_gadget(f: NaeFormula) -> GadgetInstance:
    """Build the cubic 3-edge-connected deletability instance of a formula.

    Requires a preprocessed (every variable in >= 2 clauses), connected,
    nonempty formula.  The two perfect matchings are canonical: clause
    occurrences in clause order against A-side vertices in cycle order, and
    all B-side vertices in global order against the clause cycle in order.
    """
    if not f.clauses:
        raise PreconditionError("empty formula has no gadget")
    occ = f.occurrences()
    low = [x for x, k in occ.items() if k < 2]
    if low:
        raise PreconditionError(
            f"variables occur fewer than twice (preprocess first): {sorted(low)}")
    if not is_connected_formula(f):
        raise PreconditionError("formula graph is not connected; decompose first")

    edges: Dict[int, Tuple[int, int]] = {}
    next_vertex = 0
    next_edge = 0

    def add_edge(u: int, v: int) -> int:
        nonlocal next_edge
        edges[next_edge] = (u, v)
        next_edge += 1
        return next_edge - 1

    cycles: List[VariableCycle] = []
    s_edges: List[int] = []
    for i in range(1, f.num_vars + 1):
        p = occ[i]
        verts = tuple(range(next_vertex, next_vertex + 2 * p))
        next_vertex += 2 * p
        ids = []
        for k in range(2 * p):
            ids.append(add_edge(verts[k], verts[(k + 1) % (2 * p)]))
        s_edges.extend(ids)
        # the lowest-labeled vertex sits on the A side; the cycle alternates
        cycles.append(VariableCycle(i, verts, verts[0::2], verts[1::2], tuple(ids)))

    clause_vertices = tuple(range(next_vertex, next_vertex + len(f.clauses)))
    next_vertex += len(f.clauses)
    kn = 3 * len(f.clauses)
    k_vertices = tuple(range(next_vertex, next_vertex + kn))
    next_vertex += kn

    a_matching: Dict[int, int] = {}
    for vc in cycles:
        holders = [j for j, c in enumerate(f.clauses) if vc.index in c]
        for slot, j in enumerate(holders):
            e = add_edge(vc.a_side[slot], clause_vertices[j])
            a_matching[e] = vc.index
    b_matching: Dict[int, int] = {}
    b_all = []
    for vc in cycles:
        b_all.extend((v, vc.index) for v in vc.b_side)
    b_all.sort()
    for (bv, var), kv in zip(b_all, k_vertices):
        e = add_edge(bv, kv)
        b_matching[e] = var
    k_edges = tuple(add_edge(k_vertices[t], k_vertices[(t + 1) % kn]) for t in range(kn))

    g = Multigraph(range(next_vertex), edges)
    inst = GadgetInstance(
        graph=g,
        s=frozenset(s_edges),
        formula=f,
        variable_cycles=tuple(cycles),
        clause_vertices=clause_vertices,
        clause_cycle_vertices=k_vertices,
        clause_cycle_edges=k_edges,
        a_matching=a_matching,
        b_matching=b_matching,
    )
    _check_gadget(inst)
    return inst


def _check_gadget(inst: GadgetInstance) -> None:
    g = inst.graph
    nclauses = len(inst.formula.clauses)
    if g.num_vertices != 10 * nclauses or g.num_edges != 15 * nclauses:
        raise InternalVerificationError("gadget size does not match 10|C| / 15|C|")
    for v in g.vertices:
        if g.degree(v) != 3:
            raise InternalVerificationError(f"gadget vertex {v} has degree {g.degree(v)}")
    if g._lambda_upto4() != 3:
        raise InternalVerificationError("gadget is not 3-edge-connected")


# -- the two directions ------------------------------------------------------------------


def assignment_to_orientation(inst: GadgetInstance, a: Assignment) -> Orientation:
    """Orientation certifying S from a feasible assignment.

    Layers flow A1 -> clause vertices -> A2 -> B2 -> clause cycle -> B1 -> A1,
    the clause cycle runs as a circuit, and the result is verified to make S
    deletable before being returned.
    """
    f = inst.formula
    if set(a) != set(range(1, f.num_vars + 1)):
        raise PreconditionError("assignment must cover exactly the formula variables")
    if not is_feasible(f, a):
        raise PreconditionError("assignment is not feasible for the formula")
    g = inst.graph
    tails: Dict[int, int] = {}
    for vc in inst.variable_cycles:
        true_side = a[vc.index]
        a_set = set(vc.a_side)
        for e in vc.edge_ids:
            u, v = g.ends(e)
            a_end, b_end = (u, v) if u in a_set else (v, u)
            # true variables flow B -> A, false ones A -> B
            tails[e] = b_end if true_side else a_end
    for e, var in inst.a_matching.items():
        u, v = g.ends(e)
        a_end, c_end = (u, v) if v in inst.clause_vertices else (v, u)
        tails[e] = a_end if a[var] else c_end
    for e, var in inst.b_matching.items():
        u, v = g.ends(e)
        b_end, k_end = (u, v) if v in inst.clause_cycle_vertices else (v, u)
        tails[e] = k_end if a[var] else b_end
    kn = len(inst.clause_cycle_vertices)
    for t, e in enumerate(inst.clause_cycle_edges):
        tails[e] = inst.clause_cycle_vertices[t]
    d = Orientation(g, tails)
    _check_clause_vertex_flow(inst, d, a)
    if not is_deletable_set(d, inst.s):
        raise InternalVerificationError("constructed orientation does not certify S")
    return d


def _check_clause_vertex_flow(inst: GadgetInstance, d: Orientation, a: Assignment) -> None:
    """Every clause vertex must take an arc from a true A-side and send one to a false A-side."""
    true_a: Set[int] = set()
    false_a: Set[int] = set()
    for vc in inst.variable_cycles:
        (true_a if a[vc.index] else false_a).update(vc.a_side)
    for vc_vertex in inst.clause_vertices:
        ins = {t for t, _ in d.in_arcs(vc_vertex)}
        outs = {h for h, _ in d.out_arcs(vc_vertex)}
        if not (ins & true_a) or not (outs & false_a):
            raise InternalVerificationError(
                f"clause vertex {vc_vertex} violates the in/out flow property")


def orientation_to_assignment(inst: GadgetInstance, d: Orientation) -> Assignment:
    """Recover a feasible assignment from an orientation certifying S.

    The orientation is re-checked on entry; inside each variable cycle all
    arcs must run uniformly between the two sides, which is what makes the
    truth value well defined.
    """
    if d.graph != inst.graph:
        raise PreconditionError("orientation references a different graph")
    if not is_deletable_set(d, inst.s):
        raise PreconditionError("orientation does not certify S as deletable")
    a: Assignment = {}
    for vc in inst.variable_cycles:
        a_set = set(vc.a_side)
        directions = set()
        for e in vc.edge_ids:
            directions.add(d.tail(e) not in a_set)  # True when the arc runs B -> A
        if len(directions) != 1:
            raise InternalVerificationError(
                f"variable cycle {vc.index} is not uniformly oriented")
        a[vc.index] = directions.pop()
    if not is_feasible(inst.formula, a):
        raise InternalVerificationError("extracted assignment is infeasible")
    return a


PAPER_EXAMPLE = "x1 x2 x3\nx1 x2 x4\nx1 x3 x4\n"


def fano_formula() -> NaeFormula:
    """Seven clauses over seven variables with no feasible assignment."""
    lines = ["1 2 3", "1 4 5", "1 6 7", "2 4 6", "2 5 7", "3 4 7", "3 5 6"]
    return parse_formula("\n".join(lines))
