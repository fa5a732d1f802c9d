"""Seven cycle packings covering a cubic 3-edge-connected graph.

The base case handles essentially 4-edge-connected graphs directly: a perfect
matching yields the first packing, the matching quotient is partitioned into
three T-joins, and each part spawns a complementary pair of vertex-spanning
joins whose leftover cycles form packings two through seven.  Graphs with a
nontrivial 3-cut are split at the cut, both contractions are solved
recursively, and the labelings are aligned so that edge sets can be unioned
by identifier.

Both output properties are re-verified on every run:
  (a) every edge lands in the special set of at least one packing, and
  (b) every edge lies in exactly four of the seven packings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .errors import InternalVerificationError, PreconditionError
from .multigraph import ContractionResult, Multigraph
from .structures import (
    CyclePacking,
    cycles_from_edge_set,
    odd_degree_vertices,
    partition_into_three_tjoins,
    perfect_matching,
    t_join,
    _packing_quotient,
)


@dataclass(frozen=True)
class SevenPackings:
    """Seven packings plus per-edge membership and special-set witnesses."""

    packings: Tuple[CyclePacking, ...]
    special_sets: Tuple[FrozenSet[int], ...]
    membership: Dict[int, Tuple[int, ...]]  # edge -> indices of packings containing it
    witness: Dict[int, int]  # edge -> index of a packing whose special set holds it
    # the contraction of each packing, whose quotient gave its special set
    quotients: Tuple[ContractionResult, ...] = field(compare=False, repr=False)

    def to_json(self) -> Dict:
        return {
            "packings": [
                [list(c.vertices) for c in p.cycles] for p in self.packings
            ],
            "membership": {
                str(e): [1 if k in idx else 0 for k in range(7)]
                for e, idx in sorted(self.membership.items())
            },
            "specialWitness": {str(e): w for e, w in sorted(self.witness.items())},
        }


def _assemble(g: Multigraph, packings: List[CyclePacking]) -> SevenPackings:
    """Verify properties (a) and (b) and bundle the result."""
    if len(packings) != 7:
        raise InternalVerificationError(f"expected 7 packings, got {len(packings)}")
    quotient_of = {p: _packing_quotient(g, p) for p in dict.fromkeys(packings)}
    specials = tuple(quotient_of[p][1] for p in packings)
    membership: Dict[int, Tuple[int, ...]] = {}
    witness: Dict[int, int] = {}
    for e in g.edge_ids:
        idx = tuple(k for k, p in enumerate(packings) if e in p.edge_ids)
        if len(idx) != 4:
            raise InternalVerificationError(
                f"edge {e} lies in {len(idx)} packings instead of 4")
        membership[e] = idx
        hits = [k for k, s in enumerate(specials) if e in s]
        if not hits:
            raise InternalVerificationError(f"edge {e} is special in no packing")
        witness[e] = hits[0]
    return SevenPackings(tuple(packings), specials, membership, witness,
                         tuple(quotient_of[p][0] for p in packings))


def seven_cycle_packings(g: Multigraph) -> SevenPackings:
    """Seven cycle packings with every edge special somewhere and in exactly 4.

    Checks that g is cubic and 3-edge-connected (PreconditionError
    otherwise).  The recursive case runs on the quotients left by
    contracting either side of a 3-edge cut, which are cubic and
    3-edge-connected again.
    """
    for v in g.vertices:
        if g.degree(v) != 3:
            raise PreconditionError(f"vertex {v} has degree {g.degree(v)}; need a cubic graph")
    if g.num_vertices >= 2 and not g.is_3_edge_connected():
        raise PreconditionError("need a 3-edge-connected graph")
    cut = g.find_nontrivial_3cut()
    if cut is None:
        return _assemble(g, _base_case(g))
    return _assemble(g, _recursive_case(g, cut))


def _base_case(g: Multigraph) -> List[CyclePacking]:
    matching = perfect_matching(g)
    if matching is None:  # pragma: no cover - guaranteed for cubic 2ec graphs
        raise InternalVerificationError("cubic 2-edge-connected graph without perfect matching")
    rest = frozenset(set(g.edge_ids) - matching)
    packing1 = cycles_from_edge_set(g, rest)
    quotient = g.contract(packing1.edge_ids).graph
    f_parts = partition_into_three_tjoins(quotient)
    packings: List[CyclePacking] = [packing1]
    g_minus_m = g.subgraph_on_edges(rest)
    for f_i in f_parts:
        covered = set()
        for e in f_i:
            covered.update(g.ends(e))
        t_i = [v for v in g.vertices if v not in covered]
        n_i = t_join(g_minus_m, t_i)
        if n_i is None:  # pragma: no cover - parity argument guarantees existence
            raise InternalVerificationError("join of uncovered vertices does not exist")
        s_even = frozenset(f_i | n_i)
        s_odd = frozenset(f_i | (rest - n_i))
        for s in (s_even, s_odd):
            if odd_degree_vertices(g, s) != frozenset(g.vertices):
                raise InternalVerificationError("constructed set is not vertex spanning by parity")
            packings.append(cycles_from_edge_set(g, set(g.edge_ids) - s))
    return packings


def _recursive_case(
    g: Multigraph, cut: Tuple[FrozenSet[int], FrozenSet[int]]
) -> List[CyclePacking]:
    side, cut_edges = cut
    other = frozenset(set(g.vertices) - side)
    cut_sorted = sorted(cut_edges)
    halves = []
    for keep, squash in ((side, other), (other, side)):
        inner = g.induced_edge_ids(squash)
        cr = g.contract(inner)
        merged = {cr.vertex_map[v] for v in squash}
        if len(merged) != 1:  # pragma: no cover - cut sides are connected in 3ec graphs
            raise InternalVerificationError("cut side did not contract to one vertex")
        halves.append((cr.graph, next(iter(merged))))
    relabeled = []
    for quotient, merged_vertex in halves:
        sub = seven_cycle_packings(quotient)
        relabeled.append(_relabel(quotient, sub, merged_vertex, cut_sorted))
    combined = []
    for k in range(7):
        combined.append(cycles_from_edge_set(g, relabeled[0][k].edge_ids | relabeled[1][k].edge_ids))
    return combined


def _relabel(
    quotient: Multigraph,
    sub: SevenPackings,
    merged_vertex: int,
    cut_sorted: List[int],
) -> List[CyclePacking]:
    """Order a side's packings to the shared labeling demanded by the merge.

    Index 0 avoids the merged vertex; indices 2j-1 and 2j (0-based 1+2(j-1)
    and 2+2(j-1)) carry the cut pair missing cut edge j, with the packing
    where cut edge j is special placed first.  Lexicographically least choice
    wins when both qualify.
    """
    avoiding = [k for k, p in enumerate(sub.packings) if merged_vertex not in p.vertex_set]
    if len(avoiding) != 1:
        raise InternalVerificationError(
            f"{len(avoiding)} packings avoid the merged vertex; expected exactly 1")
    order = [avoiding[0]]
    for j, ej in enumerate(cut_sorted):
        pair_edges = set(cut_sorted) - {ej}
        carriers = [
            k for k, p in enumerate(sub.packings)
            if pair_edges <= p.edge_ids and ej not in p.edge_ids
        ]
        if len(carriers) != 2:
            raise InternalVerificationError(
                f"cut pair {sorted(pair_edges)} carried by {len(carriers)} packings; expected 2")
        special_first = sorted(carriers, key=lambda k: (ej not in sub.special_sets[k], k))
        if ej not in sub.special_sets[special_first[0]]:
            raise InternalVerificationError(
                f"cut edge {ej} is special in neither carrier packing")
        order.extend(special_first)
    if sorted(order) != list(range(7)):  # pragma: no cover - counting argument
        raise InternalVerificationError("relabeling is not a permutation")
    return [sub.packings[k] for k in order]
