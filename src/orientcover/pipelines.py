"""Certifying orientation constructions realizing the constant upper bounds.

Each pipeline builds its orientations constructively, re-verifies the
resulting certificate by direct deletion checks, and refuses to return
anything unverified.  Non-cubic inputs are handled by splitting at cut
vertices or single connecting edges and by cubic extensions contracted back
after the cubic construction runs on the host.

Each pipeline checks its input's precondition once, at entry; its inner
steps then run the private cores of the public constructions, which skip
the re-check on the same graph.  Graphs built along the way (quotients,
split sides, cubic extensions) are new inputs and are checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    InternalVerificationError,
    NotThreeEdgeColorableError,
    PreconditionError,
    SearchExhaustedError,
)
from .exact import FrankCertificate, Status, deletability_decide, verify_certificate
from .multigraph import ContractionResult, Multigraph
from .orientation import (
    Orientation,
    is_deletable_set,
    is_well_balanced,
    lift_tail,
    orient_quotient,
    well_balanced_orientation,
    _pairing_orientations,
    _robbins_tails,
)
from .packings import _seven_cycle_packings
from .structures import (
    CyclePacking,
    EMPTY_PACKING,
    cycles_from_edge_set,
    is_circuit_in,
    is_matching,
    orient_cycle_as_circuit,
    paths_to_two_matchings,
    perfect_matching,
    proper_3_edge_coloring,
    special_set,
    _berge_fulkerson_cover,
    _deletable_arc_on_circuit,
    _special_set,
)


@dataclass(frozen=True)
class PipelineReport:
    """A verified certificate plus audit data for one pipeline run."""

    name: str
    graph: Multigraph
    preconditions: Tuple[str, ...]
    certificate: FrankCertificate
    provenance: Tuple[str, ...]

    def to_json(self) -> Dict:
        payload = self.certificate.to_json()
        payload["pipeline"] = self.name
        payload["preconditions"] = list(self.preconditions)
        payload["provenance"] = list(self.provenance)
        return payload


def _finish(
    name: str,
    g: Multigraph,
    preconditions: Sequence[str],
    orientations: Sequence[Orientation],
    cover: Dict[int, int],
    provenance: Sequence[str],
    bound: int,
) -> PipelineReport:
    if len(orientations) > bound:
        raise InternalVerificationError(
            f"{name} produced {len(orientations)} orientations, bound is {bound}")
    cert = FrankCertificate(tuple(orientations), dict(cover))
    ok, bad = verify_certificate(g, cert)
    if not ok:
        raise InternalVerificationError(f"{name} certificate failed on edges {sorted(bad)}")
    return PipelineReport(name, g, tuple(preconditions), cert, tuple(provenance))


def _require_3ec(g: Multigraph) -> None:
    if g.num_vertices < 2 or g.edge_connectivity() < 3:
        raise PreconditionError("not 3-edge-connected")


def _is_cubic(g: Multigraph) -> bool:
    return all(g.degree(v) == 3 for v in g.vertices)


def _lift(g: Multigraph, cr: ContractionResult, qtails: Mapping[int, int]) -> Dict[int, int]:
    """Tails in g for the edges of cr's quotient, lifted from the quotient tails qtails.

    An edge that became a quotient loop takes its smaller end; loops of g
    take none.
    """
    q = cr.graph
    tails: Dict[int, int] = {}
    for e in q.edge_ids:
        if g.is_loop(e):
            continue
        tails[e] = min(g.ends(e)) if q.is_loop(e) else lift_tail(cr, g, e, qtails[e])
    return tails


# -- special-set orientations ------------------------------------------------------


def orient_special_set_deletable(g: Multigraph, p: CyclePacking) -> Orientation:
    """Orient every packing cycle as a circuit so the special set is deletable.

    The quotient by the packing gets a well-balanced orientation, lifted by
    circuit orientations; edges that became quotient loops take the canonical
    direction.  Deletability of the whole special set is verified before the
    orientation is returned; a failure here would contradict the construction
    and is treated as fatal.  Checks that g is 3-edge-connected
    (PreconditionError otherwise); the pipelines check once at entry.
    """
    _require_3ec(g)
    return _orient_special_set_deletable(g, p, special_set(g, p))


def _orient_special_set_deletable(g: Multigraph, p: CyclePacking,
                                  special: FrozenSet[int]) -> Orientation:
    """orient_special_set_deletable on a checked graph, given p's special set."""
    cr = g.contract(p.edge_ids)
    q = cr.graph
    tails: Dict[int, int] = {}
    for c in p.cycles:
        tails.update(orient_cycle_as_circuit(c, g))
    qtails = well_balanced_orientation(q).tails if q.num_vertices > 1 else {}
    tails.update(_lift(g, cr, qtails))
    d = Orientation(g, tails)
    if not is_deletable_set(d, special):
        raise InternalVerificationError("special set is not deletable in the lifted orientation")
    for c in p.cycles:
        if not is_circuit_in(d, c):  # pragma: no cover - circuits are set explicitly
            raise InternalVerificationError("packing cycle lost its circuit orientation")
    return d


def _matching_orientations(g: Multigraph, matchings: Sequence[FrozenSet[int]]
                           ) -> Tuple[List[Orientation], Dict[int, int]]:
    """One orientation per perfect matching M of the checked cubic g, M deletable in it.

    E − M is a cycle packing, and its special-set orientation makes M
    deletable.  Each edge is covered at the first matching that holds it.
    """
    orientations = []
    cover: Dict[int, int] = {}
    for k, mk in enumerate(matchings):
        packing = cycles_from_edge_set(g, set(g.edge_ids) - mk)
        orientations.append(_orient_special_set_deletable(g, packing, _special_set(g, packing)))
        for e in mk:
            cover.setdefault(e, k)
    return orientations, cover


# -- matching orientations (essentially 4-edge-connected hosts) -----------------------


_MATCHING_PAIRINGS = 2048  # pairings tried before the orientation search


def orient_matching_deletable(g: Multigraph, m: FrozenSet[int], p: CyclePacking) -> Orientation:
    """Orient g so the matching m is deletable and each cycle of p is a circuit.

    Construction: contract the maximal 2-edge-connected pieces of g - m and
    orient each piece strongly connected with the packing cycles as
    circuits.  The quotient's orientation comes from odd-vertex pairings
    whose constrained Eulerian orientations restrict to well-balanced ones,
    each lifted and verified in turn.  If none of the first pairings passes,
    deletability_decide searches the quotient for an orientation in which m
    is deletable; that is complete, since with strongly oriented pieces g's
    orientation and each single deletion of m stay strongly connected
    exactly when the quotient's do.  The search raises SearchExhaustedError
    only when its node budget runs out above the edge limit.  Checks that g
    is essentially 4-edge-connected, that m is a matching and that p avoids
    it (PreconditionError otherwise); the esse4 pipeline checks g once at
    entry.
    """
    if not g.is_essentially_4ec():
        raise PreconditionError("not essentially 4-edge-connected")
    if not is_matching(g, m):
        raise PreconditionError("the given edge set is not a matching")
    if m & p.edge_ids:
        raise PreconditionError("packing cycles must avoid the matching")
    return _orient_matching_deletable(g, m, p)


def _orient_matching_deletable(g: Multigraph, m: FrozenSet[int], p: CyclePacking) -> Orientation:
    """orient_matching_deletable on a checked graph, matching and packing."""
    rest = g.delete_edges(m)
    blocks = [b for b in rest.maximal_2ec_subgraphs()]
    contract_set = set()
    for b in blocks:
        contract_set |= set(rest.induced_edge_ids(b))
    cr = g.contract(contract_set)
    quotient = cr.graph
    constraints: Dict[int, Tuple[int, int]] = {}
    for v in quotient.vertices:
        if len(quotient.edge_cut([v]) if quotient.num_vertices > 1 else ()) != 3:
            continue
        avail = sorted(e for e in quotient.incident_edges(v)
                       if e not in m and not quotient.is_loop(e))
        if len(avail) < 2:
            raise InternalVerificationError(
                f"degree-3 quotient vertex {v} lacks two non-matching edges")
        constraints[v] = (avail[0], avail[1])

    block_tails = _orient_blocks(g, rest, blocks, p)

    def build(dq: Orientation) -> Orientation:
        tails = dict(block_tails)
        tails.update(_lift(g, cr, dq.tails))
        return Orientation(g, tails)

    def good(d: Orientation) -> bool:
        if not is_deletable_set(d, m):
            return False
        return all(is_circuit_in(d, c) for c in p.cycles)

    lam = quotient._flow_tree()
    for dq in _pairing_orientations(quotient, constraints, _MATCHING_PAIRINGS):
        if not is_well_balanced(quotient, dq, lam):
            continue
        d = build(dq)
        if good(d):
            return d
    found = deletability_decide(quotient, m)
    if found.status is Status.INDETERMINATE:
        raise SearchExhaustedError("matching orientation search ran out of nodes")
    if found.status is Status.NO:  # pragma: no cover - the paper's construction exists
        raise InternalVerificationError("the quotient has no orientation with the matching deletable")
    d = build(found.orientation)
    if not good(d):  # pragma: no cover - lifting keeps deletability and circuits
        raise InternalVerificationError("lifted matching orientation failed verification")
    return d


def _orient_blocks(g: Multigraph, rest: Multigraph, blocks: Sequence[FrozenSet[int]],
                   p: CyclePacking) -> Dict[int, int]:
    """Strongly connected tails inside each nontrivial 2ec piece, circuits intact."""
    tails: Dict[int, int] = {}
    cycle_by_edge = {}
    for c in p.cycles:
        for e in c.edges:
            cycle_by_edge[e] = c
    for b in blocks:
        edges = rest.induced_edge_ids(b)
        if not edges:
            continue
        sub = Multigraph(b, {e: g.ends(e) for e in edges})
        cycles_here = []
        seen = set()
        for e in sorted(edges):
            c = cycle_by_edge.get(e)
            if c is not None and c not in seen:
                seen.add(c)
                cycles_here.append(c)
        cyc_edges = set()
        for c in cycles_here:
            tails.update(orient_cycle_as_circuit(c, sub))
            cyc_edges |= set(c.edges)
        bq = sub.contract(cyc_edges)
        tails.update(_lift(sub, bq, _robbins_tails(bq.graph)))
    return tails


# -- pipeline: seven special sets -----------------------------------------------------


def certify_upper7(g: Multigraph) -> PipelineReport:
    """At most seven verified orientations covering every edge as deletable.

    Checks once that g is 3-edge-connected (PreconditionError otherwise).
    """
    _require_3ec(g)
    if _is_cubic(g):
        sp = _seven_cycle_packings(g)
        orientations = [_orient_special_set_deletable(g, p, special)
                        for p, special in zip(sp.packings, sp.special_sets)]
        cover = dict(sp.witness)
        prov = tuple(f"special-set-packing-{k}" for k in range(7))
        return _finish("seven", g, ("3-edge-connected", "cubic"), orientations, cover, prov, 7)
    cut_vertex = _find_cut_vertex(g)
    if cut_vertex is not None:
        return _split_at_cut_vertex(g, cut_vertex, certify_upper7, "seven", 7)
    return _extension_wrapper(g, certify_upper7, "seven", 7, ("3-edge-connected",))


def _find_cut_vertex(g: Multigraph) -> Optional[int]:
    for v in g.vertices:
        rest = g.delete_vertex(v)
        if rest.num_vertices and not rest.is_connected():
            return v
    return None


def _split_at_cut_vertex(g: Multigraph, v: int, recurse, name: str, bound: int) -> PipelineReport:
    comps = g.delete_vertex(v).connected_components()
    side1 = frozenset(comps[0] | {v})
    side2 = frozenset(set(g.vertices) - comps[0])
    parts = []
    for mine, theirs in ((side1, side2), (side2, side1)):
        cr = g.contract(g.induced_edge_ids(theirs))
        parts.append((cr, recurse(cr.graph)))
    count = max(len(rep.certificate.orientations) for _, rep in parts)
    orientations = []
    for j in range(count):
        tails: Dict[int, int] = {}
        for cr, rep in parts:
            tails.update(_lift(g, cr, _pick(rep, j).tails))
        orientations.append(Orientation(g, tails))
    cover: Dict[int, int] = {}
    for cr, rep in parts:
        for e in cr.graph.edge_ids:
            cover[e] = rep.certificate.cover[e]
    prov = tuple(f"merge-at-cut-vertex-{v}" for _ in range(count))
    return _finish(name, g, ("3-edge-connected", f"cut vertex {v}"), orientations, cover, prov, bound)


def _pick(rep: PipelineReport, j: int) -> Orientation:
    ds = rep.certificate.orientations
    return ds[j] if j < len(ds) else ds[0]


def _extension_wrapper(g: Multigraph, recurse, name: str, bound: int,
                       preconditions: Tuple[str, ...]) -> PipelineReport:
    from .structures import cubic_extension

    ext = cubic_extension(g)
    host_rep = recurse(ext.host)
    cr = ext.host.contract(ext.all_cycle_edges)
    back = {}
    for v, members in ext.classes.items():
        back[cr.vertex_map[members[0]]] = v
    orientations = []
    for dh in host_rep.certificate.orientations:
        dq = orient_quotient(dh, cr)
        tails = {}
        for e in g.edge_ids:
            if g.is_loop(e):
                continue
            qt = dq.tail(e)
            candidate = back[qt]
            if candidate not in g.ends(e):  # pragma: no cover - classes partition hosts
                raise InternalVerificationError(f"lifted tail mismatch on edge {e}")
            tails[e] = candidate
        orientations.append(Orientation(g, tails))
    cover = {e: host_rep.certificate.cover[e] for e in g.edge_ids}
    prov = tuple(f"cubic-extension:{p}" for p in host_rep.provenance)
    return _finish(name, g, preconditions + ("cubic extension",), orientations, cover, prov, bound)


# -- pipeline: proper 3-edge-colorings --------------------------------------------------


def certify_color3(g: Multigraph) -> PipelineReport:
    """Three orientations, one per color class of a proper 3-edge-coloring.

    Checks once that g is 3-edge-connected and cubic (PreconditionError
    otherwise); a cubic graph without a 3-edge-coloring raises
    NotThreeEdgeColorableError.
    """
    _require_3ec(g)
    if not _is_cubic(g):
        raise PreconditionError("not cubic; 3-edge-colorable inputs are cubic")
    coloring = proper_3_edge_coloring(g)
    if coloring is None:
        raise NotThreeEdgeColorableError("not 3-edge-colorable")
    orientations, cover = _matching_orientations(g, coloring)
    prov = tuple(f"color-class-{k}" for k in range(3))
    return _finish("color3", g, ("3-edge-connected", "cubic", "3-edge-colorable"),
                   orientations, cover, prov, 3)


# -- pipeline: double covers -------------------------------------------------------------


def certify_bf5(g: Multigraph, node_budget: int = 200_000) -> PipelineReport:
    """Five orientations from the first five matchings of a double cover.

    Every 3-edge-cut meets each matching of a double cover exactly once, so
    each matching is deletable via its complementary cycle packing; any five
    of the six matchings already cover every edge.  Checks once that g is
    3-edge-connected and cubic (PreconditionError otherwise).
    """
    _require_3ec(g)
    if not _is_cubic(g):
        raise PreconditionError("not cubic")
    if node_budget <= 0:
        raise SearchExhaustedError("double-cover search budget exhausted")
    found = _berge_fulkerson_cover(g, node_budget)
    if found.status == "indeterminate":
        raise SearchExhaustedError("double-cover search budget exhausted")
    if found.status == "no":
        raise PreconditionError("no perfect-matching double cover exists for this graph")
    matchings = found.matchings[:5]
    orientations, cover = _matching_orientations(g, matchings)
    prov = tuple(f"double-cover-matching-{k}" for k in range(len(matchings)))
    return _finish("bf5", g, ("3-edge-connected", "cubic", "double cover found"),
                   orientations, cover, prov, 5)


# -- pipeline: essentially 4-edge-connected --------------------------------------------


def certify_esse4(g: Multigraph) -> PipelineReport:
    """Three verified orientations for essentially 4-edge-connected graphs.

    Checks once that g is essentially 4-edge-connected (PreconditionError
    otherwise).
    """
    if not g.is_essentially_4ec():
        raise PreconditionError("not essentially 4-edge-connected")
    if _is_cubic(g):
        return _esse4_cubic(g)
    for v in g.vertices:
        rest = g.delete_vertex(v)
        if rest.num_vertices == 0:
            continue
        if not rest.is_connected():
            return _split_at_cut_vertex(g, v, certify_esse4, "esse4", 3)
        bridges = rest.bridges()
        if bridges:
            return _split_at_bridge(g, v, bridges[0])
    return _extension_wrapper(g, certify_esse4, "esse4", 3,
                              ("essentially 4-edge-connected",))


def _esse4_cubic(g: Multigraph) -> PipelineReport:
    m1 = perfect_matching(g)
    if m1 is None:  # pragma: no cover - guaranteed for cubic 2ec graphs
        raise InternalVerificationError("cubic 2-edge-connected graph without perfect matching")
    packing = cycles_from_edge_set(g, set(g.edge_ids) - m1)
    d1 = _orient_matching_deletable(g, m1, packing)
    chosen: List[int] = []
    for c in packing.cycles:
        chosen.append(_deletable_arc_on_circuit(d1, c))
    path_edges = set(g.edge_ids) - m1 - set(chosen)
    m2, m3 = paths_to_two_matchings(g, path_edges)
    d2 = _orient_matching_deletable(g, m2, EMPTY_PACKING)
    d3 = _orient_matching_deletable(g, m3, EMPTY_PACKING)
    cover: Dict[int, int] = {}
    for e in m1:
        cover[e] = 0
    for e in chosen:
        cover[e] = 0
    for e in m2:
        cover[e] = 1
    for e in m3:
        cover[e] = 2
    prov = ("matching-orientation", "path-matching-orientation", "path-matching-orientation")
    return _finish("esse4", g, ("essentially 4-edge-connected", "cubic"),
                   [d1, d2, d3], cover, prov, 3)


def _split_at_bridge(g: Multigraph, v: int, e0: int) -> PipelineReport:
    """Split where g - v falls apart at a single edge, align it, and merge."""
    rest = g.delete_vertex(v)
    comps = rest.delete_edges([e0]).connected_components()
    u1, u2 = g.ends(e0)
    a1 = next(c for c in comps if u1 in c)
    a2 = next(c for c in comps if u2 in c)
    if a1 == a2:  # pragma: no cover - e0 is a bridge of g - v
        raise InternalVerificationError("bridge sides coincide")
    parts = []
    for mine, theirs in ((a1, a2), (a2, a1)):
        cr = g.contract(g.induced_edge_ids(set(theirs) | {v}))
        rep = certify_esse4(cr.graph)
        # rotate so the orientation where the connecting edge is deletable sits first
        j0 = rep.certificate.cover[e0]
        perm = list(range(len(rep.certificate.orientations)))
        perm[0], perm[j0] = perm[j0], perm[0]
        ds = [rep.certificate.orientations[k] for k in perm]
        remap = {old: new for new, old in enumerate(perm)}
        cov = {e: remap[i] for e, i in rep.certificate.cover.items()}
        parts.append((cr, ds, cov))
    count = max(len(ds) for _, ds, _ in parts)
    orientations = []
    for j in range(count):
        first, second = [_lift(g, cr, (ds[j] if j < len(ds) else ds[0]).tails)
                         for cr, ds, _ in parts]
        if first[e0] != second[e0]:
            # reversing one side preserves its deletable set and fixes the seam
            second = {e: g.other_end(e, t) for e, t in second.items()}
        merged = dict(second)
        merged.update(first)
        orientations.append(Orientation(g, merged))
    cover: Dict[int, int] = {e0: 0}
    for cr, _, cov in parts:
        for e in cr.graph.edge_ids:
            if e != e0:
                cover[e] = cov[e]
    prov = tuple(f"merge-at-connecting-edge-{e0}" for _ in range(count))
    return _finish("esse4", g, ("essentially 4-edge-connected", f"splitting vertex {v}"),
                   orientations, cover, prov, 3)
