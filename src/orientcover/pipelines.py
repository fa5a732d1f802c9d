"""Certifying orientation constructions realizing the constant upper bounds.

Each pipeline builds its orientations constructively, re-verifies the
resulting certificate by direct deletion checks, and refuses to return
anything unverified.  Non-cubic inputs are handled by splitting at cut
vertices or single connecting edges and by cubic extensions, whose host
orientations map back through the extension's vertex classes; loops lie in
no cut and are covered by the first orientation.
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
    well_balanced_orientation,
    _pairing_orientations,
    _robbins_tails,
)
from .packings import seven_cycle_packings
from .structures import (
    CyclePacking,
    EMPTY_PACKING,
    berge_fulkerson_cover,
    cycles_from_edge_set,
    find_deletable_arc_on_circuit,
    is_circuit_in,
    is_matching,
    orient_cycle_as_circuit,
    paths_to_two_matchings,
    perfect_matching,
    proper_3_edge_coloring,
    _packing_quotient,
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
    if not g.is_3_edge_connected():
        raise PreconditionError("not 3-edge-connected")


def _is_cubic(g: Multigraph) -> bool:
    return all(g.degree(v) == 3 for v in g.vertices)


def _lift(g: Multigraph, cr: ContractionResult, qtails: Mapping[int, int]) -> Dict[int, int]:
    """Tails in g for the edges of cr's quotient, lifted from the quotient tails qtails.

    Each edge takes the end of g whose class is its quotient tail; an edge
    that became a quotient loop takes its smaller end, and loops of g take
    none.
    """
    q = cr.graph
    tails: Dict[int, int] = {}
    for e in q.edge_ids:
        if g.is_loop(e):
            continue
        u, v = g.ends(e)
        if q.is_loop(e):
            tails[e] = min(u, v)
        elif cr.vertex_map[u] == qtails[e]:
            tails[e] = u
        elif cr.vertex_map[v] == qtails[e]:
            tails[e] = v
        else:  # pragma: no cover - quotient tails are classes of the edge's ends
            raise InternalVerificationError(f"quotient tail {qtails[e]} does not match edge {e}")
    return tails


# -- special-set orientations ------------------------------------------------------


def orient_special_set_deletable(g: Multigraph, p: CyclePacking) -> Orientation:
    """Orient every packing cycle as a circuit so the special set is deletable.

    The quotient by the packing gets a well-balanced orientation, lifted by
    circuit orientations; edges that became quotient loops take the canonical
    direction.  The special set (as in structures.special_set) is read off
    the same quotient, and its deletability is verified before the
    orientation is returned; a failure here would contradict the construction
    and is treated as fatal.  Checks that g is 3-edge-connected
    (PreconditionError otherwise).
    """
    _require_3ec(g)
    return _orient_over_quotient(g, p, *_packing_quotient(g, p))


def _orient_over_quotient(g: Multigraph, p: CyclePacking, cr: ContractionResult,
                          special: FrozenSet[int]) -> Orientation:
    """orient_special_set_deletable on the checked g, from p's contraction cr
    and the special set read off its quotient."""
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
    deletable; a matching that repeats (a double cover may hold one twice)
    is oriented once.  Each edge is covered at the first matching that
    holds it.
    """
    oriented = {}
    for mk in dict.fromkeys(matchings):
        oriented[mk] = orient_special_set_deletable(g, cycles_from_edge_set(g, set(g.edge_ids) - mk))
    cover: Dict[int, int] = {}
    for k, mk in enumerate(matchings):
        for e in mk:
            cover.setdefault(e, k)
    return [oriented[mk] for mk in matchings], cover


# -- matching orientations (essentially 4-edge-connected hosts) -----------------------


_MATCHING_PAIRINGS = 2048  # pairings tried before the orientation search


def orient_matching_deletable(g: Multigraph, m: FrozenSet[int], p: CyclePacking) -> Orientation:
    """Orient g so the matching m is deletable and each cycle of p is a circuit.

    Construction: contract the maximal 2-edge-connected pieces of g - m and
    orient each piece strongly connected with the packing cycles as
    circuits.  The quotient's orientation comes from odd-vertex pairings:
    each pairing's constrained Eulerian orientation is lifted and verified
    in turn, and the first that passes wins.  If none of the first pairings
    passes, deletability_decide searches the quotient for an orientation in
    which m is deletable; that is complete, since with strongly oriented
    pieces g's orientation and each single deletion of m stay strongly
    connected exactly when the quotient's do.  The search raises
    SearchExhaustedError only when its node budget runs out above the edge
    limit.  Checks that g is essentially 4-edge-connected, that m is a
    matching and that p avoids it (PreconditionError otherwise).
    """
    if not g.is_essentially_4ec():
        raise PreconditionError("not essentially 4-edge-connected")
    if not is_matching(g, m):
        raise PreconditionError("the given edge set is not a matching")
    if m & p.edge_ids:
        raise PreconditionError("packing cycles must avoid the matching")
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

    for dq in _pairing_orientations(quotient, constraints, _MATCHING_PAIRINGS):
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

    Checks that g is 3-edge-connected (PreconditionError otherwise).
    """
    _require_3ec(g)
    if _is_cubic(g):
        sp = seven_cycle_packings(g)
        # the seven packings repeat: orient each distinct one once, over its quotient
        oriented: Dict[CyclePacking, Orientation] = {}
        for p, cr, special in zip(sp.packings, sp.quotients, sp.special_sets):
            if p not in oriented:
                oriented[p] = _orient_over_quotient(g, p, cr, special)
        orientations = [oriented[p] for p in sp.packings]
        cover = dict(sp.witness)
        prov = tuple(f"special-set-packing-{k}" for k in range(7))
        return _finish("seven", g, ("3-edge-connected", "cubic"), orientations, cover, prov, 7)
    return _reduce(g, certify_upper7, "seven", 7, ("3-edge-connected",), seams=False)


def _reduce(g: Multigraph, recurse, name: str, bound: int,
            preconditions: Tuple[str, ...], seams: bool) -> PipelineReport:
    """Certify the non-cubic g by a split or through its cubic extension.

    The split is at the first vertex v whose deletion disconnects g or, with
    seams, leaves a bridge, the first of which is the seam; with no such
    vertex the extension wrapper runs, under the given preconditions.
    """
    for v in g.vertices:
        rest = g.delete_vertex(v)
        if not rest.is_connected():
            return _split(g, v, recurse, name, bound)
        bridges = rest.bridges() if seams else ()
        if bridges:
            return _split(g, v, recurse, name, bound, seam=bridges[0])
    return _extension_wrapper(g, recurse, name, bound, preconditions)


def _split(g: Multigraph, v: int, recurse, name: str, bound: int,
           seam: Optional[int] = None) -> PipelineReport:
    """Certify g from two quotients, one per side of the split at v, and merge them.

    Without a seam, v is a cut vertex and one side is the first component of
    g - v; with one, the seam edge is a bridge of the connected g - v and
    the sides are its two components.  Each quotient contracts the other
    side together with v and is certified by recurse; orientation j of g
    lifts each part's orientation j (its first when it has fewer).  At a
    seam, which both quotients keep, each part is first rotated so its first
    orientation covers the seam, and a part whose lift points the seam the
    other way is reversed, which keeps its deletable sets.  Loops of g lie
    in no cut and are covered at index 0.
    """
    rest = g.delete_vertex(v)
    if seam is None:
        side = rest.connected_components()[0]
        preconditions = ("3-edge-connected", f"cut vertex {v}")
        step = f"merge-at-cut-vertex-{v}"
    else:
        side = next(c for c in rest.delete_edges([seam]).connected_components()
                    if g.ends(seam)[0] in c)
        preconditions = ("essentially 4-edge-connected", f"splitting vertex {v}")
        step = f"merge-at-connecting-edge-{seam}"
    parts = []
    for theirs in (set(rest.vertices) - side, side):
        cr = g.contract(g.induced_edge_ids(theirs | {v}))
        cert = recurse(cr.graph).certificate
        ds, part_cover = list(cert.orientations), cert.cover
        if seam is not None:
            j0 = part_cover[seam]
            ds[0], ds[j0] = ds[j0], ds[0]
            part_cover = {e: j0 if k == 0 else 0 if k == j0 else k for e, k in part_cover.items()}
        parts.append((cr, ds, part_cover))
    count = max(len(ds) for _, ds, _ in parts)
    orientations = []
    for j in range(count):
        tails: Dict[int, int] = {}
        for cr, ds, _ in parts:
            lifted = _lift(g, cr, ds[j if j < len(ds) else 0].tails)
            if seam is not None and tails and tails[seam] != lifted[seam]:
                lifted = {e: g.other_end(e, t) for e, t in lifted.items()}
            tails.update(lifted)
        orientations.append(Orientation(g, tails))
    cover = {e: 0 for e in g.edge_ids if g.is_loop(e)}
    for cr, _, part_cover in parts:
        cover.update((e, part_cover[e]) for e in cr.graph.edge_ids if not g.is_loop(e))
    return _finish(name, g, preconditions, orientations, cover, (step,) * count, bound)


def _extension_wrapper(g: Multigraph, recurse, name: str, bound: int,
                       preconditions: Tuple[str, ...]) -> PipelineReport:
    """Certify g through its cubic extension, which leaves out the loops of g.

    Each host orientation maps its tails back to g through the extension's
    vertex classes; loops of g lie in no cut and are covered at index 0.
    """
    from .structures import cubic_extension

    ext = cubic_extension(g)
    host_rep = recurse(ext.host)
    back = {w: v for v, members in ext.classes.items() for w in members}
    orientations = []
    for dh in host_rep.certificate.orientations:
        tails = {}
        for e in g.edge_ids:
            if g.is_loop(e):
                continue
            tails[e] = back[dh.tail(e)]
            if tails[e] not in g.ends(e):  # pragma: no cover - classes partition hosts
                raise InternalVerificationError(f"lifted tail mismatch on edge {e}")
        orientations.append(Orientation(g, tails))
    cover = {e: 0 if g.is_loop(e) else host_rep.certificate.cover[e] for e in g.edge_ids}
    prov = tuple(f"cubic-extension:{p}" for p in host_rep.provenance)
    return _finish(name, g, preconditions + ("cubic extension",), orientations, cover, prov, bound)


# -- pipeline: proper 3-edge-colorings --------------------------------------------------


def certify_color3(g: Multigraph) -> PipelineReport:
    """Three orientations, one per color class of a proper 3-edge-coloring.

    Checks that g is 3-edge-connected and cubic (PreconditionError
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


_BF5_NODES = 200_000  # node budget of the double-cover search


def certify_bf5(g: Multigraph) -> PipelineReport:
    """Five orientations from the first five matchings of a double cover.

    Every 3-edge-cut meets each matching of a double cover exactly once, so
    each matching is deletable via its complementary cycle packing; any five
    of the six matchings already cover every edge.  Checks that g is
    3-edge-connected and cubic (PreconditionError otherwise); a search that
    runs out of its _BF5_NODES nodes raises SearchExhaustedError.
    """
    _require_3ec(g)
    if not _is_cubic(g):
        raise PreconditionError("not cubic")
    found = berge_fulkerson_cover(g, _BF5_NODES)
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

    Checks that g is essentially 4-edge-connected (PreconditionError
    otherwise).
    """
    if not g.is_essentially_4ec():
        raise PreconditionError("not essentially 4-edge-connected")
    if _is_cubic(g):
        return _esse4_cubic(g)
    return _reduce(g, certify_esse4, "esse4", 3, ("essentially 4-edge-connected",), seams=True)


def _esse4_cubic(g: Multigraph) -> PipelineReport:
    m1 = perfect_matching(g)
    if m1 is None:  # pragma: no cover - guaranteed for cubic 2ec graphs
        raise InternalVerificationError("cubic 2-edge-connected graph without perfect matching")
    packing = cycles_from_edge_set(g, set(g.edge_ids) - m1)
    d1 = orient_matching_deletable(g, m1, packing)
    chosen = [find_deletable_arc_on_circuit(d1, c) for c in packing.cycles]
    path_edges = set(g.edge_ids) - m1 - set(chosen)
    m2, m3 = paths_to_two_matchings(g, path_edges)
    d2 = orient_matching_deletable(g, m2, EMPTY_PACKING)
    d3 = orient_matching_deletable(g, m3, EMPTY_PACKING)
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
