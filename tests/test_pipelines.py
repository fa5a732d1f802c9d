import functools
import random

import pytest

from orientcover import packings, pipelines
from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import NotThreeEdgeColorableError, PreconditionError, SearchExhaustedError
from orientcover.exact import (
    deletability_decide,
    frank_lower_bound,
    frank_number_exact,
    verify_certificate,
)
from orientcover.multigraph import Multigraph, _Network, _cached
from orientcover.orientation import deletable_arcs, is_deletable_set, is_strongly_connected
from orientcover.pipelines import (
    certify_bf5,
    certify_color3,
    certify_esse4,
    certify_upper7,
    orient_matching_deletable,
    orient_special_set_deletable,
)
from orientcover.structures import (
    EMPTY_PACKING,
    CyclePacking,
    cycles_from_edge_set,
    enumerate_perfect_matchings,
    find_deletable_arc_on_circuit,
    is_circuit_in,
    paths_to_two_matchings,
    perfect_matching,
    special_set,
)

from oracles import generalized_petersen_pairs, ref_orient_matching_deletable


def assert_report_ok(g, report, bound):
    assert len(report.certificate.orientations) <= bound
    assert verify_certificate(g, report.certificate) == (True, frozenset())
    assert len(report.provenance) == len(report.certificate.orientations)


# -- special-set orientations ----------------------------------------------------------


def test_orient_special_set_petersen_spokes():
    g = named_graph("petersen")
    p = cycles_from_edge_set(g, set(g.edge_ids) - {5, 6, 7, 8, 9})
    d = orient_special_set_deletable(g, p)
    assert special_set(g, p) <= deletable_arcs(d)
    for c in p.cycles:
        assert is_circuit_in(d, c)


def test_orient_special_set_empty_packing_on_k5():
    g = named_graph("k5")
    d = orient_special_set_deletable(g, CyclePacking(()))
    # K5 has no 3-cuts, so every edge is special and hence deletable
    assert deletable_arcs(d) == frozenset(g.edge_ids)


def test_orient_special_set_covering_packing():
    g = named_graph("cube")
    m = perfect_matching(g)
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    d = orient_special_set_deletable(g, p)
    assert is_strongly_connected(d)


def test_orient_special_set_rejects_low_connectivity():
    triangle = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionError, match="3-edge-connected"):
        orient_special_set_deletable(triangle, CyclePacking(()))


# -- matching orientations -------------------------------------------------------------


def test_matching_orientation_petersen_spokes():
    g = named_graph("petersen")
    m = frozenset({5, 6, 7, 8, 9})
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    d = orient_matching_deletable(g, m, p)
    assert is_deletable_set(d, m)
    for c in p.cycles:
        assert is_circuit_in(d, c)


def test_matching_orientation_empty_matching():
    g = named_graph("petersen")
    p = cycles_from_edge_set(g, set(g.edge_ids) - {5, 6, 7, 8, 9})
    d = orient_matching_deletable(g, frozenset(), p)
    assert is_strongly_connected(d)
    for c in p.cycles:
        assert is_circuit_in(d, c)


def test_matching_orientation_single_k5_edge():
    g = named_graph("k5")
    d = orient_matching_deletable(g, frozenset({0}), CyclePacking(()))
    assert is_deletable_set(d, {0})


def test_matching_orientation_rejects_non_esse4():
    g = named_graph("prism3")
    with pytest.raises(PreconditionError):
        orient_matching_deletable(g, frozenset({0}), CyclePacking(()))


def test_matching_orientation_rejects_non_matching():
    g = named_graph("petersen")
    with pytest.raises(PreconditionError):
        orient_matching_deletable(g, frozenset({0, 1}), CyclePacking(()))


def test_every_matching_of_k4_is_deletable():
    g = named_graph("k4")
    for m in ({0}, {0, 5}, {1, 4}, {2, 3}):
        d = orient_matching_deletable(g, frozenset(m), CyclePacking(()))
        assert is_deletable_set(d, m)


def test_matching_orientation_exhaustive_fallback(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return deletability_decide(*args, **kwargs)

    monkeypatch.setattr(pipelines, "_MATCHING_PAIRINGS", 0)
    monkeypatch.setattr(pipelines, "deletability_decide", spy)
    g = named_graph("petersen")
    m = frozenset({5, 6, 7, 8, 9})
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    d = orient_matching_deletable(g, m, p)
    assert len(calls) == 1
    assert is_deletable_set(d, m)
    for c in p.cycles:
        assert is_circuit_in(d, c)


def test_matching_orientation_search_past_22_bits(monkeypatch):
    # gp(32,3) minus its 32 spokes is two 32-cycles, so the quotient is two
    # vertices joined by the spokes; a scan with each cycle frozen to one of
    # its two circuits would range over 2 + 32 = 34 bits
    monkeypatch.setattr(pipelines, "_MATCHING_PAIRINGS", 0)
    g = Multigraph.from_pairs(generalized_petersen_pairs(32, 3))
    assert g.num_vertices == 64 and g.is_essentially_4ec()
    m = frozenset(e for e in g.edge_ids if abs(g.ends(e)[0] - g.ends(e)[1]) == 32)
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    assert len(m) == 32 and len(p.cycles) == 2
    d = orient_matching_deletable(g, m, p)
    assert is_deletable_set(d, m)
    for c in p.cycles:
        assert is_circuit_in(d, c)


# -- the matching orientation against its former per-piece construction -------------------


ESSE4_CUBIC = {name: named_graph(name) for name in ("cube", "k33", "k4", "moebius_kantor",
                                                      "petersen", "theta")}
ESSE4_CUBIC.update((f"gp({n},{k})", Multigraph.from_pairs(generalized_petersen_pairs(n, k)))
                   for n, k in ((5, 2), (7, 2), (10, 3), (12, 5), (16, 3)))


def assert_matches_former(g, m, p):
    d = orient_matching_deletable(g, m, p)
    assert d == ref_orient_matching_deletable(g, m, p)
    return d


@pytest.mark.parametrize("name", sorted(ESSE4_CUBIC))
def test_matching_orientation_equals_the_former_one_on_2_factors(name):
    # a perfect matching with its 2-factor packing, then the two path matchings
    # that certify_esse4 orients with no packing
    g = ESSE4_CUBIC[name]
    assert g.is_essentially_4ec()
    rng = random.Random(name)
    matchings = [perfect_matching(g)]
    if g.num_vertices <= 12:
        matchings += rng.sample(enumerate_perfect_matchings(g), 2)
    for m1 in matchings:
        packing = cycles_from_edge_set(g, set(g.edge_ids) - m1)
        d1 = assert_matches_former(g, m1, packing)
        chosen = [find_deletable_arc_on_circuit(d1, c) for c in packing.cycles]
        for m in paths_to_two_matchings(g, set(g.edge_ids) - m1 - set(chosen)):
            assert_matches_former(g, m, EMPTY_PACKING)


@pytest.mark.parametrize("pairings", [2048, 0])
@pytest.mark.parametrize("name", sorted(ESSE4_CUBIC))
def test_matching_orientation_equals_the_former_one_on_one_edge(monkeypatch, name, pairings):
    # m is one edge and p one cycle of a 2-factor, inside the single piece g - m;
    # with no pairings the quotient goes to deletability_decide
    monkeypatch.setattr(pipelines, "_MATCHING_PAIRINGS", pairings)
    g = ESSE4_CUBIC[name]
    rng = random.Random(name)
    cycles = cycles_from_edge_set(g, set(g.edge_ids) - perfect_matching(g)).cycles
    for _ in range(3):
        c = rng.choice(cycles)
        e = rng.choice(sorted(set(g.edge_ids) - set(c.edges)))
        assert_matches_former(g, frozenset({e}), CyclePacking((c,)))


def with_parallel_edges(g, rng, copies, loops):
    """g plus `copies` parallel copies of random edges and `loops` random loops."""
    edges = {e: g.ends(e) for e in g.edge_ids}
    base = max(edges) + 1
    for k in range(copies):
        edges[base + k] = g.ends(rng.choice(g.edge_ids))
    for k in range(loops):
        v = rng.choice(g.vertices)
        edges[base + copies + k] = (v, v)
    return Multigraph(g.vertices, edges)


@pytest.mark.parametrize("pairings", [2048, 0])
@pytest.mark.parametrize("seed", range(12))
def test_matching_orientation_equals_the_former_one_with_parallel_edges(monkeypatch, seed, pairings):
    # extra parallel edges keep an essentially 4-edge-connected graph so; the packing
    # takes vertex-disjoint 2-cycles of parallel edges and loops outside the matching
    monkeypatch.setattr(pipelines, "_MATCHING_PAIRINGS", pairings)
    rng = random.Random(seed)
    name = ("k4", "k33", "cube", "petersen", "k5", "wheel4", "wheel5", "hub_triangles")[seed % 8]
    g = with_parallel_edges(named_graph(name), rng, rng.randint(2, 6), rng.randint(0, 2))
    assert g.is_essentially_4ec()
    nonloops = [e for e in g.edge_ids if not g.is_loop(e)]
    rng.shuffle(nonloops)
    m, matched = set(), set()
    for e in nonloops:
        if not matched & set(g.ends(e)) and rng.random() < 0.9:
            m.add(e)
            matched.update(g.ends(e))
    cycle_edges, used = set(), set()
    for e in sorted(set(g.edge_ids) - m):
        ends = set(g.ends(e))
        cycle = [e] if g.is_loop(e) else [e] + [f for f in g.edge_ids if f > e and f not in m
                                                and set(g.ends(f)) == ends][:1]
        if len(cycle) == len(ends) and not used & ends and rng.random() < 0.7:
            cycle_edges.update(cycle)
            used.update(ends)
    p = cycles_from_edge_set(g, cycle_edges)
    assert_matches_former(g, frozenset(m), p)


@pytest.mark.parametrize("name", ["gp(10,3)", "gp(16,3)", "cube", "k33"])
@pytest.mark.parametrize("pipeline", [certify_color3, certify_bf5], ids=lambda f: f.__name__)
def test_matching_pipelines_list_no_3_cuts(monkeypatch, name, pipeline):
    # every quotient edge of a matching's packing lies in the matching, which is
    # verified deletable as a whole, so no special set is read off the quotient
    g = ESSE4_CUBIC[name]
    g = Multigraph(g.vertices, {e: g.ends(e) for e in g.edge_ids})  # nothing cached
    calls = []
    original = Multigraph._3cuts

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Multigraph, "_3cuts", counted)
    assert_report_ok(g, pipeline(g), 5)
    assert calls == []


def test_well_balanced_exhaustive_fallback(monkeypatch):
    from orientcover import orientation
    from orientcover.orientation import is_well_balanced, well_balanced_orientation

    monkeypatch.setattr(orientation, "_WELL_BALANCED_PAIRINGS", 0)  # no pairing is tried
    g = named_graph("k4")
    d = well_balanced_orientation(g)
    assert is_well_balanced(g, d)


# -- upper-7 pipeline --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["petersen", "k4", "k33", "prism3", "cube", "theta",
                                  "moebius_kantor", "bipetersen"])
def test_upper7_cubic_corpus(name):
    g = named_graph(name)
    assert_report_ok(g, certify_upper7(g), 7)


# Seeded random cubic graphs with a triangle on which none of the first 4,096
# odd-vertex pairings gave a well-balanced orientation of some quotient.
PAIRING_SEARCH_MISSES = [
    [(0, 1), (0, 10), (0, 13), (1, 8), (1, 15), (2, 4), (2, 9), (2, 12), (3, 6), (3, 11),
     (3, 13), (4, 5), (4, 9), (5, 6), (5, 17), (6, 10), (7, 9), (7, 13), (7, 16), (8, 11),
     (8, 14), (10, 19), (11, 15), (12, 17), (12, 18), (14, 15), (14, 16), (16, 18), (17, 19),
     (18, 19)],
    [(0, 3), (0, 7), (0, 26), (1, 2), (1, 12), (1, 28), (2, 5), (2, 14), (3, 30), (3, 31),
     (4, 10), (4, 17), (4, 19), (5, 21), (5, 22), (6, 13), (6, 16), (6, 31), (7, 28), (7, 30),
     (8, 20), (8, 24), (8, 29), (9, 19), (9, 21), (9, 28), (10, 15), (10, 24), (11, 12),
     (11, 18), (11, 27), (12, 17), (13, 15), (13, 27), (14, 23), (14, 26), (15, 16), (16, 19),
     (17, 25), (18, 20), (18, 29), (20, 27), (21, 22), (22, 23), (23, 25), (24, 26), (25, 29),
     (30, 31)],
]


@pytest.mark.parametrize("pairs", PAIRING_SEARCH_MISSES, ids=["n20", "n32"])
def test_upper7_past_the_pairing_search(pairs):
    g = Multigraph.from_pairs(pairs)
    assert_report_ok(g, certify_upper7(g), 7)


@pytest.mark.parametrize("name", ["k5", "wheel4", "wheel5"])
def test_upper7_extension_path(name):
    g = named_graph(name)
    report = certify_upper7(g)
    assert_report_ok(g, report, 7)
    assert any("cubic-extension" in p for p in report.provenance)


def test_upper7_cut_vertex_path():
    g = named_graph("double_k4")
    report = certify_upper7(g)
    assert_report_ok(g, report, 7)
    assert any("cut-vertex" in p for p in report.provenance)


def test_upper7_rejects_low_connectivity():
    with pytest.raises(PreconditionError):
        certify_upper7(Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)]))


def test_upper7_bounds_exact_frank_numbers():
    from orientcover.exact import frank_number_exact

    for name in ("k4", "k33", "prism3", "cube", "theta", "petersen"):
        g = named_graph(name)
        k, _ = frank_number_exact(g)
        assert k <= len(certify_upper7(g).certificate.orientations) <= 7


# -- 3-coloring pipeline --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["k4", "k33", "prism3", "cube"])
def test_color3_on_colorable_corpus(name):
    g = named_graph(name)
    assert_report_ok(g, certify_color3(g), 3)


def test_color3_rejects_petersen_distinctly():
    with pytest.raises(NotThreeEdgeColorableError):
        certify_color3(named_graph("petersen"))


def test_color3_rejects_non_cubic():
    with pytest.raises(PreconditionError):
        certify_color3(named_graph("k5"))


# -- double-cover pipeline --------------------------------------------------------------


@pytest.mark.parametrize("name", ["petersen", "k4", "prism3"])
def test_bf5_corpus(name):
    g = named_graph(name)
    assert_report_ok(g, certify_bf5(g), 5)


def test_bf5_zero_budget_indeterminate(monkeypatch):
    monkeypatch.setattr(pipelines, "_BF5_NODES", 1)
    with pytest.raises(SearchExhaustedError):
        certify_bf5(named_graph("petersen"))


# -- essentially-4ec pipeline ------------------------------------------------------------


@pytest.mark.parametrize("name", ["petersen", "k4", "theta", "moebius_kantor"])
def test_esse4_cubic_corpus(name):
    g = named_graph(name)
    assert_report_ok(g, certify_esse4(g), 3)


def test_esse4_wheel_extension_path():
    g = named_graph("wheel4")
    report = certify_esse4(g)
    assert_report_ok(g, report, 3)
    assert any("cubic-extension" in p for p in report.provenance)


def test_esse4_bridge_split_path():
    g = named_graph("hub_triangles")
    report = certify_esse4(g)
    assert_report_ok(g, report, 3)
    assert any("connecting-edge" in p for p in report.provenance)


def test_esse4_rejects_prism():
    with pytest.raises(PreconditionError):
        certify_esse4(named_graph("prism3"))


def test_esse4_refuses_one_vertex_with_any_loops():
    for loops in range(4):
        g = Multigraph.from_pairs([(0, 0)] * loops, extra_vertices=[0])
        assert not g.is_essentially_4ec()
        with pytest.raises(PreconditionError, match="^not essentially 4-edge-connected$"):
            certify_esse4(g)


def test_esse4_k5():
    g = named_graph("k5")
    assert_report_ok(g, certify_esse4(g), 3)


def test_esse4_certifies_petersen_within_exact_value():
    from orientcover.exact import frank_number_exact

    g = named_graph("petersen")
    report = certify_esse4(g)
    k, _ = frank_number_exact(g)
    assert k == 3 and len(report.certificate.orientations) == 3


def test_pipelines_are_deterministic():
    g = named_graph("petersen")
    assert certify_esse4(g).to_json() == certify_esse4(g).to_json()
    assert certify_upper7(g).to_json() == certify_upper7(g).to_json()


# -- one precondition check per pipeline call -----------------------------------------------


@pytest.mark.parametrize("pipeline", [certify_upper7, certify_color3, certify_bf5, certify_esse4],
                         ids=lambda f: f.__name__)
def test_pipeline_checks_its_input_once(monkeypatch, pipeline):
    # moebius_kantor is gp(8,3): cubic, 3-edge-colorable, essentially 4-edge-connected;
    # every public step checks its precondition, and all but the first check read the
    # signatures cached on the graph, so they are computed once and no flow runs
    g = named_graph("moebius_kantor")
    computed = {"_signatures": 0, "edge_connectivity": 0}
    signatures = Multigraph._signatures.__wrapped__
    edge_connectivity = Multigraph.edge_connectivity

    @functools.wraps(signatures)
    def counted_signatures(self):
        computed["_signatures"] += self is g
        return signatures(self)

    def counted_connectivity(self):
        computed["edge_connectivity"] += self is g
        return edge_connectivity(self)

    monkeypatch.setattr(Multigraph, "_signatures", _cached(counted_signatures))
    monkeypatch.setattr(Multigraph, "edge_connectivity", counted_connectivity)
    pipeline(g)
    assert computed == {"_signatures": 1, "edge_connectivity": 0}


def test_upper7_does_each_distinct_packing_once(monkeypatch):
    # the seven packings of gp(8,3) hold only 4 distinct ones
    g = named_graph("moebius_kantor")
    calls = {"_packing_quotient": [], "_orient_over_quotient": []}
    for module, name in ((packings, "_packing_quotient"), (pipelines, "_orient_over_quotient")):
        def counted(graph, p, *rest, original=getattr(module, name), name=name):
            calls[name].append(p)
            return original(graph, p, *rest)

        monkeypatch.setattr(module, name, counted)
    rep = certify_upper7(g)
    assert len(rep.certificate.orientations) == 7
    for name, packs in calls.items():
        assert len(packs) == len(set(packs)) == 4, name


@pytest.mark.parametrize("n", [16, 32])
def test_upper7_contracts_each_packing_once_and_runs_few_flows(monkeypatch, n):
    # g is contracted once by the base case and once per distinct packing (4),
    # and the quotients' flow trees run no flow from a vertex whose degree is lambda
    g = Multigraph.from_pairs(generalized_petersen_pairs(n, 3))
    flows, contractions = [], []
    max_flow, contract = _Network.max_flow, Multigraph.contract

    def counted_flow(self, *args):
        flows.append(args)
        return max_flow(self, *args)

    def counted_contract(self, f):
        if self is g:
            contractions.append(f)
        return contract(self, f)

    monkeypatch.setattr(_Network, "max_flow", counted_flow)
    monkeypatch.setattr(Multigraph, "contract", counted_contract)
    assert_report_ok(g, certify_upper7(g), 7)
    assert len(flows) <= 3 and len(contractions) == 5


# -- loops and the non-cubic wrappers ----------------------------------------------------


def with_loops(g, at):
    """g plus one loop at each vertex of `at`, numbered after g's edges."""
    edges = {e: g.ends(e) for e in g.edge_ids}
    first = max(g.edge_ids) + 1
    edges.update((first + i, (v, v)) for i, v in enumerate(at))
    return Multigraph(g.vertices, edges)


SMALL_CORPUS = [name for name in corpus_names() if named_graph(name).num_vertices <= 12]


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_upper7_covers_a_loop_at_every_vertex(name):
    g = named_graph(name)
    g = with_loops(g, sorted(g.vertices))
    assert_report_ok(g, certify_upper7(g), 7)


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_esse4_covers_a_loop_at_every_vertex_or_refuses(name):
    g = named_graph(name)
    g = with_loops(g, sorted(g.vertices))
    if g.is_essentially_4ec():
        assert_report_ok(g, certify_esse4(g), 3)
    else:
        with pytest.raises(PreconditionError):
            certify_esse4(g)


@pytest.mark.parametrize("name, pipeline, bound, step", [
    ("k5", certify_upper7, 7, "cubic-extension:"),
    ("double_k4", certify_upper7, 7, "merge-at-cut-vertex-0"),
    ("hub_triangles", certify_esse4, 3, "merge-at-connecting-edge-12"),
])
def test_a_loop_at_vertex_0_is_covered_first(name, pipeline, bound, step):
    # the extension host and both split quotients leave the loop out
    g = with_loops(named_graph(name), [0])
    loop = g.num_edges - 1
    report = pipeline(g)
    assert_report_ok(g, report, bound)
    assert report.certificate.cover[loop] == 0
    assert all(p.startswith(step) for p in report.provenance)


def random_noncubic_3ec(rng, draws):
    """(draw index, graph) for each 3-edge-connected non-cubic draw.

    Each draw takes 2-8 vertices of degree 3-6 (vertex 0 gets one more when
    the sum is odd) and pairs shuffled stubs as in the configuration model,
    so loops and parallel edges stay.
    """
    for k in range(draws):
        n = rng.randint(2, 8)
        degrees = [rng.choice((3, 4, 5, 6)) for _ in range(n)]
        degrees[0] += sum(degrees) % 2
        stubs = [v for v in range(n) for _ in range(degrees[v])]
        rng.shuffle(stubs)
        g = Multigraph.from_pairs(list(zip(stubs[::2], stubs[1::2])))
        if g.is_3_edge_connected() and any(g.degree(v) != 3 for v in g.vertices):
            yield k, g


# (draw, pipeline) pairs whose search runs out of nodes.  None does in this
# sample; one that starts to must be named here, not dropped.
EXHAUSTED_DRAWS = frozenset()


def test_noncubic_certificates_sit_between_the_exact_value_and_the_bound():
    kept, looped, exhausted = 0, 0, set()
    for k, g in random_noncubic_3ec(random.Random(1), 100):
        kept += 1
        looped += any(g.is_loop(e) for e in g.edge_ids)
        lower = frank_lower_bound(g)
        exact = frank_number_exact(g)[0] if g.num_edges <= 22 else lower
        for pipeline, bound in ((certify_upper7, 7), (certify_esse4, 3)):
            if pipeline is certify_esse4 and not g.is_essentially_4ec():
                with pytest.raises(PreconditionError):
                    certify_esse4(g)
                continue
            try:
                report = pipeline(g)
            except SearchExhaustedError:
                exhausted.add((k, pipeline.__name__))
                continue
            assert_report_ok(g, report, bound)
            assert lower <= exact <= len(report.certificate.orientations), k
    assert (kept, looped) == (52, 39)
    assert exhausted == EXHAUSTED_DRAWS
