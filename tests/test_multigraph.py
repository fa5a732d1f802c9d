import itertools
import operator
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import UnknownEdgeError, UnknownVertexError
from orientcover.multigraph import Multigraph, _Network
from orientcover.packings import seven_cycle_packings
from orientcover.pipelines import _require_3ec

from oracles import (
    brute_3cuts,
    brute_3edge_cuts,
    brute_first_pair_3cut,
    brute_has_nontrivial_3cut,
    brute_min_cut,
    generalized_petersen_pairs,
    random_cubic_3ec_pairs,
    ref_edge_connectivity,
    ref_flow_tree,
)


def as_edges(g):
    return [(e, *g.ends(e)) for e in g.edge_ids]


def small_multigraphs():
    """Hypothesis strategy: multigraphs on up to 5 vertices, loops/parallels allowed."""
    pair = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return st.lists(pair, min_size=0, max_size=8).map(
        lambda pairs: Multigraph.from_pairs(pairs, extra_vertices=range(2)))


# -- degrees and cuts --------------------------------------------------------------


def test_degree_petersen_everywhere_3():
    g = named_graph("petersen")
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_degree_loop_counts_twice():
    g = Multigraph.from_pairs([(0, 0)])
    assert g.degree(0) == 2


def test_degree_k5():
    g = named_graph("k5")
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_edge_cut_petersen_pentagon():
    g = named_graph("petersen")
    assert g.edge_cut(range(5)) == frozenset({5, 6, 7, 8, 9})


def test_edge_cut_single_vertex_excludes_loops():
    g = Multigraph.from_pairs([(0, 0), (0, 1), (0, 2)])
    assert g.edge_cut([0]) == frozenset({1, 2})


def test_edge_cut_4cycle_adjacent_pair():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(g.edge_cut([0, 1])) == 2


def test_edge_cut_rejects_improper_sets():
    g = named_graph("k4")
    with pytest.raises(UnknownVertexError):
        g.edge_cut([])
    with pytest.raises(UnknownVertexError):
        g.edge_cut(g.vertices)


# -- connectivity ------------------------------------------------------------------


def test_local_connectivity_petersen_pairs():
    g = named_graph("petersen")
    assert g.local_edge_connectivity(0, 7) == 3
    assert g.local_edge_connectivity(1, 2) == 3


def test_local_connectivity_parallel_edges():
    g = Multigraph.from_pairs([(0, 1)] * 5)
    assert g.local_edge_connectivity(0, 1) == 5


def test_local_connectivity_path_endpoints():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3)])
    assert g.local_edge_connectivity(0, 3) == 1


def test_edge_connectivity_values():
    assert named_graph("petersen").edge_connectivity() == 3
    assert named_graph("k5").edge_connectivity() == 4
    disconnected = Multigraph.from_pairs([(0, 1)], extra_vertices=[2])
    assert disconnected.edge_connectivity() == 0


def test_edge_connectivity_matches_brute_force_on_corpus():
    for name in ("k4", "k33", "prism3", "cube", "wheel4", "theta", "double_k4", "hub_triangles"):
        g = named_graph(name)
        assert g.edge_connectivity() == brute_min_cut(g.vertices, as_edges(g)), name


@given(small_multigraphs())
def test_local_connectivity_is_menger_min_cut(g):
    verts = g.vertices
    if len(verts) < 2:
        return
    u, v = verts[0], verts[-1]
    expected = brute_min_cut(verts, as_edges(g), must_have=u, must_not=v)
    assert g.local_edge_connectivity(u, v) == expected


# -- essential 4-edge-connectivity ----------------------------------------------------


def test_essentially_4ec_petersen_but_not_4ec():
    g = named_graph("petersen")
    assert g.is_essentially_4ec()
    assert g.edge_connectivity() == 3


def test_two_triangle_blocks_not_essentially_4ec():
    # two K4-minus-vertex blocks joined by 3 edges; brute force confirms the
    # nontrivial 3-cut between the two triangles
    g = named_graph("prism3")
    cuts = brute_3cuts(g.vertices, as_edges(g))
    assert any(2 <= len(xs) <= g.num_vertices - 2 for xs in cuts)
    assert not g.is_essentially_4ec()


def test_k4_essentially_4ec():
    assert named_graph("k4").is_essentially_4ec()


def test_find_nontrivial_3cut_witness():
    g = named_graph("prism3")
    side, cut = g.find_nontrivial_3cut()
    assert len(cut) == 3
    assert 2 <= len(side) <= g.num_vertices - 2
    assert g.edge_cut(side) == cut


def random_cubic_graphs():
    """Seeded 3-edge-connected cubic graphs on 8-12 vertices, with and without a triangle."""
    rng = random.Random(20201205)
    return [(f"random{n}{'-triangle' if tri else ''}-{k}",
             Multigraph.from_pairs(random_cubic_3ec_pairs(rng, n, tri)))
            for n in (8, 10, 12) for tri in (True, False) for k in range(3)]


# The first edge crosses every nontrivial 3-cut and the second avoids its first
# end, so the search has to scan past the neighbours of that end: prism3 listed
# rung first, and K4 with two adjacent vertices truncated, listed with the edge
# joining the two triangles first.
FIRST_EDGE_CROSSES_ALL = {
    "prism3-rung-first": [(0, 3), (3, 4), (4, 5), (3, 5), (0, 1), (1, 2), (0, 2), (1, 4), (2, 5)],
    "k4-two-truncated": [(0, 3), (3, 4), (4, 5), (3, 5), (0, 1), (1, 2), (0, 2),
                         (1, 6), (2, 7), (4, 6), (5, 7), (6, 7)],
}


def small_3ec_graphs():
    corpus = [(name, named_graph(name)) for name in corpus_names()]
    crossing = [(name, Multigraph.from_pairs(pairs)) for name, pairs in FIRST_EDGE_CROSSES_ALL.items()]
    return [(name, g) for name, g in corpus + crossing + random_cubic_graphs()
            if g.num_vertices <= 12 and g.edge_connectivity() >= 3]


def test_nontrivial_3cut_search_matches_subset_enumeration():
    graphs = small_3ec_graphs()
    assert len(graphs) >= 25
    found = 0
    for name, g in graphs:
        cut = g.find_nontrivial_3cut()
        expected = brute_has_nontrivial_3cut(g.vertices, as_edges(g))
        assert (cut is not None) == expected == (not g.is_essentially_4ec()), name
        if cut is not None:
            found += 1
            side, edges = cut
            assert len(edges) == 3 and g.edge_cut(side) == edges, name
            assert 2 <= len(side) <= g.num_vertices - 2, name
            # the same cut the first separable edge pair in id order names
            assert side == brute_first_pair_3cut(g.vertices, as_edges(g)), name
    assert 0 < found < len(graphs)


def test_3cut_search_on_graphs_below_3ec_returns_only_valid_cuts():
    # without 3-edge-connectivity None proves nothing, but a returned cut is real
    rng = random.Random(3)
    graphs = [Multigraph.from_pairs([(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
              for n in (5, 6, 7) for m in (6, 9, 12) for _ in range(15)]
    below = [g for g in graphs if g.num_vertices >= 2 and g.edge_connectivity() < 3]
    assert len(below) >= 100
    found = 0
    for g in below:
        cut = g.find_nontrivial_3cut()
        if cut is not None:
            found += 1
            side, edges = cut
            assert len(edges) == 3 and g.edge_cut(side) == edges
            assert 2 <= len(side) <= g.num_vertices - 2
    assert found >= 10


# -- cycle-space signatures ---------------------------------------------------------


def seeded_multigraphs(count, seed):
    """Multigraphs on 1-7 vertices with loops, parallel edges and isolated vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        out.append(Multigraph.from_pairs(pairs, extra_vertices=range(n)))
    return out


def signature_triples(g):
    """Triples of non-loop edges whose signatures XOR to 0."""
    sig, _ = g._signatures()
    return {frozenset(t) for t in itertools.combinations(sorted(sig), 3)
            if sig[t[0]] ^ sig[t[1]] == sig[t[2]]}


def test_signature_triples_are_the_3_edge_cuts():
    graphs = [g for _, g in small_3ec_graphs()] + seeded_multigraphs(150, 11)
    for g in graphs:
        assert signature_triples(g) == set(brute_3edge_cuts(g.vertices, as_edges(g))), g


def test_signature_cuts_match_subset_enumeration():
    graphs = small_3ec_graphs()
    with_cuts = 0
    for name, g in graphs:
        everything = frozenset(g.vertices)
        listed = {(cut, frozenset((side, everything - side))) for side, cut in g._3cuts()}
        expected = {(cut, frozenset(sides)) for cut, sides in brute_3edge_cuts(g.vertices, as_edges(g)).items()
                    if min(len(xs) for xs in sides) >= 2}
        assert listed == expected, name
        with_cuts += bool(listed)
    assert 0 < with_cuts < len(graphs)


def packing_quotients():
    """(cubic corpus graphs, the quotients of their seven packings): 3-edge-connected, most with loops."""
    cubic = [g for g in map(named_graph, corpus_names())
             if g.is_3_edge_connected() and all(g.degree(v) == 3 for v in g.vertices)]
    return cubic, [g.contract(p.edge_ids).graph for g in cubic for p in seven_cycle_packings(g).packings]


def test_3cut_edges_are_the_edges_on_3_edge_cuts():
    cubic, quotients = packing_quotients()
    graphs = [g for _, g in small_3ec_graphs()] + quotients
    for g in graphs:
        expected = set().union(*brute_3edge_cuts(g.vertices, as_edges(g)))
        assert set(g._3cut_edges()) == expected, g
    assert len(cubic) >= 8 and sum(any(map(q.is_loop, q.edge_ids)) for q in quotients) >= 30
    assert sum(bool(g._3cuts()) for g in graphs) >= 10


def test_bridges_are_the_edges_whose_deletion_splits_a_component():
    graphs = seeded_multigraphs(150, 5)
    for g in graphs:
        parts = len(g.connected_components())
        expected = tuple(e for e in g.edge_ids if len(g.delete_edges([e]).connected_components()) > parts)
        assert g.bridges() == expected, g
    assert sum(bool(g.bridges()) for g in graphs) >= 30


# -- derived structure, computed once per graph -----------------------------------------


CACHED = ("_links", "_bfs_forest", "_signatures", "_low_lambda", "_lambda_upto4", "_flow_tree", "_3cuts")


def cached_values(g, names):
    """Each derived value by name; _lambda_upto4 only where it is defined (2 or more vertices)."""
    return {name: getattr(g, name)() for name in names if name != "_lambda_upto4" or g.num_vertices >= 2}


def test_derived_structure_is_kept_on_the_graph():
    g = named_graph("prism3")
    first = cached_values(g, CACHED)
    assert set(g._memo) == set(CACHED)
    for name, value in cached_values(g, CACHED).items():
        assert value is first[name], name
    for h in (g.contract([0]).graph, g.delete_edges([0]), g.subgraph_on_edges([0, 1, 2])):
        assert h._memo == {}, h


def test_cached_structure_cannot_be_changed():
    g = named_graph("prism3")
    via, comps = g._bfs_forest()
    side, cut = g._3cuts()[0]
    changes = [lambda: g._links()[0].append((99, 1)), lambda: operator.setitem(g._links(), 0, ()),
               lambda: operator.setitem(g._flow_tree(), (0, 1), 9),
               lambda: operator.setitem(g._signatures()[0], 0, 0), lambda: operator.setitem(via, 0, 1),
               lambda: comps[0].append(7), lambda: side.add(7), lambda: cut.discard(0)]
    for change in changes:
        with pytest.raises((AttributeError, TypeError)):
            change()


def test_cached_values_match_a_fresh_equal_graph():
    graphs = seeded_multigraphs(150, 23)
    for g in graphs:
        first = cached_values(g, CACHED)
        fresh = Multigraph(g.vertices, {e: g.ends(e) for e in g.edge_ids})
        assert fresh._memo == {}
        assert cached_values(fresh, reversed(CACHED)) == first, g
        assert cached_values(g, CACHED) == first, g
    assert sum(any(g.is_loop(e) for e in g.edge_ids) for g in graphs) >= 30
    assert sum(len(set(map(g.ends, g.edge_ids))) < g.num_edges for g in graphs) >= 30


def complete_graph(n):
    return Multigraph.from_pairs(list(itertools.combinations(range(n), 2)))


def lambda_graphs():
    """Seeded multigraphs of 2 or more vertices, lambda 0 to 4 and more, with
    loops, parallel edges, isolated vertices and several components."""
    rng = random.Random(4004)
    graphs = [g for g in seeded_multigraphs(300, 13) if g.num_vertices >= 2]
    for _ in range(60):  # denser: lambda 3 and 4 with parallel edges and loops
        n = rng.randint(2, 6)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(3 * n, 6 * n))]
        graphs.append(Multigraph.from_pairs(pairs, extra_vertices=range(n)))
    return graphs + [complete_graph(n) for n in (5, 6, 7, 8)] + [g for _, g in small_3ec_graphs()]


def test_lambda_upto4_matches_the_reference_kernel():
    graphs = lambda_graphs()
    values = []
    for g in graphs:
        lam = ref_edge_connectivity(g.vertices, as_edges(g))
        assert g._lambda_upto4() == min(lam, 4), g
        assert g.edge_connectivity() == lam, g
        values.append(min(lam, 4))
    assert len(graphs) >= 300 and min(values.count(k) for k in range(5)) >= 10
    assert sum(any(g.is_loop(e) for e in g.edge_ids) for g in graphs) >= 50
    assert sum(len(set(map(g.ends, g.edge_ids))) < g.num_edges for g in graphs) >= 50


def test_lambda_upto4_needs_two_vertices():
    for g in (Multigraph([], {}), Multigraph.from_pairs([(0, 0)])):
        with pytest.raises(UnknownVertexError):
            g._lambda_upto4()
        with pytest.raises(UnknownVertexError):
            g.edge_connectivity()


def test_3_edge_connected_matches_edge_connectivity():
    graphs = seeded_multigraphs(300, 7)
    expected = [g.num_vertices >= 2 and g.edge_connectivity() >= 3 for g in graphs]
    assert [g.is_3_edge_connected() for g in graphs] == expected
    assert sum(expected) >= 30 and len(expected) - sum(expected) >= 30
    assert any(g.num_vertices == 1 for g in graphs)
    assert any(g.num_vertices >= 2 and not g.is_connected() for g in graphs)
    assert any(g.is_loop(e) for g in graphs for e in g.edge_ids)
    assert any(len(set(map(frozenset, pairs))) < len(pairs)
               for pairs in ([g.ends(e) for e in g.edge_ids if not g.is_loop(e)] for g in graphs))


def test_3_edge_connectivity_on_small_cases():
    assert not Multigraph.from_pairs([(0, 0)]).is_3_edge_connected()
    assert not Multigraph.from_pairs([(0, 1), (0, 1)]).is_3_edge_connected()
    assert Multigraph.from_pairs([(0, 1), (0, 1), (0, 1)]).is_3_edge_connected()
    assert not Multigraph.from_pairs([(0, 1)] * 3 + [(2, 3)] * 3).is_3_edge_connected()
    assert named_graph("petersen").is_3_edge_connected()


@pytest.mark.parametrize("name", ["moebius_kantor", "gp32_3", "prism3"])
def test_3cut_tests_run_no_max_flow(monkeypatch, name):
    g = Multigraph.from_pairs(generalized_petersen_pairs(32, 3)) if name == "gp32_3" else named_graph(name)
    calls = []
    max_flow = _Network.max_flow

    def counted_flow(self, *args):
        calls.append(args)
        return max_flow(self, *args)

    monkeypatch.setattr(_Network, "max_flow", counted_flow)
    _require_3ec(g)
    assert g.is_3_edge_connected()
    assert (g.find_nontrivial_3cut() is None) == g.is_essentially_4ec() == (name != "prism3")
    assert calls == []


# -- flow-equivalent tree ----------------------------------------------------------


def tree_graphs():
    return [named_graph(name) for name in corpus_names()] + [g for _, g in random_cubic_graphs()]


def tree_path_min(lam, u, v):
    tree = nx.Graph()
    tree.add_weighted_edges_from((a, b, w) for (a, b), w in lam.items())
    path = nx.shortest_path(tree, u, v)
    return min(lam[min(a, b), max(a, b)] for a, b in zip(path, path[1:]))


def test_flow_tree_carries_every_pair():
    for g in tree_graphs():
        lam = g._flow_tree()
        assert len(lam) == g.num_vertices - 1 and all(u < v for u, v in lam)
        for u, v in itertools.combinations(g.vertices, 2):
            assert tree_path_min(lam, u, v) == g.local_edge_connectivity(u, v), (g, u, v)


def test_flow_tree_matches_networkx_gomory_hu():
    for g in tree_graphs():
        simple = nx.Graph()
        for e in g.edge_ids:
            u, v = g.ends(e)
            if u != v:
                old = simple.get_edge_data(u, v, {"capacity": 0})["capacity"]
                simple.add_edge(u, v, capacity=old + 1)
        reference = nx.gomory_hu_tree(simple)
        lam = g._flow_tree()
        for u, v in itertools.combinations(g.vertices, 2):
            path = nx.shortest_path(reference, u, v)
            expected = min(reference[a][b]["weight"] for a, b in zip(path, path[1:]))
            assert tree_path_min(lam, u, v) == expected, (g, u, v)


def test_flow_tree_runs_a_flow_only_where_the_degree_leaves_lambda_open(monkeypatch):
    # a child whose non-loop degree is at most min(lambda, 3) has lambda = its degree: no flow
    flows = []
    max_flow = _Network.max_flow

    def counted_flow(self, *args):
        flows.append(args)
        return max_flow(self, *args)

    monkeypatch.setattr(_Network, "max_flow", counted_flow)
    graphs = lambda_graphs() + packing_quotients()[1]
    answered = {"loop": 0, 0: 0, 1: 0, 2: 0, 3: 0}
    for g in graphs:
        low = min(ref_edge_connectivity(g.vertices, as_edges(g)), 3) if g.num_vertices > 1 else 0
        degree = {v: sum(not g.is_loop(e) for e in g.incident_edges(v)) for v in g.vertices}
        fresh = Multigraph(g.vertices, {e: g.ends(e) for e in g.edge_ids})  # no tree kept yet
        flows.clear()
        assert fresh._flow_tree() == ref_flow_tree(g.vertices, as_edges(g)), g
        assert len(flows) == sum(degree[v] > low for v in g.vertices[1:]), g
        for v in g.vertices[1:]:
            if degree[v] <= low:
                answered[low] += 1
                answered["loop"] += any(map(g.is_loop, g.incident_edges(v)))
    assert min(answered.values()) >= 20, answered


@given(small_multigraphs())
def test_flow_tree_on_small_multigraphs(g):
    # loops, parallel edges and several components
    lam = g._flow_tree()
    for u, v in itertools.combinations(g.vertices, 2):
        assert tree_path_min(lam, u, v) == g.local_edge_connectivity(u, v)


# -- contraction -------------------------------------------------------------------


def test_contract_petersen_two_pentagon_cycles():
    g = named_graph("petersen")
    spokes = {5, 6, 7, 8, 9}
    cycles = set(g.edge_ids) - spokes
    cr = g.contract(cycles)
    assert cr.graph.num_vertices == 2
    assert cr.graph.num_edges == 5
    assert all(not cr.graph.is_loop(e) for e in cr.graph.edge_ids)


def test_contract_single_k4_edge():
    g = named_graph("k4")
    cr = g.contract([0])
    assert cr.graph.num_vertices == 3
    assert cr.graph.num_edges == 5
    ends = [tuple(sorted(cr.graph.ends(e))) for e in cr.graph.edge_ids]
    # both merged endpoints had an edge to each surviving vertex
    assert len(ends) - len(set(ends)) == 2


def test_contract_empty_set_is_identity():
    g = named_graph("petersen")
    cr = g.contract([])
    assert cr.graph == g
    assert all(v == w for v, w in cr.vertex_map.items())
    assert all(cr.graph.ends(e) == g.ends(e) for e in g.edge_ids)


def test_contract_status_classification():
    # triangle plus a chordish parallel: contracting one edge sends its
    # parallel twin to a loop
    g = Multigraph.from_pairs([(0, 1), (0, 1), (1, 2), (0, 2)])
    cr = g.contract([0])
    assert 0 not in cr.graph.edge_ids
    assert cr.graph.is_loop(1)
    assert cr.graph.ends(2) == (0, 2) and not cr.graph.is_loop(2)


def test_contract_unknown_edge():
    with pytest.raises(UnknownEdgeError):
        named_graph("k4").contract([99])


def test_contraction_preserves_edge_connectivity_on_corpus(corpus_graph):
    g = corpus_graph
    if g.num_vertices < 3:
        return
    lam = g.edge_connectivity()
    for e in g.edge_ids[:6]:
        if g.is_loop(e):
            continue
        cr = g.contract([e])
        if cr.graph.num_vertices >= 2:
            assert cr.graph.edge_connectivity() >= lam


def test_contraction_preserves_essential_4ec():
    for name in ("petersen", "k4", "wheel4", "hub_triangles"):
        g = named_graph(name)
        assert g.is_essentially_4ec()
        for e in g.edge_ids[:5]:
            cr = g.contract([e])
            if cr.graph.num_vertices >= 2:
                assert cr.graph.is_essentially_4ec(), (name, e)


@given(small_multigraphs())
def test_edge_id_stability_under_contraction(g):
    if g.num_edges == 0:
        return
    f = set(list(g.edge_ids)[: g.num_edges // 2])
    cr = g.contract(f)
    surviving = set(cr.graph.edge_ids)
    assert surviving == set(g.edge_ids) - f
    for e in surviving:
        qu, qv = cr.graph.ends(e)
        u, v = g.ends(e)
        assert {cr.vertex_map[u], cr.vertex_map[v]} == {qu, qv}


# -- components and 2ec pieces ----------------------------------------------------------


def test_components_petersen():
    assert len(named_graph("petersen").connected_components()) == 1


def test_components_after_cut_vertex_removal():
    g = named_graph("double_k4")
    assert len(g.delete_vertex(0).connected_components()) == 2


def test_components_empty_graph():
    assert Multigraph([], {}).connected_components() == ()


def test_components_match_networkx_on_seeded_multigraphs():
    """Loops, parallel edges, isolated vertices and several components; the
    components come in the order of their smallest vertex."""
    rng = random.Random(2424)
    several = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 3))]
        pairs += [pairs[0]] * rng.randint(0, 2) if pairs else []  # parallel edges or loops
        g = Multigraph.from_pairs(pairs, extra_vertices=range(n))
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(pairs)
        comps = g.connected_components()
        assert set(comps) == {frozenset(c) for c in nx.connected_components(h)}
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        several += len(comps) > 1
    assert several >= 100


def test_maximal_2ec_cycle_is_one_class():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    assert g.maximal_2ec_subgraphs() == (frozenset({0, 1, 2}),)


def test_maximal_2ec_tree_is_singletons():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (1, 3)])
    assert all(len(c) == 1 for c in g.maximal_2ec_subgraphs())


def test_maximal_2ec_petersen_minus_spokes():
    g = named_graph("petersen").delete_edges([5, 6, 7, 8, 9])
    classes = set(g.maximal_2ec_subgraphs())
    assert classes == {frozenset(range(5)), frozenset(range(5, 10))}


def test_bridges_parallel_edges_are_never_bridges():
    g = Multigraph.from_pairs([(0, 1), (0, 1), (1, 2)])
    assert g.bridges() == (2,)


# -- non-crossing 3-cuts ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["petersen", "k4", "k33", "prism3", "cube", "theta",
                                  "wheel4", "double_k4", "hub_triangles"])
def test_3cuts_never_cross(name):
    g = named_graph(name)
    if g.num_vertices > 10 or g.edge_connectivity() < 3:
        return
    cuts = brute_3cuts(g.vertices, as_edges(g))
    vs = set(g.vertices)
    for xs, ys in itertools.combinations(cuts, 2):
        corners = (xs - ys, ys - xs, xs & ys, vs - (xs | ys))
        assert any(not c for c in corners), (name, sorted(xs), sorted(ys))

