import itertools
import random

import pytest
from hypothesis import given, strategies as st

from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import PreconditionError
from orientcover.multigraph import Multigraph
from orientcover.orientation import (
    Orientation,
    is_strongly_connected,
    well_balanced_orientation,
)
from orientcover.structures import (
    CubicExtension,
    Cycle,
    CyclePacking,
    berge_fulkerson_cover,
    cubic_extension,
    cycles_from_edge_set,
    enumerate_perfect_matchings,
    find_deletable_arc_on_circuit,
    is_circuit_in,
    is_matching,
    odd_degree_vertices,
    orient_cycle_as_circuit,
    partition_into_three_tjoins,
    paths_to_two_matchings,
    perfect_matching,
    proper_3_edge_coloring,
    special_set,
    t_join,
    two_edge_disjoint_spanning_trees,
    _even_cycles,
    _matching_search,
)

from orientcover.packings import seven_cycle_packings
from oracles import (
    backtrack_3_edge_coloring,
    brute_deletable_arcs,
    brute_min_cut,
    flower_snark_pairs,
    generalized_petersen_pairs,
    ref_cycles_from_edge_set,
    ref_perfect_matchings,
    ref_t_join,
)
from test_exact import random_cubic_3ec


# -- matchings ----------------------------------------------------------------------


def test_perfect_matching_petersen():
    g = named_graph("petersen")
    m = perfect_matching(g)
    assert m is not None and len(m) == 5 and is_matching(g, m)


def test_perfect_matching_k4():
    g = named_graph("k4")
    m = perfect_matching(g)
    assert len(m) == 2 and is_matching(g, m)


def test_perfect_matching_odd_cycle_none():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    assert perfect_matching(g) is None


def test_petersen_has_exactly_six_perfect_matchings():
    assert len(enumerate_perfect_matchings(named_graph("petersen"))) == 6


def as_edges(g):
    return [(e, *g.ends(e)) for e in g.edge_ids]


def test_matching_search_matches_the_plain_search():
    # the dead-end cut drops only branches without a matching: same lists, same order
    graphs = [Multigraph.from_pairs(generalized_petersen_pairs(n, k))
              for n, k in [(5, 2), (7, 2), (8, 3), (10, 3), (12, 5), (16, 3), (20, 3)]]
    graphs += [Multigraph.from_pairs(flower_snark_pairs(k)) for k in (5, 6, 7)]
    rng = random.Random(1601)
    for _ in range(80):
        n = rng.randint(1, 8)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        graphs.append(Multigraph.from_pairs(pairs, extra_vertices=range(n)))
    loops = parallels = matched = 0
    for g in graphs:
        expected = ref_perfect_matchings(g.vertices, as_edges(g))
        assert list(_matching_search(g)) == expected, g
        nonloop = [g.ends(e) for e in g.edge_ids if not g.is_loop(e)]
        loops += len(nonloop) < g.num_edges and bool(expected)
        parallels += len(set(nonloop)) < len(nonloop) and bool(expected)
        matched += bool(expected)
    assert loops >= 5 and parallels >= 5 and matched >= 30


def assert_three_perfect_matchings(g, classes):
    assert len(classes) == 3 and sum(map(len, classes)) == g.num_edges
    assert frozenset().union(*classes) == frozenset(g.edge_ids)
    for c in classes:
        assert is_matching(g, c) and len(c) == g.num_vertices // 2


def test_coloring_exists_k4_prism_k33():
    for name in ("k4", "prism3", "k33", "cube"):
        g = named_graph(name)
        classes = proper_3_edge_coloring(g)
        assert classes is not None
        assert_three_perfect_matchings(g, classes)


def test_coloring_petersen_none():
    assert proper_3_edge_coloring(named_graph("petersen")) is None


def test_coloring_agrees_with_backtracking_reference():
    rng = random.Random(7207)
    graphs = [g for g in map(named_graph, corpus_names()) if all(g.degree(v) == 3 for v in g.vertices)]
    graphs += [random_cubic_3ec(rng, rng.choice((4, 6, 8, 10, 12, 14, 16, 18, 20))) for _ in range(30)]
    graphs += [Multigraph.from_pairs(flower_snark_pairs(k)) for k in (5, 7)]
    found = 0
    for g in graphs:
        classes = proper_3_edge_coloring(g)
        expected = backtrack_3_edge_coloring(g.vertices, [(e, *g.ends(e)) for e in g.edge_ids])
        assert (classes is not None) == (expected is not None), g
        if classes is not None:
            assert_three_perfect_matchings(g, classes)
            found += 1
    assert 20 <= found < len(graphs), found


def test_even_cycle_test_matches_the_cycles_of_the_complement():
    # the walk over the indexed links against the cycles cycles_from_edge_set
    # finds in E - M, on every perfect matching; the multigraphs have parallel edges
    rng = random.Random(6151)
    graphs = [Multigraph.from_pairs(generalized_petersen_pairs(n, k)) for n, k in ((5, 2), (6, 2), (8, 3))]
    graphs.append(Multigraph.from_pairs(flower_snark_pairs(5)))
    while len(graphs) < 40:
        points = [v for v in range(rng.choice((4, 6, 8))) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        if all(u != v for u, v in pairs):
            graphs.append(Multigraph.from_pairs(pairs))
    answers = set()
    for g in graphs:
        for m in _matching_search(g):
            rest = frozenset(g.edge_ids) - m
            even = all(len(c.edges) % 2 == 0 for c in cycles_from_edge_set(g, rest).cycles)
            assert _even_cycles(g, m) == even, (g, m)
            answers.add(even)
    assert answers == {True, False}


@pytest.mark.parametrize("k", [9, 11])
def test_coloring_none_on_flower_snarks(k):
    # J_k is a snark for odd k >= 5 (Isaacs 1975), so no 3-edge-coloring exists
    assert proper_3_edge_coloring(Multigraph.from_pairs(flower_snark_pairs(k))) is None


def test_coloring_rejects_non_cubic():
    with pytest.raises(PreconditionError):
        proper_3_edge_coloring(named_graph("k5"))


def test_double_cover_petersen_uses_all_six_matchings():
    g = named_graph("petersen")
    found = berge_fulkerson_cover(g)
    assert found.status == "solved"
    counts = {e: 0 for e in g.edge_ids}
    for m in found.matchings:
        for e in m:
            counts[e] += 1
    assert all(c == 2 for c in counts.values())
    assert len(set(found.matchings)) == 6


def test_double_cover_k4_repeats_the_coloring():
    found = berge_fulkerson_cover(named_graph("k4"))
    assert found.status == "solved"
    assert len(set(found.matchings)) == 3


def test_double_cover_budget_indeterminate():
    assert berge_fulkerson_cover(named_graph("prism3"), node_budget=1).status == "indeterminate"


def test_double_cover_rejects_bridged_cubic_graph():
    # two looped vertices joined by a bridge: cubic, edge connectivity 1
    g = Multigraph.from_pairs([(0, 0), (0, 1), (1, 1)])
    with pytest.raises(PreconditionError, match="2-edge-connected"):
        berge_fulkerson_cover(g)


# -- T-joins -----------------------------------------------------------------------


def test_t_join_path_endpoints():
    g = Multigraph.from_pairs([(0, 1), (1, 2)])
    assert t_join(g, {0, 2}) == frozenset({0, 1})


def test_t_join_empty_t():
    g = named_graph("k4")
    assert t_join(g, set()) == frozenset()


def test_t_join_odd_parity_component_none():
    g = Multigraph.from_pairs([(0, 1)], extra_vertices=[2])
    assert t_join(g, {0}) is None
    assert t_join(g, {0, 2}) is None  # 2 sits in its own component


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=10),
       st.sets(st.integers(0, 5)))
def test_t_join_output_parity_property(pairs, t):
    g = Multigraph.from_pairs(pairs, extra_vertices=range(6))
    t = {v for v in t if g.has_vertex(v)}
    result = t_join(g, t)
    comps = g.connected_components()
    feasible = all(len(t & set(c)) % 2 == 0 for c in comps)
    if not feasible:
        assert result is None
    else:
        assert result is not None
        assert odd_degree_vertices(g, result) == frozenset(t)
    assert result == ref_t_join(g.vertices, g.edge_multiset(), t)


# -- spanning tree pairs ----------------------------------------------------------------


def check_tree_pair(g, pair):
    t1, t2 = pair
    assert not (t1 & t2)
    for t in pair:
        assert len(t) == g.num_vertices - 1
        sub = g.subgraph_on_edges(t)
        assert sub.is_connected()


def test_two_trees_k5():
    g = named_graph("k5")
    check_tree_pair(g, two_edge_disjoint_spanning_trees(g))


def test_two_trees_tree_none():
    g = Multigraph.from_pairs([(0, 1), (1, 2)])
    assert two_edge_disjoint_spanning_trees(g) is None


def test_two_trees_parallel_pair():
    g = Multigraph.from_pairs([(0, 1)] * 4)
    pair = two_edge_disjoint_spanning_trees(g)
    assert pair is not None and len(pair[0]) == 1 and len(pair[1]) == 1


def test_two_trees_on_4ec_graphs():
    for name in ("k5",):
        g = named_graph(name)
        check_tree_pair(g, two_edge_disjoint_spanning_trees(g))
    # quotient of Petersen by its two pentagon cycles: 2 vertices, 5 parallels
    g = named_graph("petersen").contract(
        set(named_graph("petersen").edge_ids) - {5, 6, 7, 8, 9}).graph
    check_tree_pair(g, two_edge_disjoint_spanning_trees(g))


def test_two_trees_exchange_path_needed():
    # a doubled 4-cycle forces at least one exchange during augmentation
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
    check_tree_pair(g, two_edge_disjoint_spanning_trees(g))


# -- T-join partition ---------------------------------------------------------------------


def test_tjoin_partition_petersen_quotient():
    g = named_graph("petersen")
    quotient = g.contract(set(g.edge_ids) - {5, 6, 7, 8, 9}).graph
    parts = partition_into_three_tjoins(quotient)
    assert sorted(len(p) for p in parts) == [1, 1, 3]
    t = frozenset(v for v in quotient.vertices if quotient.degree(v) % 2)
    for p in parts:
        assert odd_degree_vertices(quotient, p) == t
    assert frozenset().union(*parts) == frozenset(quotient.edge_ids)


def test_tjoin_partition_eulerian_quotient():
    # doubled 4-cycle: 4-edge-connected and Eulerian, so T is empty
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
    parts = partition_into_three_tjoins(g)
    for p in parts:
        assert odd_degree_vertices(g, p) == frozenset()


def test_tjoin_partition_needs_4ec():
    with pytest.raises(PreconditionError):
        partition_into_three_tjoins(named_graph("cube"))


# -- cycle extraction and special sets ---------------------------------------------------


def test_cycles_from_edge_set_petersen_minus_matching():
    g = named_graph("petersen")
    p = cycles_from_edge_set(g, set(g.edge_ids) - {5, 6, 7, 8, 9})
    assert len(p.cycles) == 2
    assert {c.vertex_set for c in p.cycles} == {frozenset(range(5)), frozenset(range(5, 10))}


def test_cycles_from_edge_set_rejects_paths():
    g = Multigraph.from_pairs([(0, 1), (1, 2)])
    with pytest.raises(PreconditionError):
        cycles_from_edge_set(g, [0, 1])


def test_cycles_handle_parallel_pairs_and_loops():
    g = Multigraph.from_pairs([(0, 1), (0, 1), (2, 2)])
    p = cycles_from_edge_set(g, [0, 1, 2])
    assert sorted(len(c) for c in p.cycles) == [1, 2]


def two_regular_edge_sets(count, seed):
    """(g, ids): a seeded host graph and, shuffled, the edges of 1-5 vertex-disjoint
    cycles in it, from loops and parallel pairs up to 6-cycles, among random other edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 20)
        verts = list(range(n))
        rng.shuffle(verts)
        pairs = []
        while verts and len(pairs) < 12 and rng.random() < 0.8:
            k = min(rng.randint(1, 6), len(verts))
            ring, verts = verts[:k], verts[k:]
            pairs += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        cycle_edges = len(pairs)
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        ids = rng.sample(range(100), len(pairs))
        g = Multigraph(range(n), dict(zip(ids, pairs)))
        chosen = ids[:cycle_edges]
        rng.shuffle(chosen)
        yield g, chosen


def ref_packing(g, ids):
    return CyclePacking(tuple(Cycle(vs, es) for vs, es in ref_cycles_from_edge_set(as_edges(g), ids)))


def test_cycles_from_edge_set_matches_the_reference_walk():
    seen = {"loop": 0, "parallel": 0, "several": 0, "rejected": 0}
    for g, ids in two_regular_edge_sets(400, 92):
        p = cycles_from_edge_set(g, iter(ids))
        assert p == ref_packing(g, iter(ids)), (g, ids)
        lengths = [len(c) for c in p.cycles]
        seen["loop"] += 1 in lengths
        seen["parallel"] += 2 in lengths
        seen["several"] += len(lengths) > 1
        # one non-loop edge more or less leaves vertices of degree 1 or 3
        added = [e for e in g.edge_ids if e not in ids and not g.is_loop(e)][:1]
        dropped = [e for e in ids if not g.is_loop(e)][:1]
        for broken in (ids + added, [e for e in ids if e not in dropped]):
            if len(broken) == len(ids):  # no such edge
                continue
            with pytest.raises(ValueError) as expected:
                ref_packing(g, broken)
            with pytest.raises(PreconditionError, match="bad degrees") as got:
                cycles_from_edge_set(g, (e for e in broken))
            assert str(got.value) == str(expected.value)
            seen["rejected"] += 1
    assert min(seen.values()) >= 50, seen


def test_packing_rejects_overlapping_cycles():
    with pytest.raises(PreconditionError):
        CyclePacking((Cycle((0, 1, 2), (0, 1, 2)), Cycle((2, 3, 4), (3, 4, 5))))


def test_special_set_petersen_spokes():
    g = named_graph("petersen")
    p = cycles_from_edge_set(g, set(g.edge_ids) - {5, 6, 7, 8, 9})
    assert special_set(g, p) == frozenset({5, 6, 7, 8, 9})


def test_special_set_empty_packing_cubic_graph_is_empty():
    g = named_graph("petersen")
    assert special_set(g, CyclePacking(())) == frozenset()


def test_special_set_packing_covering_everything():
    # one vertex with a loop: the packing swallows the whole edge set and the
    # quotient is trivial, so the special set is empty for lack of candidates
    g = Multigraph.from_pairs([(0, 0)])
    p = cycles_from_edge_set(g, [0])
    assert special_set(g, p) == frozenset()


def flow_special_set(g, p):
    """The definition: the quotient's loops and its edges whose ends have lambda >= 4."""
    q = g.contract(p.edge_ids).graph
    return frozenset(e for e in q.edge_ids if q.is_loop(e) or q.local_edge_connectivity(*q.ends(e)) >= 4)


def short_cycle_packings(g):
    """The empty packing and every packing of at most 4 edges."""
    packings = [CyclePacking(())]
    for k in (2, 3, 4):
        for edges in itertools.combinations(g.edge_ids, k):
            try:
                packings.append(cycles_from_edge_set(g, edges))
            except PreconditionError:
                pass
    return packings


def test_special_set_matches_local_edge_connectivity():
    rng = random.Random(3301)
    cases = []
    for name in corpus_names():
        g = named_graph(name)
        if g.is_3_edge_connected():
            cubic = all(g.degree(v) == 3 for v in g.vertices)
            packings = seven_cycle_packings(g).packings if cubic else short_cycle_packings(g)
            cases += [(g, p) for p in packings]
    for n in (8, 10, 12, 14):
        g = random_cubic_3ec(rng, n)
        cases += [(g, p) for p in seven_cycle_packings(g).packings]
    members = 0
    for g, p in cases:
        s = special_set(g, p)
        assert s == flow_special_set(g, p), (g, p)
        members += len(s)
    assert len(cases) >= 100 and members >= 200


def test_special_set_rejects_low_connectivity():
    triangle = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionError, match="3-edge-connected"):
        special_set(triangle, CyclePacking(()))


def test_special_set_never_meets_packing_or_small_quotient_cuts():
    g = named_graph("cube")
    m = perfect_matching(g)
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    s = special_set(g, p)
    assert not (s & p.edge_ids)
    cr = g.contract(p.edge_ids)
    q = cr.graph
    if q.num_vertices <= 10 and q.num_vertices >= 2:
        edges = [(e, *q.ends(e)) for e in q.edge_ids]
        for e in s:
            u, v = q.ends(e)
            if u != v:
                assert brute_min_cut(q.vertices, edges, must_have=u, must_not=v) >= 4


# -- cubic extensions --------------------------------------------------------------------


def test_cubic_extension_identity_on_cubic():
    g = named_graph("petersen")
    ext = cubic_extension(g)
    assert ext.host == g
    assert not ext.cycle_edges


def test_cubic_extension_k5_counts():
    ext = cubic_extension(named_graph("k5"))
    assert ext.host.num_vertices == 20
    assert ext.host.num_edges == 30
    assert all(ext.host.degree(v) == 3 for v in ext.host.vertices)


def test_cubic_extension_wheel_hub():
    g = named_graph("wheel4")
    ext = cubic_extension(g)
    assert len(ext.classes[0]) == 4
    assert ext.host.edge_connectivity() == 3  # 3ec is preserved when g - v stays connected
    assert ext.host.is_essentially_4ec()


def test_cubic_extension_rejects_low_degree():
    with pytest.raises(PreconditionError):
        cubic_extension(Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)]))


def test_cubic_extension_rejects_the_empty_graph():
    with pytest.raises(PreconditionError, match="empty graph"):
        cubic_extension(Multigraph([], {}))


def test_cubic_extension_leaves_out_loops():
    k5 = named_graph("k5")
    g = Multigraph(k5.vertices, {**{e: k5.ends(e) for e in k5.edge_ids},
                                 **{100 + v: (v, v) for v in k5.vertices}})
    host = cubic_extension(g).host
    assert host.num_edges == 30 and not any(100 + v in host.edge_ids for v in g.vertices)
    assert host.edge_connectivity() == 3
    with pytest.raises(PreconditionError):  # degree 4, but only two non-loop ends at 0
        cubic_extension(Multigraph({0, 1, 2}, {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 0)}))


def test_cubic_extension_3ec_preserved_on_corpus():
    for name in ("k5", "wheel4", "wheel5", "hub_triangles"):
        g = named_graph(name)
        # g is 3ec with g - v connected for every v
        assert all(g.delete_vertex(v).is_connected() for v in g.vertices)
        assert cubic_extension(g).host.edge_connectivity() >= 3


def test_cubic_extension_essential_preserved_when_g_minus_v_2ec():
    for name in ("wheel4", "hub_triangles"):
        g = named_graph(name)
        if all(g.delete_vertex(v).num_vertices and
               g.delete_vertex(v).edge_connectivity() >= 2 for v in g.vertices):
            assert cubic_extension(g).host.is_essentially_4ec()


# -- deletable arcs on circuits --------------------------------------------------------------


def test_circuit_arc_on_petersen_pentagon():
    from orientcover.pipelines import orient_matching_deletable

    g = named_graph("petersen")
    m = frozenset({5, 6, 7, 8, 9})
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    d = orient_matching_deletable(g, m, p)
    for c in p.cycles:
        e = find_deletable_arc_on_circuit(d, c)
        assert e in c.edge_set
        rest = {f: t for f, t in d.tails.items() if f != e}
        survivor = Orientation(g.delete_edges([e]), rest)
        assert is_strongly_connected(survivor)


def test_circuit_arc_on_parallel_triple():
    g = named_graph("theta")
    d = Orientation(g, {0: 0, 1: 1, 2: 0})  # edges 0,2 forward, 1 backward
    c = cycles_from_edge_set(g, [0, 1]).cycles[0]
    e = find_deletable_arc_on_circuit(d, c)
    assert e in {0, 1}
    rest = {f: t for f, t in d.tails.items() if f != e}
    assert is_strongly_connected(Orientation(g.delete_edges([e]), rest))


def test_circuit_arc_requires_circuit():
    g = named_graph("theta")
    d = Orientation(g, {0: 0, 1: 1, 2: 0})
    bad = Cycle((0, 1), (0, 2))  # edges 0 and 2 run the same way: not a circuit
    with pytest.raises(PreconditionError):
        find_deletable_arc_on_circuit(d, bad)


def test_circuit_arc_requires_3ec_host():
    # a directed triangle: strongly connected and a circuit, but only 2-edge-connected
    triangle = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    d = Orientation(triangle, {0: 0, 1: 1, 2: 2})
    c = cycles_from_edge_set(triangle, [0, 1, 2]).cycles[0]
    assert is_strongly_connected(d) and is_circuit_in(d, c)
    with pytest.raises(PreconditionError, match="3-edge-connected"):
        find_deletable_arc_on_circuit(d, c)


def sampled_circuits():
    """(graph, orientation, circuit): a directed cycle walked out of each of
    many sampled strong orientations of four cubic corpus graphs."""
    from orientcover.exact import _Kernel

    for name in ("petersen", "prism3", "k33", "cube"):
        g = named_graph(name)
        kern = _Kernel(g)
        for low in range(0, 1 << (kern.m - 1), 57):
            mask = low << 1
            d = kern.orientation_of(mask)
            if not is_strongly_connected(d):
                continue
            seen = {}
            x = g.vertices[0]
            path = []
            while x not in seen:
                seen[x] = len(path)
                h, e = d.out_arcs(x)[0]
                path.append((x, e))
                x = h
            k = seen[x]
            yield g, d, Cycle(tuple(v for v, _ in path[k:]), tuple(e for _, e in path[k:]))


def test_circuit_arc_stress_over_sampled_orientations():
    """Walk a directed cycle out of many strong orientations; the selected arc
    must always lie on it and survive a deletion check."""
    checked = 0
    for g, d, c in sampled_circuits():
        assert is_circuit_in(d, c)
        a = find_deletable_arc_on_circuit(d, c)
        assert a in c.edge_set
        rest = {f: t for f, t in d.tails.items() if f != a}
        assert is_strongly_connected(Orientation(g.delete_edges([a]), rest))
        checked += 1
    assert checked >= 25


def test_circuit_arc_is_the_smallest_deletable_arc_of_the_circuit():
    theta = named_graph("theta")
    two_cycle = (theta, Orientation(theta, {0: 0, 1: 1, 2: 0}), cycles_from_edge_set(theta, [0, 1]).cycles[0])
    for g, d, c in [*sampled_circuits(), two_cycle]:
        loops = [e for e in g.edge_ids if g.is_loop(e)]
        deletable = brute_deletable_arcs(g.vertices, list(d.arcs()), loops)
        assert find_deletable_arc_on_circuit(d, c) == min(c.edge_set & deletable)


# -- path splitting -----------------------------------------------------------------------


def test_paths_to_two_matchings_single_path():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3)])
    m2, m3 = paths_to_two_matchings(g, [0, 1, 2])
    assert sorted(map(len, (m2, m3))) == [1, 2]
    assert is_matching(g, m2) and is_matching(g, m3)


def test_paths_to_two_matchings_empty():
    g = named_graph("k4")
    assert paths_to_two_matchings(g, []) == (frozenset(), frozenset())


def test_paths_to_two_matchings_rejects_cycles():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionError):
        paths_to_two_matchings(g, [0, 1, 2])


def test_paths_to_two_matchings_rejects_branching():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (1, 3)])
    with pytest.raises(PreconditionError):
        paths_to_two_matchings(g, [0, 1, 2])


def test_petersen_paths_after_removing_spokes_and_two_arcs():
    from orientcover.pipelines import orient_matching_deletable

    g = named_graph("petersen")
    m = frozenset({5, 6, 7, 8, 9})
    p = cycles_from_edge_set(g, set(g.edge_ids) - m)
    d = orient_matching_deletable(g, m, p)
    removed = [find_deletable_arc_on_circuit(d, c) for c in p.cycles]
    path_edges = set(g.edge_ids) - m - set(removed)
    m2, m3 = paths_to_two_matchings(g, path_edges)
    assert len(m2) + len(m3) == 8
    assert {len(m2), len(m3)} == {4}
