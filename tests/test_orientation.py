import itertools
import random

import pytest
from hypothesis import given, strategies as st

from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import (
    FormatError,
    NotEulerianError,
    NotStronglyConnectedError,
    PreconditionError,
)
from orientcover.multigraph import Multigraph, _Network
from orientcover.orientation import (
    Orientation,
    cut_characterization_check,
    deletable_arcs,
    directed_local_connectivity,
    eulerian_orientation,
    eulerian_orientation_constrained,
    is_deletable_set,
    is_k_arc_connected,
    is_strongly_connected,
    is_well_balanced,
    orientation_from_json,
    well_balanced_orientation,
)

from oracles import (
    brute_deletable_arcs,
    closure_strongly_connected,
    random_cubic_3ec_pairs,
)


def circuit(n):
    g = Multigraph.from_pairs([(i, (i + 1) % n) for i in range(n)])
    return g, Orientation(g, {i: i for i in range(n)})


def orientation_by_bits(g, bits):
    tails = {}
    nonloop = [e for e in g.edge_ids if not g.is_loop(e)]
    for e, b in zip(nonloop, bits):
        u, v = g.ends(e)
        tails[e] = v if b else u
    return Orientation(g, tails)


def all_orientations_of(g):
    nonloop = [e for e in g.edge_ids if not g.is_loop(e)]
    for mask in range(1 << len(nonloop)):
        yield orientation_by_bits(g, [(mask >> i) & 1 for i in range(len(nonloop))])


# -- strong connectivity ------------------------------------------------------------


def test_circuit_is_strongly_connected():
    _, d = circuit(5)
    assert is_strongly_connected(d)


def test_circuit_with_reversed_arc_is_not():
    g, d = circuit(5)
    tails = d.tails
    tails[0] = 1
    assert not is_strongly_connected(Orientation(g, tails))


def test_in_degree_zero_never_strong():
    g = named_graph("k4")
    # all arcs point away from vertex 0
    tails = {}
    for e in g.edge_ids:
        u, v = g.ends(e)
        tails[e] = 0 if 0 in (u, v) else u
    assert not is_strongly_connected(Orientation(g, tails))


def test_strong_connectivity_matches_closure_oracle():
    g = named_graph("k4")
    verts = list(g.vertices)
    for d in all_orientations_of(g):
        arcs = [(verts.index(t), verts.index(h)) for _, t, h in d.arcs()]
        assert is_strongly_connected(d) == closure_strongly_connected(len(verts), arcs)


# -- deletable arcs -----------------------------------------------------------------


def test_circuit_has_no_deletable_arcs():
    _, d = circuit(4)
    assert deletable_arcs(d) == frozenset()


def test_parallel_triple_two_codirected_deletable():
    g = named_graph("theta")
    d = Orientation(g, {0: 0, 1: 0, 2: 1})
    assert deletable_arcs(d) == frozenset({0, 1})


def test_deletable_arcs_requires_strong_input():
    g, d = circuit(5)
    tails = d.tails
    tails[0] = 1
    with pytest.raises(NotStronglyConnectedError):
        deletable_arcs(Orientation(g, tails))


def test_deletable_arcs_matches_oracle_on_prism():
    g = named_graph("prism3")
    loop_ids = []
    for d in list(all_orientations_of(g))[:128]:
        expected = brute_deletable_arcs(g.vertices, list(d.arcs()), loop_ids)
        if expected is None:
            assert not is_strongly_connected(d)
        else:
            assert deletable_arcs(d) == expected


def test_is_deletable_set_empty_set():
    _, d = circuit(4)
    assert is_deletable_set(d, [])


def test_loops_are_always_deletable():
    g = Multigraph.from_pairs([(0, 1), (1, 0), (1, 1)])
    d = Orientation(g, {0: 0, 1: 1})
    assert 2 in deletable_arcs(d)
    assert is_deletable_set(d, [2])


# -- the cut characterization ---------------------------------------------------------


def test_cut_characterization_agrees_on_small_graphs():
    for name in ("k4", "theta"):
        g = named_graph(name)
        full = list(g.edge_ids)
        for d in all_orientations_of(g):
            for f in ([], full[:1], full[:2], full):
                assert cut_characterization_check(d, f) == is_deletable_set(d, f), (name, f)


def test_cut_characterization_not_strong_empty_set_false():
    g, d = circuit(5)
    tails = d.tails
    tails[0] = 1
    assert not cut_characterization_check(Orientation(g, tails), [])


def test_cut_characterization_size_cap():
    from orientcover.errors import GraphTooLargeError

    g = named_graph("moebius_kantor")
    d = orientation_by_bits(g, [0] * g.num_edges)
    with pytest.raises(GraphTooLargeError):
        cut_characterization_check(d, [], max_vertices=10)


# -- reversal ---------------------------------------------------------------------


def test_reverse_involution_and_edge_set():
    g = named_graph("petersen")
    d = well_balanced_orientation(g)
    assert d.reverse().reverse() == d
    assert set(d.reverse().tails) == set(d.tails)


def test_reversal_preserves_deletable_sets(cubic_graph):
    g = cubic_graph
    if g.num_edges > 15:
        return
    d = well_balanced_orientation(g)
    assert is_strongly_connected(d)
    assert deletable_arcs(d) == deletable_arcs(d.reverse())


# -- contraction of orientations --------------------------------------------------------


def test_contract_circuit_stays_strong():
    g = named_graph("petersen")
    d = well_balanced_orientation(g)
    cr = g.contract([0, 1, 2, 3, 4])  # a pentagon
    q = cr.graph
    dq = Orientation(q, {e: cr.vertex_map[d.tail(e)] for e in q.edge_ids if not q.is_loop(e)})
    assert is_strongly_connected(dq)


def test_quotient_and_parts_strong_implies_whole():
    # build an orientation whose contracted blocks and quotient are circuits
    g = named_graph("prism3")
    tails = {0: 0, 1: 1, 2: 2, 3: 4, 4: 5, 5: 3, 6: 3, 7: 1, 8: 5}
    d = Orientation(g, tails)
    cr = g.contract([0, 1, 2, 3, 4, 5])
    q = cr.graph
    dq = Orientation(q, {e: cr.vertex_map[d.tail(e)] for e in q.edge_ids if not q.is_loop(e)})
    assert is_strongly_connected(dq)
    assert is_strongly_connected(d)


def test_random_contractions_of_corpus_orientations():
    rng = random.Random(7)
    for name in ("petersen", "k4", "cube"):
        g = named_graph(name)
        d = well_balanced_orientation(g)
        for _ in range(5):
            cr = g.contract(rng.sample(list(g.edge_ids), 3))
            q = cr.graph
            dq = Orientation(q, {e: cr.vertex_map[d.tail(e)] for e in q.edge_ids if not q.is_loop(e)})
            assert is_strongly_connected(dq)  # contraction preserves strong connectivity


def test_contract_empty_returns_same_orientation():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    d = eulerian_orientation_constrained(g, {})
    cr = g.contract([])
    assert {e: cr.vertex_map[d.tail(e)] for e in cr.graph.edge_ids} == d.tails


# -- constrained Eulerian orientations ---------------------------------------------------


def test_constrained_eulerian_4cycle():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    d = eulerian_orientation_constrained(g, {0: (0, 3)})
    entering = sum(1 for e in (0, 3) if d.head(e) == 0)
    assert entering == 1
    assert all(d.in_degree(v) == d.out_degree(v) for v in g.vertices)


def test_constrained_eulerian_two_triangles_share_vertex():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    d = eulerian_orientation_constrained(g, {})
    assert all(d.in_degree(v) == d.out_degree(v) for v in g.vertices)


def test_constrained_eulerian_k5_with_two_constraints():
    g = named_graph("k5")
    cons = {0: (0, 1), 1: (0, 4)}
    d = eulerian_orientation_constrained(g, cons)
    for v, (e1, e2) in cons.items():
        assert sum(1 for e in (e1, e2) if d.head(e) == v) == 1
    assert all(d.in_degree(v) == d.out_degree(v) for v in g.vertices)


def test_constrained_eulerian_rejects_odd_degrees():
    with pytest.raises(NotEulerianError):
        eulerian_orientation_constrained(named_graph("petersen"), {})


def test_constrained_eulerian_rejects_non_incident_edge():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(PreconditionError):
        eulerian_orientation_constrained(g, {0: (1, 2)})


def test_hundred_deterministic_eulerian_instances():
    """Constrained Eulerian orientations on 100 generated Eulerian multigraphs."""
    rng = random.Random(20240917)
    done = 0
    while done < 100:
        n = rng.randrange(3, 9)
        pairs = []
        for _ in range(rng.randrange(1, 4)):  # union of closed walks stays Eulerian
            length = rng.randrange(2, 6)
            walk = [rng.randrange(n) for _ in range(length)]
            for i in range(length):
                pairs.append((walk[i], walk[(i + 1) % length]))
        g = Multigraph.from_pairs(pairs, extra_vertices=range(n))
        cons = {}
        for v in g.vertices:
            inc = [e for e in g.incident_edges(v) if not g.is_loop(e)]
            if len(inc) >= 2 and rng.random() < 0.5:
                cons[v] = (inc[0], inc[1])
        d = eulerian_orientation_constrained(g, cons)
        assert all(d.in_degree(v) == d.out_degree(v) for v in g.vertices)
        for v, (e1, e2) in cons.items():
            assert sum(1 for e in (e1, e2) if d.head(e) == v) == 1
        done += 1


# -- well-balanced orientations ---------------------------------------------------------


def test_eulerian_orientation_of_k5_is_well_balanced():
    g = named_graph("k5")
    d = eulerian_orientation(g)
    assert is_well_balanced(g, d)


def test_well_balanced_k5_is_2_arc_connected():
    g = named_graph("k5")
    d = well_balanced_orientation(g)
    assert is_k_arc_connected(d, 2)


def test_well_balanced_single_edge():
    g = Multigraph.from_pairs([(0, 1)])
    d = well_balanced_orientation(g)
    assert set(d.tails) == {0}


def test_well_balanced_on_cubic_corpus(cubic_graph):
    g = cubic_graph
    if g.num_vertices > 10:
        return
    d = well_balanced_orientation(g)
    assert is_well_balanced(g, d)
    assert is_strongly_connected(d)


def test_k_arc_connected_on_circuit():
    _, d = circuit(4)
    assert is_k_arc_connected(d, 1)
    assert not is_k_arc_connected(d, 2)


def test_directed_local_connectivity_counts_paths():
    g = named_graph("theta")
    d = Orientation(g, {0: 0, 1: 0, 2: 1})
    assert directed_local_connectivity(d, 0, 1) == 2
    assert directed_local_connectivity(d, 1, 0) == 1


# -- tree-pair balance checks ------------------------------------


def random_cubic_graphs():
    """Seeded 3-edge-connected cubic graphs on 8-12 vertices, with and without a triangle."""
    rng = random.Random(19900101)
    return [Multigraph.from_pairs(random_cubic_3ec_pairs(rng, n, tri))
            for n in (8, 10, 12) for tri in (True, False)]


def lambda_graphs():
    return [named_graph(name) for name in corpus_names()] + random_cubic_graphs()


def well_balanced_all_pairs(g, d):
    """The definition: every ordered pair gets floor(lambda/2) arc-disjoint paths."""
    return all(directed_local_connectivity(d, u, v) >= g.local_edge_connectivity(u, v) // 2
               for u, v in itertools.permutations(g.vertices, 2))


def test_tree_pair_balance_check_matches_all_pairs():
    rng = random.Random(7)
    verdicts = []
    for g in lambda_graphs():
        candidates = [well_balanced_orientation(g)]
        candidates += [orientation_by_bits(g, [rng.randrange(2) for _ in g.edge_ids])
                       for _ in range(6)]
        for d in candidates:
            verdict = is_well_balanced(g, d)
            assert verdict == well_balanced_all_pairs(g, d), g
            verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_balance_check_with_bridges_or_digons_matches_all_pairs():
    # some tree weight below 2: the pairs are checked by flows alone
    rng = random.Random(31)
    graphs = [FALLBACK_GRAPHS["block_chain"](), FALLBACK_GRAPHS["k5_bridge_k5"]()]
    while len(graphs) < 30:
        n = rng.randint(3, 7)
        g = Multigraph.from_pairs([(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        if g.is_connected() and min(g._flow_tree().values()) < 2:
            graphs.append(g)
    verdicts = []
    for g in graphs:
        candidates = [well_balanced_orientation(g)]
        candidates += [orientation_by_bits(g, [rng.randrange(2) for _ in g.edge_ids]) for _ in range(4)]
        for d in candidates:
            verdict = is_well_balanced(g, d)
            assert verdict == well_balanced_all_pairs(g, d), g
            verdicts.append(verdict)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 20


def test_balance_check_below_lambda_4_is_one_strength_test(monkeypatch):
    rng = random.Random(5)
    cases = []
    for g in random_cubic_graphs() + [named_graph("petersen"), named_graph("wheel5")]:
        # well_balanced_orientation builds g's flow tree before the flows are counted
        cases += [(g, well_balanced_orientation(g), True)]
        for _ in range(4):
            d = orientation_by_bits(g, [rng.randrange(2) for _ in g.edge_ids])
            cases.append((g, d, is_strongly_connected(d)))
    calls = []
    max_flow = _Network.max_flow

    def counted_flow(self, *args):
        calls.append(args)
        return max_flow(self, *args)

    monkeypatch.setattr(_Network, "max_flow", counted_flow)
    for g, d, expected in cases:
        assert is_well_balanced(g, d) == expected
    verdicts = [expected for *_, expected in cases]
    assert calls == [] and True in verdicts and False in verdicts


# -- well-balanced fallbacks past the pairing search ---------------------------------


def k5_pairs(first):
    return [(first + a, first + b) for a, b in itertools.combinations(range(5), 2)]


FALLBACK_GRAPHS = {
    "k4": lambda: named_graph("k4"),
    "prism3": lambda: named_graph("prism3"),
    "block_chain": lambda: Multigraph.from_pairs(  # K4, bridge, triangle, bridge, digon
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4),
         (6, 7), (7, 8), (7, 8)]),
    "k5": lambda: named_graph("k5"),
    "hub_triangles": lambda: named_graph("hub_triangles"),
    "k5_bridge_k5": lambda: Multigraph.from_pairs(k5_pairs(0) + [(4, 5)] + k5_pairs(5)),
}
SEARCHED = {"k5", "hub_triangles", "k5_bridge_k5"}  # some lambda >= 4; the rest take the DFS


@pytest.mark.parametrize("name", sorted(FALLBACK_GRAPHS))
def test_well_balanced_fallbacks(monkeypatch, name):
    from orientcover import exact, orientation

    def not_taken(*args):
        raise AssertionError("the other fallback ran")

    g = FALLBACK_GRAPHS[name]()
    monkeypatch.setattr(orientation, "_WELL_BALANCED_PAIRINGS", 0)  # no pairing is tried
    assert (max(g._flow_tree().values()) >= 4) == (name in SEARCHED)
    if name in SEARCHED:
        monkeypatch.setattr(orientation, "_robbins_tails", not_taken)
    else:
        monkeypatch.setattr(exact, "_search", not_taken)
    d = well_balanced_orientation(g)
    assert well_balanced_all_pairs(g, d)
    assert is_well_balanced(g, d)


# -- serialization -----------------------------------------------------------------------


def test_orientation_json_round_trip():
    g = named_graph("petersen")
    d = well_balanced_orientation(g)
    assert orientation_from_json(d.to_json()) == d
    assert orientation_from_json(d.to_json(inline_graph=False), g) == d


def test_orientation_json_accepts_corpus_reference():
    g = named_graph("k4")
    d = well_balanced_orientation(g)
    payload = d.to_json(inline_graph=False)
    payload["graph"] = "corpus:k4"
    assert orientation_from_json(payload) == d


@pytest.mark.parametrize("obj", [5, None, "tails", [1, 2], ["graph"]])
def test_orientation_json_rejects_non_objects(obj):
    g = named_graph("k4")
    for graph in (None, g):
        with pytest.raises(FormatError):
            orientation_from_json(obj, graph)
