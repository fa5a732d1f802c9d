import hashlib
import itertools
import json
import random

import networkx as nx
import pytest

from orientcover import exact
from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import GraphTooLargeError, InternalVerificationError, PreconditionError
from orientcover.exact import (
    FrankCertificate,
    SolveLimits,
    Status,
    deletability_decide,
    frank_lower_bound,
    frank_number_exact,
    verify_certificate,
)
from orientcover.multigraph import Multigraph, _Network
from orientcover.orientation import (
    Orientation,
    deletable_arcs,
    is_deletable_set,
    is_k_arc_connected,
)
from orientcover.packings import seven_cycle_packings
from orientcover.reduction import PAPER_EXAMPLE, build_gadget, parse_formula
from orientcover.structures import special_set

from oracles import (
    brute_deletability,
    brute_deletable_arcs,
    brute_deletable_profiles,
    brute_frank_number,
    closure_strongly_connected,
    generalized_petersen_pairs,
)


def as_edges(g):
    return [(e, *g.ends(e)) for e in g.edge_ids]


def random_cubic_3ec(rng, n):
    """Configuration-model cubic multigraph on n vertices, redrawn until 3-edge-connected."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        g = Multigraph.from_pairs(list(zip(points[::2], points[1::2])))
        if g.edge_connectivity() >= 3:
            return g


# -- Frank numbers ------------------------------------------------------------------


def test_frank_k4_matches_oracle():
    g = named_graph("k4")
    k, cert = frank_number_exact(g)
    assert k == 2 == brute_frank_number(g.vertices, as_edges(g))
    assert verify_certificate(g, cert) == (True, frozenset())


def test_frank_k5_is_one_with_2arc_witness():
    g = named_graph("k5")
    k, cert = frank_number_exact(g)
    assert k == 1
    assert is_k_arc_connected(cert.orientations[0], 2)


def test_frank_petersen_is_three():
    g = named_graph("petersen")
    k, cert = frank_number_exact(g)
    assert k == 3
    ok, bad = verify_certificate(g, cert)
    assert ok and not bad


@pytest.mark.parametrize("name,expected", [("theta", 2), ("prism3", 2), ("k33", 2)])
def test_frank_small_cubic_matches_oracle(name, expected):
    g = named_graph(name)
    assert brute_frank_number(g.vertices, as_edges(g)) == expected
    assert frank_number_exact(g)[0] == expected


def test_frank_requires_3ec():
    with pytest.raises(PreconditionError):
        frank_number_exact(Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)]))


def test_frank_respects_edge_limit():
    with pytest.raises(GraphTooLargeError):
        frank_number_exact(named_graph("petersen"), SolveLimits(max_enumerable_edges=10))


def test_lower_bound_values():
    assert frank_lower_bound(named_graph("petersen")) == 2
    assert frank_lower_bound(named_graph("prism3")) == 2
    assert frank_lower_bound(named_graph("k5")) == 1
    with pytest.raises(PreconditionError):
        frank_lower_bound(Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)]))


def test_one_vertex_graphs_are_refused_as_not_3_edge_connected():
    for loops in range(4):
        g = Multigraph.from_pairs([(0, 0)] * loops, extra_vertices=[0])
        for bound in (frank_lower_bound, frank_number_exact):
            with pytest.raises(PreconditionError, match="3-edge-connected"):
                bound(g)


def test_exact_never_below_lower_bound(cubic_graph):
    g = cubic_graph
    if g.num_edges > 15:
        return
    assert frank_number_exact(g)[0] >= frank_lower_bound(g) == 2


def test_exact_at_most_3_on_essentially_4ec_corpus():
    for name in ("petersen", "k4", "k33", "cube", "theta"):
        g = named_graph(name)
        assert g.is_essentially_4ec()
        assert frank_number_exact(g)[0] <= 3, name


def test_frank_internal_verification_failure_raises_internal_error(monkeypatch):
    monkeypatch.setattr(exact, "verify_certificate", lambda g, cert: (False, frozenset({0})))
    with pytest.raises(InternalVerificationError):
        frank_number_exact(named_graph("k4"))


def test_decide_witness_failure_raises_internal_error(monkeypatch):
    g = named_graph("petersen")
    spokes = [5, 6, 7, 8, 9]
    natural = exact._Kernel.orientation_of
    assert not is_deletable_set(natural(exact._Kernel(g), 0), spokes)
    monkeypatch.setattr(exact._Kernel, "orientation_of", lambda self, mask: natural(self, 0))
    with pytest.raises(InternalVerificationError, match="witness"):
        deletability_decide(g, spokes)


def test_profile_scan_matches_plain_enumeration():
    rng = random.Random(2012)
    graphs = [named_graph(name) for name in corpus_names()]
    graphs += [random_cubic_3ec(rng, n) for n in (6, 8, 8, 10, 10)]
    scanned = 0
    for g in graphs:
        if g.num_edges > 18:
            continue
        profiles = exact._scan_deletable_profiles(exact._Kernel(g))
        assert profiles == brute_deletable_profiles(g.vertices, as_edges(g)), g
        scanned += 1
    assert scanned >= 15


def test_determinism_of_certificates():
    g = named_graph("petersen")
    _, cert1 = frank_number_exact(g)
    _, cert2 = frank_number_exact(g)
    assert cert1.to_json() == cert2.to_json()


# -- early stop at the lower bound ----------------------------------------------------

# SHA-256 of json.dumps(cert.to_json(), sort_keys=True) for Petersen (f = 3 > 2):
# two maximal scanned sets and a decision on the rest give the certificate
PETERSEN_CERT_SHA256 = "bdd9fa94894508637deeab1c5a268d61bec81d1874417656c260b7ddfeffe640"
# the same when no pair completes: the full scan and the set cover pick it
PETERSEN_FULL_COVER_SHA256 = "fc149aac399adf7fdace8d2bf671c7edaa651f8d377e9c29fe8544a37e8a41bd"


def seeded_graphs(max_edges):
    rng = random.Random(2019)
    graphs = [named_graph(name) for name in corpus_names()]
    graphs += [random_cubic_3ec(rng, n) for n in (4, 6, 6, 8, 8, 10, 10, 12)]
    graphs.append(Multigraph.from_pairs(generalized_petersen_pairs(6, 2)))
    return [g for g in graphs if g.num_edges <= max_edges]


def no_full_cover(monkeypatch):
    def fail(kern, profiles):
        raise AssertionError("the scan ran to its end")

    monkeypatch.setattr(exact, "_maximal_cover", fail)


def test_exact_matches_brute_frank_number_up_to_12_edges():
    graphs = seeded_graphs(12)
    assert len(graphs) >= 12
    for g in graphs:
        assert frank_number_exact(g)[0] == brute_frank_number(g.vertices, as_edges(g)), g


def test_exact_matches_full_scan_cover_up_to_18_edges():
    graphs = seeded_graphs(18)
    assert len(graphs) >= 15
    for g in graphs:
        kern = exact._Kernel(g)
        profiles = exact._scan_deletable_profiles(kern)
        full = exact._min_cover((1 << kern.m) - 1, list(profiles))
        assert frank_number_exact(g)[0] == len(full), g


def keyed_graph(key):
    """A corpus graph by name, gp(n,k) as "gp:n,k", or seeded cubic as "random:n:seed"."""
    kind, _, rest = key.partition(":")
    if kind == "gp":
        return Multigraph.from_pairs(generalized_petersen_pairs(*map(int, rest.split(","))))
    if kind == "random":
        n, seed = map(int, rest.split(":"))
        return random_cubic_3ec(random.Random(seed), n)
    return named_graph(key)


@pytest.mark.parametrize("name,bound", [("k4", 2), ("k5", 1), ("cube", 2), ("prism3", 2),
                                        ("wheel5", 2), ("double_k4", 2), ("hub_triangles", 2),
                                        ("gp:6,2", 2), ("random:10:41", 2)])
def test_early_stop_certificate_has_lower_bound_size(monkeypatch, name, bound):
    g = keyed_graph(name)
    no_full_cover(monkeypatch)
    k, cert = frank_number_exact(g)
    assert k == len(cert.orientations) == frank_lower_bound(g) == bound
    assert verify_certificate(g, cert) == (True, frozenset())


def test_full_cover_runs_only_above_the_lower_bound(monkeypatch):
    # the pair completion runs exactly when no certificate of lower-bound
    # size exists, and on these graphs it always completes a pair, so the
    # full scan and its set cover never run
    no_full_cover(monkeypatch)
    pair = exact._complete_pair
    calls = []

    def counted(kern, profiles, hopeless):
        calls.append(len(profiles))
        return pair(kern, profiles, hopeless)

    monkeypatch.setattr(exact, "_complete_pair", counted)
    cases = [(g, SolveLimits()) for g in seeded_graphs(18) + [keyed_graph("gp:5,2")]]
    cases.append((named_graph("moebius_kantor"), SolveLimits(max_enumerable_edges=24)))
    above = 0
    for g, limits in cases:
        calls.clear()
        k, cert = frank_number_exact(g, limits)
        assert len(calls) == (k > frank_lower_bound(g)), g
        assert k == len(cert.orientations)
        assert verify_certificate(g, cert) == (True, frozenset()), g
        above += bool(calls)
    assert len(cases) >= 17 and above >= 2


def test_failed_pair_completion_falls_back_to_the_full_cover(monkeypatch):
    # with no pair completing, the full scan and the set cover give the
    # certificate, and f stays exact
    monkeypatch.setattr(exact, "_complete_pair", lambda kern, profiles, hopeless: None)
    _, cert = frank_number_exact(named_graph("petersen"))
    blob = json.dumps(cert.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PETERSEN_FULL_COVER_SHA256
    for g in seeded_graphs(12):
        assert frank_number_exact(g)[0] == brute_frank_number(g.vertices, as_edges(g)), g


def test_leaf_skip_changes_no_certificate_up_to_f2(monkeypatch):
    # a skipped leaf only holds sets that cannot complete, so the first
    # completable set, its orientation and its witness stay the same
    graphs = seeded_graphs(18)
    skipping = [frank_number_exact(g) for g in graphs]
    scan = exact._scan_deletable_profiles
    monkeypatch.setattr(exact, "_scan_deletable_profiles",
                        lambda kern, stop=None, skip=None: scan(kern, stop))
    compared = 0
    for g, (k, cert) in zip(graphs, skipping):
        if k <= 2:
            assert frank_number_exact(g)[1].to_json() == cert.to_json(), g
            compared += 1
    assert compared >= 15


def test_leaf_bound_holds_every_deletable_arc():
    # the bound a skip predicate sees at a leaf holds its deletable arcs
    rng = random.Random(5150)
    graphs = [named_graph(name) for name in ("k4", "theta", "prism3", "k33", "petersen")]
    graphs += [random_cubic_3ec(rng, 8) for _ in range(2)]
    for g in graphs:
        kern = exact._Kernel(g)
        bounds, leaves = [], []
        exact._search(kern, 0, None, None, lambda mask, dmask: leaves.append((bounds[-1], dmask)),
                      lambda bound: bounds.append(bound) and False)
        assert leaves and all(dmask & ~bound == 0 for bound, dmask in leaves), g


def automorphism_cases():
    rng = random.Random(1729)
    graphs = [named_graph(name) for name in corpus_names()]
    graphs += [Multigraph.from_pairs(generalized_petersen_pairs(n, k))
               for n in range(3, 8) for k in range(1, (n + 1) // 2)]
    graphs += [random_cubic_3ec(rng, n) for n in (6, 8, 8, 10, 12, 14)]
    return graphs


def test_automorphisms_match_networkx():
    for g in automorphism_cases():
        kern = exact._Kernel(g)
        h = nx.MultiGraph()
        h.add_nodes_from(range(kern.n))
        h.add_edges_from(zip(kern.u, kern.v))
        isos = [tuple(sigma[x] for x in range(kern.n))
                for sigma in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter()]
        perms = exact._automorphisms(kern)
        assert len(perms) == len(isos), g
        matched = set()
        for p in perms:
            assert sorted(p) == list(range(kern.m)), g
            # each edge goes to an edge whose ends are the mapped ends
            fits = {sigma for sigma in isos if all(
                {kern.u[p[i]], kern.v[p[i]]} == {sigma[kern.u[i]], sigma[kern.v[i]]}
                for i in range(kern.m))}
            assert fits, (g, p)
            matched |= fits
        assert matched == set(isos), g
        if len(set(zip(kern.u, kern.v))) == kern.m:  # simple: one permutation per map
            assert len(set(map(tuple, perms))) == len(perms), g


def test_completion_decision_matches_brute_force():
    # the scan asks _decide whether the edges outside a deletable set P can be
    # deletable in one orientation; a fixed sample of profiles per graph
    rng = random.Random(4409)
    graphs = [named_graph(name) for name in ("k4", "prism3", "cube", "k33")]
    graphs += [random_cubic_3ec(rng, 8) for _ in range(2)]
    answers = {Status.FOUND: 0, Status.NO: 0}
    searched = 0
    for g in graphs:
        kern = exact._Kernel(g)
        universe = (1 << kern.m) - 1
        profiles = sorted(exact._scan_deletable_profiles(kern))
        # brute force enumerates all 2^m orientations per NO: fewer samples at 12 edges
        for dmask in rng.sample(profiles, min(len(profiles), 20 if kern.m < 12 else 8)):
            rest = universe & ~dmask
            status, mask, nodes = exact._decide(kern, rest, None)
            s = {kern.edges[i] for i in range(kern.m) if (rest >> i) & 1}
            expected = brute_deletability(g.vertices, as_edges(g), s) is not None
            assert status is (Status.FOUND if expected else Status.NO), (g, dmask)
            if expected:
                assert is_deletable_set(kern.orientation_of(mask), s)
            answers[status] += 1
            searched += nodes > 0
    assert answers[Status.FOUND] >= 20 and answers[Status.NO] >= 20 and searched >= 30, answers


def test_petersen_completion_scan_skips_subsets_of_refuted_sets(monkeypatch):
    # a deletable set inside one whose completion search said NO gets no
    # search, and neither does one whose complement holds a whole star
    decide = exact._decide
    searches = []

    def counted(kern, sbit, budget):
        result = decide(kern, sbit, budget)
        if result[2] > 0:
            searches.append(result[2])
        return result

    monkeypatch.setattr(exact, "_decide", counted)
    g = named_graph("petersen")
    k, cert = frank_number_exact(g)
    assert k == 3 and verify_certificate(g, cert) == (True, frozenset())
    assert len(searches) == 16


def test_min_cover_floor_keeps_the_cover_on_petersen():
    kern = exact._Kernel(named_graph("petersen"))
    profiles = exact._scan_deletable_profiles(kern)
    maximal = sorted(p for p in profiles if not any(p != q and p & q == p for q in profiles))
    universe = (1 << kern.m) - 1
    plain = exact._min_cover(universe, maximal)
    assert len(plain) == 3
    assert exact._min_cover(universe, maximal, 3) == plain


def test_petersen_certificate_pinned():
    _, cert = frank_number_exact(named_graph("petersen"))
    blob = json.dumps(cert.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PETERSEN_CERT_SHA256


def test_moebius_kantor_above_default_limit_is_two():
    g = named_graph("moebius_kantor")
    with pytest.raises(GraphTooLargeError):
        frank_number_exact(g)
    k, cert = frank_number_exact(g, SolveLimits(max_enumerable_edges=24))
    assert k == len(cert.orientations) == 2
    assert verify_certificate(g, cert) == (True, frozenset())


# -- deletability decisions -----------------------------------------------------------


def test_decide_petersen_spokes_yes_with_verified_witness():
    g = named_graph("petersen")
    spokes = [5, 6, 7, 8, 9]
    result = deletability_decide(g, spokes)
    assert result.status is Status.FOUND
    assert is_deletable_set(result.orientation, spokes)


def test_decide_empty_set_on_2ec_graph():
    g = named_graph("cube")
    result = deletability_decide(g, [])
    assert result.status is Status.FOUND


def test_decide_prism_rungs_no_matches_oracle():
    g = named_graph("prism3")
    rungs = {6, 7, 8}
    assert brute_deletability(g.vertices, as_edges(g), rungs) is None
    assert deletability_decide(g, rungs).status is Status.NO


def test_decide_three_cut_obstruction():
    # two triangles joined by 3 edges: the joining edges can never all be deletable
    g = named_graph("prism3")
    assert deletability_decide(g, [6, 7, 8]).status is Status.NO


def test_decide_root_check_refutes_a_saturated_low_degree_vertex():
    # every edge at a degree-3 vertex lies in s: NO before the search starts
    g = named_graph("prism3")
    s = set(g.incident_edges(0))
    assert brute_deletability(g.vertices, as_edges(g), s) is None
    result = deletability_decide(g, s, SolveLimits(max_enumerable_edges=3, node_budget=1))
    assert result.status is Status.NO and result.nodes == 0
    # a degree-4 vertex can keep two in-arcs and two out-arcs: the search decides
    g = named_graph("k5")
    s = set(g.incident_edges(0))
    expected = brute_deletability(g.vertices, as_edges(g), s) is not None
    result = deletability_decide(g, s)
    assert result.nodes > 0
    assert result.status is (Status.FOUND if expected else Status.NO)


def test_decide_star_check_builds_no_search_state(monkeypatch):
    # the 0-node NO reads the graph's own incidences, loops skipped
    built = []
    kernel = exact._Kernel

    def counted(g):
        built.append(g)
        return kernel(g)

    monkeypatch.setattr(exact, "_Kernel", counted)
    prism = named_graph("prism3")
    g = Multigraph(prism.vertices, {**{e: prism.ends(e) for e in prism.edge_ids}, 100: (0, 0)})
    s = set(g.incident_edges(0)) | {max(prism.edge_ids)}
    result = deletability_decide(g, s)
    assert result.status is Status.NO and result.nodes == 0
    assert built == []
    assert deletability_decide(g, [100]).status is Status.FOUND
    assert len(built) == 1


def test_decide_star_check_matches_the_kernel_star_bitmasks():
    # deletability_decide counts s's edges per vertex; the completion scan tests
    # _Kernel.small_stars against a bitmask: both must see the same stars.  A
    # one-node budget keeps every search short, and any search costs a node
    rng = random.Random(6121)
    graphs = [named_graph(name) for name in corpus_names()]
    while len(graphs) < len(corpus_names()) + 30:  # configuration model, degrees 1-5
        points = [v for v in range(rng.randint(2, 7)) for _ in range(rng.randint(1, 5))]
        rng.shuffle(points)
        g = Multigraph.from_pairs(list(zip(points[::2], points[1::2])))
        if g.num_vertices >= 2 and g.is_connected():
            graphs.append(g)
    loops = sum(any(g.is_loop(e) for e in g.edge_ids) for g in graphs)
    parallels = sum(len(set(map(g.ends, g.edge_ids))) < g.num_edges for g in graphs)
    assert loops >= 5 and parallels >= 5, (loops, parallels)
    limits = SolveLimits(max_enumerable_edges=1, node_budget=1)
    seen = {True: 0, False: 0}
    for g in graphs:
        kern = exact._Kernel(g)
        for _ in range(8):
            s = rng.sample(g.edge_ids, rng.randint(0, g.num_edges))
            sbit = sum(1 << kern.eindex[e] for e in s if not g.is_loop(e))
            starved = any(star & sbit == star for star in kern.small_stars)
            result = deletability_decide(g, s, limits)
            assert (result.nodes == 0 and result.status is Status.NO) == starved, (g, s)
            seen[starved] += 1
    assert min(seen.values()) >= 100, seen


def test_decide_agrees_with_enumeration_small():
    budgeted = SolveLimits(max_enumerable_edges=3, node_budget=500_000)
    for name in ("k4", "theta", "prism3"):
        g = named_graph(name)
        edges = list(g.edge_ids)
        subsets = [edges[:1], edges[:2], edges[:3], edges]
        for s in subsets:
            expected = brute_deletability(g.vertices, as_edges(g), set(s)) is not None
            for limits in (SolveLimits(), budgeted):
                result = deletability_decide(g, s, limits)
                assert result.status is (Status.FOUND if expected else Status.NO), (name, s)
                if result.status is Status.FOUND:
                    assert is_deletable_set(result.orientation, s)


def test_decide_matches_brute_force_on_seeded_sets():
    rng = random.Random(5077)
    budgeted = SolveLimits(max_enumerable_edges=3, node_budget=500_000)
    graphs = [named_graph(name) for name in corpus_names()]
    graphs += [random_cubic_3ec(rng, n) for n in (6, 6, 8, 8, 10)]
    decided = {Status.FOUND: 0, Status.NO: 0}
    for g in graphs:
        if g.num_edges > 15 or not g.is_connected():
            continue
        edges = list(g.edge_ids)
        for size in (1, 2, 3, len(edges) // 3, len(edges) // 2):
            s = rng.sample(edges, size)
            expected = brute_deletability(g.vertices, as_edges(g), set(s)) is not None
            for limits in (SolveLimits(), budgeted):
                result = deletability_decide(g, s, limits)
                assert result.status is (Status.FOUND if expected else Status.NO), (g, s, limits)
                if result.status is Status.FOUND:
                    assert is_deletable_set(result.orientation, s)
            decided[result.status] += 1
    assert decided[Status.FOUND] >= 20 and decided[Status.NO] >= 10, decided


def test_search_reaches_exactly_the_ok_strong_leaves_in_order():
    # propagation may only cut subtrees without an acceptable leaf: the leaves
    # handed on are every strong orientation whose vertices all pass the
    # finished-vertex rule, in depth-first order over the edge ids; random
    # relabellings of the edge ids check propagation across many orders.
    # Each leaf also gets its deletable arcs among all edges, or among sbit
    rng = random.Random(3301)
    graphs = [named_graph(name) for name in ("k4", "theta", "prism3", "k33", "wheel4", "cube")]
    graphs += [random_cubic_3ec(rng, 8) for _ in range(2)]
    leaves = 0
    for g in graphs:
        for _ in range(3):
            ids = rng.sample(range(g.num_edges), g.num_edges)
            h = Multigraph(g.vertices, {new: g.ends(e) for new, e in zip(ids, g.edge_ids)})
            kern = exact._Kernel(h)
            sbit = sum(1 << i for i in rng.sample(range(kern.m), rng.randint(0, kern.m // 2)))
            reached, dmasks, sbit_dmasks = [], [], []
            exact._search(kern, sbit, None, None,
                          lambda mask, dmask: reached.append(mask) or dmasks.append(dmask))
            candidates = [i for i in range(kern.m) if (sbit >> i) & 1]
            exact._search(kern, sbit, None, candidates, lambda mask, dmask: sbit_dmasks.append(dmask))
            expected, expected_dmasks = [], []
            for bits in itertools.product((0, 1), repeat=kern.m - 1):
                mask = sum(b << i for i, b in enumerate(bits, 1))
                arcs = [(kern.v[i], kern.u[i]) if (mask >> i) & 1 else (kern.u[i], kern.v[i])
                        for i in range(kern.m)]
                ins = [[] for _ in range(kern.n)]
                outs = [[] for _ in range(kern.n)]
                for i, (t, h) in enumerate(arcs):
                    outs[t].append(i)
                    ins[h].append(i)
                ok = all(len(side) > 1 or (side and not (sbit >> side[0]) & 1)
                         for x in range(kern.n) for side in (ins[x], outs[x]))
                if ok and closure_strongly_connected(kern.n, arcs):
                    expected.append(mask)
                    indexed = [(i, t, h) for i, (t, h) in enumerate(arcs)]
                    deletable = brute_deletable_arcs(range(kern.n), indexed, ())
                    expected_dmasks.append(sum(1 << i for i in deletable))
            assert reached == expected, (h, sbit)
            assert dmasks == expected_dmasks, (h, sbit)
            assert sbit_dmasks == [dmask & sbit for dmask in expected_dmasks], (h, sbit)
            leaves += len(reached)
    assert leaves >= 100, leaves


def test_decide_runs_no_max_flow(monkeypatch):
    # the search branches in edge-id order, so a decision builds no flow tree
    # and runs no flow at all (building the gadget checks its lambda first)
    cases = [(named_graph("petersen"), [5, 6, 7, 8, 9]), (named_graph("hub_triangles"), [8, 9, 11]),
             (named_graph("prism3"), [6, 7, 8]), (named_graph("k5"), list(range(10)))]
    inst = build_gadget(parse_formula(PAPER_EXAMPLE))
    cases.append((inst.graph, inst.s))
    calls = []
    flow_tree = Multigraph._flow_tree
    max_flow = _Network.max_flow

    def counted_tree(self):
        calls.append(self)
        return flow_tree(self)

    def counted_flow(self, *args):
        calls.append(args)
        return max_flow(self, *args)

    monkeypatch.setattr(Multigraph, "_flow_tree", counted_tree)
    monkeypatch.setattr(_Network, "max_flow", counted_flow)
    for g, s in cases:
        assert deletability_decide(g, s).nodes > 0
    assert calls == []


def test_lambda_thresholds_run_no_max_flow(monkeypatch):
    # every lambda question up to 3 comes from the signature pass; only values above take flows
    graphs = {name: named_graph(name) for name in ("k4", "prism3", "petersen", "hub_triangles", "k5")}
    packed = [(g, p) for name in ("prism3", "petersen", "cube")
              for g in [named_graph(name)] for p in seven_cycle_packings(g).packings]
    calls = []
    max_flow = _Network.max_flow

    def counted_flow(self, *args):
        calls.append(args)
        return max_flow(self, *args)

    monkeypatch.setattr(_Network, "max_flow", counted_flow)
    build_gadget(parse_formula(PAPER_EXAMPLE))
    for name, g in graphs.items():
        assert frank_number_exact(g)[0] >= frank_lower_bound(g) == (1 if name == "k5" else 2)
        assert name == "k5" or g.edge_connectivity() == 3
    for g, p in packed:
        special_set(g, p)
    assert calls == []
    assert graphs["k5"].edge_connectivity() == 4 and calls


def test_decide_budget_indeterminate_distinct_from_no():
    g = named_graph("petersen")
    starved = deletability_decide(
        g, [5, 6, 7, 8, 9], SolveLimits(max_enumerable_edges=3, node_budget=20))
    assert starved.status is Status.INDETERMINATE
    assert starved.orientation is None


def test_decide_rejects_unknown_edges():
    with pytest.raises(PreconditionError):
        deletability_decide(named_graph("k4"), [99])


# -- certificate verification -----------------------------------------------------------


def test_verify_self_check_of_exact_output():
    g = named_graph("petersen")
    _, cert = frank_number_exact(g)
    assert verify_certificate(g, cert) == (True, frozenset())


def test_verify_rejects_circuit_claim():
    g = Multigraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    d = Orientation(g, {0: 0, 1: 1, 2: 2})
    cert = FrankCertificate((d,), {0: 0, 1: 0, 2: 0})
    ok, bad = verify_certificate(g, cert)
    assert not ok and bad == frozenset({0, 1, 2})


def test_verify_empty_certificate_reports_all_edges():
    g = named_graph("k4")
    ok, bad = verify_certificate(g, FrankCertificate((), {}))
    assert not ok and bad == frozenset(g.edge_ids)


def test_verify_mismatched_graph_errors():
    from orientcover.errors import CertificateMismatchError

    g = named_graph("k4")
    _, cert = frank_number_exact(g)
    with pytest.raises(CertificateMismatchError):
        verify_certificate(named_graph("k33"), cert)


def test_certificate_json_round_trip():
    from orientcover.exact import certificate_from_json

    g = named_graph("k4")
    k, cert = frank_number_exact(g)
    again = certificate_from_json(cert.to_json())
    assert verify_certificate(g, again) == (True, frozenset())
    assert len(again.orientations) == k
