"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as
they happen; a plain `pytest` run shows them in the captured output of any
failing criterion.
"""

import itertools
import json
import random
import sys
import time
from contextlib import contextmanager

import pytest

from orientcover.cli import main as cli_main
from orientcover.corpus import named_graph
from orientcover.errors import NotThreeEdgeColorableError
from orientcover.exact import (
    SolveLimits,
    Status,
    deletability_decide,
    frank_lower_bound,
    frank_number_exact,
    verify_certificate,
)
from orientcover.multigraph import Multigraph
from orientcover.orientation import (
    Orientation,
    cut_characterization_check,
    deletable_arcs,
    eulerian_orientation_constrained,
    is_deletable_set,
    is_k_arc_connected,
    is_strongly_connected,
)
from orientcover.packings import seven_cycle_packings
from orientcover.pipelines import certify_bf5, certify_color3, certify_esse4, certify_upper7
from orientcover.reduction import (
    PAPER_EXAMPLE,
    assignment_to_orientation,
    build_gadget,
    is_feasible,
    orientation_to_assignment,
    parse_formula,
)
from orientcover.structures import berge_fulkerson_cover, special_set

from oracles import brute_3cuts, brute_min_cut

CUBIC_CORPUS = ("petersen", "k4", "k33", "prism3", "cube", "theta",
                "moebius_kantor", "bipetersen")
SMALL_CUBIC = ("petersen", "k4", "k33", "prism3", "cube", "theta")


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {summary}", flush=True)
        raise
    print(f"[criterion {number:2d}] PASS - {summary}", flush=True)


def test_criterion_1_exact_petersen(tmp_path, capsys):
    with criterion(1, "exact solver: f(Petersen) = 3 with a verified certificate, < 60 s"):
        out = tmp_path / "petersen.json"
        start = time.monotonic()
        code = cli_main(["frank", "--exact", "corpus:petersen", "--out", str(out)])
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["frankNumber"] == 3
        from orientcover.exact import certificate_from_json

        g = named_graph("petersen")
        cert = certificate_from_json(payload)
        assert verify_certificate(g, cert) == (True, frozenset())
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_lower_bound_consistency():
    with criterion(2, "lower bounds: 2 on every cubic corpus graph; f(K5) = 1 via a "
                      "2-arc-connected witness"):
        for name in CUBIC_CORPUS:
            g = named_graph(name)
            assert frank_lower_bound(g) == 2, name
        for name in SMALL_CUBIC:
            g = named_graph(name)
            k, cert = frank_number_exact(g)
            assert k >= 2, name
            assert verify_certificate(g, cert) == (True, frozenset())
        g5 = named_graph("k5")
        k, cert = frank_number_exact(g5)
        assert k == 1
        assert is_k_arc_connected(cert.orientations[0], 2)


def test_criterion_3_esse4_pipeline():
    with criterion(3, "essentially-4ec pipeline: <= 3 verified orientations on "
                      "Petersen, K4 and wheel4, < 30 s each"):
        for name in ("petersen", "k4", "wheel4"):
            g = named_graph(name)
            start = time.monotonic()
            report = certify_esse4(g)
            elapsed = time.monotonic() - start
            assert len(report.certificate.orientations) <= 3, name
            assert verify_certificate(g, report.certificate) == (True, frozenset()), name
            assert elapsed < 30, f"{name} took {elapsed:.1f}s"


def test_criterion_4_color3_pipeline():
    with criterion(4, "3-coloring pipeline: <= 3 orientations on K4, K33, prism3; "
                      "clean error on Petersen"):
        for name in ("k4", "k33", "prism3"):
            g = named_graph(name)
            report = certify_color3(g)
            assert len(report.certificate.orientations) <= 3, name
            assert verify_certificate(g, report.certificate) == (True, frozenset()), name
        with pytest.raises(NotThreeEdgeColorableError):
            certify_color3(named_graph("petersen"))


def test_criterion_5_seven_packing_properties():
    with criterion(5, "seven packings: every edge special somewhere and in exactly 4, "
                      "on all cubic corpus graphs <= 14 vertices; recursion exercised"):
        assert named_graph("prism3").find_nontrivial_3cut() is not None
        for name in SMALL_CUBIC:
            g = named_graph(name)
            assert g.num_vertices <= 14
            sp = seven_cycle_packings(g)  # postconditions (a) and (b) assert inside
            for e in g.edge_ids:
                assert len(sp.membership[e]) == 4, (name, e)
                assert e in special_set(g, sp.packings[sp.witness[e]]), (name, e)


def test_criterion_6_upper7_pipeline():
    with criterion(6, "seven-packing pipeline: <= 7 verified orientations; exact Frank "
                      "numbers never exceed 7 where the exact solver runs"):
        for name in SMALL_CUBIC:
            g = named_graph(name)
            report = certify_upper7(g)
            assert len(report.certificate.orientations) <= 7, name
            assert verify_certificate(g, report.certificate) == (True, frozenset()), name
            k, _ = frank_number_exact(g)
            assert k <= 7, name


def test_criterion_7_double_cover_pipeline():
    with criterion(7, "double cover of Petersen found (6 matchings, each edge twice) "
                      "and bf5 emits <= 5 verified orientations, < 60 s"):
        g = named_graph("petersen")
        start = time.monotonic()
        found = berge_fulkerson_cover(g)
        assert found.status == "solved"
        assert len(found.matchings) == 6
        counts = {e: 0 for e in g.edge_ids}
        for m in found.matchings:
            assert len(m) == 5
            for e in m:
                counts[e] += 1
        assert all(c == 2 for c in counts.values())
        report = certify_bf5(g)
        elapsed = time.monotonic() - start
        assert len(report.certificate.orientations) <= 5
        assert verify_certificate(g, report.certificate) == (True, frozenset())
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_8_gadget_structure():
    with criterion(8, "reduction structure: the 3-clause example gives |V|=30, |E|=45, "
                      "cubic, 3-edge-connected"):
        inst = build_gadget(parse_formula(PAPER_EXAMPLE))
        g = inst.graph
        assert g.num_vertices == 30
        assert g.num_edges == 45
        assert all(g.degree(v) == 3 for v in g.vertices)
        assert g.edge_connectivity() == 3


def test_criterion_9_gadget_semantics():
    with criterion(9, "reduction semantics: forward map certifies S, backward map is "
                      "feasible, round trip exact on every feasible assignment"):
        f = parse_formula(PAPER_EXAMPLE)
        inst = build_gadget(f)
        feasible = []
        for bits in itertools.product((False, True), repeat=4):
            a = dict(zip((1, 2, 3, 4), bits))
            if is_feasible(f, a):
                feasible.append(a)
        assert feasible
        for a in feasible:
            d = assignment_to_orientation(inst, a)
            assert is_deletable_set(d, inst.s)
            assert orientation_to_assignment(inst, d) == a
        result = deletability_decide(inst.graph, inst.s,
                                     SolveLimits(node_budget=500_000))
        assert result.status is Status.FOUND
        assert is_deletable_set(result.orientation, inst.s)
        assert is_feasible(f, orientation_to_assignment(inst, result.orientation))


# -- criterion 10: the oracle-equivalence sweep ------------------------------------------


def _pair_types(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _forced_and_empty(n, arcs):
    """Local subset enumeration: (some in-cut empty, arcs forced as unique in-arcs)."""
    forced = set()
    for mask in range(1, (1 << n) - 1):
        entering = []
        for e, t, h in arcs:
            if (mask >> h) & 1 and not (mask >> t) & 1:
                entering.append(e)
                if len(entering) > 1:
                    break
        if not entering:
            return None
        if len(entering) == 1:
            forced.add(entering[0])
    return forced


def _sweep_graph(g):
    """Assert the for-all-F equivalence on every orientation of g."""
    n = g.num_vertices
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nonloop = [e for e in g.edge_ids if not g.is_loop(e)]
    loops = [e for e in g.edge_ids if g.is_loop(e)]
    ends = {e: g.ends(e) for e in nonloop}
    checked = 0
    for mask in range(1 << len(nonloop)):
        tails = {}
        arcs = []
        for i, e in enumerate(nonloop):
            u, v = ends[e]
            t, h = (v, u) if (mask >> i) & 1 else (u, v)
            tails[e] = t
            arcs.append((e, index[t], index[h]))
        d = Orientation(g, tails)
        forced = _forced_and_empty(n, arcs) if n > 1 else set()
        if forced is None:
            assert not is_strongly_connected(d)
            assert not cut_characterization_check(d, [])
            assert not is_deletable_set(d, [])
        else:
            assert is_strongly_connected(d)
            expected = frozenset(set(g.edge_ids) - forced)
            assert deletable_arcs(d) == expected
            if mask % 7 == 0:  # API-level spot checks through both public functions
                for f in ([], sorted(expected), sorted(expected | set(list(forced)[:1]))):
                    assert is_deletable_set(d, f) == cut_characterization_check(d, f)
        checked += 1
    return checked


def test_criterion_10_oracle_equivalence_suite():
    with criterion(10, "oracle equivalence: deletability <=> cut characterization over "
                       "an exhaustive small-multigraph family; Menger and non-crossing "
                       "cuts hold; zero counterexamples"):
        start = time.monotonic()
        graphs = 0
        orientations = 0

        # every multigraph (loops and parallels) on 2..4 vertices with <= 6 edges
        for n in (2, 3, 4):
            types = _pair_types(n)
            for k in range(0, 7):
                for combo in itertools.combinations_with_replacement(types, k):
                    g = Multigraph.from_pairs(list(combo), extra_vertices=range(n))
                    orientations += _sweep_graph(g)
                    graphs += 1

        # every simple connected 5-vertex graph with <= 8 edges
        pairs5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for k in range(4, 9):
            for combo in itertools.combinations(pairs5, k):
                g = Multigraph.from_pairs(list(combo), extra_vertices=range(5))
                if not g.is_connected():
                    continue
                orientations += _sweep_graph(g)
                graphs += 1

        # deterministic stride sample of simple connected 6-vertex graphs, 6..9 edges
        pairs6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        stride = 0
        for k in range(6, 10):
            for combo in itertools.combinations(pairs6, k):
                stride += 1
                if stride % 29:
                    continue
                g = Multigraph.from_pairs(list(combo), extra_vertices=range(6))
                if not g.is_connected():
                    continue
                orientations += _sweep_graph(g)
                graphs += 1

        # Menger: flow connectivity equals brute-force min cut on the small corpus
        for name in ("k4", "k33", "prism3", "cube", "theta", "wheel4"):
            g = named_graph(name)
            edges = [(e, *g.ends(e)) for e in g.edge_ids]
            verts = g.vertices
            for u, v in itertools.combinations(verts, 2):
                assert g.local_edge_connectivity(u, v) == \
                    brute_min_cut(verts, edges, must_have=u, must_not=v), (name, u, v)

        # non-crossing 3-cuts on every 3-edge-connected corpus graph <= 10 vertices
        for name in ("petersen", "k4", "k33", "prism3", "cube", "theta",
                     "wheel4", "wheel5", "double_k4", "hub_triangles"):
            g = named_graph(name)
            if g.edge_connectivity() < 3:
                continue
            cuts = brute_3cuts(g.vertices, [(e, *g.ends(e)) for e in g.edge_ids])
            vs = set(g.vertices)
            for xs, ys in itertools.combinations(cuts, 2):
                assert any(not c for c in (xs - ys, ys - xs, xs & ys, vs - (xs | ys)))

        elapsed = time.monotonic() - start
        assert elapsed < 600, f"suite took {elapsed:.0f}s"
        print(f"  (swept {graphs} graphs / {orientations} orientations "
              f"in {elapsed:.0f}s)", flush=True)


def test_criterion_11_constrained_eulerian_instances():
    with criterion(11, "constrained Eulerian orientations: in = out and every "
                       "constraint satisfied on 100 generated instances"):
        rng = random.Random(424242)
        done = 0
        while done < 100:
            n = rng.randrange(3, 10)
            pairs = []
            for _ in range(rng.randrange(1, 4)):
                length = rng.randrange(2, 7)
                walk = [rng.randrange(n) for _ in range(length)]
                for i in range(length):
                    pairs.append((walk[i], walk[(i + 1) % length]))
            g = Multigraph.from_pairs(pairs, extra_vertices=range(n))
            constraints = {}
            for v in g.vertices:
                incident = [e for e in g.incident_edges(v) if not g.is_loop(e)]
                if len(incident) >= 2 and rng.random() < 0.6:
                    constraints[v] = (incident[0], incident[-1])
            d = eulerian_orientation_constrained(g, constraints)
            for v in g.vertices:
                assert d.in_degree(v) == d.out_degree(v)
            for v, (e1, e2) in constraints.items():
                assert sum(1 for e in (e1, e2) if d.head(e) == v) == 1
            done += 1
