import random

import pytest

from orientcover import packings
from orientcover.corpus import named_graph
from orientcover.errors import PreconditionError
from orientcover.multigraph import Multigraph
from orientcover.packings import seven_cycle_packings
from orientcover.structures import special_set

from oracles import generalized_petersen_pairs, random_cubic_3ec_pairs


SMALL_CUBIC = ("k4", "theta", "k33", "prism3", "cube", "petersen")


@pytest.mark.parametrize("name", SMALL_CUBIC)
def test_every_edge_special_somewhere(name):
    g = named_graph(name)
    sp = seven_cycle_packings(g)
    for e in g.edge_ids:
        k = sp.witness[e]
        assert e in special_set(g, sp.packings[k])


@pytest.mark.parametrize("name", SMALL_CUBIC)
def test_every_edge_in_exactly_four_packings(name):
    g = named_graph(name)
    sp = seven_cycle_packings(g)
    for e in g.edge_ids:
        assert len(sp.membership[e]) == 4


def test_packings_are_vertex_disjoint_cycles():
    g = named_graph("petersen")
    sp = seven_cycle_packings(g)
    for p in sp.packings:
        seen = set()
        for c in p.cycles:
            assert not (seen & c.vertex_set)
            seen |= c.vertex_set
            sub = Multigraph(c.vertex_set, {e: g.ends(e) for e in c.edges})
            assert all(sub.degree(v) == 2 for v in sub.vertices)


def test_recursion_branch_on_prism():
    g = named_graph("prism3")
    assert g.find_nontrivial_3cut() is not None  # the recursion really runs
    sp = seven_cycle_packings(g)
    assert len(sp.packings) == 7


def test_recursion_branch_on_bipetersen():
    g = named_graph("bipetersen")
    assert g.find_nontrivial_3cut() is not None
    sp = seven_cycle_packings(g)
    for e in g.edge_ids:
        assert len(sp.membership[e]) == 4


GP_LADDER = [(5, 2), (7, 2), (8, 3), (10, 3), (12, 5), (16, 3), (32, 3)]


def test_recursion_quotients_are_cubic_and_3_edge_connected(monkeypatch):
    # the recursive case checks its quotients too; they must pass by construction
    seen = []
    core = packings.seven_cycle_packings

    def recording(g):
        seen.append(g)
        return core(g)

    monkeypatch.setattr(packings, "seven_cycle_packings", recording)
    rng = random.Random(4091)
    graphs = [Multigraph.from_pairs(generalized_petersen_pairs(n, k)) for n, k in GP_LADDER]
    graphs += [Multigraph.from_pairs(random_cubic_3ec_pairs(rng, n, True)) for n in (8, 10, 12, 12)]
    for g in graphs:
        seven_cycle_packings(g)
    quotients = [q for q in seen if q not in graphs]
    assert len(quotients) >= 2 * 4
    for q in quotients:
        assert all(q.degree(v) == 3 for v in q.vertices)
        assert q.edge_connectivity() >= 3


def test_moebius_kantor_base_case():
    sp = seven_cycle_packings(named_graph("moebius_kantor"))
    assert len(sp.packings) == 7


def test_rejects_non_cubic():
    with pytest.raises(PreconditionError):
        seven_cycle_packings(named_graph("k5"))


def test_rejects_low_connectivity():
    g = Multigraph.from_pairs([(0, 1), (0, 1), (1, 2), (2, 0)])  # degree mix
    with pytest.raises(PreconditionError):
        seven_cycle_packings(g)


def test_json_dump_shape():
    sp = seven_cycle_packings(named_graph("k4"))
    payload = sp.to_json()
    assert len(payload["packings"]) == 7
    assert set(payload["membership"]) == {str(e) for e in named_graph("k4").edge_ids}
    assert all(len(vec) == 7 and sum(vec) == 4 for vec in payload["membership"].values())
    assert set(payload["specialWitness"]) == set(payload["membership"])
