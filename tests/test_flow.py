"""The flow network of multigraph against brute-force cuts and the reference kernel.

`_Network.max_flow` runs from a set of sources to a set of sinks and stops at
its bound, so its value must be min(limit, minimum cut) and, below the limit,
its residual must leave the side the reference Edmonds-Karp in oracles leaves.
The flow tree and the 3-cut search built on it must name what the same
algorithms name on the reference kernel.
"""

import random

from orientcover.corpus import corpus_names, named_graph
from orientcover.multigraph import Multigraph, _Network

from oracles import (
    brute_min_cut_between,
    generalized_petersen_pairs,
    random_cubic_3ec_pairs,
    ref_flow_tree,
    ref_nontrivial_3cut,
    ref_set_flow,
)

GP_LADDER = [(5, 2), (7, 2), (8, 3), (10, 3), (12, 5), (16, 3), (32, 3)]


def random_networks(rng, count):
    """(n, pairs, directed): multigraphs on 2-9 vertices with loops and parallel
    edges, each undirected and then in one random orientation."""
    for _ in range(count):
        n = rng.randint(2, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        yield n, pairs, False
        yield n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs], True


def random_terminals(rng, n):
    """Disjoint nonempty source and sink sets."""
    verts = list(range(n))
    rng.shuffle(verts)
    k = rng.randint(1, n - 1)
    return verts[:k], verts[k:rng.randint(k + 1, n)]


def test_value_is_the_least_of_limit_and_minimum_cut():
    rng = random.Random(1961)
    seen = {"limited": 0, "unlimited": 0, "loops": 0, "parallel": 0}
    for n, pairs, directed in random_networks(rng, 150):
        seen["loops"] += any(u == v for u, v in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        net = _Network(n, pairs, directed)
        cap = list(net.cap)
        arcs = pairs if directed else pairs + [(v, u) for u, v in pairs]
        for _ in range(4):
            sources, sinks = random_terminals(rng, n)
            cut = brute_min_cut_between(range(n), arcs, sources, sinks)
            limit = rng.choice([None, 0, 1, 2, 3, 4, max(cut - 1, 0), cut, cut + 1])
            value, _ = net.max_flow(sources, sinks, limit)
            assert value == (cut if limit is None else min(limit, cut)), (n, pairs, directed, limit)
            seen["limited" if limit is not None and limit < cut else "unlimited"] += 1
        assert net.cap == cap
    assert min(seen.values()) >= 100, seen


def test_residual_side_matches_the_reference():
    rng = random.Random(1990)
    for n, pairs, directed in random_networks(rng, 150):
        net = _Network(n, pairs, directed)
        for _ in range(4):
            sources, sinks = random_terminals(rng, n)
            value, side = ref_set_flow(range(n), pairs, directed, sources, sinks)
            # a limit the flow never reaches leaves a maximum flow's residual
            limit = rng.choice([None, value + 1])
            got, residual = net.max_flow(sources, sinks, limit)
            flags = net.side(residual, sources)
            assert got == value and {v for v in range(n) if flags[v]} == side, (n, pairs, directed)


def host_graphs():
    """The corpus, the gp ladder to gp(32,3) and seeded cubic graphs to 64 vertices."""
    graphs = [(name, named_graph(name)) for name in corpus_names()]
    graphs += [(f"gp({n},{k})", Multigraph.from_pairs(generalized_petersen_pairs(n, k)))
               for n, k in GP_LADDER]
    rng = random.Random(20201205)
    graphs += [(f"rc{n}{'-triangle' if tri else ''}",
                Multigraph.from_pairs(random_cubic_3ec_pairs(rng, n, tri)))
               for n in (20, 32, 48, 64) for tri in (True, False)]
    return graphs


def as_edges(g):
    return [(e, *g.ends(e)) for e in g.edge_ids]


def test_flow_tree_matches_the_reference_kernel():
    for name, g in host_graphs():
        assert g._flow_tree() == ref_flow_tree(g.vertices, as_edges(g)), name


def test_nontrivial_3cut_matches_the_reference_kernel():
    found = 0
    graphs = [(name, g) for name, g in host_graphs() if g.edge_connectivity() >= 3]
    assert len(graphs) >= 25
    for name, g in graphs:
        cut = g.find_nontrivial_3cut()
        assert cut == ref_nontrivial_3cut(g.vertices, as_edges(g)), name
        found += cut is not None
    assert 4 <= found < len(graphs)
