"""The one reachability kernel against the Warshall-closure oracles.

is_strongly_connected, deletable_arcs, is_deletable_set and the per-edge
verdicts of verify_certificate all run orientation._deletable_mask, which
tests strength and finds the deletable arcs in one call.  Here they meet
oracles.closure_strongly_connected and oracles.brute_deletable_set on seeded
random orientations, strong and not strong, of multigraphs with parallel
edges, loops and non-contiguous vertex and edge ids, and on the empty graph.
"""

import random

import pytest

from orientcover.errors import NotStronglyConnectedError, UnknownEdgeError
from orientcover.exact import FrankCertificate, verify_certificate
from orientcover.multigraph import Multigraph
from orientcover.orientation import (
    Orientation,
    deletable_arcs,
    is_deletable_set,
    is_strongly_connected,
)

from oracles import brute_deletable_set, closure_strongly_connected

CASES = 300


def random_multigraph(rng):
    """(graph, tails of a directed Hamiltonian cycle) on 1-7 sparse vertex ids.

    The cycle is a digon on two vertices; extra edges add parallels and loops.
    """
    verts = rng.sample(range(3, 60), rng.randint(1, 7))
    ids = iter(sorted(rng.sample(range(200), 20)))
    edges = {}
    cycle = {}
    if len(verts) >= 2:
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            e = next(ids)
            edges[e] = (v, w) if rng.random() < 0.5 else (w, v)
            cycle[e] = v
    for _ in range(rng.randint(0, 8)):
        u = rng.choice(verts)
        edges[next(ids)] = (u, u if rng.random() < 0.15 else rng.choice(verts))
    return Multigraph(verts, edges), cycle


def random_orientation(rng, g, cycle):
    """Random tails; with probability 0.6 the cycle keeps its direction, so d is strong."""
    keep = cycle if rng.random() < 0.6 else {}
    tails = {}
    for e in g.edge_ids:
        u, v = g.ends(e)
        if u != v:
            tails[e] = keep.get(e, rng.choice((u, v)))
    return Orientation(g, tails)


def oracle_arcs(d):
    """(edge id, tail index, head index) of the non-loop edges, for the oracles."""
    index = {v: i for i, v in enumerate(d.graph.vertices)}
    return [(e, index[t], index[h]) for e, t, h in d.arcs()]


def cases(seed):
    """CASES seeded random orientations, then the empty graph (n = 0), which is strong."""
    rng = random.Random(seed)
    for _ in range(CASES):
        g, cycle = random_multigraph(rng)
        yield rng, g, cycle, random_orientation(rng, g, cycle)
    empty = Multigraph([], {})
    yield rng, empty, {}, Orientation(empty, {})


def oracle_strong(d):
    return closure_strongly_connected(d.graph.num_vertices, [(t, h) for _, t, h in oracle_arcs(d)])


def test_strong_connectivity_matches_closure():
    verdicts = []
    for _, _, _, d in cases(1):
        verdicts.append(oracle_strong(d))
        assert is_strongly_connected(d) == verdicts[-1]
    assert 60 <= sum(verdicts) <= CASES - 60


def test_deletable_arcs_match_brute_force():
    strong = 0
    for _, g, _, d in cases(2):
        if not oracle_strong(d):
            with pytest.raises(NotStronglyConnectedError):
                deletable_arcs(d)
            continue
        arcs = oracle_arcs(d)
        expected = {e for e in g.edge_ids
                    if g.is_loop(e) or brute_deletable_set(g.num_vertices, arcs, {e})}
        assert deletable_arcs(d) == expected
        strong += 1
    assert strong >= 60


def test_is_deletable_set_matches_brute_force_on_random_subsets():
    answers = set()
    for rng, g, _, d in cases(3):
        arcs = oracle_arcs(d)
        for _ in range(4):
            f = [e for e in g.edge_ids if rng.random() < 0.4]
            expected = brute_deletable_set(g.num_vertices, arcs, set(f))
            assert is_deletable_set(d, iter(f)) == expected
            answers.add(expected)
        if oracle_strong(d):
            with pytest.raises(UnknownEdgeError):
                is_deletable_set(d, [max(g.edge_ids, default=0) + 1])
    assert answers == {True, False}


def test_verify_certificate_verdicts_match_brute_force():
    seen = {"out of range": 0, "missing": 0, "not strong": 0, "not deletable": 0, "ok": 0}
    for rng, g, cycle, d in cases(4):
        ds = [d] + [random_orientation(rng, g, cycle) for _ in range(rng.randint(0, 2))]
        cover = {}
        for e in g.edge_ids:
            if rng.random() < 0.9:
                cover[e] = rng.randint(-1, len(ds))
        expected = set()
        for e in g.edge_ids:
            idx = cover.get(e)
            if idx is None or not 0 <= idx < len(ds):
                why = "missing" if idx is None else "out of range"
            elif not oracle_strong(ds[idx]):
                why = "not strong"
            elif not (g.is_loop(e) or brute_deletable_set(g.num_vertices, oracle_arcs(ds[idx]), {e})):
                why = "not deletable"
            else:
                why = "ok"
            seen[why] += 1
            if why != "ok":
                expected.add(e)
        ok, bad = verify_certificate(g, FrankCertificate(tuple(ds), cover))
        assert bad == expected and ok == (not expected)
    assert min(seen.values()) >= 20, seen


def oracle_deletable(n, arcs):
    """Indices of the (tail, head) arcs whose single deletion keeps them strong."""
    indexed = [(i, t, h) for i, (t, h) in enumerate(arcs)]
    return {i for i in range(len(arcs)) if brute_deletable_set(n, indexed, {i})}


def as_orientation(n, arcs):
    """The orientation of arcs over vertices 0..n-1, edge i along arc i."""
    g = Multigraph(range(n), dict(enumerate(arcs)))
    return Orientation(g, {i: t for i, (t, _) in enumerate(arcs)})


def test_parallel_and_antiparallel_arcs_match_oracles():
    # a parallel arc is deletable at once in a strong orientation; an
    # antiparallel pair must not be mistaken for one
    rng = random.Random(7)
    seen = {"parallel": 0, "antiparallel": 0, "strong": 0, "not strong": 0}
    verdicts = set()
    for _ in range(200):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(n, 2 * n)):
            t, h = rng.sample(range(n), 2)
            arcs.append((t, h))
            twin = rng.random()
            if twin < 0.2:
                arcs.append((t, h))
                seen["parallel"] += 1
            elif twin < 0.5:
                arcs.append((h, t))
                seen["antiparallel"] += 1
        d = as_orientation(n, arcs)
        strong = closure_strongly_connected(n, arcs)
        seen["strong" if strong else "not strong"] += 1
        assert is_strongly_connected(d) == strong
        if strong:
            expected = oracle_deletable(n, arcs)
            assert deletable_arcs(d) == expected
            verdicts.update(i in expected for i in range(len(arcs)))
    assert min(seen.values()) >= 30 and verdicts == {True, False}, seen


def test_kernel_past_one_machine_word_matches_oracles():
    # over 64 vertices every out-neighbour bitmask spans several machine
    # words; a Hamiltonian cycle plus chords, parallel and antiparallel arcs
    rng = random.Random(11)
    verdicts = set()
    for n in (65, 70, 80):
        order = rng.sample(range(n), n)
        arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
        for _ in range(12):
            t, h = rng.sample(range(n), 2)
            arcs.append((t, h))
        arcs.append(arcs[rng.randrange(n)])
        t, h = arcs[rng.randrange(n)]
        arcs.append((h, t))
        d = as_orientation(n, arcs)
        assert is_strongly_connected(d) and closure_strongly_connected(n, arcs)
        found = deletable_arcs(d)
        indexed = [(i, t, h) for i, (t, h) in enumerate(arcs)]
        for i in rng.sample(range(n), 6) + list(range(n, len(arcs))):
            expected = brute_deletable_set(n, indexed, {i})
            assert (i in found) == expected, (n, arcs[i])
            verdicts.add(expected)
        cut = as_orientation(n, arcs[1:n] + [arcs[0][::-1]])
        assert not is_strongly_connected(cut)
        assert not closure_strongly_connected(n, arcs[1:n] + [arcs[0][::-1]])
    assert verdicts == {True, False}
