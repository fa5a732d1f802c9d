import itertools
import random

import pytest

from orientcover.errors import FormatError, InternalVerificationError, PreconditionError
from orientcover.exact import SolveLimits, Status, deletability_decide
from orientcover.orientation import Orientation, is_deletable_set
from orientcover.reduction import (
    PAPER_EXAMPLE,
    GadgetInstance,
    NaeFormula,
    assignment_to_orientation,
    build_gadget,
    decompose_connected,
    fano_formula,
    is_connected_formula,
    is_feasible,
    nae_solve_bruteforce,
    orientation_to_assignment,
    parse_formula,
    preprocess,
)

from oracles import brute_deletable_set


EXAMPLE = parse_formula(PAPER_EXAMPLE)


# -- formulas ----------------------------------------------------------------------


def test_parse_running_example():
    assert EXAMPLE.num_vars == 4
    assert EXAMPLE.clauses == (frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({1, 3, 4}))


def test_parse_accepts_bare_integers():
    f = parse_formula("1 2 3\n")
    assert f.num_clauses == 1


def test_parse_rejects_duplicates_and_arity():
    with pytest.raises(FormatError):
        parse_formula("x1 x1 x2\n")
    with pytest.raises(FormatError):
        parse_formula("x1 x2\n")


def test_parse_empty_text():
    f = parse_formula("")
    assert f.num_vars == 0 and f.num_clauses == 0


def test_preprocess_example_unchanged():
    assert preprocess(EXAMPLE) == EXAMPLE
    occ = EXAMPLE.occurrences()
    assert occ == {1: 3, 2: 2, 3: 2, 4: 2}


def test_preprocess_single_clause_cascades_to_empty():
    assert preprocess(parse_formula("x1 x2 x3\n")).num_clauses == 0


def test_preprocess_two_overlapping_clauses_cascade():
    f = parse_formula("x1 x2 x3\nx1 x2 x4\n")
    assert preprocess(f).num_clauses == 0


def test_preprocess_preserves_feasibility_status():
    formulas = [EXAMPLE, fano_formula(), parse_formula("x1 x2 x3\nx1 x2 x4\nx3 x4 x5\n")]
    for f in formulas:
        before = nae_solve_bruteforce(f) is not None
        after_f = preprocess(f)
        after = nae_solve_bruteforce(after_f) is not None
        assert before == after


def test_decompose_example_is_connected():
    assert len(decompose_connected(EXAMPLE)) == 1


def test_decompose_two_disjoint_copies():
    f = parse_formula("x1 x2 x3\nx1 x2 x3\nx4 x5 x6\nx4 x5 x6\n")
    parts = decompose_connected(f)
    assert len(parts) == 2
    assert all(nae_solve_bruteforce(p) is not None for p in parts)
    assert nae_solve_bruteforce(f) is not None


def test_decompose_empty():
    assert decompose_connected(parse_formula("")) == ()


@pytest.mark.parametrize("lines", [
    "x1 x2 x3\nx2 x3 x4\nx5 x6 x7\nx5 x6 x7\n",
    "x1 x2 x3\nx1 x2 x3\nx1 x2 x4\nx3 x4 x5\n",
    "x1 x2 x3\nx4 x5 x6\nx1 x4 x7\n",
    "1 2 3\n1 2 3\n1 2 3\n",
])
def test_decompose_of_preprocess_preserves_feasibility(lines):
    f = parse_formula(lines)
    direct = nae_solve_bruteforce(f) is not None
    parts = decompose_connected(preprocess(f))
    assert direct == all(nae_solve_bruteforce(p) is not None for p in parts)


def test_bruteforce_example_matches_the_known_witness():
    a = {1: True, 2: True, 3: False, 4: False}
    assert is_feasible(EXAMPLE, a)
    assert nae_solve_bruteforce(EXAMPLE) is not None


def test_fano_plane_infeasible():
    assert nae_solve_bruteforce(fano_formula()) is None


def test_bruteforce_empty_formula_feasible():
    assert nae_solve_bruteforce(parse_formula("")) == {}


# -- the gadget --------------------------------------------------------------------


def test_gadget_structure_of_example():
    inst = build_gadget(EXAMPLE)
    g = inst.graph
    assert g.num_vertices == 30 and g.num_edges == 45
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert g.edge_connectivity() == 3
    assert [len(vc.edge_ids) for vc in inst.variable_cycles] == [6, 4, 4, 4]
    assert len(inst.clause_cycle_edges) == 9
    assert inst.s == frozenset().union(*(vc.edge_ids for vc in inst.variable_cycles))


def test_gadget_bipartition_lowest_vertex_on_a_side():
    inst = build_gadget(EXAMPLE)
    for vc in inst.variable_cycles:
        assert min(vc.vertices) in vc.a_side


def test_gadget_rejects_unpreprocessed():
    with pytest.raises(PreconditionError):
        build_gadget(parse_formula("x1 x2 x3\nx2 x3 x4\n"))  # x1, x4 occur once


def test_gadget_rejects_disconnected():
    f = parse_formula("x1 x2 x3\nx1 x2 x3\nx4 x5 x6\nx4 x5 x6\n")
    with pytest.raises(PreconditionError):
        build_gadget(f)


def test_gadget_rejects_empty():
    with pytest.raises(PreconditionError):
        build_gadget(parse_formula(""))


def test_gadget_is_deterministic():
    a = build_gadget(EXAMPLE).to_json()
    b = build_gadget(EXAMPLE).to_json()
    assert a == b


def test_fano_gadget_builds_as_stress_fixture():
    inst = build_gadget(fano_formula())
    assert inst.graph.num_vertices == 70
    assert inst.graph.num_edges == 105


# -- forward map --------------------------------------------------------------------


def test_forward_map_paper_assignment():
    inst = build_gadget(EXAMPLE)
    a = {1: True, 2: True, 3: False, 4: False}
    d = assignment_to_orientation(inst, a)
    assert is_deletable_set(d, inst.s)


def test_forward_map_checks_oracle_agreement():
    inst = build_gadget(EXAMPLE)
    g = inst.graph
    a = {1: True, 2: True, 3: False, 4: False}
    d = assignment_to_orientation(inst, a)
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    arcs = [(e, index[t], index[h]) for e, t, h in d.arcs()]
    assert brute_deletable_set(len(verts), arcs, set(inst.s))


def test_forward_map_rejects_infeasible():
    inst = build_gadget(EXAMPLE)
    with pytest.raises(PreconditionError):
        assignment_to_orientation(inst, {1: True, 2: True, 3: True, 4: True})
    with pytest.raises(PreconditionError):
        assignment_to_orientation(inst, {1: True})


def test_clause_vertices_have_proper_flow():
    inst = build_gadget(EXAMPLE)
    a = {1: False, 2: True, 3: True, 4: False}
    assert is_feasible(EXAMPLE, a)
    d = assignment_to_orientation(inst, a)
    true_a = set()
    false_a = set()
    for vc in inst.variable_cycles:
        (true_a if a[vc.index] else false_a).update(vc.a_side)
    for v in inst.clause_vertices:
        assert {t for t, _ in d.in_arcs(v)} & true_a
        assert {h for h, _ in d.out_arcs(v)} & false_a


# -- backward map --------------------------------------------------------------------


def test_round_trip_every_feasible_assignment():
    inst = build_gadget(EXAMPLE)
    feasible = 0
    for bits in itertools.product((False, True), repeat=4):
        a = dict(zip((1, 2, 3, 4), bits))
        if not is_feasible(EXAMPLE, a):
            continue
        feasible += 1
        d = assignment_to_orientation(inst, a)
        assert orientation_to_assignment(inst, d) == a
    assert 0 < feasible <= 16


def test_backward_map_rejects_non_certifying():
    inst = build_gadget(EXAMPLE)
    g = inst.graph
    tails = {e: g.ends(e)[0] for e in g.edge_ids}
    with pytest.raises(PreconditionError):
        orientation_to_assignment(inst, Orientation(g, tails))


def test_backward_map_from_solver_witness():
    # the budgeted search finds a certifying orientation of the 45-edge
    # gadget, and it maps back to a feasible assignment
    inst = build_gadget(EXAMPLE)
    result = deletability_decide(
        inst.graph, inst.s, SolveLimits(max_enumerable_edges=22, node_budget=400_000))
    assert result.status is Status.FOUND
    assert is_deletable_set(result.orientation, inst.s)
    a = orientation_to_assignment(inst, result.orientation)
    assert is_feasible(EXAMPLE, a)


def random_feasible_formula(rng, num_clauses):
    """Seeded connected, preprocessed, feasible formula with distinct clauses."""
    while True:
        num_vars = rng.randint(4, 3 * num_clauses // 2)
        clauses = {frozenset(rng.sample(range(1, num_vars + 1), 3)) for _ in range(num_clauses)}
        if len(clauses) < num_clauses:
            continue
        f = NaeFormula(num_vars, tuple(sorted(clauses, key=sorted)))
        if preprocess(f) == f and is_connected_formula(f) and nae_solve_bruteforce(f) is not None:
            return f


def test_solver_decides_seeded_feasible_gadgets_within_1000_nodes():
    rng = random.Random(4031)
    for num_clauses in (3, 4, 5, 6):
        for _ in range(3):
            f = random_feasible_formula(rng, num_clauses)
            inst = build_gadget(f)
            result = deletability_decide(inst.graph, inst.s, SolveLimits(node_budget=1_000))
            assert result.status is Status.FOUND, (f, result.nodes)
            assert result.nodes <= 1_000
            assert is_deletable_set(result.orientation, inst.s)
            assert is_feasible(f, orientation_to_assignment(inst, result.orientation))


def test_solver_refutes_fano_gadget():
    # the Fano formula is infeasible, so no orientation certifies its gadget
    f = preprocess(fano_formula())
    inst = build_gadget(f)
    assert nae_solve_bruteforce(f) is None
    result = deletability_decide(inst.graph, inst.s, SolveLimits(node_budget=10_000))
    assert result.status is Status.NO
