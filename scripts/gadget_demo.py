#!/usr/bin/env python3
"""Walk the reduction end to end on the running 3-clause example.

Builds the gadget, maps a feasible assignment to a certifying orientation,
recovers the assignment, and lets the exact search find its own certifying
orientation for comparison (a few dozen search nodes).
"""

import time

from orientcover.exact import SolveLimits, Status, deletability_decide
from orientcover.orientation import is_deletable_set
from orientcover.reduction import (
    PAPER_EXAMPLE,
    assignment_to_orientation,
    build_gadget,
    nae_solve_bruteforce,
    orientation_to_assignment,
    parse_formula,
    preprocess,
)


def fmt(a):
    return ",".join(f"x{i}={int(v)}" for i, v in sorted(a.items()))


def main() -> None:
    formula = preprocess(parse_formula(PAPER_EXAMPLE))
    print(f"formula: {formula.num_vars} variables, {formula.num_clauses} clauses")
    inst = build_gadget(formula)
    g = inst.graph
    print(f"gadget: {g.num_vertices} vertices, {g.num_edges} edges, |S| = {len(inst.s)}")

    a = nae_solve_bruteforce(formula)
    print(f"brute-force feasible assignment: {fmt(a)}")
    d = assignment_to_orientation(inst, a)
    assert is_deletable_set(d, inst.s)
    print("forward map: orientation certifies S (re-verified)")
    back = orientation_to_assignment(inst, d)
    print(f"backward map recovers: {fmt(back)} (round trip {'exact' if back == a else 'differs'})")

    start = time.monotonic()
    result = deletability_decide(g, inst.s, SolveLimits(node_budget=500_000))
    elapsed = time.monotonic() - start
    if result.status is Status.FOUND:
        solver_a = orientation_to_assignment(inst, result.orientation)
        print(f"solver found its own certificate in {elapsed * 1000:.1f} ms "
              f"({result.nodes} nodes) -> {fmt(solver_a)}")
    else:
        print(f"solver outcome: {result.status.value} after {result.nodes} nodes "
              f"({elapsed:.1f}s) - acceptable, the maps above are the gate")


if __name__ == "__main__":
    main()
