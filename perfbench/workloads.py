"""The three benchmark workloads as seeded lists of operation specs.

A spec is plain data (JSON-serialisable): the worker turns it into library
calls and the checker verifies the artifact it produced against it.  Graphs
are edge lists whose positions are the edge ids, exactly as
`Multigraph.from_pairs` numbers them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from inputs import (
    Pairs,
    generalized_petersen,
    nae_feasible,
    random_cubic_3ec,
    random_nae_formula,
    vertex_set,
)
from oracle import deletable_arcs, strongly_connected

WORKLOADS = ("exact", "certify", "decide")

# Edge lists of the package corpus graphs, with the package's labelling.  The
# worker builds these through `corpus.named_graph`; the checker compares the
# graph inside every artifact against this copy.
CORPUS: Dict[str, Pairs] = {
    "petersen": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8),
                 (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)],
    "k4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
    "k5": [(i, j) for i in range(5) for j in range(i + 1, 5)],
    "k33": [(i, 3 + j) for i in range(3) for j in range(3)],
    "prism3": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    "cube": [(x, x ^ b) for x in range(8) for b in (1, 2, 4) if x < x ^ b],
    "wheel4": [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)],
    "wheel5": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
    "theta": [(0, 1), (0, 1), (0, 1)],
    "double_k4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)],
    "hub_triangles": [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                      (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4)],
}

# Exact Frank numbers the paper fixes; every other value is cross-checked
# against the lower bound and the pipeline sizes instead.
KNOWN_FRANK = {"corpus:petersen": 3, "corpus:k5": 1, "gp:5,2": 3}

PIPELINE_BOUND = {"seven": 7, "esse4": 3, "color3": 3, "bf5": 5}

# -- workload parameters (also recorded in README.md) ---------------------------------

EXACT = {
    "corpus": ["petersen", "k4", "k5", "k33", "prism3", "cube", "wheel4", "wheel5",
               "theta", "double_k4", "hub_triangles"],
    "gp": [(6, 2)],
    # vertex count -> how many seeded random 3-edge-connected cubic graphs
    "random_cubic": {8: 18, 10: 10, 12: 1},
    "max_enumerable_edges": 22,
}

CERTIFY = {
    "gp": [(5, 2), (7, 2), (8, 3), (10, 3), (12, 5), (16, 3), (32, 3)],
    "gp_pipelines": ["seven", "esse4", "color3"],
    # bf5 enumerates every perfect matching; it stops where that stays cheap
    "gp_bf5": [(5, 2), (7, 2), (8, 3), (10, 3), (12, 5), (16, 3)],
    # vertex count -> how many seeded random cubic graphs with a triangle
    "random_cubic": {16: 2, 20: 1},
    "random_pipelines": ["seven", "esse4"],
    "corpus_noncubic": ["k5", "wheel4", "wheel5", "double_k4", "hub_triangles"],
    "corpus_pipelines": ["seven", "esse4"],
}

DECIDE = {
    "node_budget": 300_000,
    "max_enumerable_edges": 22,
    "paper_formula": [(1, 2, 3), (1, 2, 4), (1, 3, 4)],
    # (variables, clauses, how many) seeded random feasible formulas
    "random_formulas": [(4, 3, 1), (5, 4, 2), (6, 5, 2)],
    "corpus": ["petersen", "k5", "wheel5", "cube", "k33", "prism3", "double_k4",
               "hub_triangles"],
    "random_cubic": {8: 8, 10: 6},
    "yes_arcs": 3,
}

PARAMS = {"exact": EXACT, "certify": CERTIFY, "decide": DECIDE}


def _gp_key(n: int, k: int) -> str:
    return f"gp:{n},{k}"


def _random_graphs(rng: random.Random, counts: Dict[int, int], graphs: Dict[str, Pairs],
                   need_triangle: bool = False) -> List[str]:
    keys = []
    for n, count in sorted(counts.items()):
        for i in range(count):
            key = f"random:{n}:{i}"
            graphs[key] = random_cubic_3ec(rng, n, need_triangle)
            keys.append(key)
    return keys


def _exact(rng: random.Random) -> Tuple[Dict[str, Pairs], List[Dict]]:
    graphs: Dict[str, Pairs] = {}
    keys = []
    for name in EXACT["corpus"]:
        graphs[f"corpus:{name}"] = CORPUS[name]
        keys.append(f"corpus:{name}")
    for n, k in EXACT["gp"]:
        graphs[_gp_key(n, k)] = generalized_petersen(n, k)
        keys.append(_gp_key(n, k))
    keys += _random_graphs(rng, EXACT["random_cubic"], graphs)
    ops = [{"kind": "exact", "graph": key} for key in keys]
    return graphs, ops


def _certify(rng: random.Random) -> Tuple[Dict[str, Pairs], List[Dict]]:
    graphs: Dict[str, Pairs] = {}
    ops: List[Dict] = []
    for n, k in CERTIFY["gp"]:
        key = _gp_key(n, k)
        graphs[key] = generalized_petersen(n, k)
        names = list(CERTIFY["gp_pipelines"])
        if (n, k) in CERTIFY["gp_bf5"]:
            names.append("bf5")
        ops += [{"kind": "pipeline", "pipeline": p, "graph": key} for p in names]
    for key in _random_graphs(rng, CERTIFY["random_cubic"], graphs, need_triangle=True):
        ops += [{"kind": "pipeline", "pipeline": p, "graph": key}
                for p in CERTIFY["random_pipelines"]]
    for name in CERTIFY["corpus_noncubic"]:
        key = f"corpus:{name}"
        graphs[key] = CORPUS[name]
        ops += [{"kind": "pipeline", "pipeline": p, "graph": key}
                for p in CERTIFY["corpus_pipelines"]]
    return graphs, ops


def _yes_target(rng: random.Random, pairs: Pairs) -> List[int]:
    """A few arcs deletable in a random strong orientation, checked by the oracle.

    Small targets keep the early exit of the search near the start of the
    scan, so the operation's cost does not swing with the seed.
    """
    verts = vertex_set(pairs)
    while True:
        tails = {i: (u if rng.random() < 0.5 else v) for i, (u, v) in enumerate(pairs)}
        if not strongly_connected(verts, pairs, tails):
            continue
        found = sorted(deletable_arcs(verts, pairs, tails))
        if found:
            return sorted(rng.sample(found, min(DECIDE["yes_arcs"], len(found))))


def _no_target(rng: random.Random, pairs: Pairs) -> List[int]:
    """All three edges at a degree-3 vertex, plus one other edge: never deletable."""
    star: Dict[int, List[int]] = {}
    for i, (u, v) in enumerate(pairs):
        star.setdefault(u, []).append(i)
        star.setdefault(v, []).append(i)
    cubic = sorted(v for v, es in star.items() if len(es) == 3)
    if not cubic:
        return []
    chosen = set(star[rng.choice(cubic)])
    chosen.add(rng.randrange(len(pairs)))
    return sorted(chosen)


def _formula_ops(key: str) -> List[Dict]:
    return [{"kind": kind, "formula": key}
            for kind in ("reduce", "decide_gadget", "map_to_orientation", "map_to_assignment")]


def _decide(rng: random.Random) -> Tuple[Dict[str, Pairs], Dict[str, Dict], List[Dict]]:
    graphs: Dict[str, Pairs] = {}
    formulas: Dict[str, Dict] = {}
    ops: List[Dict] = []

    def add_formula(key: str, num_vars: int, clauses: Sequence[Tuple[int, int, int]]) -> None:
        assignment = nae_feasible(num_vars, clauses)
        formulas[key] = {
            "num_vars": num_vars,
            "clauses": [list(c) for c in clauses],
            "assignment": {str(i): b for i, b in assignment.items()},
        }
        ops.extend(_formula_ops(key))

    add_formula("paper", 4, DECIDE["paper_formula"])
    for num_vars, num_clauses, count in DECIDE["random_formulas"]:
        for i in range(count):
            while True:
                clauses = random_nae_formula(rng, num_vars, num_clauses)
                if nae_feasible(num_vars, clauses) is not None:
                    break
            add_formula(f"random:{num_vars}x{num_clauses}:{i}", num_vars, clauses)

    keys = []
    for name in DECIDE["corpus"]:
        graphs[f"corpus:{name}"] = CORPUS[name]
        keys.append(f"corpus:{name}")
    keys += _random_graphs(rng, DECIDE["random_cubic"], graphs)
    for key in keys:
        ops.append({"kind": "decide", "graph": key, "set": _yes_target(rng, graphs[key]),
                    "expect": "yes"})
        no_set = _no_target(rng, graphs[key])
        if no_set:
            ops.append({"kind": "decide", "graph": key, "set": no_set, "expect": "no"})
    return graphs, formulas, ops


def build(workload: str, seed: int) -> Dict:
    """The workload's inputs and operation list for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    formulas: Dict[str, Dict] = {}
    if workload == "exact":
        graphs, ops = _exact(rng)
    elif workload == "certify":
        graphs, ops = _certify(rng)
    elif workload == "decide":
        graphs, formulas, ops = _decide(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "graphs": graphs, "formulas": formulas,
            "ops": ops}
