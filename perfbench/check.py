"""Independent output checker.

Re-parses every artifact an operation emitted and re-verifies it with the
oracles in `oracle.py`, never with package code.  Each operation gets one
verdict: "decided" (a verified certificate, witness, NO, or an expected
refusal), "undecided" (budget or size limit) or an error message.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import Pairs, is_3_edge_connected, nae_feasible, vertex_set
from oracle import (
    cubic,
    deletable_set,
    frank_lower_bound,
    nontrivial_3_cut,
    strongly_connected,
    three_edge_colourable,
    valid_orientation,
)
from workloads import KNOWN_FRANK, PIPELINE_BOUND

DECIDED = "decided"
UNDECIDED = "undecided"


class Mismatch(Exception):
    """An artifact disagrees with the independent check."""


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _graph_pairs(obj: Dict) -> Tuple[List[int], Pairs]:
    edges = obj["edges"]
    _need([rec["id"] for rec in edges] == list(range(len(edges))),
          "edge ids are not 0..m-1 in order")
    return list(obj["vertices"]), [(rec["u"], rec["v"]) for rec in edges]


def _same_graph(obj: Dict, pairs: Pairs) -> None:
    vertices, got = _graph_pairs(obj)
    _need(got == list(pairs), "artifact graph differs from the input graph")
    _need(vertices == vertex_set(pairs), "artifact vertex list differs from the input graph")


def _tails(obj: Dict, pairs: Pairs) -> Dict[int, int]:
    tails = {int(e): t for e, t in obj["tails"].items()}
    _need(valid_orientation(pairs, tails), "orientation does not direct exactly the non-loop edges")
    return tails


def certificate_size(obj: Dict, pairs: Pairs) -> int:
    """Verify a Frank certificate by direct deletion checks; returns its size."""
    _same_graph(obj["graph"], pairs)
    verts = vertex_set(pairs)
    orientations = [_tails(rec, pairs) for rec in obj["orientations"]]
    cover = {int(e): i for e, i in obj["cover"].items()}
    _need(set(cover) == set(range(len(pairs))), "cover does not list every edge")
    strong = [strongly_connected(verts, pairs, d) for d in orientations]
    for e, idx in cover.items():
        _need(0 <= idx < len(orientations), f"edge {e} points at a missing orientation")
        if pairs[e][0] == pairs[e][1]:
            continue
        _need(strong[idx], f"orientation {idx} is not strongly connected")
        _need(strongly_connected(verts, pairs, orientations[idx], banned=e),
              f"edge {e} is not deletable in orientation {idx}")
    return len(orientations)


class Checker:
    """Verdicts for one workload's operations, in list order."""

    def __init__(self, workload: Dict, reference: Optional[Dict] = None):
        self.workload = workload
        self.reference = reference or {}
        self.gadgets: Dict[str, Tuple[Pairs, List[int]]] = {}

    def verdict(self, op: Dict, status: str, text: str) -> str:
        try:
            obj = json.loads(text)
            if status == "error":
                return f"raised {obj.get('error')}: {obj.get('message')}"
            return getattr(self, "_" + op["kind"])(op, status, obj)
        except Mismatch as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            return f"malformed artifact: {type(exc).__name__}: {exc}"

    def verdicts(self, results: Sequence[Tuple[str, str]]) -> List[str]:
        return [self.verdict(op, status, text)
                for op, (status, text) in zip(self.workload["ops"], results)]

    # -- exact Frank numbers --------------------------------------------------------

    def _exact(self, op: Dict, status: str, obj: Dict) -> str:
        if status == "undecided":
            return UNDECIDED
        _need(status == "ok", f"unexpected refusal: {obj}")
        key = op["graph"]
        pairs = self.workload["graphs"][key]
        f = certificate_size(obj, pairs)
        _need(obj["frankNumber"] == f, "frankNumber differs from the certificate size")
        lower = frank_lower_bound(pairs)
        _need(obj["lowerBound"] == lower, f"lowerBound {obj['lowerBound']} but the oracle gives {lower}")
        _need(lower <= f, "Frank number below the lower bound")
        if key in KNOWN_FRANK:
            _need(f == KNOWN_FRANK[key], f"f = {f} but the known value is {KNOWN_FRANK[key]}")
        for name, size in sorted(self.reference.get(key, {}).items()):
            _need(size is None or f <= size, f"f = {f} exceeds the {name} certificate size {size}")
        return DECIDED

    # -- certifying pipelines -----------------------------------------------------------

    def _pipeline(self, op: Dict, status: str, obj: Dict) -> str:
        name = op["pipeline"]
        key = op["graph"]
        pairs = self.workload["graphs"][key]
        if status == "undecided":
            return UNDECIDED
        if status == "refused":
            return self._refusal(name, pairs, obj)
        _need(obj["pipeline"] == name, f"artifact names pipeline {obj['pipeline']}")
        size = certificate_size(obj, pairs)
        _need(size <= PIPELINE_BOUND[name], f"{size} orientations exceed the {name} bound")
        _need(size >= frank_lower_bound(pairs), "certificate smaller than the lower bound")
        _need(size >= KNOWN_FRANK.get(key, 1), "certificate smaller than the known Frank number")
        return DECIDED

    @staticmethod
    def _refusal(name: str, pairs: Pairs, obj: Dict) -> str:
        error = obj["refused"]
        if name == "esse4":
            _need(nontrivial_3_cut(pairs), "esse4 refused a graph with no nontrivial 3-cut")
            return DECIDED
        if name == "color3" and error == "NotThreeEdgeColorableError":
            _need(not three_edge_colourable(pairs), "color3 refused a 3-edge-colourable graph")
            return DECIDED
        raise Mismatch(f"{name} refused unexpectedly: {error}: {obj.get('message')}")

    # -- deletability decisions ------------------------------------------------------------

    def _decide(self, op: Dict, status: str, obj: Dict) -> str:
        pairs = self.workload["graphs"][op["graph"]]
        return self._decision(obj, status, pairs, op["set"], op["expect"])

    @staticmethod
    def _decision(obj: Dict, status: str, pairs: Pairs, target: List[int],
                  expect: Optional[str]) -> str:
        if status == "undecided":
            _need(obj.get("indeterminate") is True, "undecided without an indeterminate verdict")
            return UNDECIDED
        _need(status == "ok", f"unexpected refusal: {obj}")
        _need(obj["set"] == sorted(set(target)), "artifact set differs from the target set")
        if obj["deletable"]:
            _need(expect != "no", "FOUND on a target that contains a whole 3-edge cut")
            _same_graph(obj["graph"], pairs)
            tails = _tails(obj, pairs)
            _need(deletable_set(vertex_set(pairs), pairs, tails, target),
                  "witness does not make the target set deletable")
        else:
            _need(expect != "yes", "NO on a target with a known witness")
        return DECIDED

    # -- the NAE-3SAT reduction ----------------------------------------------------------

    def _formula(self, op: Dict) -> Dict:
        return self.workload["formulas"][op["formula"]]

    def _gadget(self, op: Dict) -> Tuple[Pairs, List[int]]:
        _need(op["formula"] in self.gadgets, "no verified gadget for this formula")
        return self.gadgets[op["formula"]]

    def _reduce(self, op: Dict, status: str, obj: Dict) -> str:
        _need(status == "ok", f"unexpected outcome {status}: {obj}")
        spec = self._formula(op)
        got = obj["formula"]
        _need(got["numVars"] == spec["num_vars"], "gadget formula has another variable count")
        _need(sorted(map(sorted, got["clauses"])) == sorted(map(sorted, spec["clauses"])),
              "gadget formula has other clauses")
        _, pairs = _graph_pairs(obj["graph"])
        c = len(spec["clauses"])
        _need(len(vertex_set(pairs)) == 10 * c and len(pairs) == 15 * c,
              "gadget size is not 10|C| vertices and 15|C| edges")
        _need(cubic(pairs), "gadget is not cubic")
        _need(is_3_edge_connected(pairs), "gadget is not 3-edge-connected")
        s = obj["labels"]["S"]
        _need(s and all(0 <= e < len(pairs) for e in s), "S is empty or names unknown edges")
        self.gadgets[op["formula"]] = (pairs, s)
        return DECIDED

    def _decide_gadget(self, op: Dict, status: str, obj: Dict) -> str:
        pairs, s = self._gadget(op)
        spec = self._formula(op)
        feasible = nae_feasible(spec["num_vars"], [tuple(c) for c in spec["clauses"]]) is not None
        return self._decision(obj, status, pairs, s, "yes" if feasible else "no")

    def _map_to_orientation(self, op: Dict, status: str, obj: Dict) -> str:
        _need(status == "ok", f"unexpected outcome {status}: {obj}")
        pairs, s = self._gadget(op)
        _same_graph(obj["graph"], pairs)
        _need(deletable_set(vertex_set(pairs), pairs, _tails(obj, pairs), s),
              "forward map orientation does not make S deletable")
        return DECIDED

    def _map_to_assignment(self, op: Dict, status: str, obj: Dict) -> str:
        _need(status == "ok", f"unexpected outcome {status}: {obj}")
        spec = self._formula(op)
        values = obj["assignment"]
        want = {f"x{i}" for i in range(1, spec["num_vars"] + 1)}
        _need(set(values) == want, "assignment does not cover exactly the formula variables")
        for c in spec["clauses"]:
            _need(len({values[f"x{x}"] for x in c}) == 2, f"clause {c} is all-equal")
        return DECIDED
