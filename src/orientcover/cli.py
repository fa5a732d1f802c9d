"""Command-line surface over the toolkit.

Exit codes: 0 on success, 1 on usage or precondition errors and on
malformed or unreadable input, 2 when a bounded search ends indeterminate.  Outputs are byte-identical across runs
on the same inputs: JSON is emitted with sorted keys and no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional

from . import corpus, graphio, reduction
from .errors import FormatError, GraphToolkitError, SearchExhaustedError
from .exact import (
    DEFAULT_LIMITS,
    SolveLimits,
    Status,
    certificate_from_json,
    deletability_decide,
    frank_number_exact,
    verify_certificate,
)
from .multigraph import Multigraph
from .orientation import (
    is_well_balanced,
    orientation_from_json,
    well_balanced_orientation,
)
from .pipelines import certify_bf5, certify_color3, certify_esse4, certify_upper7

PIPELINES = {
    "seven": certify_upper7,
    "color3": certify_color3,
    "bf5": certify_bf5,
    "esse4": certify_esse4,
}


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None


def _load_json(path: str):
    return _parse_json(Path(path).read_text(), path)


def _load_graph(spec: str) -> Multigraph:
    if spec.startswith("corpus:"):
        return corpus.named_graph(spec.split(":", 1)[1])
    path = Path(spec)
    text = path.read_text()
    if path.suffix == ".g6" or text.lstrip().startswith(">>graph6<<"):
        return graphio.from_graph6(text)
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        return graphio.graph_from_json(_parse_json(text, spec))
    return graphio.from_edge_list(text)


def _load_gadget(path: str) -> reduction.GadgetInstance:
    obj = _load_json(path)
    try:
        formula = obj["formula"]
        num_vars, clauses = formula["numVars"], tuple(frozenset(c) for c in formula["clauses"])
        if not all(isinstance(x, int) for x in (num_vars, *(x for c in clauses for x in c))):
            raise TypeError("numVars and the clause variables must be integers")
        if num_vars > 3 * len(clauses):  # each variable occurs in a 3-clause
            raise ValueError(f"numVars {num_vars} exceeds 3 per clause")
        f = reduction.NaeFormula(num_vars, clauses)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed gadget JSON: {exc!r}") from None
    return reduction.build_gadget(f)


def _emit(payload: Dict, args, summary: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(summary)
        print(f"wrote {args.out}")
    elif args.format == "json":
        sys.stdout.write(text)
    else:
        print(summary)


def _cmd_corpus(args) -> int:
    for name in corpus.corpus_names():
        g = corpus.named_graph(name)
        print(f"{name}: {g.num_vertices} vertices, {g.num_edges} edges")
    return 0


def _cmd_connectivity(args) -> int:
    g = _load_graph(args.graph)
    lam = g.edge_connectivity() if g.num_vertices >= 2 else 0
    cubic = all(g.degree(v) == 3 for v in g.vertices)
    esse4 = lam >= 3 and g.find_nontrivial_3cut() is None  # is_essentially_4ec, reusing lam
    payload = {
        "vertices": g.num_vertices,
        "edges": g.num_edges,
        "edgeConnectivity": lam,
        "cubic": cubic,
        "essentially4EdgeConnected": esse4,
    }
    _emit(payload, args,
          f"n={g.num_vertices} m={g.num_edges} lambda={lam} cubic={cubic} essentially-4ec={esse4}")
    return 0


def _cmd_frank(args) -> int:
    g = _load_graph(args.graph)
    if args.pipeline:
        report = PIPELINES[args.pipeline](g)
        k = len(report.certificate.orientations)
        _emit(report.to_json(), args,
              f"pipeline {args.pipeline}: {k} verified orientations cover all edges "
              f"(upper bound realized by the {report.name} construction)")
        return 0
    limits = SolveLimits(max_enumerable_edges=args.limit_edges)
    k, cert = frank_number_exact(g, limits)
    lower = min(k, 2)  # f = 1 iff λ ≥ 4 (Nash-Williams); otherwise the bound is 2
    payload = cert.to_json()
    payload["frankNumber"] = k
    payload["lowerBound"] = lower
    _emit(payload, args, f"f = {k} (lower bound {lower}), certificate verified")
    return 0


def _cmd_deletable(args) -> int:
    g = _load_graph(args.graph)
    try:
        edge_ids = [int(tok) for tok in args.set.split(",") if tok.strip() != ""]
    except ValueError:
        print("error: --set expects comma-separated edge ids", file=sys.stderr)
        return 1
    limits = SolveLimits(max_enumerable_edges=args.limit_edges, node_budget=args.node_budget)
    result = deletability_decide(g, edge_ids, limits)
    if result.status is Status.FOUND:
        payload = result.orientation.to_json()
        payload["deletable"] = True
        payload["set"] = sorted(set(edge_ids))
        _emit(payload, args, f"deletable: yes (witness verified, {result.nodes} nodes)")
        return 0
    if result.status is Status.NO:
        # a NO in 0 nodes comes from the degree check before the search
        why = (f"{result.nodes} nodes" if result.nodes
               else "0 nodes: a vertex has fewer than 4 edges, all in the set")
        _emit({"deletable": False, "set": sorted(set(edge_ids))}, args, f"deletable: no ({why})")
        return 0
    print(f"indeterminate: budget exhausted after {result.nodes} nodes", file=sys.stderr)
    return 2


def _cmd_orient(args) -> int:
    g = _load_graph(args.graph)
    d = well_balanced_orientation(g)
    if not is_well_balanced(g, d):  # pragma: no cover - construction verifies
        print("error: orientation failed the balance re-check", file=sys.stderr)
        return 1
    _emit(d.to_json(), args, "well-balanced orientation found and verified")
    return 0


def _cmd_reduce(args) -> int:
    text = Path(args.formula).read_text()
    f = reduction.parse_formula(text)
    f = reduction.preprocess(f)
    if not f.clauses:
        print("formula reduces to the empty formula; trivially feasible, no gadget",
              file=sys.stderr)
        return 1
    inst = reduction.build_gadget(f)
    g = inst.graph
    _emit(inst.to_json(), args,
          f"gadget built: {g.num_vertices} vertices, {g.num_edges} edges, cubic, "
          f"3-edge-connected; |S| = {len(inst.s)}")
    return 0


def _parse_assignment(text: str) -> Dict[int, bool]:
    out: Dict[int, bool] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip().lstrip("x")
        value = value.strip().lower()
        if not name.isdigit() or value not in ("0", "1", "true", "false"):
            raise FormatError(f"bad assignment {part!r}; expected x<number>=0|1")
        out[int(name)] = value in ("1", "true")
    return out


def _cmd_map(args) -> int:
    inst = _load_gadget(args.gadget)
    if args.to_orientation:
        assignment = _parse_assignment(args.to_orientation)
        d = reduction.assignment_to_orientation(inst, assignment)
        _emit(d.to_json(), args, "orientation built and verified: S is deletable")
        return 0
    d = orientation_from_json(_load_json(args.to_assignment), inst.graph)
    assignment = reduction.orientation_to_assignment(inst, d)
    payload = {"assignment": {f"x{i}": v for i, v in sorted(assignment.items())}}
    _emit(payload, args, "feasible assignment recovered: "
          + ",".join(f"x{i}={int(v)}" for i, v in sorted(assignment.items())))
    return 0


def _cmd_verify(args) -> int:
    obj = _load_json(args.certificate)
    graph = _load_graph(args.graph) if args.graph else None
    cert = certificate_from_json(obj, graph)
    g = graph if graph is not None else graphio.graph_from_json(obj["graph"], cap=None)
    ok, bad = verify_certificate(g, cert)
    if ok:
        print(f"certificate verified: {len(cert.orientations)} orientations cover "
              f"{g.num_edges} edges")
        return 0
    print(f"certificate INVALID on edges {sorted(bad)}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientcover",
        description="Certifying toolkit for orientations of 3-edge-connected multigraphs",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="list named graphs")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("connectivity", help="connectivity report")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("frank", help="exact Frank number or a certifying pipeline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--pipeline", choices=sorted(PIPELINES))
    p.add_argument("graph")
    p.add_argument("--limit-edges", type=int, default=DEFAULT_LIMITS.max_enumerable_edges)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frank)

    p = sub.add_parser("deletable", help="decide deletability of an edge set")
    p.add_argument("--set", required=True, help="comma-separated edge ids")
    p.add_argument("graph")
    p.add_argument("--limit-edges", type=int, default=DEFAULT_LIMITS.max_enumerable_edges)
    p.add_argument("--node-budget", type=int, default=DEFAULT_LIMITS.node_budget)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_deletable)

    p = sub.add_parser("orient", help="well-balanced orientation")
    p.add_argument("--well-balanced", action="store_true", required=True)
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("reduce", help="build a deletability gadget from a formula")
    p.add_argument("kind", choices=("nae3sat",))
    p.add_argument("formula")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("map", help="translate between assignments and orientations")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-orientation", metavar="ASSIGNMENT",
                       help='e.g. "x1=1,x2=1,x3=0,x4=0"')
    group.add_argument("--to-assignment", metavar="ORIENTATION_JSON")
    p.add_argument("gadget")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("certificate")
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchExhaustedError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except GraphToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
