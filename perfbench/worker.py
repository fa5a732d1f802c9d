"""One benchmark process: set up, run the operation list, report raw numbers.

`run.py` starts this script; it prints one JSON object as its last line of
standard output.  The package is imported from `src/` under the current
directory.  Each operation is the library call an `orientcover` command
makes plus the artifact that command emits (`to_json` and
`json.dumps(sort_keys=True, indent=2)`); argument parsing and file I/O are
left out.

Roles:
  measure  set up SETUP_REPEATS times, then run whole passes over the
           operation list until the next pass would end after --seconds;
           with --trace 1 the passes alternate untraced and traced
  check    set up once and run one pass; on the exact workload also report
           every pipeline's certificate size per graph, untimed
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

SETUP_REPEATS = 5
PIPELINE_FUNCS = {"seven": "certify_upper7", "esse4": "certify_esse4",
                  "color3": "certify_color3", "bf5": "certify_bf5"}

Outcome = Tuple[str, str]  # (ok | refused | undecided | error, artifact text)


def _dump(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class Program:
    """A fresh import of the package; calls go through module attributes so a
    tracer that rebinds them sees every call."""

    def __init__(self):
        for name in list(sys.modules):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                del sys.modules[name]
        import orientcover  # noqa: F401
        import orientcover.cli  # noqa: F401  (command start-up imports it)

        self.m = {name: sys.modules[f"{PACKAGE}.{name}"]
                  for name in ("corpus", "errors", "exact", "multigraph", "orientation",
                               "pipelines", "reduction")}

    def run(self, fn: Callable[[], Tuple[str, Dict]]) -> Outcome:
        errors = self.m["errors"]
        try:
            status, payload = fn()
        except (errors.SearchExhaustedError, errors.GraphTooLargeError) as exc:
            status, payload = "undecided", {"undecided": type(exc).__name__, "message": str(exc)}
        except errors.PreconditionError as exc:
            status, payload = "refused", {"refused": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # the operation boundary: record and keep going
            status, payload = "error", {"error": type(exc).__name__, "message": str(exc)}
        return status, _dump(payload)

    # -- inputs ------------------------------------------------------------------------

    def graph(self, key: str, pairs):
        if key.startswith("corpus:"):
            return self.m["corpus"].named_graph(key.split(":", 1)[1])
        return self.m["multigraph"].Multigraph.from_pairs([tuple(p) for p in pairs])

    def formula(self, spec: Dict):
        red = self.m["reduction"]
        return red.NaeFormula(spec["num_vars"], tuple(frozenset(c) for c in spec["clauses"]))

    # -- operations --------------------------------------------------------------------

    def limits(self, **kw):
        return self.m["exact"].SolveLimits(**kw)

    def exact(self, g, limits) -> Tuple[str, Dict]:
        ex = self.m["exact"]
        k, cert = ex.frank_number_exact(g, limits)
        lower = ex.frank_lower_bound(g)
        payload = cert.to_json()
        payload["frankNumber"] = k
        payload["lowerBound"] = lower
        return "ok", payload

    def pipeline(self, name: str, g) -> Tuple[str, Dict]:
        return "ok", getattr(self.m["pipelines"], PIPELINE_FUNCS[name])(g).to_json()

    def decide(self, g, target, limits) -> Tuple[str, Dict]:
        ex = self.m["exact"]
        result = ex.deletability_decide(g, target, limits)
        edges = sorted(set(target))
        if result.status is ex.Status.FOUND:
            if not self.m["orientation"].is_deletable_set(result.orientation, target):
                raise RuntimeError("witness failed re-verification")
            payload = result.orientation.to_json()
            payload["deletable"] = True
            payload["set"] = edges
            return "ok", payload
        if result.status is ex.Status.NO:
            return "ok", {"deletable": False, "set": edges}
        return "undecided", {"indeterminate": True, "nodes": result.nodes, "set": edges}

    def reduce(self, text: str) -> Tuple[str, Dict]:
        red = self.m["reduction"]
        inst = red.build_gadget(red.preprocess(red.parse_formula(text)))
        return "ok", inst.to_json()

    def map_to_orientation(self, spec: Dict, assignment: Dict[int, bool]) -> Tuple[str, Dict]:
        red = self.m["reduction"]
        inst = red.build_gadget(self.formula(spec))
        return "ok", red.assignment_to_orientation(inst, assignment).to_json()

    def map_to_assignment(self, spec: Dict, orientation: Dict) -> Tuple[str, Dict]:
        red = self.m["reduction"]
        inst = red.build_gadget(self.formula(spec))
        d = self.m["orientation"].orientation_from_json(orientation, inst.graph)
        a = red.orientation_to_assignment(inst, d)
        return "ok", {"assignment": {f"x{i}": v for i, v in sorted(a.items())}}


def formula_text(spec: Dict) -> str:
    """The formula file the `reduce` command reads: one clause per line."""
    return "".join(" ".join(f"x{x}" for x in c) + "\n" for c in spec["clauses"])


def build_ops(prog: Program, work: Dict) -> List[Callable[[], Outcome]]:
    """Materialise the inputs and bind one closure per operation spec."""
    graphs = {key: prog.graph(key, pairs) for key, pairs in work["graphs"].items()}
    params = workloads.PARAMS[work["workload"]]
    limits = prog.limits(max_enumerable_edges=params.get("max_enumerable_edges", 22),
                         node_budget=params.get("node_budget", 2_000_000))
    red = prog.m["reduction"]
    gadgets, assignments, forward = {}, {}, {}
    for key, spec in work["formulas"].items():
        inst = red.build_gadget(prog.formula(spec))
        gadgets[key] = inst
        assignments[key] = {int(i): b for i, b in spec["assignment"].items()}
        forward[key] = red.assignment_to_orientation(inst, assignments[key]).to_json()

    def bind(op: Dict) -> Callable[[], Outcome]:
        kind = op["kind"]
        if kind == "exact":
            g = graphs[op["graph"]]
            return lambda: prog.run(lambda: prog.exact(g, limits))
        if kind == "pipeline":
            g, name = graphs[op["graph"]], op["pipeline"]
            return lambda: prog.run(lambda: prog.pipeline(name, g))
        if kind == "decide":
            g, target = graphs[op["graph"]], list(op["set"])
            return lambda: prog.run(lambda: prog.decide(g, target, limits))
        key = op["formula"]
        spec = work["formulas"][key]
        if kind == "reduce":
            text = formula_text(spec)
            return lambda: prog.run(lambda: prog.reduce(text))
        if kind == "decide_gadget":
            inst = gadgets[key]
            return lambda: prog.run(lambda: prog.decide(inst.graph, inst.s, limits))
        if kind == "map_to_orientation":
            a = assignments[key]
            return lambda: prog.run(lambda: prog.map_to_orientation(spec, a))
        if kind == "map_to_assignment":
            d = forward[key]
            return lambda: prog.run(lambda: prog.map_to_assignment(spec, d))
        raise ValueError(f"unknown operation kind {kind!r}")

    return [bind(op) for op in work["ops"]]


def warm_up(prog: Program, workload: str) -> None:
    """Run each operation kind of the workload once on a tiny input."""
    k4 = prog.graph("corpus:k4", None)
    limits = prog.limits()
    if workload == "exact":
        prog.run(lambda: prog.exact(k4, limits))
    elif workload == "certify":
        for name in PIPELINE_FUNCS:
            prog.run(lambda: prog.pipeline(name, k4))
    else:
        prog.run(lambda: prog.decide(k4, [0], limits))
        spec = {"num_vars": 4, "clauses": workloads.DECIDE["paper_formula"]}
        prog.run(lambda: prog.reduce(formula_text(spec)))
        a = {1: True, 2: False, 3: False, 4: True}  # feasible for the paper formula
        status, text = prog.run(lambda: prog.map_to_orientation(spec, a))
        prog.run(lambda: prog.map_to_assignment(spec, json.loads(text)))


def setup(workload: str, seed: int) -> Tuple[Program, Dict, List[Callable[[], Outcome]]]:
    """Imports, input generation and warm-up: everything `setup_s` times."""
    work = workloads.build(workload, seed)
    prog = Program()
    ops = build_ops(prog, work)
    warm_up(prog, workload)
    return prog, work, ops


def reference_sizes(prog: Program, work: Dict) -> Dict[str, Dict[str, object]]:
    """Every pipeline's certificate size on each graph of the workload, or None."""
    out: Dict[str, Dict[str, object]] = {}
    for key in sorted(work["graphs"]):
        g = prog.graph(key, work["graphs"][key])
        sizes: Dict[str, object] = {}
        for name in PIPELINE_FUNCS:
            status, text = prog.run(lambda: prog.pipeline(name, g))
            sizes[name] = len(json.loads(text)["orientations"]) if status == "ok" else None
        out[key] = sizes
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("measure", "check"), required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))

    setup_s = []
    for _ in range(SETUP_REPEATS if args.role == "measure" else 1):
        t0 = perf_counter()
        prog, work, ops = setup(args.workload, args.seed)
        setup_s.append(perf_counter() - t0)

    # With tracing on, the measuring worker alternates untraced and traced
    # passes, so the tracing overhead is measured within one process.
    tracer = Tracer() if args.trace else None
    alternate = tracer is not None and args.role == "measure"
    op_s: List[List[float]] = [[] for _ in ops]
    walls: List[float] = []
    traced_passes: List[bool] = []
    hashes: List[List[str]] = []
    results: List[Outcome] = []
    begin = perf_counter()
    while True:
        traced = tracer is not None and (not alternate or len(walls) % 2 == 1)
        if traced:
            tracer.install()
        gc.collect()
        outcomes = []
        t_pass = perf_counter()
        for i, op in enumerate(ops):
            t0 = perf_counter()
            outcomes.append(op())
            op_s[i].append(perf_counter() - t0)
        walls.append(perf_counter() - t_pass)
        traced_passes.append(traced)
        if traced:
            tracer.uninstall()
        hashes.append([hashlib.sha256(text.encode()).hexdigest() for _, text in outcomes])
        if not results:
            results = outcomes
        done = len(walls)
        projected = (perf_counter() - begin) * (done + 1) / done  # after one more pass
        if args.role == "check" or (done >= (2 if alternate else 1) and projected > args.seconds):
            break

    report = {
        "setup_s": setup_s,
        "wall_s": walls,
        "traced": traced_passes,
        "op_s": op_s,
        "hashes": hashes,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None,
        "reference": None,
    }
    if tracer is not None:
        report["trace"] = {"passes": sum(traced_passes), "functions": tracer.summary(),
                           "counters": dict(tracer.counters), "call_graph": tracer.call_graph()}
    if args.role == "check" and args.workload == "exact":
        report["reference"] = reference_sizes(prog, work)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
