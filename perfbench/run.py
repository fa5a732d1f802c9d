#!/usr/bin/env python3
"""orientcover benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact|certify|decide --seed N \
        --seconds S --trace 0|1

Two worker processes run the workload's operation list against the package
in `src/`: a measuring worker (PYTHONHASHSEED=0; with --trace 1 its passes
alternate untraced and traced) and a checking worker (PYTHONHASHSEED=1,
tracing the other way round, one pass).
This process then checks every artifact with the independent checker,
compares artifact hashes across passes, tracing modes and hash seeds, and
prints the metrics as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  It imports no
package code itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from statistics import median
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from check import DECIDED, UNDECIDED, Checker  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKER_SLACK_S = 60  # a worker may run this long beyond --seconds
TAIL_BEYOND = 10
TRACE_DIR = ".perfbench"

# End-to-end metrics and their units, reported with --trace 0.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "decided_share": "share", "verified_share": "share", "peak_rss_mb": "MB"}

# Per-layer metrics reported from the traced run: the functions whose calls
# and self time are listed, by layer.
TRACED_FUNCTIONS = {
    "exact": ["frank_number_exact", "deletability_decide", "verify_certificate"],
    "multigraph": ["Multigraph.find_nontrivial_3cut", "Multigraph.is_essentially_4ec",
                   "Multigraph.edge_connectivity", "Multigraph.local_edge_connectivity",
                   "Multigraph.contract", "Multigraph.bridges"],
    "orientation": ["well_balanced_orientation", "is_well_balanced",
                    "directed_local_connectivity", "eulerian_orientation_constrained",
                    "is_deletable_set", "is_strongly_connected"],
    "packings": ["seven_cycle_packings"],
    "structures": ["proper_3_edge_coloring", "berge_fulkerson_cover", "perfect_matching",
                   "special_set", "cubic_extension", "paths_to_two_matchings",
                   "find_deletable_arc_on_circuit", "cycles_from_edge_set"],
    "pipelines": ["certify_upper7", "certify_esse4", "certify_color3", "certify_bf5",
                  "orient_special_set_deletable", "orient_matching_deletable"],
    "reduction": ["build_gadget", "assignment_to_orientation", "orientation_to_assignment"],
    "graphio": ["graph_to_json"],
}

# Counts read off return values or constructors, per pass.
TRACED_COUNTERS = [
    "exact.deletability_decide.nodes", "exact.deletability_decide.indeterminate",
    "structures.berge_fulkerson_cover.indeterminate",
    "multigraph.Multigraph.calls", "orientation.Orientation.calls",
    "pipelines.provenance.cut_vertex", "pipelines.provenance.connecting_edge",
    "pipelines.provenance.cubic_extension",
]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {"traced_wall_s": "s", "trace_overhead": "ratio"}
    units.update({f"{layer}.share": "share" for layer in LAYERS})
    for layer, funcs in TRACED_FUNCTIONS.items():
        for fn in funcs:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_share"] = "share"
    units.update({name: "count" for name in TRACED_COUNTERS})
    units["exact.deletability_decide.nodes_per_s"] = "1/s"
    units["orientation.is_well_balanced.per_orientation"] = "ratio"
    return units


def run_worker(args, role: str, trace: int, hashseed: str, seconds: float) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--role", role]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: the {role} worker did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the {role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_rank(n: int) -> int:
    """Index (ascending) of the value with TAIL_BEYOND values above it."""
    return max(n - TAIL_BEYOND - 1, 0)


def tail_percentile(n: int) -> int:
    return math.floor(100 * (tail_rank(n) + 1) / n)


def _walls(measure: Dict, traced: bool) -> List[float]:
    return [w for w, t in zip(measure["wall_s"], measure["traced"]) if t == traced]


def op_medians_ms(measure: Dict, traced: bool = False) -> List[float]:
    """Per operation, the median time over the passes with tracing as given."""
    return [1000.0 * median(t for t, tr in zip(times, measure["traced"]) if tr == traced)
            for times in measure["op_s"]]


def end_to_end(measure: Dict, verdicts: List[str]) -> Dict[str, Dict]:
    op_ms = sorted(op_medians_ms(measure))
    n = len(verdicts)
    errors = sum(1 for v in verdicts if v not in (DECIDED, UNDECIDED))
    values = {
        "setup_s": median(measure["setup_s"]),
        "wall_s": median(_walls(measure, False)),
        "op_p50_ms": median(op_ms),
        "op_tail_ms": op_ms[tail_rank(n)],
        "decided_share": verdicts.count(DECIDED) / n,
        "verified_share": (n - errors) / n,
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(measure: Dict) -> Dict[str, Dict]:
    trace = measure["trace"]
    passes = trace["passes"]
    funcs = trace["functions"]
    counters = trace["counters"]
    traced, untraced = _walls(measure, True), _walls(measure, False)
    total = sum(traced)
    values = {
        "traced_wall_s": median(traced),
        "trace_overhead": median(traced) / median(untraced) - 1.0,
    }
    for layer in LAYERS:
        busy = sum(rec["self_s"] for name, rec in funcs.items() if name.split(".")[0] == layer)
        values[f"{layer}.share"] = busy / total
    for layer, names in TRACED_FUNCTIONS.items():
        for fn in names:
            rec = funcs.get(f"{layer}.{fn}", {"calls": 0, "self_s": 0.0})
            values[f"{layer}.{fn}.calls"] = rec["calls"] / passes
            values[f"{layer}.{fn}.self_share"] = rec["self_s"] / total
    for name in TRACED_COUNTERS:
        values[name] = counters.get(name, 0) / passes
    decide_s = funcs.get("exact.deletability_decide", {"total_s": 0.0})["total_s"]
    nodes = counters.get("exact.deletability_decide.nodes", 0)
    values["exact.deletability_decide.nodes_per_s"] = nodes / decide_s if decide_s else 0.0
    # pairings tried (is_well_balanced calls) per orientation the searches returned
    searched = counters.get("orientation.searched_orientations", 0)
    balanced = funcs.get("orientation.is_well_balanced", {"calls": 0})["calls"]
    values["orientation.is_well_balanced.per_orientation"] = balanced / searched if searched else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def write_trace(args, work: Dict, measure: Dict, verdicts: List[str]) -> None:
    """The traced run's summary: per function, per call edge and per operation."""
    untraced, traced = op_medians_ms(measure, False), op_medians_ms(measure, True)
    ops = [dict(op, untraced_ms=u, traced_ms=t, verdict=v)
           for op, u, t, v in zip(work["ops"], untraced, traced, verdicts)]
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(dict(measure["trace"], ops=ops), fh, sort_keys=True, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "orientcover", "__init__.py")):
        print("error: run from the repository root; src/orientcover is missing", file=sys.stderr)
        return 2

    measure = run_worker(args, "measure", args.trace, "0", args.seconds)
    check = run_worker(args, "check", 1 - args.trace, "1", 0.0)

    work = workloads.build(args.workload, args.seed)
    checker = Checker(work, check["reference"])
    verdicts = checker.verdicts(measure["results"])
    for i in range(len(verdicts)):
        seen = {h[i] for h in measure["hashes"]} | {check["hashes"][0][i]}
        if len(seen) != 1 and verdicts[i] in (DECIDED, UNDECIDED):
            verdicts[i] = "artifact bytes differ across passes, tracing or hash seeds"
    errors = [(i, v) for i, v in enumerate(verdicts) if v not in (DECIDED, UNDECIDED)]
    for i, v in errors:
        print(f"op {i} {json.dumps(work['ops'][i], sort_keys=True)}: {v}", file=sys.stderr)

    n = len(verdicts)
    passes = len(measure["hashes"])
    if args.trace:
        metrics = per_layer(measure)
        write_trace(args, work, measure, verdicts)
    else:
        metrics = end_to_end(measure, verdicts)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "python": sys.version.split()[0],
        "passes": passes, "tail_percentile": tail_percentile(n), "tail_samples": n,
        "params": workloads.PARAMS[args.workload],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": n * passes,
        "failed": len(errors) * passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
