"""Tests of the benchmark itself: generators, oracles, checker and tracer.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import DECIDED, UNDECIDED, Checker, certificate_size  # noqa: E402
from tracer import Tracer  # noqa: E402

PETERSEN = workloads.CORPUS["petersen"]


def _verts(pairs):
    return inputs.vertex_set(pairs)


# -- generators -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_count_does_not_depend_on_seed(workload):
    assert len(workloads.build(workload, 1)["ops"]) == len(workloads.build(workload, 2)["ops"])


def test_random_cubic_graphs_are_cubic_and_3_edge_connected():
    import random

    rng = random.Random(3)
    for n in (8, 12, 20):
        pairs = inputs.random_cubic_3ec(rng, n, need_triangle=n > 8)
        assert oracle.cubic(pairs) and len(_verts(pairs)) == n
        assert inputs.is_3_edge_connected(pairs)


def test_generalized_petersen_matches_the_corpus_petersen_up_to_labels():
    gp = inputs.generalized_petersen(5, 2)
    assert len(gp) == 15 and oracle.cubic(gp)
    assert not oracle.three_edge_colourable(gp)
    assert not oracle.three_edge_colourable(PETERSEN)
    assert oracle.three_edge_colourable(workloads.CORPUS["cube"])


def test_random_formulas_are_preprocessed_and_connected():
    import random

    rng = random.Random(5)
    for num_vars, num_clauses in ((4, 3), (6, 5)):
        cs = inputs.random_nae_formula(rng, num_vars, num_clauses)
        assert len(cs) == num_clauses
        assert inputs.preprocess_clauses(cs) == cs and inputs.clauses_connected(cs)
        assert {x for c in cs for x in c} == set(range(1, num_vars + 1))


def test_decide_targets_have_the_promised_answers():
    work = workloads.build("decide", 11)
    for op in work["ops"]:
        if op["kind"] != "decide":
            continue
        pairs = work["graphs"][op["graph"]]
        stars = {}
        for i, (u, v) in enumerate(pairs):
            stars.setdefault(u, set()).add(i)
            stars.setdefault(v, set()).add(i)
        whole_cut = any(len(es) == 3 and es <= set(op["set"]) for es in stars.values())
        assert whole_cut == (op["expect"] == "no")


# -- oracles ---------------------------------------------------------------------------


def test_oracle_cuts():
    assert oracle.has_3_edge_cut(PETERSEN)
    assert not oracle.has_3_edge_cut(workloads.CORPUS["k5"])
    assert not oracle.nontrivial_3_cut(PETERSEN)
    assert oracle.nontrivial_3_cut(workloads.CORPUS["double_k4"])
    assert oracle.nontrivial_3_cut(inputs.generalized_petersen(6, 2))


def test_oracle_deletability_on_a_directed_cycle():
    square = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    tails = {0: 0, 1: 1, 2: 2, 3: 3, 4: 0}
    verts = _verts(square)
    assert oracle.strongly_connected(verts, square, tails)
    assert oracle.deletable_arcs(verts, square, tails) == {4}


# -- checker ---------------------------------------------------------------------------


def _program():
    from orientcover import frank_lower_bound, frank_number_exact
    from orientcover.multigraph import Multigraph

    return Multigraph, frank_number_exact, frank_lower_bound


def _exact_artifact(pairs):
    Multigraph, frank_number_exact, frank_lower_bound = _program()
    g = Multigraph.from_pairs(pairs)
    k, cert = frank_number_exact(g)
    payload = cert.to_json()
    payload["frankNumber"] = k
    payload["lowerBound"] = frank_lower_bound(g)
    return payload


def _exact_workload():
    return {"graphs": {"corpus:petersen": PETERSEN},
            "ops": [{"kind": "exact", "graph": "corpus:petersen"}], "formulas": {}}


def test_checker_accepts_a_genuine_certificate():
    artifact = _exact_artifact(PETERSEN)
    checker = Checker(_exact_workload())
    assert checker.verdicts([("ok", json.dumps(artifact))]) == [DECIDED]


def test_negative_control_one_flipped_tail_is_flagged():
    artifact = _exact_artifact(PETERSEN)
    first = artifact["orientations"][0]["tails"]
    # a vertex with a single entering arc loses it, so orientation 0 is no
    # longer strongly connected and every edge it covers fails
    heads = {}
    for e, t in first.items():
        u, v = PETERSEN[int(e)]
        heads.setdefault(v if t == u else u, []).append(e)
    lonely = next(es[0] for v, es in sorted(heads.items()) if len(es) == 1)
    u, v = PETERSEN[int(lonely)]
    first[lonely] = v if first[lonely] == u else u
    verdict = Checker(_exact_workload()).verdicts([("ok", json.dumps(artifact))])[0]
    assert verdict not in (DECIDED, UNDECIDED)
    with pytest.raises(Exception):
        certificate_size(artifact, PETERSEN)


def test_checker_flags_a_wrong_frank_number():
    artifact = _exact_artifact(PETERSEN)
    artifact["orientations"].append(copy.deepcopy(artifact["orientations"][0]))
    artifact["frankNumber"] = 4
    verdict = Checker(_exact_workload()).verdicts([("ok", json.dumps(artifact))])[0]
    assert "known value" in verdict


def test_checker_flags_found_on_a_no_target():
    star = [0, 4, 5]  # the three edges at vertex 0
    work = {"graphs": {"g": PETERSEN}, "formulas": {},
            "ops": [{"kind": "decide", "graph": "g", "set": star, "expect": "no"}]}
    claim = {"deletable": True, "set": star, "graph": {}, "tails": {}}
    verdict = Checker(work).verdicts([("ok", json.dumps(claim))])[0]
    assert verdict not in (DECIDED, UNDECIDED)
    no = {"deletable": False, "set": star}
    assert Checker(work).verdicts([("ok", json.dumps(no))]) == [DECIDED]


def test_checker_counts_an_unexpected_exception_as_an_error():
    work = _exact_workload()
    verdict = Checker(work).verdicts([("error", json.dumps({"error": "KeyError",
                                                             "message": "7"}))])[0]
    assert verdict.startswith("raised KeyError")


# -- tracer ----------------------------------------------------------------------------


def test_tracer_sees_calls_through_every_binding_and_uninstalls():
    import orientcover.orientation as orientation
    import orientcover.pipelines as pipelines
    from orientcover.corpus import named_graph

    original = pipelines.well_balanced_orientation
    petersen = named_graph("petersen")
    tracer = Tracer()
    tracer.install()
    try:
        assert pipelines.well_balanced_orientation is orientation.well_balanced_orientation
        assert pipelines.well_balanced_orientation is not original
        report = pipelines.certify_upper7(petersen)
    finally:
        tracer.uninstall()
    assert pipelines.well_balanced_orientation is original
    wrapped = len(tracer.names)
    tracer.install()  # a second traced pass reuses the same wrappers
    tracer.uninstall()
    assert len(tracer.names) == wrapped
    assert pipelines.well_balanced_orientation is original
    summary = tracer.summary()
    assert summary["pipelines.certify_upper7"]["calls"] == 1
    assert summary["orientation.well_balanced_orientation"]["calls"] >= 7
    assert "pipelines._finish" not in summary and "multigraph._max_flow" not in summary
    assert tracer.counters["multigraph.Multigraph.calls"] > 0
    # every span nests inside the one top-level call
    total = summary["pipelines.certify_upper7"]["total_s"]
    assert sum(rec["self_s"] for rec in summary.values()) == pytest.approx(total, rel=1e-6)
    assert len(report.certificate.orientations) == 7


# -- the contract with BENCHMARK.json ----------------------------------------------------


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert list(run.per_layer_units()) == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
