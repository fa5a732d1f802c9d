import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orientcover.cli import build_parser, main
from orientcover.corpus import corpus_names, named_graph
from orientcover.exact import DEFAULT_LIMITS, frank_lower_bound
from orientcover.reduction import PAPER_EXAMPLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "petersen: 10 vertices, 15 edges" in out


def test_connectivity_text(capsys):
    code, out, _ = run(capsys, "connectivity", "corpus:petersen")
    assert code == 0
    assert "lambda=3" in out and "essentially-4ec=True" in out


def test_connectivity_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "connectivity", "corpus:k5")
    assert code == 0
    payload = json.loads(out)
    assert payload["edgeConnectivity"] == 4 and not payload["cubic"]


def test_frank_exact_petersen(capsys):
    code, out, _ = run(capsys, "frank", "--exact", "corpus:petersen")
    assert code == 0
    assert "f = 3" in out


def test_frank_exact_moebius_kantor_with_raised_limit(capsys):
    code, out, _ = run(capsys, "frank", "--exact", "corpus:moebius_kantor", "--limit-edges", "24")
    assert code == 0
    assert "f = 2" in out


def test_frank_exact_lower_bound_matches_library(capsys):
    # the CLI reads the bound off the verified f instead of recomputing λ
    checked = 0
    for name in corpus_names():
        g = named_graph(name)
        if g.num_edges > DEFAULT_LIMITS.max_enumerable_edges:
            continue
        code, out, _ = run(capsys, "--format", "json", "frank", "--exact", f"corpus:{name}")
        assert code == 0, name
        assert json.loads(out)["lowerBound"] == frank_lower_bound(g), name
        checked += 1
    assert checked >= 11


def test_frank_pipeline_and_verify(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "frank", "--pipeline", "esse4", "corpus:petersen",
                       "--out", str(cert))
    assert code == 0 and "3 verified orientations" in out
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0 and "certificate verified" in out


def test_frank_pipeline_covers_a_loop_at_a_cut_vertex(tmp_path, capsys):
    # two K4s sharing vertex 0, with the loop 0 0
    edge_list = tmp_path / "double_k4_loop.txt"
    edge_list.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n0 5\n0 6\n4 5\n4 6\n5 6\n0 0\n")
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "frank", "--pipeline", "seven", str(edge_list), "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0 and "certificate verified" in out


def test_verify_detects_tampering(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "frank", "--pipeline", "color3", "corpus:k4", "--out", str(cert))
    payload = json.loads(cert.read_text())
    payload["cover"] = {e: 0 for e in payload["cover"]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "INVALID" in err
    payload["orientations"] = []  # the graph then comes from the certificate alone
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and err == "certificate INVALID on edges [0, 1, 2, 3, 4, 5]\n"


def test_parser_defaults_come_from_solve_limits():
    parser = build_parser()
    frank = parser.parse_args(["frank", "--exact", "corpus:k4"])
    deletable = parser.parse_args(["deletable", "--set", "0", "corpus:k4"])
    assert frank.limit_edges == deletable.limit_edges == DEFAULT_LIMITS.max_enumerable_edges
    assert deletable.node_budget == DEFAULT_LIMITS.node_budget


def test_deletable_yes_and_no(capsys):
    code, out, _ = run(capsys, "deletable", "--set", "5,6,7,8,9", "corpus:petersen")
    assert code == 0 and "deletable: yes" in out
    code, out, _ = run(capsys, "deletable", "--set", "6,7,8", "corpus:prism3")
    assert code == 0 and "deletable: no" in out
    code, out, _ = run(capsys, "deletable", "--set", "0,2,6", "corpus:prism3")
    assert code == 0 and "deletable: no (0 nodes: a vertex has fewer than 4 edges" in out


def test_deletable_indeterminate_exit_code(capsys):
    code, _, err = run(capsys, "deletable", "--set", "5,6,7,8,9",
                       "--limit-edges", "3", "--node-budget", "10", "corpus:petersen")
    assert code == 2 and "indeterminate" in err


def test_orient_well_balanced(capsys):
    code, out, _ = run(capsys, "orient", "--well-balanced", "corpus:k5")
    assert code == 0 and "well-balanced" in out


def test_reduce_and_map_round_trip(tmp_path, capsys):
    formula = tmp_path / "example.cnf3"
    formula.write_text(PAPER_EXAMPLE)
    gadget = tmp_path / "gadget.json"
    code, out, _ = run(capsys, "reduce", "nae3sat", str(formula), "--out", str(gadget))
    assert code == 0 and "30 vertices, 45 edges" in out
    orient = tmp_path / "orient.json"
    code, out, _ = run(capsys, "map", "--to-orientation", "x1=1,x2=1,x3=0,x4=0",
                       str(gadget), "--out", str(orient))
    assert code == 0 and "verified" in out
    code, out, _ = run(capsys, "map", "--to-assignment", str(orient), str(gadget))
    assert code == 0 and "x1=1,x2=1,x3=0,x4=0" in out


def test_reduce_rejects_collapsing_formula(tmp_path, capsys):
    formula = tmp_path / "trivial.cnf3"
    formula.write_text("x1 x2 x3\n")
    code, _, err = run(capsys, "reduce", "nae3sat", str(formula))
    assert code == 1 and "trivially feasible" in err


def test_error_paths_are_exit_1(capsys):
    code, _, err = run(capsys, "frank", "--pipeline", "color3", "corpus:petersen")
    assert code == 1 and "not 3-edge-colorable" in err
    code, _, err = run(capsys, "connectivity", "corpus:nosuch")
    assert code == 1 and "unknown graph" in err


def test_graph_file_loading(tmp_path, capsys):
    edge_list = tmp_path / "k4.txt"
    edge_list.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "connectivity", str(edge_list))
    assert code == 0 and "lambda=3" in out
    g6 = tmp_path / "k4.g6"
    g6.write_text("C~\n")
    code, out, _ = run(capsys, "connectivity", str(g6))
    assert code == 0 and "lambda=3" in out


def test_byte_identical_outputs(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run(capsys, "frank", "--exact", "corpus:k4", "--out", str(out1))
    run(capsys, "frank", "--exact", "corpus:k4", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_json_format_stdout(capsys):
    code, out, _ = run(capsys, "--format", "json", "frank", "--exact", "corpus:k4")
    assert code == 0
    payload = json.loads(out)
    assert payload["frankNumber"] == 2
    assert set(payload["cover"]) == {str(e) for e in range(6)}


@pytest.mark.parametrize("argv", [
    ("frank", "--exact", "{bad}"),
    ("verify", "{bad}"),
    ("connectivity", "{dir}"),
    ("map", "--to-orientation", "x1=1", "{no_num_vars}"),
    ("map", "--to-orientation", "y1=1", "{gadget}"),
], ids=["frank-bad-json", "verify-bad-json", "directory", "gadget-without-numVars",
        "bad-assignment-name"])
def test_malformed_input_exits_1_without_traceback(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [0, 1')
    no_num_vars = tmp_path / "no_num_vars.json"
    no_num_vars.write_text(json.dumps({"formula": {"clauses": [[1, 2, 3]]}}))
    formula = tmp_path / "example.cnf3"
    formula.write_text(PAPER_EXAMPLE)
    gadget = tmp_path / "gadget.json"
    assert run(capsys, "reduce", "nae3sat", str(formula), "--out", str(gadget))[0] == 0
    paths = {"bad": bad, "dir": tmp_path, "no_num_vars": no_num_vars, "gadget": gadget}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("pipeline", ["esse4", "seven"])
@pytest.mark.parametrize("graph", ["corpus:petersen", "corpus:hub_triangles"])
def test_output_independent_of_hash_seed(pipeline, graph):
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys; from orientcover.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, "--format", "json", "frank", "--pipeline", pipeline, graph],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["pipeline"] == pipeline
