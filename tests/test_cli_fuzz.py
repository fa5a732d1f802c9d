"""Robustness of the command line on malformed input.

Every run must end with exit code 0, 1 or 2 and a one-line message, never a
Python traceback: graph files of arbitrary text, edge lists with odd tokens,
and certificate, orientation and gadget JSON with parts replaced by values of
the wrong shape.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from orientcover.cli import main
from orientcover.reduction import PAPER_EXAMPLE

FUZZ = settings(max_examples=40)
FUZZ_JSON = settings(max_examples=200)

KEYS = ("vertices", "edges", "id", "u", "v", "graph", "orientations", "tails", "cover",
        "formula", "numVars", "clauses", "0", "1", "2")
ODD = (float("inf"), float("nan"), -1, 10 ** 30, 0.5, "", "x", [], {})
LEAVES = (st.sampled_from(ODD) | st.none() | st.booleans() | st.integers(-2, 8)
          | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(KEYS))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=10)


def run_cli(*argv):
    """(exit code, stdout + stderr) of one command; argparse errors exit 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def assert_clean_exit(*argv):
    code, text = run_cli(*argv)
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text, text


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid certificate, gadget and forward orientation to mutate."""
    d = tmp_path_factory.mktemp("fuzz")
    cert, formula = d / "cert.json", d / "example.cnf3"
    gadget, orient = d / "gadget.json", d / "orient.json"
    formula.write_text(PAPER_EXAMPLE)
    assert run_cli("frank", "--exact", "corpus:k4", "--out", cert)[0] == 0
    assert run_cli("reduce", "nae3sat", formula, "--out", gadget)[0] == 0
    assert run_cli("map", "--to-orientation", "x1=1,x2=1,x3=0,x4=0", gadget,
                   "--out", orient)[0] == 0
    return d, {name: json.loads((d / f"{name}.json").read_text())
               for name in ("cert", "gadget", "orient")}


def mutate(data, obj):
    """obj with one value, found by walking down from the root, replaced."""
    if not isinstance(obj, (dict, list)) or not obj or data.draw(st.booleans()):
        return data.draw(VALUES)
    if isinstance(obj, dict):
        key = data.draw(st.sampled_from(sorted(obj)))
        out = dict(obj)
        if data.draw(st.integers(0, 3)):
            out[key] = mutate(data, obj[key])
        else:
            del out[key]
        return out
    i = data.draw(st.integers(0, len(obj) - 1))
    return obj[:i] + [mutate(data, obj[i])] + obj[i + 1:]


def graph_commands(path):
    return [("connectivity", path), ("frank", "--exact", path),
            ("deletable", "--set", "0,1", path), ("orient", "--well-balanced", path),
            ("frank", "--pipeline", "seven", path)]


@FUZZ
@given(text=st.text(alphabet="0123456789 -#\n\t{}[]\":,.ex>?~", max_size=40),
       suffix=st.sampled_from([".txt", ".g6", ".json"]), command=st.integers(0, 4))
def test_arbitrary_graph_files_exit_cleanly(files, text, suffix, command):
    path = files[0] / f"graph{suffix}"
    path.write_text(text)
    assert_clean_exit(*graph_commands(path)[command])


@FUZZ
@given(pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
       junk=st.sampled_from(["", "x y\n", "1\n", "1 2 3\n", "# note\n", "-1 2\n"]),
       edge_set=st.lists(st.integers(-1, 13), max_size=4), command=st.integers(0, 4))
def test_edge_lists_exit_cleanly(files, pairs, junk, edge_set, command):
    path = files[0] / "edges.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs) + junk)
    argv = graph_commands(path)[command]
    if argv[0] == "deletable":
        argv = ("deletable", "--set=" + ",".join(map(str, edge_set)), path)
    assert_clean_exit(*argv)


@FUZZ_JSON
@given(data=st.data(), with_graph=st.booleans())
def test_malformed_certificates_exit_cleanly(files, data, with_graph):
    d, valid = files
    path = d / "bad_cert.json"
    path.write_text(json.dumps(mutate(data, valid["cert"])))
    assert_clean_exit("verify", path, *(("--graph", "corpus:k4") if with_graph else ()))


@FUZZ_JSON
@given(data=st.data())
def test_malformed_orientations_and_gadgets_exit_cleanly(files, data):
    d, valid = files
    orient, gadget = d / "bad_orient.json", d / "bad_gadget.json"
    orient.write_text(json.dumps(mutate(data, valid["orient"])))
    gadget.write_text(json.dumps(mutate(data, valid["gadget"]) if data.draw(st.booleans())
                                 else valid["gadget"]))
    assert_clean_exit("map", "--to-assignment", orient, gadget)
