"""Source hygiene for the modules under src/orientcover.

No module imports a name it never uses, a function imports from a sibling
module only when that module imports its own at top level (an import
cycle; every other import sits at the top), none calls itertools.product (the
one exhaustive orientation search is exact._search, and the 2^m reference
loops live in tests/oracles.py), every private function or method is
reached from the package outside its own body, and no expression compares
edge_connectivity() with a constant in a way that min(lambda, 4) decides
(every such question goes through the flow-free Multigraph._lambda_upto4 or
is_3_edge_connected), and no module or class defines both a name and its
_-prefixed twin (a public function checks its own precondition; there is no
unchecked private copy of it).  No module keeps state that outlives a call:
no functools cache and no dict, list or set bound in a module or class body
beyond three fixed tables (derived structure lives in Multigraph._memo, on
the graph it describes).  Standard library only (ast),
since no linter is part of the toolchain.  The package's __init__.py is
exempt from the import check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orientcover"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) for each name an import binds that the module never names again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert len(MODULES) >= 10
    source = "import os.path\nfrom typing import Dict, List\nx: List[int] = []\ny = \"Dict\"\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]


def local_imports(sources):
    """(file, line, module) of each `from .module import` inside a function of
    `sources` (file name -> text) that could sit at the top of its file,
    because that module does not import the file at its own top level."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    top = {name: {node.module for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1}
           for name, tree in trees.items()}
    found = set()
    for file, tree in trees.items():
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(f):
                if (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                        and file[:-3] not in top.get(node.module + ".py", ())):
                    found.add((file, node.lineno, node.module))
    return sorted(found)


def test_function_local_imports_break_a_cycle():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert local_imports(sources) == []


def test_checker_flags_a_local_import_without_a_cycle():
    sources = {
        "a.py": ("from .b import x\n\ndef f():\n    from .b import y\n"
                 "    from .c import z\n    import json\n    return y, z\n"),
        "b.py": ("from .c import w\n\ndef g():\n    from .a import f\n"
                 "    def h():\n        from .d import v\n    return f\n"),
        "c.py": "import os\n\nclass C:\n    def m(self):\n        from .b import w\n",
    }
    assert local_imports(sources) == [
        ("a.py", 4, "b"), ("a.py", 5, "c"), ("b.py", 6, "d")]


def product_calls(source: str):
    """Lines that call itertools.product, by attribute or by an imported name."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "itertools"
             for alias in node.names if alias.name == "product"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "product"
                and isinstance(f.value, ast.Name) and f.value.id == "itertools"):
            lines.append(node.lineno)
        elif isinstance(f, ast.Name) and f.id in names:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_itertools_product(path):
    assert product_calls(path.read_text()) == []


def test_checker_flags_itertools_product():
    source = ("import itertools\nfrom itertools import product as p\n"
              "a = itertools.product((0, 1), repeat=2)\nb = p('ab')\nc = itertools.islice(a, 1)\n")
    assert product_calls(source) == [3, 4]


def dead_private_functions(sources):
    """(file, line, name) of each non-dunder function or method that is
    _-prefixed or defined in a _-prefixed class, and that no code in
    `sources` (file name -> text) names outside its own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    total = {}
    for tree in trees.values():
        for name in names(tree):
            total[name] = total.get(name, 0) + 1
    dead = []
    for file, tree in sorted(trees.items()):
        private_methods = {id(f) for c in ast.walk(tree)
                           if isinstance(c, ast.ClassDef) and c.name.startswith("_") for f in c.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (node.name.startswith("_") or id(node) in private_methods)
                    and not node.name.endswith("__")
                    and total.get(node.name, 0) == names(node).count(node.name)):
                dead.append((file, node.lineno, node.name))
    return dead


def test_no_dead_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_functions(sources) == []


def test_checker_flags_a_dead_private_function():
    sources = {
        "a.py": ("def _used():\n    return 1\n\n"
                 "def _dead():\n    return _used()\n\n"
                 "def _self_only(k):\n    return _self_only(k - 1) if k else 0\n\n"
                 "class C:\n    def __init__(self):\n        self._m()\n\n"
                 "    def _m(self):\n        pass\n\n"
                 "    def _unreached(self):\n        pass\n\n"
                 "class _P:\n    def __init__(self):\n        self.kept()\n\n"
                 "    def kept(self):\n        pass\n\n"
                 "    def leftover(self):\n        pass\n"),
        "b.py": "from a import _used, _P\n",
    }
    assert dead_private_functions(sources) == [
        ("a.py", 4, "_dead"), ("a.py", 7, "_self_only"), ("a.py", 17, "_unreached"),
        ("a.py", 27, "leftover")]


def unreferenced_public_functions(package, others):
    """(file, line, qualified name) of each public function, method or
    property in `package` (file name -> text) that no code in `package` or
    `others` names outside its own body and that package's __init__.py does
    not import."""
    trees = {name: ast.parse(text) for name, text in {**package, **others}.items()}

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    total = {}
    for tree in trees.values():
        for name in names(tree):
            total[name] = total.get(name, 0) + 1
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unreferenced = []
    for file in sorted(package):
        tree = trees[file]
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_") and node.name not in exported
                    and total.get(node.name, 0) == names(node).count(node.name)):
                qualified = f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name
                unreferenced.append((file, node.lineno, qualified))
    return unreferenced


# Public names that only the tests call.
TEST_ONLY = {
    "Orientation.reverse", "Cycle.edge_set", "Multigraph.local_edge_connectivity",
    "directed_local_connectivity", "eulerian_orientation",
    "to_edge_list", "to_graph6", "fano_formula",
}


def test_every_public_function_is_reached_or_exported():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    scripts = {p.name: p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))}
    found = unreferenced_public_functions(package, scripts)
    assert {name for _, _, name in found} == TEST_ONLY


def test_checker_flags_an_unreferenced_public_function():
    package = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported():\n    pass\n\n"
                 "def used():\n    return helper()\n\n"
                 "def helper():\n    pass\n\n"
                 "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n"
                 "def from_script():\n    pass\n\n"
                 "class C:\n    @property\n    def size(self):\n        return 0\n\n"
                 "    def kept(self):\n        return self.size\n\n"
                 "    def __len__(self):\n        return 0\n"),
    }
    scripts = {"s.py": "from orientcover.a import from_script\nfrom_script()\n"}
    assert unreferenced_public_functions(package, scripts) == [
        ("a.py", 4, "used"), ("a.py", 10, "recursive"), ("a.py", 21, "C.kept")]


def twin_definitions(source: str):
    """(line, name) of each _-prefixed function or class whose unprefixed name
    is defined in the same scope (the module or one class body)."""
    tree = ast.parse(source)
    scopes = [tree.body] + [c.body for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    twins = []
    for body in scopes:
        defined = {node.name: node.lineno for node in body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        twins += [(line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name[1:] in defined]
    return sorted(twins)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_checked_and_unchecked_twins(path):
    assert twin_definitions(path.read_text()) == []


def test_checker_flags_a_twin_definition():
    source = ("def f(g):\n    return _f(g)\n\ndef _f(g):\n    return g\n\n"
              "def _h():\n    pass\n\n"
              "class C:\n    def m(self):\n        pass\n\n    def _m(self):\n        pass\n\n"
              "    def _f(self):\n        pass\n\n    def __init__(self):\n        pass\n")
    assert twin_definitions(source) == [(4, "_f"), (14, "_m")]


# The largest constant, per comparison, whose outcome min(lambda, 4) decides:
# lambda < c and lambda >= c up to c = 4, the others up to c = 3.  Keyed by the
# operator with edge_connectivity() on the left (a constant on the left is mirrored).
_SMALL_LAMBDA = {ast.Lt: 4, ast.GtE: 4, ast.LtE: 3, ast.Gt: 3, ast.Eq: 3, ast.NotEq: 3}
_MIRROR = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE, ast.Eq: ast.Eq,
           ast.NotEq: ast.NotEq}


def small_lambda_tests(source: str):
    """Lines comparing a call of .edge_connectivity() with a constant that
    min(lambda, 4) already answers, such as < 2, != 3 or >= 4.

    Comparisons that need the exact value above 3, such as == 4 or > 4, and
    uses of the value itself are left alone.
    """
    def is_lambda(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "edge_connectivity")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + node.comparators
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if is_lambda(left) and isinstance(right, ast.Constant):
                op, value = type(op), right.value
            elif is_lambda(right) and isinstance(left, ast.Constant) and type(op) in _MIRROR:
                op, value = _MIRROR[type(op)], left.value
            else:
                continue
            if isinstance(value, int) and value <= _SMALL_LAMBDA.get(op, -1):
                lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_edge_connectivity_threshold_3(path):
    assert small_lambda_tests(path.read_text()) == []


def test_checker_flags_an_edge_connectivity_threshold_3():
    source = ("a = g.edge_connectivity() < 3\nb = g.edge_connectivity() >= 3\n"
              "c = 3 <= g.edge_connectivity()\nd = n >= 2 and g.edge_connectivity() > 2\n"
              "e = g.edge_connectivity() != 3\nf = g.edge_connectivity() < 4\n"
              "h = g.edge_connectivity() < 2\ni = lam < 3\nj = g.edge_connectivity() == 4\n"
              "k = 4 <= g.edge_connectivity()\nl = g.edge_connectivity() > 4\n"
              "m = g.edge_connectivity() <= 3\nn = 1 == g.edge_connectivity()\n"
              "o = {'lambda': g.edge_connectivity()}\np = g.edge_connectivity() >= 5\n")
    assert small_lambda_tests(source) == [1, 2, 3, 4, 5, 6, 7, 10, 12, 13]


# The module-level tables that are allowed: built once at import, never changed.
FIXED_TABLES = {("__init__.py", "__all__"), ("cli.py", "PIPELINES"), ("corpus.py", "_BUILDERS")}
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def lasting_state(source: str):
    """(line, name) of each use of functools.lru_cache or functools.cache, and
    of each name a module or class body binds to a dict, list or set.

    A cache or container there lives as long as the process, so a second
    call on equal inputs could be answered from it.
    """
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{a.name}") for a in node.names
                      if a.name in ("lru_cache", "cache")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, f"functools.{node.attr}"))
    bodies = [tree.body] + [c.body for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            call = value.func if isinstance(value, ast.Call) else None
            called = call.id if isinstance(call, ast.Name) else getattr(call, "attr", None)
            if isinstance(value, _CONTAINERS) or called in _CONTAINER_CALLS:
                found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_state_outlives_a_call(path):
    assert [(line, name) for line, name in lasting_state(path.read_text())
            if (path.name, name) not in FIXED_TABLES] == []


def test_checker_flags_lasting_state():
    source = ("import functools\nfrom functools import lru_cache, wraps\n"
              "SEEN = {}\nITEMS: list = []\nS = set()\nC = {k: 1 for k in 'ab'}\n"
              "T = (1, 2)\nF = frozenset()\nM = collections.defaultdict(int)\n\n"
              "@functools.lru_cache(maxsize=None)\ndef f(x):\n    local = {}\n    return local\n\n"
              "@functools.cache\ndef g(x):\n    return x\n\n"
              "class K:\n    table = []\n    __slots__ = ('a',)\n\n"
              "    def m(self):\n        self.memo = {}\n")
    assert lasting_state(source) == [
        (2, "functools.lru_cache"), (3, "SEEN"), (4, "ITEMS"), (5, "S"), (6, "C"), (9, "M"),
        (11, "functools.lru_cache"), (16, "functools.cache"), (21, "table")]
