import ast
import doctest
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permutree_lab.caps import DEFAULT_CAPS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permutree_lab"


def test_no_bare_asserts():
    """Library invariants raise explicitly, so `python -O` keeps them."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_function_local_imports():
    """Every library import sits at module level, where the import graph
    can be read at a glance."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert found == []


def _unbounded_cache(decorator):
    """`cache`, `lru_cache(maxsize=None)` or `lru_cache(None)`, with or
    without the `functools.` prefix."""
    text = ast.unparse(decorator).removeprefix("functools.")
    return text in ("cache", "lru_cache(maxsize=None)", "lru_cache(None)")


def test_no_unbounded_module_caches():
    """No module-level function memoizes without bound for the life of the
    process; a memo local to one call is the pattern to use instead."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_unbounded_cache(d) for d in node.decorator_list)
        ]
    assert found == []


def _empty_container(value):
    """`{}`, `[]`, `set()` or `dict()`: a mutable that starts empty, so
    whatever it will hold is filled in at run time."""
    return ast.unparse(value) in ("{}", "[]", "set()", "dict()")


def test_no_module_level_mutable_caches():
    """No module-level name is bound to an empty dict, list or set, the way
    an unbounded cache starts; non-empty constant tables are fine."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and _empty_container(node.value)
        ]
    assert found == []


def _private_uses(tree):
    """Line numbers where `tree` reaches a `_` name of another library module:
    `mod._name` on a module bound by `from . import mod`, or `from .mod
    import _name`."""
    relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    modules = {alias.asname or alias.name for n in relative if not n.module for alias in n.names}
    imported = [n.lineno for n in relative if any(a.name.startswith("_") for a in n.names)]
    attributes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    return sorted(imported + attributes)


def test_entry_layers_use_the_public_api():
    """The verification sweeps and the CLI call other library modules only
    through their public names, so every value they pass in is checked."""
    found = []
    for name in ("verify.py", "cli.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        found += [f"{name}:{line}" for line in _private_uses(tree)]
    assert found == []


# public functions and methods that only tests reach; this list may only
# shrink: a name leaves it when a module, README or the benchmark uses it,
# or when it is folded into another function or deleted
UNNAMED_ALLOWED = set()


def test_public_names_are_used():
    """Every public module-level function and method is named somewhere in
    the library besides its own `def`, in README or under perfbench/,
    unless it is on the frozen list above."""
    source = "\n".join(p.read_text() for p in sorted(PACKAGE.glob("*.py")))
    named = (ROOT / "README.md").read_text() + "\n".join(
        p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
    )
    unnamed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
        for fn in tree.body + methods:
            if not isinstance(fn, ast.FunctionDef):
                continue
            word = re.compile(rf"\b{fn.name}\b")
            if fn.name.startswith("_") or len(word.findall(source)) > 1 or word.search(named):
                continue
            unnamed.add(f"{path.stem}.{fn.name}")
    assert unnamed <= UNNAMED_ALLOWED, sorted(unnamed - UNNAMED_ALLOWED)
    assert unnamed == UNNAMED_ALLOWED, f"named now, drop: {sorted(UNNAMED_ALLOWED - unnamed)}"


def _callee(call):
    """The name a call is made by: `f` in `f(...)` and in `mod.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls_itself(fn):
    """Whether `fn` calls itself by name: `f(...)`, or `self.f(...)` in a method."""
    names = (fn.name, f"self.{fn.name}")
    return any(isinstance(call, ast.Call) and ast.unparse(call.func) in names for call in ast.walk(fn))


def test_recursion_is_frozen():
    """No library function calls itself, nested `def`s included: a search
    on an explicit stack or a count in layered loops has no depth limit."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {tree: path.stem}  # each node's qualified name, parents first
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                names[child] = f"{names[node]}.{child.name}" if named else names[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node):
                found.add(names[node])
    assert sorted(found) == []


# inputs 300 levels deep, each run in a fresh interpreter whose stack holds
# 200 frames, so a function that recursed once per level would fail
SHALLOW_STACK_CASES = {
    "s_tree": """
s = (1,) * 300
w = sw.sorted_word(s)
assert sw.tree_to_word(sw.word_to_tree(w, s), s) == w
""",
    "lex_min_word": """
w = am.lex_min_accepted_word(wo.longest(25), am.product(set(), set(), 25), range(1, 25))
assert len(w) == 300
""",
    "integer_flows": """
framing = {v: {"in": [v - 1], "out": [v]} for v in range(1, 299)}
path = fl.FramedGraph(299, {k: (k, k + 1) for k in range(299)}, framing)
assert fl.integer_flows(path, fl.netflow_i(path)) == [dict.fromkeys(range(299), 1)]
""",
    "max_cliques": """
parallel = fl.FramedGraph(1, {k: (0, 1) for k in range(300)}, {})
assert fl.max_cliques(parallel, cap=300) == [frozenset((k,) for k in range(300))]
""",
    "cli_cliques": """
edges = [{"id": f"e{k}", "tail": 0, "head": 1} for k in range(300)]
with open("graph.json", "w") as fh:
    json.dump({"vertices": 2, "edges": edges, "framing": {}}, fh)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["flows", "cliques", "--graph", "graph.json", "--cap", "300", "--json"])
assert code == 0 and json.loads(out.getvalue())["count"] == 1
""",
}


@pytest.mark.parametrize("case", SHALLOW_STACK_CASES)
def test_deep_inputs_run_on_a_shallow_stack(case, tmp_path):
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "from permutree_lab import automata as am, cli, flows as fl, s_weak_order as sw, weak_order as wo\n"
        "sys.setrecursionlimit(200)\n" + SHALLOW_STACK_CASES[case]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _capped_functions():
    """(module file name, function node) for every function with a `cap` parameter."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out += [
            (path.name, fn)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and "cap" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        ]
    return out


def test_every_cap_parameter_is_read_and_passed_on():
    """A function that takes `cap` reads it, and hands it to every cap check
    and every call of a function that takes `cap`.  Caps only rise, so one
    `cap=N` then means that every cap the call reaches is at least N."""
    capped = _capped_functions()
    takers = {fn.name for _, fn in capped} | {"require_cap", "cap_for"}
    unread, dropped = [], []
    for name, fn in capped:
        nodes = list(ast.walk(fn))
        if not any(isinstance(n, ast.Name) and n.id == "cap" and isinstance(n.ctx, ast.Load) for n in nodes):
            unread.append(f"{name}:{fn.name}")
        for call in nodes:
            if isinstance(call, ast.Call) and _callee(call) in takers:
                given = [*call.args, *(k.value for k in call.keywords)]
                if not any(isinstance(a, ast.Name) and a.id == "cap" for a in given):
                    dropped.append(f"{name}:{call.lineno} {_callee(call)}")
    assert (unread, dropped) == ([], [])


def test_checked_cap_names_are_the_default_caps():
    """Every cap a `require_cap` or `cap_for` names has a default, and every
    default is checked somewhere, so a merged or renamed cap leaves no orphan."""
    named = set()
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "caps.py"}):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _callee(call) in ("require_cap", "cap_for"):
                first = call.args[0]
                assert isinstance(first, ast.Constant), f"{path.name}:{call.lineno}"
                named.add(first.value)
    assert named == set(DEFAULT_CAPS)


def test_doctests():
    """Every example in the library's docstrings runs and gives its output."""
    failed = attempted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = "permutree_lab" if path.stem == "__init__" else f"permutree_lab.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 25  # the examples are still found


def test_benchmark_selftest():
    """The benchmark's own tests pass, among them that the workloads reach
    every library function the tracer wraps, so a renamed or unreached
    traced function fails here."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
