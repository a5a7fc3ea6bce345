"""Module layering: the construction modules and the certifier never
import each other, no module keeps an import it does not read, no CLI
command loads scipy, and only `sparsify.halve` catches SubspaceExhausted.

`verify` certifies outputs, so neither the walks nor the pipelines built on
them may reach it, directly or through another walksparse module.  The
sketch and resistance errors that both sides measure live in `graph`,
below both, so `graph` reaches neither.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import walksparse

PACKAGE = pathlib.Path(walksparse.__file__).parent


def module_file(name):
    return PACKAGE / f"{name.removeprefix('walksparse.')}.py"


def direct_imports(name):
    """walksparse modules named by the import statements of module `name`."""
    found = set()
    for node in ast.walk(ast.parse(module_file(name).read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "walksparse" + (f".{base}" if base else "")
            found |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return {n for n in found if n.startswith("walksparse.") and module_file(n).exists()}


def reachable(module):
    seen, todo = set(), [module]
    while todo:
        for name in direct_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


CONSTRUCTION = ["sparsify", "sketches", "matrix_walk"]


@pytest.mark.parametrize("module", CONSTRUCTION)
def test_construction_does_not_import_verify(module):
    assert "walksparse.verify" not in reachable(f"walksparse.{module}")


@pytest.mark.parametrize("module,forbidden", [
    ("verify", CONSTRUCTION),
    ("graph", [*CONSTRUCTION, "verify"]),
], ids=["verify", "graph"])
def test_measures_sit_below_construction(module, forbidden):
    # graph holds the measures both sides call, so it reaches neither side
    assert not {f"walksparse.{name}" for name in forbidden} & reachable(f"walksparse.{module}")


def test_cli_reaches_verify():
    # the check itself: an import of verify is found when there is one
    assert "walksparse.verify" in reachable("walksparse.cli")


def unused_imports(source):
    """Names that the import statements of `source` bind and nothing reads.

    Statements with a `# noqa` comment (re-exports) are skipped.
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_found():
    # the check itself: a re-export is found once its `# noqa` comment is
    # gone, and a dotted import counts as read through its root
    source = "from .matrix_walk import default_lambda0  # noqa: F401\n"
    assert unused_imports(source) == []
    assert unused_imports(source.replace("# noqa", "#")) == ["default_lambda0"]
    assert unused_imports("import os.path\nos.sep\n") == []


def handlers_of(exc_name, source):
    """Names of the functions (None at module level) whose own `except`
    clauses name exc_name, one entry per clause."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                getattr(n, "id", getattr(n, "attr", None)) == exc_name
                for n in ast.walk(child.type)
            ):
                found.append(func)
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_one_handler_turns_an_exhausted_round_into_the_stop():
    # rounds raise SubspaceExhausted and `halve` alone catches it
    found = [
        (path.stem, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for func in handlers_of("SubspaceExhausted", path.read_text())
    ]
    assert found == [("sparsify", "halve")]


def test_handler_search_finds_nested_and_tuple_clauses():
    # the check itself: a clause inside a nested function counts for that
    # function, and a tuple or dotted name counts as naming the exception
    source = (
        "def outer():\n"
        "    def inner():\n"
        "        try: pass\n"
        "        except (ValueError, errors.SubspaceExhausted): pass\n"
        "    try: pass\n"
        "    except SubspaceExhausted as exc: pass\n"
        "    except Exception: pass\n"
    )
    assert handlers_of("SubspaceExhausted", source) == ["inner", "outer"]


def setattr_owners(source):
    """Dotted names of the classes and functions ("" at module level) whose
    own code names `object.__setattr__`, one entry per occurrence."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def test_graph_fields_are_set_only_by_the_constructor():
    # one construction path: every Graph, subgraphs included, gets its
    # canonical edges and edge arrays from Graph.__post_init__
    found = setattr_owners(module_file("graph").read_text())
    assert found and set(found) == {"Graph.__post_init__"}


def test_setattr_search_names_the_enclosing_function():
    # the check itself: a call or a bare reference counts, under the
    # innermost class or function around it
    source = (
        "object.__setattr__(x, 'a', 1)\n"
        "class Graph:\n"
        "    def _set(self, edges):\n"
        "        object.__setattr__(self, 'edges', edges)\n"
        "def copy_into(g):\n"
        "    setter = object.__setattr__\n"
        "    setattr(g, 'edges', ())\n"
    )
    assert setattr_owners(source) == ["", "Graph._set", "copy_into"]


NO_SCIPY_RUN = """
import sys
import numpy as np
import walksparse.cli
assert "scipy.linalg" not in sys.modules, "loaded by import walksparse.cli"
from walksparse.cli import main, serialize_graph
from walksparse.graph import Graph
path, out, vec_path = sys.argv[1], sys.argv[2], sys.argv[3]
n = 16
edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n))
with open(path, "w", encoding="utf-8") as fh:
    fh.write(serialize_graph(Graph(n, edges)))
np.savetxt(vec_path, np.random.default_rng(0).normal(size=(20, n)))
steps = [
    ("sparsify", ["sparsify", path, "--epsilon", "0.45", "--c-support", "1", "--out", out]),
    ("verify", ["verify", path, out]),
    ("sketch", ["sketch", path, "--vectors", vec_path, "--epsilon", "0.5", "--out", out]),
    ("resist", ["resist", path, "--epsilon", "0.5", "--c-resist", "1", "--out", out]),
]
for name, argv in steps:
    code = main(argv)
    assert code == 0, f"{name} exit {code}"
    assert "scipy.linalg" not in sys.modules, f"loaded by {name}"
"""


def test_cli_and_sparsify_run_without_scipy(tmp_path):
    # a fresh process: the test session itself has scipy loaded; sparsify,
    # verify, sketch and resist each run a walk or a check
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    files = [str(tmp_path / name) for name in ("k16.txt", "out.txt", "vecs.txt")]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, *files],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
