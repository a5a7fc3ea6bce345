"""Module layering: the construction modules never import the certifier.

`verify` is the one place outputs are measured, so neither the walks nor
the pipelines built on them may reach it, directly or through another
walksparse module.
"""

import ast
import pathlib

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


@pytest.mark.parametrize("module", ["sparsify", "sketches", "matrix_walk", "vector_walk"])
def test_construction_does_not_import_verify(module):
    assert "walksparse.verify" not in reachable(f"walksparse.{module}")


def test_cli_reaches_verify():
    # the check itself: an import of verify is found when there is one
    assert "walksparse.verify" in reachable("walksparse.cli")
