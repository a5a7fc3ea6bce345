"""Every script under scripts/ still loads against the current package.

Loading runs a script's imports and top-level definitions but not `main`,
so a renamed or removed package name fails here rather than when the
script is next run by hand.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_scripts_found():
    assert len(SCRIPTS) >= 4
