"""The benchmark's tracing hooks (bench/spans.py) name attributes that exist."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in load_spans().PATCHES
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert not missing, f"bench/spans.py patches names that do not exist: {missing}"
