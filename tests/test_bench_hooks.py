"""The benchmark's tracing hooks (bench/spans.py) name attributes that exist
and see the calls they time."""

import importlib
import importlib.util
import os

import numpy as np
import scipy.linalg

from walksparse.matrix_walk import WalkLog
from walksparse.vector_walk import vector_partial_color

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


def test_vector_walk_looks_up_scipy_eigh_per_call(monkeypatch):
    # bench/spans.py times the eigen-cut by patching scipy.linalg.eigh; a
    # reference bound before the patch would leave eigsolve_s at zero
    calls = []
    original = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    log = WalkLog()
    vector_partial_color(np.random.default_rng(0).normal(size=(60, 20)), log=log)
    assert log.iterations > 0
    assert len(calls) == log.iterations
    assert calls[0] == (20, 20)
