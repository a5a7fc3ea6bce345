"""The benchmark's tracing hooks (bench/spans.py) name attributes that exist
and see the calls they time."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from conftest import complete_graph
from walksparse import matrix_walk, sketches, sparsify

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


@pytest.mark.parametrize(
    "module,run",
    [
        (sketches, lambda: sketches.sketch(
            complete_graph(16), np.random.default_rng(0).normal(size=(20, 16)), 0.5)),
        (matrix_walk, lambda: sparsify.spectral_sparsify(complete_graph(16), 0.45, c_support=1.0)),
        (sketches, lambda: sketches.resistance_sparsify(complete_graph(12), 1.9)),
    ],
    ids=["sketch", "spectral", "resist"],
)
def test_walk_makes_one_svd_per_iteration(monkeypatch, module, run):
    # bench/spans.py counts matrix_walk.iterations as numpy.linalg.svd calls
    # directly under a walk span, so each iteration must make exactly one;
    # `module` is where the walk's caller looks up `_walk_loop`
    calls, walks = [], []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    walk_loop = module._walk_loop

    def walk(m, sides, extra_rows, adaptive_steps, log):
        log = log or matrix_walk.WalkLog()
        before = len(calls)
        x = walk_loop(m, sides, extra_rows, adaptive_steps, log)
        walks.append((len(calls) - before, log.iterations))
        return x

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(module, "_walk_loop", walk)
    run()
    assert walks and all(iterations > 0 for _, iterations in walks)
    assert all(made == iterations for made, iterations in walks)


def counting(monkeypatch, module, attr):
    """Replace module.attr with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_rounds_call_the_patched_names(monkeypatch):
    # bench/spans.py counts sparsify.rounds as partial_color calls and
    # sketches.rounds as _combined_round calls, looked up through these
    # module globals at call time; a round that returns its stop reason
    # is one call more than the rounds that ran
    walks = counting(monkeypatch, sparsify, "partial_color")
    res = sparsify.spectral_sparsify(complete_graph(16), 0.45, c_support=1.0)
    assert res.rounds > 0 and len(walks) == res.rounds

    rounds = counting(monkeypatch, sketches, "_combined_round")
    kvecs = np.random.default_rng(0).normal(size=(30, 12))
    for run in (
        lambda: sketches.sketch(complete_graph(12), kvecs, 1.5),
        lambda: sketches.resistance_sparsify(complete_graph(12), 1.9),
    ):
        rounds.clear()
        res = run()
        assert res.pieces == 1 and res.rounds > 0
        assert len(rounds) == res.rounds + (res.stopped_early is not None)
