"""The benchmark's tracing hooks (bench/spans.py) name attributes that exist
and see the calls they time."""

import ast
import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

from conftest import complete_graph, dumbbell_graph
from walksparse import cli, matrix_walk, sketches, sparsify
from walksparse.graph import Graph

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
BENCH_TEST = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "test_bench.py")
WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_module("bench_spans", SPANS)


def test_every_patched_name_resolves():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in load_spans().PATCHES
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert not missing, f"bench/spans.py patches names that do not exist: {missing}"


def resolves(module_name, attr):
    """module_name.attr is an attribute or a submodule."""
    if hasattr(importlib.import_module(module_name), attr):
        return True
    try:
        importlib.import_module(f"{module_name}.{attr}")
    except ImportError:
        return False
    return True


def test_every_name_the_bench_test_imports_resolves():
    # bench/test_bench.py is outside the tier-1 suite, so a deleted package
    # name it imports would otherwise go unnoticed
    with open(BENCH_TEST, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "walksparse"
        for alias in node.names
    ]
    assert ("walksparse.matrix_walk", "WalkOptions") in imported
    missing = [f"{m}.{name}" for m, name in imported if not resolves(m, name)]
    assert not missing, f"bench/test_bench.py imports names that do not exist: {missing}"


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
    # module globals at call time; a round that raises SubspaceExhausted
    # is one call more than the rounds that ran.  Its family, piece and
    # prepare spans time the other names counted here, which the pipeline
    # drivers must look up at call time too
    walks = counting(monkeypatch, sparsify, "partial_color")
    families = counting(monkeypatch, sparsify, "spectral_family")
    subspaces = counting(monkeypatch, sparsify, "degree_subspace")
    # two components: K_16 and K_12 on vertices 16..27
    k12 = [(16 + u, 16 + v, w) for u, v, w in complete_graph(12).edges]
    g = Graph(28, complete_graph(16).edges + tuple(k12))
    res = sparsify.spectral_sparsify(g, 0.45, c_support=1.0)
    assert res.pieces == 2 and res.rounds > 0 and len(walks) == res.rounds
    assert len(families) == len(subspaces) == res.pieces

    rounds = counting(monkeypatch, sketches, "_combined_round")
    expanders = counting(monkeypatch, sketches, "sketch_expander")
    prepares = counting(monkeypatch, sketches, "prepare_constraints")
    loops = counting(monkeypatch, sketches, "_walk_loop")
    kvecs = np.random.default_rng(0).normal(size=(30, 12))
    for run, walks_a_family in (
        (lambda: sketches.sketch(complete_graph(12), kvecs, 1.5), False),
        (lambda: sketches.resistance_sparsify(complete_graph(12), 1.9), True),
    ):
        for calls in (rounds, prepares, loops, families):
            calls.clear()
        res = run()
        assert res.pieces == 1 and res.rounds > 0
        assert len(rounds) == res.rounds + (res.stopped_early is not None)
        # one prepare per round that walks
        assert len(prepares) == len(loops) >= res.rounds
        # the resist rounds walk their piece's spectral family, built once
        assert len(families) == (res.pieces if walks_a_family else 0)
    expanders.clear()
    kvecs = np.random.default_rng(1).normal(size=(60, 16))
    res = sketches.sketch(dumbbell_graph(8), kvecs, 0.3, phi_target=0.1)
    assert res.pieces >= 2 and len(expanders) == res.pieces


@pytest.mark.parametrize("run", [
    lambda: sparsify.spectral_sparsify(complete_graph(16), 0.45, c_support=1.0),
    lambda: sparsify.uc_sparsify(complete_graph(14), 0.5, c_support=0.5),
    # K_12,12 less a perfect matching: a connected bipartite expander
    lambda: sparsify.sv_sparsify_expander(
        Graph(24, tuple((i, 12 + (i + k) % 12, 1.0) for i in range(12) for k in range(11))),
        0.5, c_support=1.0),
    lambda: sketches.sketch(complete_graph(16), np.random.default_rng(0).normal(size=(20, 16)),
                            0.5),
    lambda: sketches.resistance_sparsify(complete_graph(12), 1.9),
], ids=["spectral", "uc", "sv", "sketch", "resist"])
def test_every_pipeline_has_the_round_fields_the_bench_reads(run):
    # bench/test_bench.py sums walk_iterations over PipelineResult.diagnostics
    # and compares PipelineResult.rounds with its own round count
    res = run()
    assert res.rounds == len(res.diagnostics) > 0
    assert all(isinstance(r.walk_iterations, int) and r.walk_iterations > 0
               for r in res.diagnostics)


def test_the_cli_parses_every_bench_command_line(tmp_path):
    # a renamed or deleted flag would otherwise show only as bench runs
    # that exit 2; each job's own command and its `verify` re-check
    workloads = load_module("bench_workloads", WORKLOADS)
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 1, str(tmp_path / workload)):
            out, report = str(tmp_path / "out.txt"), str(tmp_path / "report.json")
            recheck = ["verify", job.graph, out, "--kind", job.verify_kind,
                       "--epsilon", "0.25", "--report", report]
            if job.vectors:
                recheck += ["--vectors", job.vectors]
            for argv in (job.argv(out, report), recheck):
                assert parser.parse_args(argv).command == argv[0]
