"""Fast checks of the benchmark itself, on tiny instances.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from walksparse import sketches, sparsify  # noqa: E402
from walksparse.graph import Graph  # noqa: E402
from walksparse.matrix_walk import WalkLog, WalkOptions  # noqa: E402

TINY = {
    "SPECTRAL_COMPLETE_N": 12,
    "SPECTRAL_RANDOM_N": 14,
    "SPECTRAL_RANDOM_M": 50,
    "SKETCH_COMPLETE_N": 12,
    "SKETCH_VECTORS": 30,
    "SKETCH_JOBS": 1,
    "RESIST_COMPLETE_N": 14,
}


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    for var in worker.THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, workload, trace):
    record_path = tmp_path / "record.json"
    rc = worker.main([
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
        "--src", os.path.join(ROOT, "src"), "--work", str(tmp_path),
        "--record", str(record_path),
    ])
    assert rc == 0
    record = json.loads(record_path.read_text())
    result, info, problems = run.summarize(
        record, trace, 0.5, run.child_env(), str(tmp_path),
        str(tmp_path / "hashes.json"), "key",
    )
    assert problems == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(info["jobs"]) * (1 + trace)
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


def test_children_nest_inside_their_parents():
    g = complete_graph(14)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.job = "resist"
        with tracer.span("job"):
            sketches.resistance_sparsify(g, 0.25, sketches.SketchOptions(c_resist=1.0))
    by_id = {s.id: s for s in tracer.spans}
    assert {s.name for s in tracer.spans} >= {"walk", "numpy.svd", "scipy.eigh", "job"}
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.job == s.job
    own = spans.self_times(tracer.spans)
    assert all(v >= 0 for v in own.values())


def test_wrappers_are_removed_on_exit():
    before = np.linalg.svd, sparsify.partial_color, sketches._walk_loop
    with spans.installed(spans.Tracer()):
        assert np.linalg.svd is not before[0]
    assert (np.linalg.svd, sparsify.partial_color, sketches._walk_loop) == before


def test_iterations_match_partial_color_walk_log():
    g = complete_graph(12)
    family = sparsify.spectral_family(g)
    h = sparsify.degree_subspace(g)
    log = WalkLog()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        x = sparsify.partial_color(family, h, WalkOptions(adaptive_steps=True), log)
    metrics = spans.layer_metrics(tracer.spans)
    assert log.iterations > 0
    assert metrics["matrix_walk.iterations"] == log.iterations
    frozen = int(np.count_nonzero(np.abs(x) == 1.0))
    assert metrics["matrix_walk.frozen_per_iter"] == frozen / log.iterations


def test_iterations_match_sketch_round_diagnostics():
    g = complete_graph(12)
    rng = np.random.default_rng(5)
    kvecs = workloads.unit_vectors(30, 12, rng)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        res = sketches.sketch(g, kvecs, 0.25)
    metrics = spans.layer_metrics(tracer.spans)
    walked = sum(d.walk_iterations for d in res.diagnostics)
    assert res.rounds > 0 and walked > 0
    assert metrics["matrix_walk.iterations"] == walked
    assert metrics["sketches.rounds"] == res.rounds


def test_inputs_repeat_for_a_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.make_jobs(workload, 7, str(tmp_path / "a"))
        b = workloads.make_jobs(workload, 7, str(tmp_path / "b"))
        for ja, jb in zip(a, b):
            assert open(ja.graph).read() == open(jb.graph).read()
            if ja.vectors:
                assert open(ja.vectors).read() == open(jb.vectors).read()
