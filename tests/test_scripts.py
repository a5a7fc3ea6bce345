"""Every script under scripts/ still loads against the current package.

Loading runs a script's imports and top-level definitions but not `main`,
so a renamed or removed package name fails here rather than when the
script is next run by hand.  `walk_trace.py` also runs end to end, at a
small size, since it reads the walk log's fields.
"""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).parents[1] / "scripts").glob("*.py"))


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    assert callable(load_script(path).main)


def test_walk_trace_runs_and_its_certificates_hold():
    # the script reads the WalkLog fields the walks fill, so run it end to end
    # (a small size: one fixed-step, one adaptive and one vector walk)
    script = SCRIPTS[0].parent / "walk_trace.py"
    src = str(script.parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, str(script), "24", "4", "0"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    margins = [float(v) for v in re.findall(r"certificate margin [^=]*= (\S+)", proc.stdout)]
    assert len(margins) == 3
    assert min(margins) >= 0.0
    steps = re.findall(r"box boundary (\d+), by the potential search (\d+)", proc.stdout)
    assert len(steps) == 1 and sum(map(int, steps[0])) > 0
    increase = [float(v) for v in re.findall(r"step-rule margin [^=]*= (\S+)", proc.stdout)]
    assert len(increase) == 1 and increase[0] >= 0.0


def test_scripts_found():
    assert len(SCRIPTS) >= 4


def test_bench_pairs_snapshot_skips_ignored_files(tmp_path):
    bench_pairs = load_script(SCRIPTS[0].parent / "bench_pairs.py")
    root = pathlib.Path(bench_pairs.ROOT)
    cache = root / "src" / "walksparse" / "__pycache__"
    cache.mkdir(exist_ok=True)
    taken, tree = bench_pairs.snapshot(str(tmp_path))
    tree = pathlib.Path(tree)
    source = (root / "src" / "walksparse" / "matrix_walk.py").read_bytes()
    assert (tree / "src" / "walksparse" / "matrix_walk.py").read_bytes() == source
    assert not (tree / "src" / "walksparse" / "__pycache__").exists()
    assert not (tree / ".bench_work").exists()
    assert taken["files"] > 0 and len(taken["head"]) == 40


def bench_doc(failed, traced_failed=0):
    run = {"correct": True, "failed": failed, "metrics": {"wall_s": 1.0}}
    summary = {"wall_s": {"base": {"median": 1.0}, "change": {"median": 0.9},
                          "change_over_base": 0.9, "wins": 1, "losses": 0}}
    pairs = [{"base": dict(run, failed=0), "change": run}]
    layers = {"matrix_walk.iterations": 10, "matrix_walk.walk_s": 1.0,
              "matrix_walk.self_s": 0.25, "matrix_walk.null_solve_s": 0.1,
              "matrix_walk.ms_per_iter": 100.0}
    traced = {side: {"correct": True, "failed": 0, "metrics": layers} for side in ("base", "change")}
    traced["change"]["failed"] = traced_failed
    return {"workloads": {"spectral": {"pairs": pairs, "same_outputs": True,
                                       "summary": summary, "traced": traced}}}


def test_bench_pairs_report_exit_code(capsys):
    bench_pairs = load_script(SCRIPTS[0].parent / "bench_pairs.py")
    assert bench_pairs.report(bench_doc(failed=0)) == 0
    out = capsys.readouterr().out
    assert "wall_s: base 1 change 0.9 ratio 0.9000 wins 1/1" in out
    assert "traced seed 1: matrix_walk.iterations 10 -> 10" in out
    assert bench_pairs.report(bench_doc(failed=1)) == 1
    assert bench_pairs.report(bench_doc(failed=0, traced_failed=1)) == 1


def test_frontier_takes_the_smallest_round_within_each_target():
    from walksparse.sparsify import Round

    frontier = load_script(SCRIPTS[0].parent / "frontier.py")
    rounds = [Round(100, 0.2, 5), Round(80, 0.4, 4), Round(70, 0.3, 3)]
    assert [frontier.certified(120, rounds, eps) for eps in (0.1, 0.25, 0.35, 0.45)] == \
        [120, 100, 70, 70]
    # a run halves until its walk stops, whatever the target
    g = frontier.complete_graph(16)
    res = frontier.run("spectral", g)
    assert res.pieces == 1 and res.rounds >= 2 and res.stopped_early
    assert [r.support for r in res.diagnostics] == sorted(
        (r.support for r in res.diagnostics), reverse=True)
