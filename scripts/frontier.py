#!/usr/bin/env python3
"""The certified frontier: each halving round's (support, error) on a fixed
ladder of runs, and the smallest support certified at each target eps.

Usage:
    python3 scripts/frontier.py

Every run halves until its walk stops: its threshold is below one edge, so
the rounds do not depend on the target.  A round's error is its
`Round.error`, the exact error of its weights on its piece, which on a
one-piece run is `verify`'s measured eps of that round's output (the
spectral error for `spectral`, the larger of the L and U errors for `uc`,
the sketch error for `sketch`, the resistance error for `resist`).  The
smallest certified support at eps is the smallest support among the input
(error 0) and the rounds whose error is at most eps.  A run of several
pieces prints its rounds but no frontier, since its round errors are each
piece's own.

The ladder:
  - `spectral` on K_24, K_32, K_40 and the benchmark's lognormal graphs
    (n 44, m 317) of seeds 4 to 8;
  - `uc` on K_32;
  - `sketch` on the benchmark's K_24 jobs of seeds 4 to 6, three vector
    sets of 2000 unit vectors each;
  - `resist` on K_22, K_26 and a seeded G(32, 0.7).
Seeds 4 and up of the benchmark's generators are the inputs that the
benchmark's own pairs use least.  Everything runs at one BLAS thread, as
the CLI does.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from walksparse.cli import load_graph, load_vectors  # noqa: E402
from walksparse.graph import Graph  # noqa: E402
from walksparse.linalg import one_blas_thread  # noqa: E402
from walksparse.sketches import resistance_sparsify, sketch_expander  # noqa: E402
from walksparse.sparsify import spectral_sparsify, uc_sparsify  # noqa: E402
from workloads import make_jobs  # noqa: E402

TARGETS = (0.25, 0.35, 0.45)
# a halving constant that puts every threshold below one edge
BELOW_ONE_EDGE = 1e-9


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def gnp(n, p, seed):
    """G(n, p): each pair i < j an edge with probability p, from one seeded stream."""
    rng = np.random.default_rng(seed)
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p))


def run(pipeline, g, vectors=None):
    """The PipelineResult of `pipeline` on g, halving until its walk stops."""
    if pipeline == "spectral":
        return spectral_sparsify(g, 0.5, c_support=BELOW_ONE_EDGE)
    if pipeline == "uc":
        return uc_sparsify(g, 0.5, c_support=BELOW_ONE_EDGE)
    if pipeline == "sketch":
        # sketch_expander's threshold is n f / eps
        return sketch_expander(g, vectors, 1.0 / BELOW_ONE_EDGE)
    if pipeline == "resist":
        return resistance_sparsify(g, 0.25, c_resist=BELOW_ONE_EDGE)
    raise ValueError(f"unknown pipeline {pipeline!r}")


def certified(m, rounds, eps):
    """Smallest support among the input (m edges, error 0) and the rounds
    whose error is at most eps."""
    return min([m, *(r.support for r in rounds if r.error <= eps)])


def ladder(directory):
    """(pipeline, name, graph, vectors) of every run; writes the benchmark's
    inputs under directory."""
    runs = [("spectral", f"K_{n}", complete_graph(n), None) for n in (24, 32, 40)]
    for seed in range(4, 9):
        job = make_jobs("spectral", seed, os.path.join(directory, f"spectral-{seed}"))[1]
        runs.append(("spectral", f"lognormal s{seed}", load_graph(job.graph), None))
    runs.append(("uc", "K_32", complete_graph(32), None))
    for seed in range(4, 7):
        for job in make_jobs("sketch", seed, os.path.join(directory, f"sketch-{seed}")):
            g = load_graph(job.graph)
            runs.append(("sketch", f"{job.name} s{seed}", g, load_vectors(job.vectors, g.n)))
    runs += [("resist", f"K_{n}", complete_graph(n), None) for n in (22, 26)]
    runs.append(("resist", "G(32, 0.7)", gnp(32, 0.7, 11), None))
    return runs


def main():
    rows = []
    with tempfile.TemporaryDirectory() as tmp, one_blas_thread():
        for pipeline, name, g, vectors in ladder(tmp):
            res = run(pipeline, g, vectors)
            rounds = " ".join(f"{r.support}/{r.error:.4f}" for r in res.diagnostics)
            print(f"{pipeline} {name} (n {g.n}, m {g.m}, {res.pieces} piece(s)): {rounds}")
            print(f"  stop: {res.stopped_early or 'threshold'}")
            if res.pieces == 1:
                rows.append((pipeline, name, [certified(g.m, res.diagnostics, eps)
                                              for eps in TARGETS]))
    print()
    print("smallest certified support")
    print(f"{'pipeline':<9} {'graph':<16}" + "".join(f" {f'eps {eps}':>9}" for eps in TARGETS))
    for pipeline, name, supports in rows:
        print(f"{pipeline:<9} {name:<16}" + "".join(f" {s:>9}" for s in supports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
