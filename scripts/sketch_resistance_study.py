#!/usr/bin/env python3
"""Run the sketch and effective-resistance pipelines at the desk-scale sizes
and print measured accuracy against the constant-factor budgets.  Every
figure is measured by `walksparse.verify` on the output graph."""

import time

import numpy as np

from walksparse import verify
from walksparse.graph import Graph
from walksparse.sketches import resistance_pairs, resistance_sparsify, sketch


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def main():
    g = complete_graph(32)
    rng = np.random.default_rng(123)
    kvecs = rng.normal(size=(600, 32))
    kvecs /= np.linalg.norm(kvecs, axis=1)[:, None]
    eps = 0.25
    t0 = time.time()
    res = sketch(g, kvecs, eps)
    print(f"sketch K_32, |K|=600, eps={eps}: {time.time() - t0:.1f}s")
    print(f"  edges {g.m} -> {res.graph.m} over {res.rounds} rounds "
          f"({res.pieces} pieces)")
    rep = verify.check_sketch(g, res.graph, kvecs, target=4 * eps)
    print(f"  worst quadratic-form ratio deviation {rep.measured_eps:.4f} "
          f"(budget {4 * eps})")
    print(f"  degree deviation {rep.degree_max_dev:.2e}")

    g = complete_graph(24)
    t0 = time.time()
    rres = resistance_sparsify(g, eps)
    print(f"resistance K_24, eps={eps}: {time.time() - t0:.1f}s")
    print(f"  edges {g.m} -> {rres.graph.m} over {rres.rounds} rounds")
    worst = verify.effective_resistance_report(g, rres.graph)
    spectral_eps = verify.check_spectral(g, rres.graph, target=np.inf).measured_eps
    kvecs = resistance_pairs(g)
    sketch_eps = verify.check_sketch(g, rres.graph, kvecs, target=np.inf).measured_eps
    print(f"  worst resistance ratio deviation {worst:.4f} (budget {4 * eps})")
    print(f"  premises: spectral {spectral_eps:.4f} (budget {4 * np.sqrt(eps):.2f}), "
          f"sketch {sketch_eps:.4f} (budget {4 * eps})")


if __name__ == "__main__":
    main()
