#!/usr/bin/env python3
"""Sweep the halving-loop threshold on complete graphs and report quality.

Prints, per (eps, c_support) cell: rounds run, final support, measured
relative spectral error, the worst weighted-degree deviation, and the stop
reason of a loop that ended before its threshold.  Errors and supports are
measured by `walksparse.verify` on the output graph.
"""

import numpy as np

from walksparse import verify
from walksparse.graph import Graph
from walksparse.sparsify import spectral_sparsify, uc_sparsify


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def main():
    print("spectral sparsifier, K_16 (m = 120)")
    print(f"{'eps':>6} {'c':>6} {'thr':>8} {'rounds':>6} {'supp':>5} "
          f"{'measured':>9} {'deg dev':>9}  stopped early")
    g = complete_graph(16)
    for eps, c in [(0.5, 1024.0), (0.45, 1.5), (0.45, 1.0), (0.4, 1.0)]:
        res = spectral_sparsify(g, eps, c_support=c)
        rep = verify.check_spectral(g, res.graph, target=eps)
        print(f"{eps:>6} {c:>6} {c * g.n / eps**2:>8.1f} {res.rounds:>6} "
              f"{rep.support_size:>5} {rep.measured_eps:>9.4f} {rep.degree_max_dev:>9.2e}"
              f"  {res.stopped_early or '-'}")

    print()
    print("unit-circle sparsifier, K_16")
    uns = g.unsigned_laplacian()
    for eps, c in [(0.5, 1024.0), (0.45, 0.6)]:
        res = uc_sparsify(g, eps, c_support=c)
        l_err = verify.check_spectral(g, res.graph, target=eps).measured_eps
        u_err = verify.check_matrix_approx(
            uns, res.graph.unsigned_laplacian(), uns, uns, target=eps
        ).measured_eps
        print(f"eps={eps} c={c}: rounds={res.rounds} supp={res.graph.m} "
              f"L-err={l_err:.4f} U-err={u_err:.4f} stopped early: {res.stopped_early or '-'}")


if __name__ == "__main__":
    main()
