#!/usr/bin/env python3
"""Trace one matrix partial-coloring walk and one vector walk, and print
per-iteration invariants.

Usage: python scripts/walk_trace.py [m] [n] [seed]

The defaults m=40, n=8 have n(n+1)/2 > 2m/3, so N has no large kernel and
the steps move A(x).  The step figure is the walk's certified bound: the
Frobenius norm of M^(1/2) A(y) where that already allows the step, the
operator norm otherwise.  Besides the paper's invariants it prints the Lanczos
steps each direction took and the worst margin of the quadratic certificate
y^T N y <= tr N/(m_t - keep + 1) ||y||^2 (||y|| = 1).  The vector walk runs
`vector_partial_color` on 4m seeded Gaussian rows of length m and prints the
worst margin of its certificate y^T G y <= tr G/(cut + 1) ||y||^2, how many
steps the box boundary and how many the potential search set, and the worst
margin of the step rule sum_i w_i (e^t_i - 1 - t_i) <= lambda0^2 delta^2 W
tr G/(cut + 1) ||y||^2.
"""

import sys
import time

import numpy as np

from walksparse import linalg
from walksparse.matrix_walk import MatrixFamily, WalkLog, WalkOptions, discrepancy_ratios
from walksparse.matrix_walk import partial_color, vector_partial_color


def projection_vectors(n, m, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, m))
    return np.linalg.inv(linalg.matrix_function(b @ b.T, "sqrt_psd")) @ b


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed))
    bound = 16.0 * np.sqrt(2.0 * n / m)
    print(f"rank-one family: m={m}, n={n}, seed={seed}, norm budget {bound:.3f}")

    for adaptive in (False, True):
        log = WalkLog()
        t0 = time.time()
        x = partial_color(fam, options=WalkOptions(adaptive_steps=adaptive), log=log)
        dt = time.time() - t0
        frozen = int(np.count_nonzero(np.abs(x) == 1.0))
        print(f"adaptive={adaptive}: {dt:.2f}s, {log.iterations} iterations")
        print(f"  frozen {frozen}/{m}, ||A(x)|| = {fam.aggregate_norm(x):.6f}")
        print(f"  max linear term {max(abs(v) for v in log.linear_term):.2e}, "
              f"max certified step bound eta delta ||M^(1/2) A(y)|| "
              f"{max(log.step_norm):.4f} (cap 0.5)")
        worst_quad = max(
            q - 9.0 * np.sqrt(2.0 * n) / mt**2 for q, mt in zip(log.quad_term, log.m_t)
        )
        print(f"  worst quadratic-term slack {worst_quad:.2e} (must be <= 0)")
        steps = log.lanczos_steps
        print(f"  Lanczos steps per iteration: mean {np.mean(steps):.1f}, max {max(steps)}")
        margin = min(b - q for q, b in zip(log.quad_term, log.quad_bound))
        print(f"  worst certificate margin tr N/(m_t - keep + 1) - y^T N y = {margin:.2e} "
              f"(must be >= 0)")

    rows = np.random.default_rng(seed).normal(size=(4 * m, m))
    log = WalkLog()
    t0 = time.time()
    x = vector_partial_color(rows, log=log)
    dt = time.time() - t0
    frozen = int(np.count_nonzero(np.abs(x) == 1.0))
    print(f"vector walk, {4 * m} Gaussian rows: {dt:.2f}s, {log.iterations} iterations")
    print(f"  frozen {frozen}/{m}, max |<a_i, x>|/||a_i|| = "
          f"{np.max(discrepancy_ratios(rows, x)):.4f}")
    steps = log.lanczos_steps
    print(f"  Lanczos steps per iteration: mean {np.mean(steps):.1f}, max {max(steps)}")
    margin = min(b - q for q, b in zip(log.gram_term, log.gram_bound))
    print(f"  worst certificate margin tr G/(cut + 1) - y^T G y = {margin:.2e} (must be >= 0)")
    searched = sum(d < b for d, b in zip(log.delta, log.boundary))
    print(f"  steps set by the box boundary {log.iterations - searched}, "
          f"by the potential search {searched}")
    margin = min(b - v for v, b in zip(log.increase, log.increase_bound))
    worst = max(v / b for v, b in zip(log.increase, log.increase_bound) if b > 0)
    print(f"  worst step-rule margin increase bound - exact increase = {margin:.2e} "
          f"(must be >= 0; increase at most {worst:.3f} of its bound)")


if __name__ == "__main__":
    main()
