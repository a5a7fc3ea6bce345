"""Deterministic multiplicative-weights vector-discrepancy walk.

Given constraint vectors a_1..a_k in R^m (k >= m), the walk produces a
partial coloring x in [-1,1]^m with at least m/4 frozen coordinates and

    |<a_i, x>| <= C_disc * ||a_i||_2 * max(1, sqrt(log(k/m)))  for all i,

with C_disc calibrated once against a Gaussian oracle family (the tests use 12).
The walk tracks the exponential potential sum_i exp(lambda0 <a_i/||a_i||, x>
- lambda0^2), keeps the update direction orthogonal to its gradient and to
the heaviest constraints, and certifies y^T G y <= tr G/(cut + 1) ||y||^2
for the weighted second-moment matrix G of the constraint directions.
`prepare_constraints` decides which rows are zero, relative to their scale.
"""

from __future__ import annotations

import numpy as np

from . import matrix_walk
from .errors import InvalidInput

def prepare_constraints(vectors, scale=None):
    """(unit rows, row norms, kept mask) of the rows of vectors (1-D: one row).

    The one zero-row rule: a row is dropped when its norm is at most
    _ROW_DROP_TOL times its scale (a number or one per row; default the
    largest row norm).  The unit rows are one new C-ordered array.
    """
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    if not np.all(np.isfinite(a)):
        raise InvalidInput("constraint vectors have non-finite entries")
    norms = np.linalg.norm(a, axis=1)
    if scale is None:
        scale = np.max(norms, initial=0.0)
    kept = norms > matrix_walk._ROW_DROP_TOL * scale
    # a[kept] is one new C-ordered copy, also of F-ordered rows: divide in place
    unit = a[kept]
    unit /= norms[kept, None]
    return unit, norms, kept


def vector_partial_color(vectors, extra=None, log=None):
    """Partial coloring with small discrepancy against all constraint vectors.

    vectors: (k, m) array of constraint vectors (zero rows, relative to the
    largest, are dropped), k >= m.  extra: optional Subspace the coloring must lie in.

    lambda0 is max(1, sqrt(log(k/m))).  Each step is the largest up to the
    box boundary whose exact potential increase
    sum_i w_i (e^{t_i} - 1 - t_i), t_i = lambda0 delta <a_i_hat, y>, meets its
    bound lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2 (the walk's vector side).
    """
    unit, norms, _ = prepare_constraints(vectors)
    m = unit.shape[1] if extra is None else extra.ambient_dim
    if len(norms) < m:
        raise InvalidInput(f"need at least m={m} constraint vectors, got {len(norms)}")
    if len(norms) and unit.shape[1] != m:
        raise InvalidInput("constraint vector length mismatch")
    # the heaviest tenth of the constraints are cut from the update subspace,
    # and y^T G y is held to tr G / (cut + 1) with cut a tenth of m_t
    tenth = lambda mt: int(np.ceil(0.1 * mt))
    side = matrix_walk._VectorSide(unit, budget=tenth)
    extra_rows = extra.complement_rows if extra is not None else np.zeros((0, m))
    return matrix_walk._walk_loop(m, [side], extra_rows, True, log)


def discrepancy_ratios(vectors, x):
    """|<a_i, x>| / ||a_i|| for each constraint vector that
    `vector_partial_color` keeps (the nonzero rows)."""
    unit, _, _ = prepare_constraints(vectors)
    return np.abs(unit @ x)
