"""Deterministic multiplicative-weights vector-discrepancy walk.

Given constraint vectors a_1..a_k in R^m (k >= m), the walk produces a
partial coloring x in [-1,1]^m with at least m/4 frozen coordinates and

    |<a_i, x>| <= C_disc * ||a_i||_2 * max(1, sqrt(log(k/m)))  for all i,

with C_disc calibrated once against a Gaussian oracle family (the tests use 12).
The walk tracks the exponential potential sum_i exp(lambda0 <a_i/||a_i||, x>
- lambda0^2) and keeps the update direction orthogonal to the potential
gradient void of the heaviest constraints, inside the low eigenspace of the
weighted second-moment matrix of the constraint directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_walk
from .errors import InvalidInput

_DROP_NORM = 1e-12


def default_lambda0(k, m):
    """max(1, sqrt(log(k/m))), with the log clamped at zero for k <= m."""
    if k <= 0 or m <= 0:
        return 1.0
    return float(max(1.0, np.sqrt(max(0.0, np.log(k / m)))))


def prepare_constraints(vectors, m=None):
    """Drop zero constraint vectors and normalize the rest to unit rows."""
    a = np.asarray(vectors, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInput("constraint vectors have non-finite entries")
    if m is not None and a.shape[0] and a.shape[1] != m:
        raise InvalidInput("constraint vector length mismatch")
    if a.shape[0] == 0:
        return a
    norms = np.linalg.norm(a, axis=1)
    keep = norms > _DROP_NORM
    return a[keep] / norms[keep, None]


@dataclass
class MwuOptions:
    """Vector-walk switch.

    lambda0 is max(1, sqrt(log(k/m))).  The step is capped by the
    admissibility condition lambda0 * delta * max_i |<a_i_hat, y>| <= 1/2;
    with adaptive_steps (default) the cap is met with equality unless the
    box boundary is closer, otherwise a fixed 1/(2 lambda0) cap is used.
    """

    adaptive_steps: bool = True


def vector_partial_color(
    vectors,
    extra=None,
    options=None,
    log=None,
    require_k_ge_m=True,
):
    """Partial coloring with small discrepancy against all constraint vectors.

    vectors: (k, m) array of constraint vectors (zero rows are dropped).
    extra: optional Subspace the coloring must lie in.
    require_k_ge_m: the guarantee is stated for k >= m; pipelines that
    legitimately run with fewer constraints pass False (the bound's log
    factor is clamped at 1).
    """
    a = np.asarray(vectors, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[0] and not np.all(np.isfinite(a)):
        raise InvalidInput("constraint vectors have non-finite entries")
    m = a.shape[1] if extra is None else extra.ambient_dim
    if a.shape[0] and extra is not None and a.shape[1] != m:
        raise InvalidInput("constraint length does not match the subspace ambient dim")
    if require_k_ge_m and a.shape[0] < m:
        raise InvalidInput(f"need at least m={m} constraint vectors, got {a.shape[0]}")
    options = options or MwuOptions()
    unit = prepare_constraints(a, m)
    k = unit.shape[0]
    lambda0 = default_lambda0(k, m)
    # the heaviest tenth of the constraints and the top tenth of the
    # weighted second-moment eigenspace are cut from the update subspace
    tenth = lambda mt: int(np.ceil(0.1 * mt))
    side = matrix_walk._VectorSide(unit, lambda0, heavy_count=tenth, cut_count=tenth)
    extra_rows = extra.complement_rows if extra is not None else np.zeros((0, m))
    return matrix_walk._walk_loop(
        m, [side], extra_rows, 1.0 / (2.0 * lambda0), options.adaptive_steps, log
    )


def discrepancy_ratios(vectors, x):
    """|<a_i, x>| / ||a_i|| for each nonzero constraint vector."""
    a = np.asarray(vectors, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    norms = np.linalg.norm(a, axis=1)
    keep = norms > _DROP_NORM
    if not np.any(keep):
        return np.zeros(0)
    return np.abs(a[keep] @ x) / norms[keep]
