"""Independent certification of sparsifier outputs.

Every check recomputes its quantities from scratch (pseudoinverse square
roots, kernel bases, quadratic forms) so a report never trusts anything the
construction pipeline produced along the way.  Reports are pure functions
of their inputs and serialize to JSON with a stable key order.  The five
graph checks measure their error and take the rest of the report (degree
deviation, support size) from one builder, `_graph_report`.  The sketch and
resistance errors are `graph.sketch_error` and `graph.resistance_error`, the
measures the halving rounds record.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import graph as graph_mod
from . import linalg
from .errors import InvalidInput

DEGREE_TOL = 1e-6
KERNEL_RTOL = 1e-8


@dataclass(frozen=True)
class ApproxReport:
    """Outcome of one approximation check.

    passed requires the measured error to meet the target, the kernel
    inclusions of the matrix-approximation definition to hold, and the
    weighted degrees to agree within DEGREE_TOL times degree_scale, the
    input's largest weighted out- or in-degree, so the verdict does not
    change with the scale of the weights.  degree_scale is not reported.
    """

    kind: str
    target: float
    measured_eps: float
    kernel_ok: bool
    degree_max_dev: float
    support_size: int
    degree_scale: float = 1.0

    @property
    def passed(self):
        return (
            self.measured_eps <= self.target
            and self.kernel_ok
            and self.degree_max_dev <= DEGREE_TOL * self.degree_scale
        )

    def to_dict(self):
        fields = asdict(self)
        del fields["degree_scale"]
        return {**fields, "pass": self.passed}


def check_matrix_approx(a, a_tilde, e_mat, f_mat, target):
    """Matrix-approximation check: ||E^{+/2}(A - At)F^{+/2}|| and kernels.

    e_mat and f_mat must be PSD error matrices; the kernel conditions are
    ker(E) inside ker((A - At)^T) and ker(F) inside ker(A - At), tested on
    an orthonormal basis of each kernel with residuals up to
    KERNEL_RTOL * ||A||, so the verdict does not change with the input's scale.
    """
    a = np.asarray(a, dtype=float)
    a_tilde = np.asarray(a_tilde, dtype=float)
    diff = a - a_tilde
    eh = linalg.matrix_function(e_mat, "pinv_sqrt")
    fh = linalg.matrix_function(f_mat, "pinv_sqrt")
    measured = linalg.spectral_norm(eh @ diff @ fh)
    tol = KERNEL_RTOL * linalg.spectral_norm(a)
    kernel_ok = all(
        np.all(np.linalg.norm(mat @ linalg.kernel_basis(err), axis=0) <= tol)
        for err, mat in ((e_mat, diff.T), (f_mat, diff))
    )
    return ApproxReport("standard", float(target), measured, kernel_ok, 0.0, 0)


def _require_comparable(g, g_tilde):
    """A candidate is checked only on the vertex set and orientation of g."""
    if g.n != g_tilde.n or g.directed != g_tilde.directed:
        raise InvalidInput(
            f"graphs differ: n {g.n} against {g_tilde.n}, "
            f"directed {g.directed} against {g_tilde.directed}"
        )


def _graph_report(kind, g, g_tilde, target, measured, kernel_ok=True):
    """Report of a check of g_tilde against g: the measured error, the
    largest change of an out- or in-degree (both are the weighted degrees
    of an undirected graph), the edge count of g_tilde, and the largest
    out- or in-degree of g as the degree scale."""
    out_d, in_d = g.out_degrees(), g.in_degrees()
    dev = max(
        float(np.max(np.abs(out_d - g_tilde.out_degrees()), initial=0.0)),
        float(np.max(np.abs(in_d - g_tilde.in_degrees()), initial=0.0)),
    )
    scale = float(max(np.max(out_d, initial=0.0), np.max(in_d, initial=0.0)))
    return ApproxReport(kind, float(target), measured, kernel_ok, dev, g_tilde.m, scale)


def _laplacian_approx(g, g_tilde, target, unsigned=False):
    """`check_matrix_approx` of g_tilde's Laplacian against g's L, with L as
    both error matrices (with unsigned, of the unsigned Laplacians), after
    the kernel count of `graph.require_numerically_connected`."""
    lap = graph_mod.require_numerically_connected(g, unsigned)
    lap_t = g_tilde.unsigned_laplacian() if unsigned else g_tilde.laplacian()
    return check_matrix_approx(lap, lap_t, lap, lap, target)


def check_spectral(g, g_tilde, target):
    """Relative spectral error ||L^{+/2}(L - L_hat)L^{+/2}|| of a reweighted
    subgraph, plus degree preservation."""
    _require_comparable(g, g_tilde)
    rep = _laplacian_approx(g, g_tilde, target)
    return _graph_report("spectral", g, g_tilde, target, rep.measured_eps, rep.kernel_ok)


def check_uc_undirected(g, g_tilde, target):
    """Unit-circle check: the Laplacian L and the unsigned Laplacian U, each
    approximated in the sense of `check_matrix_approx`, kernels included;
    the report takes the larger error, and both kernel inclusions must hold."""
    _require_comparable(g, g_tilde)
    reps = [_laplacian_approx(g, g_tilde, target, unsigned) for unsigned in (False, True)]
    measured = max(r.measured_eps for r in reps)
    return _graph_report("uc", g, g_tilde, target, measured, all(r.kernel_ok for r in reps))


def check_sv(g, g_tilde, target):
    """Singular-value approximation check with error matrices
    E = D_out - A D_in^+ A^T and F = D_in - A^T D_out^+ A of the input."""
    _require_comparable(g, g_tilde)
    e_mat, f_mat = graph_mod.sv_error_matrices(g)
    rep = check_matrix_approx(g.adjacency(), g_tilde.adjacency(), e_mat, f_mat, target)
    return _graph_report("sv", g, g_tilde, target, rep.measured_eps, rep.kernel_ok)


def check_sketch(g, g_tilde, vectors, target):
    """Worst relative quadratic-form deviation over the constraint vectors
    (`graph.sketch_error`, which skips the near-zero forms)."""
    _require_comparable(g, g_tilde)
    error = graph_mod.sketch_error(g, g_tilde, graph_mod.check_vectors(vectors, g.n))
    return _graph_report("sketch", g, g_tilde, target, error)


def effective_resistance_report(g, g_tilde):
    """Worst |R_tilde(i,j)/R(i,j) - 1| over the pairs of each connected
    component of the input, inf where the reweighted graph disconnects one
    (`graph.resistance_error`)."""
    _require_comparable(g, g_tilde)
    return graph_mod.resistance_error(g, g_tilde)


def check_resistance(g, g_tilde, target):
    return _graph_report("resistance", g, g_tilde, target, effective_resistance_report(g, g_tilde))


def brute_force_min_discrepancy(mats):
    """Exhaustive minimum of ||sum x(i) A_i||_op over full sign colorings.

    Fixes x(0) = +1 (global sign symmetry) and enumerates the remaining
    coordinates lexicographically with +1 before -1; the first minimizer
    encountered is returned, which makes ties deterministic.
    """
    mats = [linalg.sym(np.asarray(a, dtype=float)) for a in mats]
    m = len(mats)
    if m == 0:
        raise InvalidInput("empty family")
    if m > 20:
        raise InvalidInput("brute force is limited to m <= 20")
    stack = np.stack(mats)
    best_val = np.inf
    best_x = None
    for bits in itertools.product((1.0, -1.0), repeat=m - 1):
        x = np.concatenate(([1.0], bits))
        val = linalg.operator_norm(np.einsum("i,ijk->jk", x, stack))
        if val < best_val - 1e-15:
            best_val = val
            best_x = x
    return best_x, float(best_val)
