"""Graphical spectral sketches and effective-resistance sparsifiers.

A sketch preserves the Laplacian quadratic form z^T L z for a fixed set of
constraint vectors.  Each halving round rewrites the sketch constraint for
a degree-preserving update x as a plain vector-discrepancy constraint

    sum_e x(e) s(e) <b_e, z>^2  =  -2 sum_{uv} x(u,v) s(u,v) zbar(u) zbar(v),

where zbar is z recentered so its degree-weighted mean vanishes, freezes
the high-weight edges and the edges at low support-degree vertices (the
freeze sets keep ||a_z|| <= 100 (n/m) zbar^T D zbar), and runs the
multiplicative-weights walk on the remaining coordinates, one walk per
edge chunk of about 4n support edges (one walk below 8n).  The identity
is linear in x, so the chunks' colorings add up to one round, whose
measured error certifies it.  Zero rows a_z and the certificates are
judged relative to each row's zbar^T D zbar, so a sketch does not change
with the scale of the vectors; a z constant on a piece up to rounding
gets zbar = 0 there.

The effective-resistance sparsifier runs the same loop with the constraint
set {L^+ b_ij} while simultaneously steering the matrix-discrepancy side of
the walk on {L^{+/2} b_e b_e^T L^{+/2}}, so the output is both a spectral
sparsifier and a sketch with respect to the resistance vectors.  General
graphs are handled piece by piece through the expander decomposition.
"""

from __future__ import annotations

import numpy as np

from . import graph as graph_mod
from . import linalg, sparsify
from .errors import InvalidInput, SubspaceExhausted, WalksparseError
from .matrix_walk import WalkLog, _MatrixSide, _VectorSide, _walk_loop
from .matrix_walk import check_family_norm, default_lambda0, prepare_constraints
from .sparsify import PipelineResult, _check_positive, _union_pieces, degree_rows, halve
from .sparsify import halve_support

NORM_CHAIN_CONST = 100.0
# support edges per non-isolated vertex in a walk chunk of `_combined_round`:
# a walk costs about k m_t^3, and a round of m_r >= 2 CHUNK_PER_VERTEX n edges
# walks two or more chunks.  At 4 the bench's K_24 `sketch` jobs (seeds 4-6,
# 1 BLAS thread, 2-vCPU x86_64) take 6.8 s, not 10.4 s whole, at worst error
# 0.255, not 0.336; 3 takes 5.1 s but raises `resist` K_22's error
# 0.094 -> 0.116, near the bench's 25% bound, where 4 reads 0.105
CHUNK_PER_VERTEX = 4
IDENTITY_RTOL = 1e-8
# zbar^T D zbar <= CONSTANT_RTOL z^T D z marks a row z constant on a piece:
# recentring cancels it to rounding error, about machine eps^2 (at most
# 4e-26 on the resistance rows of three K_14 in a path cut into pieces,
# against 9e-5 or more on the rows that vary on their piece)
CONSTANT_RTOL = 1e-20


def shift_center(z, g):
    """Recenter z (a vector or rows of vectors) so the degree-weighted
    entries of each sum to zero."""
    d = g.weighted_degrees()
    total = float(np.sum(d))
    if total <= 0:
        raise InvalidInput("graph has no edges")
    z = np.asarray(z, dtype=float)
    return z - (z @ d / total)[..., None]


def freeze_sets(g, s):
    """Classify the support into (E0 high-weight, E1 low-degree, Es rest).

    E0 holds support edges whose weight exceeds 10 d(v)/d_s(v) at either
    endpoint; E1 holds the remaining support edges incident to a vertex of
    support-degree at most m/(10 n); Es is everything else.  The three
    index arrays partition supp(s), and |E0| <= m/5, |E1| <= m/10.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (g.m,):
        raise InvalidInput("reweighting length mismatch")
    u, v, _ = g.edge_arrays()
    supp = s > 0
    d = g.weighted_degrees()
    d_s = np.bincount(np.concatenate([u[supp], v[supp]]), minlength=g.n).astype(float)
    safe = np.where(d_s > 0, d_s, 1.0)
    cap = 10.0 * d / safe
    e0 = supp & ((s > cap[u]) | (s > cap[v]))
    n_eff = max(1, len(g.non_isolated()))
    low = d_s <= g.m / (10.0 * n_eff)
    e1 = supp & ~e0 & (low[u] | low[v])
    es = supp & ~e0 & ~e1
    return np.flatnonzero(e0), np.flatnonzero(e1), np.flatnonzero(es)


def _require_sketchable(g):
    if g.directed:
        raise InvalidInput("sketches expect undirected graphs")
    if any(w != 1.0 for _, _, w in g.edges):
        raise InvalidInput("sketches expect unweighted input graphs")


def _degree_and_pin_rows(g, s, support, movable):
    """Static constraint rows for one round, in support coordinates:
    weighted-degree preservation plus the identity rows where not movable."""
    pin_pos = np.flatnonzero(~movable)
    pins = np.zeros((len(pin_pos), len(support)))
    pins[np.arange(len(pin_pos)), pin_pos] = 1.0
    return np.vstack([degree_rows(g, s)[:, support], pins])


def _constraint_matrix(zbar, g, s, support, movable):
    """Rows a_z over the support coordinates: s(e) zbar(u) zbar(v) where movable (Es)."""
    u, v, _ = g.edge_arrays()
    a = zbar[:, u[support]]
    a *= zbar[:, v[support]]
    a *= s[support]
    a[:, ~movable] = 0.0
    return a


def _check_norm_chain(norms, zbar_d, n_eff, m_r):
    """||a_z|| <= 100 (n/m) zbar^T D zbar, a consequence of the freeze sets,
    up to a rounding slack relative to the bound (0 for a constant z)."""
    bound = NORM_CHAIN_CONST * (n_eff / m_r) * zbar_d
    if np.any(norms - bound > 1e-9 * bound):
        raise WalksparseError("freeze-set norm bound violated")


def _check_courant_fischer(g, zbar, zbar_d, lam2):
    """zbar^T L zbar >= lambda_2 zbar^T D zbar for degree-orthogonal zbar.

    This is the variational characterization of lambda_2 of the normalized
    Laplacian; it ties the recentred quadratic forms used by the norm chain
    back to the sketch denominators.
    """
    lap = g.laplacian()
    z_lz = np.einsum("kn,kn->k", zbar @ lap, zbar)
    if np.any(z_lz < (lam2 - 1e-8) * zbar_d):
        raise WalksparseError("variational lower bound on the quadratic form failed")


def _check_identity(resid, zbar_d):
    """Per-round rewrite check: resid = sum_e x s <b_e, z>^2 + 2 <a_z, x> == 0, over each
    row's zbar_d, or unscaled at zbar_d = 0 (a constant z)."""
    worst = float(np.max(np.abs(resid) / np.where(zbar_d > 0, zbar_d, 1.0), initial=0.0))
    if worst > IDENTITY_RTOL:
        raise WalksparseError(f"degree-preserving rewrite failed: residual {worst:.3e}")


def _check_degrees_preserved(g, s):
    """Weighted degrees under the reweighting match the input degrees."""
    d = g.weighted_degrees()
    dev = float(np.max(np.abs(g.reweighted(s).weighted_degrees() - d), initial=0.0))
    if dev > 1e-7 * max(1.0, float(np.max(d, initial=1.0))):
        raise WalksparseError(f"degree preservation failed: deviation {dev:.3e}")


def sketch_expander(g, kvecs, eps):
    """Spectral sketch of an expander piece (connected apart from isolated vertices).

    Runs the halving loop with threshold n f / eps where
    f = max(1, sqrt(log(|K|/m))) / lambda_2, assembling the recentered
    constraint vectors each round and walking them with the
    multiplicative-weights subspace intersected with the degree and freeze
    subspaces.
    """
    _check_positive("eps", eps)
    _require_sketchable(g)
    kvecs = graph_mod.check_vectors(kvecs, g.n)
    n_eff = len(g.non_isolated())
    if kvecs.shape[0] < n_eff:
        raise InvalidInput(f"need at least n={n_eff} constraint vectors")
    if g.m == 0:
        return PipelineResult(g, None, 1, [])
    if sum(len(c) > 1 for c in g.connected_components()) > 1:
        raise InvalidInput("expected a connected graph apart from isolated vertices")
    lam = graph_mod.lambda2(g)
    f_factor = default_lambda0(kvecs.shape[0], g.m) / lam
    error = lambda s: graph_mod.sketch_error(g, g.reweighted(s), kvecs)
    return _sketch_piece(g, kvecs, lam, n_eff * f_factor / eps, n_eff, error)


def _expander_pieces(g, eps, phi_target, vectors, run):
    """The piece driver of `sketch` and `resistance_sparsify`: check eps and
    g, then union run(piece, vectors(g)) over the expander pieces of g, each
    on the vertex ids of g."""
    _check_positive("eps", eps)
    _require_sketchable(g)
    kvecs = vectors(g)
    pieces = graph_mod.expander_decompose(g, phi_target)
    return _union_pieces(g, [(p, range(g.n)) for p in pieces], lambda p: run(p, kvecs))


def sketch(g, kvecs, eps, phi_target=None):
    """Spectral sketch of an arbitrary unweighted graph.

    Decomposes into expander pieces, sketches each piece against the same
    constraint set, and unions the reweighted pieces (degree preservation
    survives the union).  phi_target sets the decomposition's expansion
    target (default `graph.default_phi_target`).
    """
    return _expander_pieces(
        g, eps, phi_target, lambda _: graph_mod.check_vectors(kvecs, g.n),
        lambda p, checked: sketch_expander(p, checked, eps),
    )


def resistance_pairs(g):
    """Constraint vectors L^+ b_ij for all vertex pairs i < j."""
    ldag = linalg.matrix_function(g.laplacian(), "pinv")
    iu = np.triu_indices(g.n, k=1)
    vecs = ldag[:, iu[0]] - ldag[:, iu[1]]
    return vecs.T


def _combined_round(piece, family, zbar, zbar_d, s, n_eff):
    """One halving round of the walk on a piece; returns (s_new, walk
    iterations).  Raises SubspaceExhausted when the freeze sets leave too
    few movable edges or a walk runs out.

    One walk per `sparsify.round_chunks` chunk of CHUNK_PER_VERTEX n_eff
    edges, each keeping its own degrees.  The vector side steers the
    recentered constraints a_z on the chunk's columns.  Given the piece's
    spectral family {A_e}, the round checks the half family {(1/2) s(e) A_e}
    once, as a `sparsify` round does, and the matrix side steers its chunk
    members, scaled to norm 1 when the round has several chunks.  The budget
    fraction is 1/6 with a matrix side and 1/10 without: the matrix side
    keeps m_t less that fraction, the vector side takes it as heavy rows and
    Gram cut.  The norm-chain, rewrite and degree checks run on the whole
    round, the rewrite's walk-independent term as one n x n form.
    """
    support = np.flatnonzero(s)
    m_r = len(support)
    es = freeze_sets(piece, s)[2]
    if len(es) < int(np.ceil(m_r / 4.0)):
        raise SubspaceExhausted("freeze sets leave too few movable edges")
    movable = np.isin(support, es)
    cut = 0.1 if family is None else 1.0 / 6.0
    budget = lambda mt: int(np.ceil(cut * mt))
    keep = lambda mt: mt - int(np.floor(cut * mt))
    chunks = sparsify.round_chunks(m_r, CHUNK_PER_VERTEX * n_eff)
    if family is not None:
        half = family.scaled(0.5 * s).restricted(support)
        check_family_norm(half)
    x_sub = np.zeros(m_r)
    # the walk rows' terms 2 <a_z, x> of the rewrite's residual and ||a_z||^2 over the chunks
    resid = np.zeros(len(zbar))
    norms_sq = np.zeros(len(zbar))
    iterations = 0
    for chunk in chunks:
        edges, chunk_movable = support[chunk], movable[chunk]
        # at most two k x |chunk| arrays live at once: a_z, unit rows, active
        # columns; a row a_z is zero at ||a_z|| <= _ROW_DROP_TOL zbar^T D zbar
        a_rows = _constraint_matrix(zbar, piece, s, edges, chunk_movable)
        unit, norms, kept = prepare_constraints(a_rows, zbar_d)
        del a_rows
        sides = [_VectorSide(unit, budget)]
        if family is not None:
            sides.insert(0, _MatrixSide(sparsify.chunk_family(half, chunk), keep_count=keep))
        # the walk takes orthonormal static rows
        extra_rows = linalg.orthonormalize(_degree_and_pin_rows(piece, s, edges, chunk_movable))
        wlog = WalkLog()
        x_chunk = _walk_loop(len(chunk), sides, extra_rows, True, wlog)
        iterations += wlog.iterations
        x_sub[chunk] = x_chunk
        # <a_z, x> = ||a_z|| <a_z/||a_z||, x>, and 0 on the dropped rows
        resid[kept] += 2.0 * norms[kept] * (unit @ x_chunk)
        norms_sq += norms**2
        del sides, unit
    # sum_e x s <b_e, z>^2, with <b_e, z> = <b_e, zbar>: the diagonal of zbar B diag(x s) B^T zbar^T
    b = piece.incidence_signed()[:, support]
    resid += np.einsum("kn,kn->k", zbar @ ((b * (x_sub * s[support])) @ b.T), zbar)
    _check_norm_chain(np.sqrt(norms_sq), zbar_d, n_eff, m_r)
    _check_identity(resid, zbar_d)
    s_new = halve_support(s, support, x_sub)
    _check_degrees_preserved(piece, s_new)
    return s_new, iterations


def _sketch_piece(piece, kvecs, lam2, threshold, n_eff, error, family=None):
    """`halve` with `_combined_round` and error(s) on one piece with n_eff
    non-isolated vertices until its support is at most threshold."""
    d = piece.weighted_degrees()
    zbar = shift_center(kvecs, piece)
    # a row whose recentred mass is at most CONSTANT_RTOL of its own is
    # constant on the piece, and its zbar is cancellation noise: zeroed
    zbar[(zbar**2) @ d <= CONSTANT_RTOL * ((kvecs**2) @ d)] = 0.0
    zbar_d = (zbar**2) @ d
    _check_courant_fischer(piece, zbar, zbar_d, lam2)
    round_fn = lambda s: _combined_round(piece, family, zbar, zbar_d, s, n_eff)
    s, rounds, stopped = halve(np.ones(piece.m), threshold, round_fn, error)
    return PipelineResult(piece.reweighted(s), stopped, 1, rounds)


def resistance_sparsify(g, eps, phi_target=None, c_resist=1.0):
    """Effective-resistance sparsifier of an unweighted undirected graph.

    Per expander piece, a combined walk keeps the reweighting simultaneously
    a spectral sparsifier and a sketch with respect to {L^+ b_ij}; the
    halving threshold is c_resist n sqrt(log n) / (lambda eps), and
    phi_target sets the decomposition's expansion target.
    """
    _check_positive("c_resist", c_resist)

    def run(piece, kvecs):
        # a piece has an edge, so n_eff >= 2
        n_eff = len(piece.non_isolated())
        lam = graph_mod.lambda2(piece)
        threshold = c_resist * n_eff * np.sqrt(np.log(n_eff)) / (max(lam, 1e-12) * eps)
        family = sparsify.spectral_family(piece)
        error = lambda s: graph_mod.resistance_error(piece, piece.reweighted(s))
        return _sketch_piece(piece, kvecs, lam, threshold, n_eff, error, family)

    return _expander_pieces(g, eps, phi_target, resistance_pairs, run)
