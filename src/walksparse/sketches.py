"""Graphical spectral sketches and effective-resistance sparsifiers.

A sketch preserves the Laplacian quadratic form z^T L z for a fixed set of
constraint vectors.  Each halving round rewrites the sketch constraint for
a degree-preserving update x as a plain vector-discrepancy constraint

    sum_e x(e) s(e) <b_e, z>^2  =  -2 sum_{uv} x(u,v) s(u,v) zbar(u) zbar(v),

where zbar is z recentered so its degree-weighted mean vanishes, freezes
the high-weight edges and the edges at low support-degree vertices (the
freeze sets keep ||a_z|| <= 100 (n/m) zbar^T D zbar), and runs the
multiplicative-weights walk on the remaining coordinates, one walk per
edge chunk of about 2n support edges for a sketch and 4n for a
resistance sparsifier (one walk below twice that).  The identity is
linear in x, so the chunks' colorings add up to one round, whose measured
error certifies it; a sketch round first negates the chunk colorings
whose signs give the union the least sketch error.  Zero rows a_z and the
certificates are judged relative to each row's zbar^T D zbar, so a sketch
does not change with the scale of the vectors; a z constant on a piece up
to rounding gets zbar = 0 there.

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
# support edges per non-isolated vertex in a walk chunk of a combined
# (`resist`) round: a walk costs about k m_t^3, and a round of
# m_r >= 2 CHUNK_PER_VERTEX n edges walks two or more chunks.  3 does no worse
# on K_22 (135 edges at 0.109, against 138 at 0.117) but loses on K_26, whose
# smallest certified support at eps 0.25/0.35/0.45 (`scripts/frontier.py`)
# is 118/92/92, against 94/94/71 at 4
CHUNK_PER_VERTEX = 4
# the same in a `sketch` round.  The bench's K_24 `sketch` pass, seeds 1-10
# (in-process, 1 BLAS thread, 2-vCPU x86_64; median time, median and max
# worst error): 1.13 s, 0.243/0.261 at 2; 1.50 s, 0.243/0.274 at 3; 2.06 s,
# 0.249/0.269 at 4; 2 without the sign search reads 0.261/0.326
SKETCH_CHUNK_PER_VERTEX = 2
# most chunks of a `sketch` round: its sign search over 2^C patterns takes
# 49 ms at C = 12, k = 2000, doubling per chunk (K_48's 11 take 9 of 570 ms)
SKETCH_MAX_CHUNKS = 12
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


def _degree_and_pin_rows(degrees, movable):
    """Static constraint rows for one chunk: its weighted-degree rows plus
    the identity rows where not movable."""
    pin_pos = np.flatnonzero(~movable)
    pins = np.zeros((len(pin_pos), len(movable)))
    pins[np.arange(len(pin_pos)), pin_pos] = 1.0
    return np.vstack([degrees, pins])


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
    forms = graph_mod.sketch_forms(g, kvecs)
    error = lambda s: graph_mod.sketch_error(g, g.reweighted(s), kvecs, forms)
    return _sketch_piece(g, kvecs, lam, n_eff * f_factor / eps, n_eff, error, forms=forms)


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


def _pattern_errors(base, change, den, patterns):
    """max |(base + change sigma) / den - 1| over the rows of each column
    sigma of patterns: the sketch error of a union, scored 64 patterns at a
    time, so that no k x 2^C array is built."""
    return np.concatenate([np.max(np.abs((base[:, None] + change @ patterns[:, i:i + 64])
                                         / den[:, None] - 1.0), axis=0, initial=0.0)
                           for i in range(0, patterns.shape[1], 64)])


def _combined_round(piece, family, zbar, zbar_d, s, n_eff, forms):
    """One halving round of the walk on a piece; returns (s_new, walk
    iterations).  Raises SubspaceExhausted when the freeze sets leave too
    few movable edges or a walk runs out.

    One walk per `sparsify.round_chunks` chunk, each keeping its own
    degrees, its vector side steering the recentered constraints a_z on the
    chunk's columns.  Given the piece's spectral family {A_e} (`resist`), the
    round checks the half family {(1/2) s(e) A_e} once, as a `sparsify`
    round does, and walks chunks of CHUNK_PER_VERTEX n_eff edges whose
    matrix side steers their members, scaled to norm 1 when there are
    several.  Without one (`sketch`), chunks hold SKETCH_CHUNK_PER_VERTEX
    n_eff edges, at most SKETCH_MAX_CHUNKS of them; a negated chunk coloring
    keeps its degrees, pins and box, so the round takes the union
    sum_c sigma_c x_c of least sketch error, which is linear in x, over the
    rows that forms = `graph.sketch_forms` keeps, among the sign patterns
    sigma whose union `halve_support` keeps unflipped.  The budget fraction is 1/6 with a
    matrix side and 1/10 without: the matrix side keeps m_t less that
    fraction, the vector side takes it as heavy rows and Gram cut.  The
    norm-chain, rewrite and degree checks run on the whole round.
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
    if family is None:
        width = max(SKETCH_CHUNK_PER_VERTEX * n_eff, -(-m_r // SKETCH_MAX_CHUNKS))
    else:
        width = CHUNK_PER_VERTEX * n_eff
        half = family.scaled(0.5 * s).restricted(support)
        check_family_norm(half)
    chunks = sparsify.round_chunks(m_r, width)
    b = piece.incidence_signed()[:, support]
    degrees = degree_rows(piece, s)[:, support]
    xs = np.zeros((len(chunks), m_r))
    # per chunk c, its change sum_e x s <b_e, z>^2 to z^T L~ z, the diagonal of zbar B_c
    # diag(x s) B_c^T zbar^T, and 2 <a_z, x>: their sum is its term of the rewrite's residual
    change, resid = np.zeros((2, len(zbar), len(chunks)))
    norms_sq = np.zeros(len(zbar))
    iterations = 0
    for c, chunk in enumerate(chunks):
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
        extra_rows = linalg.orthonormalize(_degree_and_pin_rows(degrees[:, chunk], chunk_movable))
        wlog = WalkLog()
        xs[c, chunk] = x_chunk = _walk_loop(len(chunk), sides, extra_rows, True, wlog)
        iterations += wlog.iterations
        b_c = b[:, chunk]
        change[:, c] = np.einsum("kn,kn->k", zbar @ ((b_c * (x_chunk * s[edges])) @ b_c.T), zbar)
        # <a_z, x> = ||a_z|| <a_z/||a_z||, x>, and 0 on the dropped rows
        resid[kept, c] = 2.0 * norms[kept] * (unit @ x_chunk)
        norms_sq += norms**2
        del sides, unit
    signs = np.ones(len(chunks))
    if family is None:
        den, rows = forms
        base = np.einsum("kn,kn->k", zbar[rows] @ ((b * s[support]) @ b.T), zbar[rows])
        patterns = 1.0 - 2.0 * ((np.arange(2 ** len(xs)) >> np.arange(len(xs))[:, None]) & 1)
        # a union's +1 entries less its -1 entries: sum_c sigma_c (those of x_c)
        excess = np.sum(xs == 1.0, axis=1) - np.sum(xs == -1.0, axis=1)
        patterns = patterns[:, excess @ patterns <= 0]
        signs = patterns[:, np.argmin(_pattern_errors(base, change[rows], den[rows], patterns))]
    _check_norm_chain(np.sqrt(norms_sq), zbar_d, n_eff, m_r)
    _check_identity((resid + change) @ signs, zbar_d)
    s_new = halve_support(s, support, signs @ xs)
    _check_degrees_preserved(piece, s_new)
    return s_new, iterations


def _sketch_piece(piece, kvecs, lam2, threshold, n_eff, error, family=None, forms=None):
    """`halve` with `_combined_round` (given family and forms) and error(s) on one
    piece with n_eff non-isolated vertices until its support is at most threshold."""
    d = piece.weighted_degrees()
    zbar = shift_center(kvecs, piece)
    # a row whose recentred mass is at most CONSTANT_RTOL of its own is
    # constant on the piece, and its zbar is cancellation noise: zeroed
    zbar[(zbar**2) @ d <= CONSTANT_RTOL * ((kvecs**2) @ d)] = 0.0
    zbar_d = (zbar**2) @ d
    _check_courant_fischer(piece, zbar, zbar_d, lam2)
    round_fn = lambda s: _combined_round(piece, family, zbar, zbar_d, s, n_eff, forms)
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
