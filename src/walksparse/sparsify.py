"""Halving driver `halve`, the halving loop `sparsify` and its graph instantiations.

`sparsify` turns the partial-coloring walk into a sparse nonnegative
reweighting: starting from s = 1, each round runs the walk on the scaled
family {s(i)/2 * A_i} restricted to the support, flips the coloring so at
least half of the frozen coordinates are -1, and updates
s(i) <- s(i) (1 + x(i)), zeroing a constant fraction of the support while
the aggregate moves by at most the per-round discrepancy.  The loop keeps
sum_i s(i) A_i <= 2I and s - 1 inside the caller's subspace.

Graph instantiations map edges to rank-one matrices:
  - spectral:    A_e = w_e L^{+/2} b_e b_e^T L^{+/2}
  - unit-circle: the 2n-dimensional block pair with the unsigned Laplacian
  - singular-value (bipartite expander): A_e = lam w_e E^{+/2} b_e b_e^T E^{+/2}
with the degree subspace forcing exact weighted-degree preservation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graph_mod
from . import linalg
from .errors import InvalidInput, WalksparseError
from .matrix_walk import MatrixFamily, Rank1Block, WalkOptions, partial_color


# the halving rounds take the largest admissible walk steps
_WALK = WalkOptions(adaptive_steps=True)
# default support constant c of the stopping threshold c * n / eps^2
C_SUPPORT = 1024.0
# the halving loop stops once the support is too small to walk on
WALK_MIN = 40


def _validate_psd_family(family):
    for block in family.blocks:
        if isinstance(block, Rank1Block):
            continue
        for i in range(block.size):
            w = linalg.eigvalsh(block.mats[i])
            scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
            if w.size and float(w[0]) < -1e-8 * scale:
                raise InvalidInput(f"family member {i} is not PSD")


def _check_settings(eps, c_support):
    """Raise InvalidInput unless 0 < eps <= 1/2 and c_support is finite and
    positive; the pipelines check on entry, before any graph work."""
    if not (0.0 < eps <= 0.5):
        raise InvalidInput(f"eps={eps} outside (0, 1/2]")
    if not (np.isfinite(c_support) and c_support > 0):
        raise InvalidInput(f"c_support={c_support} is not a positive finite number")


def sparsify(family, h, eps, c_support=C_SUPPORT):
    """Sparse reweighting s with |supp(s)| <= c_support * n / eps^2.

    family members must be PSD with sum A_i <= I; h is a Subspace of the
    coloring space containing s - 1 on exit.  Runs `halve` with
    `_matrix_round` and returns its (s, records, stop_reason), one record
    per round: the support size after it.  A round whose restricted
    subspace is below (4/5) of the support size stops the loop with the
    support of the last completed round.
    """
    _check_settings(eps, c_support)
    _validate_psd_family(family)
    m, n = family.m, family.n
    if h.ambient_dim != m:
        raise InvalidInput("subspace ambient dimension does not match the family")
    top = family.aggregate_norm(np.ones(m))
    if top > 1.0 + 1e-8:
        raise InvalidInput(f"sum of the family members has norm {top:.6f} > 1")
    threshold = c_support * n / eps**2
    return halve(np.ones(m), threshold, lambda s: _matrix_round(family, h, s))


def _matrix_round(family, h, s):
    """One walk on {s(i)/2 * A_i} over the support, keeping s - 1 in h;
    returns (s_new, new support size) or, below the walk minimum or when the
    restricted subspace is below (4/5) of the support, the stop reason.
    `partial_color` checks sum_i s(i) A_i <= 2I."""
    support = np.flatnonzero(s)
    m_r = len(support)
    if m_r < WALK_MIN:
        return f"support {m_r} below walk minimum {WALK_MIN}"
    scaled_rows = (h.complement_rows * s[None, :])[:, support]
    h_sub = linalg.nullspace(scaled_rows, m=m_r)
    if h_sub.dim < 0.8 * m_r - 1e-9:
        return f"restricted subspace dim {h_sub.dim} < (4/5) m_r = {0.8 * m_r:.1f}"
    x_sub = partial_color(family.scaled(0.5 * s).restricted(support), h_sub, options=_WALK)
    s_new = halve_support(s, support, x_sub)
    diff = s_new - 1.0
    resid = float(np.linalg.norm(h.complement_rows @ diff))
    if resid > 1e-7 * max(1.0, float(np.linalg.norm(diff))):
        raise WalksparseError(f"reweighting left the constraint subspace: residual {resid:.3e}")
    return s_new, int(np.count_nonzero(s_new))


def halve(s, threshold, round_fn):
    """The halving driver of every pipeline: rounds until at most threshold
    entries of s are nonzero.

    round_fn(s) returns (s_new, record), or a stop reason (a str) that ends
    the loop when the round cannot start.  A round that leaves a negative
    entry, or zeroes fewer than ceil(m_r / 8) of its m_r support entries,
    raises WalksparseError.
    Returns (s, records, stop_reason), stop_reason None at the threshold.
    """
    records = []
    while (m_r := np.count_nonzero(s)) > threshold:
        out = round_fn(s)
        if isinstance(out, str):
            return s, records, out
        s_new, record = out
        if np.any(s_new < 0):
            raise WalksparseError("a round left a negative weight")
        dropped, need = m_r - np.count_nonzero(s_new), int(np.ceil(m_r / 8.0))
        if dropped < need:
            raise WalksparseError(f"support only dropped {dropped} of the required {need}")
        s = s_new
        records.append(record)
    return s, records, None


def halve_support(s, support, x_sub):
    """One halving update from a coloring x_sub of the support.

    Flips x so no more of its frozen coordinates sit at +1 than at -1, then
    sets s(i) <- s(i)(1 + x(i)) on the support.
    """
    if np.count_nonzero(x_sub == 1.0) > np.count_nonzero(x_sub == -1.0):
        x_sub = -x_sub
    x = np.zeros(len(s))
    x[support] = x_sub
    return s * (1.0 + x)


def degree_rows(g, s):
    """(n, m) rows whose vertex-v row holds s(e) w(e) at the edges e at v."""
    u, v, w = g.edge_arrays()
    rows = np.zeros((g.n, g.m))
    sw = s * w
    rows[u, np.arange(g.m)] = sw
    rows[v, np.arange(g.m)] = sw
    return rows


def degree_subspace(g, s=None):
    """Subspace of edge vectors preserving every weighted degree.

    Membership of x means sum over edges at v of s(e) w(e) x(e) = 0 for all
    vertices v, so the update s(e)(1 + x(e)) leaves weighted degrees fixed.
    """
    if g.directed:
        raise InvalidInput("degree subspace expects an undirected graph")
    s = np.ones(g.m) if s is None else np.asarray(s, dtype=float)
    return linalg.nullspace(degree_rows(g, s), m=g.m)


@dataclass
class PipelineResult:
    """Output of a graph pipeline: the union of its reweighted pieces.

    The pieces are connected components (spectral, uc), expander pieces of
    the bipartite lift (sv) or expander pieces of the graph (sketch,
    resist).  stopped_early holds the first piece's stop reason, and
    diagnostics holds one record per halving round of every piece, in piece
    order: the support size after the round for the matrix pipelines, a
    RoundDiagnostics for the sketch pipelines.  The error is measured by
    `verify`.
    """

    graph: graph_mod.Graph
    stopped_early: str | None
    pieces: int
    diagnostics: list

    @property
    def rounds(self):
        return len(self.diagnostics)


def _union_pieces(g, pieces, run):
    """Run a one-piece pipeline on each (piece, vertex ids) pair and union
    the reweighted pieces; vertex i of a piece is vertex ids[i] of g."""
    edges, stopped, diagnostics = [], None, []
    for piece, ids in pieces:
        res = run(piece)
        edges.extend((ids[u], ids[v], w) for u, v, w in res.graph.edges)
        stopped = stopped or res.stopped_early
        diagnostics.extend(res.diagnostics)
    out = graph_mod.Graph(g.n, tuple(edges), directed=False)
    return PipelineResult(out, stopped, len(pieces), diagnostics)


def _sparsify_graph(g, family, eps, c_support):
    """Halving loop in the degree subspace of g, as a one-piece result."""
    s, records, stopped = sparsify(family, degree_subspace(g), eps, c_support)
    return PipelineResult(g.reweighted(s), stopped, 1, records)


def _components(g):
    """(component, vertex ids) for each component of g with an edge."""
    if g.directed:
        raise InvalidInput("expected an undirected graph")
    return [g.induced_on(c) for c in g.connected_components() if len(c) > 1]


def spectral_family(g):
    """Rank-one family A_e = w_e L^{+/2} b_e b_e^T L^{+/2} summing to the
    projection off the all-ones vector."""
    lap = g.laplacian()
    lph = linalg.matrix_function(lap, "pinv_sqrt")
    vectors = lph @ g.incidence_signed()
    return MatrixFamily.from_rank_one(vectors, g.weights())


def spectral_sparsify(g, eps, c_support=C_SUPPORT):
    """Degree-preserving spectral sparsifier of an undirected graph, one
    halving loop per connected component."""
    _check_settings(eps, c_support)
    return _union_pieces(
        g, _components(g), lambda c: _sparsify_graph(c, spectral_family(c), eps, c_support)
    )


def uc_family(g):
    """Block family diag(L-part, U-part); its members sum to
    diag(proj off ker L, proj off ker U) inside I_{2n}."""
    lap = g.laplacian()
    uns = g.unsigned_laplacian()
    lph = linalg.matrix_function(lap, "pinv_sqrt")
    uph = linalg.matrix_function(uns, "pinv_sqrt")
    w = g.weights()
    return MatrixFamily(
        [
            Rank1Block(lph @ g.incidence_signed(), w),
            Rank1Block(uph @ g.incidence_unsigned(), w),
        ]
    )


def uc_sparsify(g, eps, c_support=C_SUPPORT):
    """Unit-circle sparsifier of an undirected graph: both the Laplacian and
    the unsigned Laplacian are preserved to relative error eps, with exact
    degrees, one halving loop per connected component."""
    _check_settings(eps, c_support)
    return _union_pieces(
        g, _components(g), lambda c: _sparsify_graph(c, uc_family(c), eps, c_support)
    )


def sv_expander_family(g, lam):
    """Rank-one family lam * w_e E^{+/2} b_e b_e^T E^{+/2} for bipartite g."""
    e_mat, _ = graph_mod.sv_error_matrices(g)
    eph = linalg.matrix_function(e_mat, "pinv_sqrt")
    vectors = np.sqrt(lam) * (eph @ g.incidence_signed())
    return MatrixFamily.from_rank_one(vectors, g.weights())


def sv_sparsify_expander(g, eps, c_support=C_SUPPORT):
    """SV sparsifier of a connected bipartite graph.

    The family is scaled by lam = lambda_2 of g, measured here.  On regular
    graphs ||sum_e A_e|| then equals 1 exactly; on irregular graphs
    ||E^{+/2} L E^{+/2}|| can exceed 1/lambda_2 by a small degree-spread
    factor, so the family scale is capped at its reciprocal to keep
    sum_e A_e <= I.  The walk then bounds
    scale * ||E^{+/2}(L - L_hat) E^{+/2}|| by the measured eps.
    """
    _check_settings(eps, c_support)
    if g.directed or not g.is_connected():
        raise InvalidInput("expected a connected undirected graph")
    if g.bipartition() is None:
        raise InvalidInput("graph is not bipartite")
    lam = graph_mod.lambda2(g)
    base = sv_expander_family(g, 1.0)
    raw = base.aggregate_norm(np.ones(g.m))
    # raw = 0 means E = 0 (e.g. a permutation digraph's lift): the family is
    # identically zero and the guarantee is vacuous; any scale works
    lam_build = min(lam, 1.0 / raw) if raw > 1e-12 else lam
    return _sparsify_graph(g, base.scaled(np.full(g.m, lam_build)), eps, c_support)


def sv_sparsify(g, eps, phi_target=None, c_support=C_SUPPORT):
    """SV sparsifier of an unweighted directed graph.

    Lift to the bipartite double cover, decompose into expander pieces,
    sparsify each piece at eps' = eps * phi_target, and map the union back
    to arcs.
    """
    if not g.directed:
        raise InvalidInput("sv_sparsify expects a directed graph")
    if any(w != 1.0 for _, _, w in g.edges):
        raise InvalidInput("sv_sparsify expects unweighted arcs")
    lift = graph_mod.bipartite_lift(g)
    if phi_target is None:
        phi_target = graph_mod.default_phi_target(lift.n)
    eps_piece = eps * phi_target
    if not (0.0 < eps_piece <= 0.5):
        raise InvalidInput(
            f"per-piece accuracy eps*phi_target = {eps_piece} outside (0, 1/2]"
        )
    _check_settings(eps_piece, c_support)
    pieces = [
        p.induced_on(p.non_isolated())
        for p in graph_mod.expander_decompose(lift, phi_target)
    ]
    res = _union_pieces(lift, pieces, lambda p: sv_sparsify_expander(p, eps_piece, c_support))
    arcs = [
        (*graph_mod.lift_edge_to_arc((u, v), g.n), w) for u, v, w in res.graph.edges
    ]
    res.graph = graph_mod.Graph(g.n, tuple(arcs), directed=True)
    return res
