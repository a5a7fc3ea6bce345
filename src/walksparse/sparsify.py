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

from dataclasses import dataclass, replace

import numpy as np

from . import graph as graph_mod
from . import linalg
from .errors import InvalidInput, SubspaceExhausted, WalksparseError
from .matrix_walk import MatrixFamily, Rank1Block, WalkLog, check_family_norm
from .matrix_walk import partial_color

# default support constant c of the stopping threshold c * n / eps^2
C_SUPPORT = 1024.0
# a matrix round's smallest support.  On a degree subspace the (4/5) rule stops
# first: a support component passes it only from 11 vertices and 55 edges (19
# and 90 if bipartite).  Without degree rows the halving invariant wears out
# near 40 edges (on `Subspace.full`, error 0.871 at 40 edges of K_24 and 0.951
# at 39 of K_28); with no minimum, K_10 fails the family-norm check in round 2.
WALK_MIN = 40
# entries per constraint row r (or block dimension, if larger) in a `_matrix_round` chunk:
# 6 r keeps 5/6 of a chunk's subspace, over the walk's (4/5) floor.  K_40 (eps 0.45,
# c_support 1) took 2.5 s, not 5.2 s whole, at error 0.539, not 0.532; 5.1 read 0.561
CHUNK_PER_ROW = 6


def _validate_psd_family(family):
    """Raise InvalidInput unless every dense member's smallest eigenvalue is
    at least -1e-8 times its largest |eigenvalue| (the NotPSD test of
    `linalg.matrix_function`), so the verdict does not depend on the scale."""
    for block in family.blocks:
        if isinstance(block, Rank1Block):
            continue
        for i in range(block.size):
            w = linalg.eigvalsh(block.mats[i])
            if w.size and float(w[0]) < -1e-8 * float(np.max(np.abs(w))):
                raise InvalidInput(f"family member {i} is not PSD")


def _check_positive(name, value):
    """Raise InvalidInput unless value is finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise InvalidInput(f"{name}={value} is not a positive finite number")


def _check_settings(eps, c_support, name="eps"):
    """Raise InvalidInput unless 0 < eps <= 1/2 and c_support is finite and
    positive; the pipelines check on entry, before any graph work.  name is
    what the message calls eps."""
    if not (0.0 < eps <= 0.5):
        raise InvalidInput(f"{name}={eps} outside (0, 1/2]")
    _check_positive("c_support", c_support)


def sparsify(family, h, eps, c_support=C_SUPPORT):
    """Sparse reweighting s with |supp(s)| <= c_support * n / eps^2.

    family members must be PSD with sum A_i <= I; h is a Subspace of the
    coloring space containing s - 1 on exit.  Runs `halve` with
    `_matrix_round` and returns its (s, rounds, stop_reason); a round's
    error is ||sum_i (s(i) - 1) A_i||, the measured eps of `spectral` and
    `uc` families (`sv_sparsify_expander` divides it by its family scale).
    """
    _check_settings(eps, c_support)
    _validate_psd_family(family)
    m, n = family.m, family.n
    if h.ambient_dim != m:
        raise InvalidInput("subspace ambient dimension does not match the family")
    check_family_norm(family)
    threshold = c_support * n / eps**2
    return halve(np.ones(m), threshold, lambda s: _matrix_round(family, h, s),
                 lambda s: family.aggregate_norm(s - 1.0))


def round_chunks(m_r, width):
    """max(1, m_r // width) round-robin chunks of range(m_r), each of width or more entries if
    there are several; a round walks each chunk, and `Round.error` certifies the union."""
    count = max(1, m_r // width)
    return [np.arange(i, m_r, count) for i in range(count)]


def chunk_family(half, chunk):
    """half, a round's family, at chunk, scaled to norm 1 unless chunk is all of half."""
    if len(chunk) == half.m:
        return half
    part = half.restricted(chunk)
    return part.scaled(np.full(len(chunk), 1.0 / part.abs_aggregate_norm()))


def _matrix_round(family, h, s):
    """One round on {s(i)/2 * A_i}, keeping s - 1 in h and sum_i s(i) A_i <= 2I: a `partial_color`
    per `round_chunks` chunk, in its restricted subspace.  Returns (s_new, iterations); raises
    SubspaceExhausted below WALK_MIN, below a (4/5) restricted subspace or if a walk runs out."""
    support = np.flatnonzero(s)
    m_r = len(support)
    if m_r < WALK_MIN:
        raise SubspaceExhausted(f"support {m_r} below walk minimum {WALK_MIN}")
    scaled_rows = (h.complement_rows * s[None, :])[:, support]
    h_sub = linalg.nullspace(scaled_rows)
    if h_sub.dim < 0.8 * m_r - 1e-9:
        raise SubspaceExhausted(
            f"restricted subspace dim {h_sub.dim} < (4/5) m_r = {0.8 * m_r:.1f}")
    half = family.scaled(0.5 * s).restricted(support)
    check_family_norm(half)
    rows = max(len(scaled_rows), *(b.dim for b in family.blocks))
    chunks = round_chunks(m_r, max(WALK_MIN, CHUNK_PER_ROW * rows))
    x_sub, logs = np.zeros(m_r), [WalkLog() for _ in chunks]
    for chunk, wlog in zip(chunks, logs):
        h_part = h_sub if len(chunk) == m_r else linalg.nullspace(scaled_rows[:, chunk])
        x_sub[chunk] = partial_color(chunk_family(half, chunk), h_part, log=wlog)
    s_new = halve_support(s, support, x_sub)
    diff = s_new - 1.0
    resid = float(np.linalg.norm(h.complement_rows @ diff))
    if resid > 1e-7 * max(1.0, float(np.linalg.norm(diff))):
        raise WalksparseError(f"reweighting left the constraint subspace: residual {resid:.3e}")
    return s_new, sum(wlog.iterations for wlog in logs)


@dataclass(frozen=True)
class Round:
    """One completed halving round: the support size after it, the error
    of its new weights and the iterations of its walk."""

    support: int
    error: float
    walk_iterations: int


def halve(s, threshold, round_fn, error):
    """The halving driver of every pipeline: rounds until at most threshold
    entries of s are nonzero.

    round_fn(s) returns (s_new, walk iterations) or raises SubspaceExhausted,
    the one stop signal: halve returns the last completed weights, its
    message the stop reason.  A round that leaves a negative entry, or
    zeroes fewer than ceil(m_r / 8) of its m_r support entries, raises
    WalksparseError.  Each completed round appends a `Round` whose error
    is error(s_new).
    Returns (s, rounds, stop_reason), stop_reason None at the threshold.
    """
    rounds = []
    while (m_r := np.count_nonzero(s)) > threshold:
        try:
            s, walk_iterations = round_fn(s)
        except SubspaceExhausted as exc:
            return s, rounds, str(exc)
        if np.any(s < 0):
            raise WalksparseError("a round left a negative weight")
        dropped, need = m_r - np.count_nonzero(s), int(np.ceil(m_r / 8.0))
        if dropped < need:
            raise WalksparseError(f"support only dropped {dropped} of the required {need}")
        rounds.append(Round(int(m_r - dropped), error(s), walk_iterations))
    return s, rounds, None


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
    return g.incidence_unsigned() * (s * g.weights())


def degree_subspace(g):
    """Subspace of edge vectors preserving every weighted degree.

    Membership of x means sum over edges at v of w(e) x(e) = 0 for all
    vertices v, so the update 1 + x(e) leaves weighted degrees fixed.
    """
    if g.directed:
        raise InvalidInput("degree subspace expects an undirected graph")
    return linalg.nullspace(degree_rows(g, np.ones(g.m)))


@dataclass
class PipelineResult:
    """Output of a graph pipeline: the union of its reweighted pieces.

    The pieces are connected components (spectral, uc), expander pieces of
    the bipartite lift (sv) or expander pieces of the graph (sketch,
    resist).  stopped_early holds the first piece's stop reason, and
    diagnostics holds the `Round` records of every piece, in piece order,
    each with its piece's error after the round.  `verify` certifies the
    union independently.
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
    s, rounds, stopped = sparsify(family, degree_subspace(g), eps, c_support)
    return PipelineResult(g.reweighted(s), stopped, 1, rounds)


def _sparsify_components(g, eps, c_support, family_of):
    """The component driver of `spectral_sparsify` and `uc_sparsify`: check
    the settings, run the halving loop on family_of(component) for each
    connected component of the undirected g with an edge, union the results."""
    _check_settings(eps, c_support)
    if g.directed:
        raise InvalidInput("expected an undirected graph")
    components = [g.induced_on(c) for c in g.connected_components() if len(c) > 1]
    return _union_pieces(
        g, components, lambda c: _sparsify_graph(c, family_of(c), eps, c_support)
    )


def _whitened_family(g, pairs):
    """One Rank1Block per (X, C) in pairs, with the edge weights of g: members
    w_e X^{+/2} c_e c_e^T X^{+/2} over the columns c_e of C."""
    factors = [linalg.matrix_function(x, "pinv_sqrt") @ c for x, c in pairs]
    return MatrixFamily([Rank1Block(f, g.weights()) for f in factors])


def _laplacian_pair(g, unsigned=False):
    """(L, B) of g, or with unsigned (U, |B|), the matrix checked by
    `graph.require_numerically_connected` before its pseudoinverse whitens."""
    inc = g.incidence_unsigned() if unsigned else g.incidence_signed()
    return graph_mod.require_numerically_connected(g, unsigned), inc


def spectral_family(g):
    """Rank-one family A_e = w_e L^{+/2} b_e b_e^T L^{+/2} summing to the
    projection off the all-ones vector."""
    return _whitened_family(g, [_laplacian_pair(g)])


def spectral_sparsify(g, eps, c_support=C_SUPPORT):
    """Degree-preserving spectral sparsifier of an undirected graph, one
    halving loop per connected component."""
    return _sparsify_components(g, eps, c_support, spectral_family)


def uc_family(g):
    """Block family diag(L-part, U-part); its members sum to
    diag(proj off ker L, proj off ker U) inside I_{2n}."""
    return _whitened_family(g, [_laplacian_pair(g), _laplacian_pair(g, unsigned=True)])


def uc_sparsify(g, eps, c_support=C_SUPPORT):
    """Unit-circle sparsifier of an undirected graph: both the Laplacian and
    the unsigned Laplacian are preserved to relative error eps, with exact
    degrees, one halving loop per connected component."""
    return _sparsify_components(g, eps, c_support, uc_family)


def sv_expander_family(g):
    """Rank-one family w_e E^{+/2} b_e b_e^T E^{+/2} for bipartite g."""
    e_mat, _ = graph_mod.sv_error_matrices(g)
    return _whitened_family(g, [(e_mat, g.incidence_signed())])


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
    base = sv_expander_family(g)
    raw = base.aggregate_norm(np.ones(g.m))
    # raw = 0 means E = 0 (e.g. a permutation digraph's lift): the family is
    # identically zero and the guarantee is vacuous; any scale works
    lam_build = min(lam, 1.0 / raw) if raw > 1e-12 else lam
    res = _sparsify_graph(g, base.scaled(np.full(g.m, lam_build)), eps, c_support)
    # the family's error is lam_build times the SV error
    res.diagnostics = [replace(r, error=r.error / lam_build) for r in res.diagnostics]
    return res


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
    _check_settings(eps_piece, c_support, "per-piece accuracy eps*phi_target")
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
