"""Graph data model, derived matrices, bipartite lift, expander decomposition.

A Graph stores a vertex count, a directed flag and the weighted edge list
that its constructor alone canonicalizes (undirected edges as u < v, sorted,
duplicates merged by weight sums in input order).  Matrices and degrees are
dense arrays built on demand from `edge_arrays()`, summed in edge order so
they equal a per-edge loop bit for bit; everything is desk scale.  The
expander decomposition is a deterministic sweep cut over one depth-first work
list: pieces with second normalized-Laplacian eigenvalue above the target are
emitted, otherwise the best Cheeger sweep cut (prefix sums along the Fiedler
order) splits the piece and the two sides and the cut edges are decomposed in
turn.  The sketch and resistance errors live here, below both the halving
rounds that record them and `verify`, which reports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput


def _sums(index, w, n):
    """Length-n sums of w by index, added in array order (bincount of an
    empty index is an int array, hence the cast)."""
    return np.bincount(index, w, n).astype(float, copy=False)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple
    directed: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInput("negative vertex count")
        for item in self.edges:
            if len(item) not in (2, 3):
                raise InvalidInput(f"edge {item!r} is not a (u, v) or (u, v, w) tuple")
        # object arrays hold any Python int: an id beyond int64 is refused as out of range
        u = np.array([int(e[0]) for e in self.edges], dtype=object)
        v = np.array([int(e[1]) for e in self.edges], dtype=object)
        w = np.array([float(e[2]) if len(e) == 3 else 1.0 for e in self.edges])
        loop = u == v
        out = (u < 0) | (u >= self.n) | (v < 0) | (v >= self.n)
        bad = np.flatnonzero(loop | out | ~(np.isfinite(w) & (w > 0)))
        if bad.size:  # the first bad edge, by its first failing check
            e = bad[0]
            raise InvalidInput(f"self-loop at vertex {u[e]}" if loop[e] else
                               f"edge ({u[e]},{v[e]}) out of range for n={self.n}" if out[e] else
                               f"edge ({u[e]},{v[e]}) has non-positive weight {float(w[e])}")
        pairs = np.stack([u, v], 1).astype(int)
        if not self.directed:
            pairs.sort(axis=1)
        pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)  # sorted, distinct
        arrays = (*pairs.T.copy(), _sums(inverse, w, len(pairs)))  # sums in input order
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "edges", tuple(zip(*(a.tolist() for a in arrays))))

    @property
    def m(self):
        return len(self.edges)

    def edge_arrays(self):
        """(u, v, w) of the edges as read-only arrays, in edge order."""
        return self._arrays

    def weights(self):
        return self.edge_arrays()[2]

    def reweighted(self, s):
        """Subgraph with edge e reweighted to s[e] * w[e]; zero drops the edge."""
        s = np.asarray(s, dtype=float)
        if s.shape != (self.m,):
            raise InvalidInput("reweighting length mismatch")
        if not np.all(np.isfinite(s)):
            raise InvalidInput("non-finite reweighting")
        if np.any(s < -1e-12):
            raise InvalidInput("negative reweighting")
        keep = s > 0.0
        u, v, w = (a[keep] for a in self._arrays)
        return Graph(self.n, tuple(zip(u.tolist(), v.tolist(), (w * s[keep]).tolist())),
                     self.directed)

    # -- matrices ----------------------------------------------------------

    def adjacency(self):
        u, v, w = self.edge_arrays()
        a = np.zeros((self.n, self.n))
        a[u, v] = w
        if not self.directed:
            a[v, u] = w
        return a

    def weighted_degrees(self):
        if self.directed:
            raise InvalidInput("expects undirected graphs (a directed graph has in/out degrees)")
        u, v, w = self.edge_arrays()
        # edges are sorted with u < v, so a vertex's edges as v all precede
        # its edges as u: this adds in edge order, as a per-edge loop does
        return _sums(np.concatenate([v, u]), np.concatenate([w, w]), self.n)

    def out_degrees(self):
        if not self.directed:
            return self.weighted_degrees()
        u, _, w = self.edge_arrays()
        return _sums(u, w, self.n)

    def in_degrees(self):
        if not self.directed:
            return self.weighted_degrees()
        _, v, w = self.edge_arrays()
        return _sums(v, w, self.n)

    def laplacian(self):
        return np.diag(self.weighted_degrees()) - self.adjacency()

    def unsigned_laplacian(self):
        return np.diag(self.weighted_degrees()) + self.adjacency()

    def normalized_laplacian(self):
        d = self.weighted_degrees()
        with np.errstate(divide="ignore"):
            dis = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        lap = self.laplacian()
        return linalg.sym(dis[:, None] * lap * dis[None, :])

    def incidence_signed(self):
        """Columns b_e = 1_u - 1_v (tail minus head for directed edges)."""
        u, v, _ = self.edge_arrays()
        b = np.zeros((self.n, self.m))
        b[u, np.arange(self.m)] = 1.0
        b[v, np.arange(self.m)] = -1.0
        return b

    def incidence_unsigned(self):
        return np.abs(self.incidence_signed())

    # -- structure ---------------------------------------------------------

    def _traverse(self):
        """(components, coloring, odd) of the underlying undirected graph.

        A stack DFS from each smallest unseen root, pushing neighbours in
        increasing order: components come out sorted and in root order,
        the 0/1 coloring gives each root 0, and odd[k] says whether
        component k has an odd cycle (its coloring is then not proper).
        """
        adj = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        color = [-1] * self.n
        comps, odd = [], []
        for root in range(self.n):
            if color[root] != -1:
                continue
            color[root] = 0
            stack, comp = [root], []
            odd.append(False)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in sorted(adj[v]):
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        odd[-1] = True
            comps.append(sorted(comp))
        return comps, color, odd

    def connected_components(self):
        """Vertex components of the underlying undirected graph, each sorted."""
        return self._traverse()[0]

    def non_isolated(self):
        u, v, _ = self.edge_arrays()
        return np.flatnonzero(np.bincount(np.concatenate([u, v]), minlength=self.n)).tolist()

    def is_connected(self):
        return len(self.connected_components()) <= 1

    def bipartition(self):
        """(X, Y) two-coloring of the underlying undirected graph, or None.

        Per component the smallest vertex is assigned to X; isolated
        vertices land in X.  Returns None if any odd cycle exists.
        """
        _, color, odd = self._traverse()
        if any(odd):
            return None
        return tuple([v for v, c in enumerate(color) if c == k] for k in (0, 1))

    def induced_on(self, vertices):
        """(subgraph on the listed distinct vertex ids, relabeled in sorted order, id list)."""
        vertices = sorted(vertices)
        index = np.full(self.n, -1)
        index[vertices] = np.arange(len(vertices))
        u, v, w = self._arrays
        keep = (index[u] >= 0) & (index[v] >= 0)
        edges = zip(index[u[keep]].tolist(), index[v[keep]].tolist(), w[keep].tolist())
        return Graph(len(vertices), tuple(edges), self.directed), vertices


def bipartite_lift(g):
    """Undirected bipartite double cover of a directed graph.

    Arc (u, v, w) becomes the edge (u, n + v, w): part X holds out-copies
    0..n-1 and part Y holds in-copies n..2n-1.  `lift_edge_to_arc` inverts
    the map for round-tripping reweightings.
    """
    if not g.directed:
        raise InvalidInput("bipartite lift expects a directed graph")
    edges = tuple((u, g.n + v, w) for u, v, w in g.edges)
    return Graph(2 * g.n, edges, directed=False)


def lift_edge_to_arc(edge, n):
    u, v = edge[0], edge[1]
    if u >= n:
        u, v = v, u
    if not (u < n <= v):
        raise InvalidInput(f"edge {edge} is not a lift edge for n={n}")
    return u, v - n


def sv_error_matrices(g):
    """Error matrices (E, F) for singular-value approximation checks.

    Directed:  E = D_out - A D_in^+ A^T,  F = D_in - A^T D_out^+ A.
    Undirected: E = F = D - A D^+ A.
    Both are positive semidefinite; isolated vertices are handled through
    the diagonal pseudoinverses.
    """
    a = g.adjacency()
    if g.directed:
        dout = g.out_degrees()
        din = g.in_degrees()
        dout_p = np.where(dout > 0, 1.0 / np.where(dout > 0, dout, 1.0), 0.0)
        din_p = np.where(din > 0, 1.0 / np.where(din > 0, din, 1.0), 0.0)
        e = np.diag(dout) - a @ np.diag(din_p) @ a.T
        f = np.diag(din) - a.T @ np.diag(dout_p) @ a
        return linalg.sym(e), linalg.sym(f)
    d = g.weighted_degrees()
    d_p = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
    e = np.diag(d) - a @ np.diag(d_p) @ a
    e = linalg.sym(e)
    return e, e.copy()


def piece_multiplicity(pieces, n):
    """Per vertex of an n-vertex graph, the number of pieces it has an edge in."""
    mult = np.zeros(n, dtype=int)
    for p in pieces:
        mult[p.non_isolated()] += 1
    return mult


def lambda2(g):
    """Second smallest eigenvalue of the normalized Laplacian on the
    non-isolated vertices (0 for graphs with fewer than two of them)."""
    verts = g.non_isolated()
    if len(verts) < 2:
        return 0.0
    sub, _ = g.induced_on(verts)
    w = linalg.eigvalsh(sub.normalized_laplacian())
    return float(w[1])


def require_numerically_connected(g, unsigned=False):
    """g's Laplacian L (with unsigned, its unsigned Laplacian U) once it has
    no more numerically zero eigenvalues (<= ZERO_RTOL * lambda_max) than its
    exact kernel's dimension c: g's components for L, those without an odd
    cycle for U.  Otherwise InvalidInput: the pseudoinverse would drop a light
    cut (of L) or odd-cycle edge (of U) that whitening and `verify` need."""
    comps, _, odd = g._traverse()
    if unsigned:
        mat, c, what = g.unsigned_laplacian(), odd.count(False), "numerically bipartite"
    else:
        mat, c, what = g.laplacian(), len(comps), "numerically disconnected"
    w = linalg.eigvalsh(mat)
    if w.size > c and w[c] <= linalg.ZERO_RTOL * w[-1]:
        raise InvalidInput(
            f"{'unsigned ' if unsigned else ''}Laplacian is {what}: lambda_{c + 1}/lambda_max = "
            f"{w[c] / w[-1]:.3e} <= {linalg.ZERO_RTOL:g}"
        )
    return mat


def check_vectors(vectors, n):
    """vectors as a float array; raise InvalidInput unless it holds finite
    rows of length n."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != n:
        raise InvalidInput("constraint vectors must be rows of length n")
    if not np.all(np.isfinite(vectors)):
        raise InvalidInput("constraint vectors have non-finite entries")
    return vectors


def sketch_forms(g, vectors):
    """(z^T L z, kept) over the rows z of vectors (as `check_vectors` returns
    them), L the Laplacian of g.  A row is kept when z^T L z > 1e-12 ||z||^2
    * 2 max weighted degree (which bounds the top eigenvalue of L), a cut-off
    that scales with z, so the kept rows do not depend on the vectors' scale."""
    z, lap = vectors, g.laplacian()
    bound = 2.0 * float(np.max(np.diag(lap), initial=0.0))
    den = np.sum((z @ lap) * z, axis=1)
    return den, den > 1e-12 * np.sum(z * z, axis=1) * bound


def sketch_error(g, g_tilde, vectors, forms=None):
    """Worst |z^T L~ z / z^T L z - 1| over the rows z of vectors that
    `sketch_forms` keeps (or forms, its result), L~ the Laplacian of g_tilde."""
    den, keep = sketch_forms(g, vectors) if forms is None else forms
    z = vectors[keep]
    num = np.sum((z @ g_tilde.laplacian()) * z, axis=1)
    return float(np.max(np.abs(num / den[keep] - 1.0), initial=0.0))


def _resistances(g):
    """Effective resistances of g's vertex pairs i < j, in triu order."""
    ldag = linalg.matrix_function(g.laplacian(), "pinv")
    d = np.diag(ldag)
    return (d[:, None] + d[None, :] - 2 * ldag)[np.triu_indices(g.n, k=1)]


def resistance_error(g, g_tilde):
    """Worst |R~(i,j)/R(i,j) - 1| over the vertex pairs of each connected
    component of g, R~ the effective resistances of g_tilde; inf once
    g_tilde disconnects a component."""
    worst = 0.0
    for comp in g.connected_components():
        if len(comp) < 2:
            continue
        sub, sub_t = g.induced_on(comp)[0], g_tilde.induced_on(comp)[0]
        if not sub_t.is_connected():
            return np.inf
        ratios = np.abs(_resistances(sub_t) / _resistances(sub) - 1.0)
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return worst


def default_phi_target(n):
    """1 / (4 log2(n)^2), the decomposition's default expansion target."""
    return 1.0 / (4.0 * max(1.0, np.log2(max(n, 2))) ** 2)


def _best_sweep_cut(gsub):
    """Best-conductance prefix cut along the Fiedler embedding.

    Returns the vertex set S (local ids).  gsub is connected with >= 2
    vertices, every vertex non-isolated and every weight 1, so each
    prefix's volume and cut are exact integers and distinct conductances
    differ by at least 1/(2m)^2: the first minimum is the best cut.
    """
    _, vecs = linalg.eigh(gsub.normalized_laplacian())
    d = gsub.weighted_degrees()
    embed = vecs[:, 1] / np.sqrt(d)
    order = np.lexsort((np.arange(gsub.n), embed))
    vol = np.cumsum(d[order])
    # the diagonal of the double prefix sum of the permuted adjacency is
    # twice each prefix's internal weight
    inner = np.diagonal(gsub.adjacency()[np.ix_(order, order)].cumsum(0).cumsum(1))
    phi = (vol - inner)[:-1] / np.minimum(vol, vol[-1] - vol)[:-1]
    return set(order[: int(np.argmin(phi)) + 1].tolist())


def expander_decompose(g, phi_target=None):
    """Partition the edges into expander pieces.

    Every returned piece, restricted to its non-isolated vertices, has
    lambda_2 of the normalized Laplacian >= phi_target; the edge sets
    partition E(G) exactly; single-edge pieces are emitted as-is.  The
    per-vertex piece multiplicity is checked against 4 log2(n) + 1.  Work
    items are taken depth first: components in order, then a cut piece's
    two sides and its cut edges.
    """
    if g.directed:
        raise InvalidInput("expander decomposition expects an undirected graph")
    if any(w != 1.0 for _, _, w in g.edges):
        raise InvalidInput("expander decomposition expects an unweighted graph")
    if phi_target is None:
        phi_target = default_phi_target(g.n)
    if not (0.0 < phi_target <= 2.0):
        raise InvalidInput(f"phi_target {phi_target} is not achievable")

    out = []
    work = [list(g.edges)]
    while work:
        edges = work.pop()
        if not edges:
            continue
        sub = Graph(g.n, tuple(edges))
        comps = [set(c) for c in sub.connected_components() if len(c) > 1]
        if len(comps) > 1:
            work += [[e for e in edges if e[0] in c] for c in reversed(comps)]
            continue
        if len(edges) <= 1 or lambda2(sub) >= phi_target - 1e-12:
            out.append(sub)
            continue
        gsub, ids = sub.induced_on(sub.non_isolated())
        s = {ids[v] for v in _best_sweep_cut(gsub)}
        e_s = [e for e in edges if e[0] in s and e[1] in s]
        e_t = [e for e in edges if e[0] not in s and e[1] not in s]
        e_cut = [e for e in edges if (e[0] in s) != (e[1] in s)]
        if not e_s and not e_t:
            # the sweep cut across a bipartition-like split leaves no
            # internal edges; single edges are expanders on their endpoints
            out += [Graph(g.n, (e,)) for e in e_cut]
        else:
            work += [e_cut, e_t, e_s]

    if sum(p.m for p in out) != g.m:
        raise InvalidInput("internal error: decomposition does not partition the edges")
    bound = 4.0 * np.log2(max(g.n, 2)) + 1
    worst = int(piece_multiplicity(out, g.n).max(initial=0))
    if worst > bound:
        raise InvalidInput(
            f"vertex multiplicity {worst} exceeds {bound:.1f}; lower phi_target"
        )
    return out
