"""The structure half of graph.py (one traversal, the prefix-sum sweep cut,
the work-list decomposition) against a frozen copy of the per-vertex loop and
recursive version it replaced: same components, same bipartition, same pieces
with the same edges in the same order."""

import numpy as np
import pytest

from conftest import complete_bipartite, cycle_graph, dumbbell_graph, random_graph
from walksparse import linalg
from walksparse.errors import InvalidInput
from walksparse.graph import (
    Graph,
    _best_sweep_cut,
    default_phi_target,
    expander_decompose,
    piece_multiplicity,
)

# -- frozen reference ------------------------------------------------------


def ref_neighbors(g):
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(set(a)) for a in adj]


def ref_connected_components(g):
    adj = ref_neighbors(g)
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def ref_bipartition(g):
    adj = ref_neighbors(g)
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    x = [v for v in range(g.n) if color[v] == 0]
    y = [v for v in range(g.n) if color[v] == 1]
    return x, y


def ref_best_sweep_cut(gsub):
    lap = gsub.normalized_laplacian()
    _, vecs = linalg.eigh(lap)
    d = gsub.weighted_degrees()
    embed = vecs[:, 1] / np.sqrt(d)
    order = sorted(range(gsub.n), key=lambda v: (embed[v], v))
    rank = np.empty(gsub.n, dtype=int)
    for pos, v in enumerate(order):
        rank[v] = pos
    total = float(np.sum(d))
    vol = 0.0
    cut = 0.0
    incident = [[] for _ in range(gsub.n)]
    for u, v, w in gsub.edges:
        incident[u].append((v, w))
        incident[v].append((u, w))
    best = (np.inf, None)
    for k in range(gsub.n - 1):
        v = order[k]
        vol += d[v]
        for u, w in incident[v]:
            if rank[u] <= k:
                cut -= w
            else:
                cut += w
        denom = min(vol, total - vol)
        phi = cut / denom if denom > 0 else np.inf
        if phi < best[0] - 1e-15:
            best = (phi, k)
    k = best[1]
    return set(order[: k + 1])


def ref_expander_decompose(g, phi_target=None):
    if phi_target is None:
        phi_target = default_phi_target(g.n)
    if g.m == 0:
        return []
    pieces = []

    def decompose_edges(edges):
        if not edges:
            return
        sub = Graph(g.n, tuple(edges), directed=False)
        comps = ref_connected_components(sub)
        nontrivial = [c for c in comps if len(c) > 1]
        for comp in nontrivial:
            comp_set = set(comp)
            comp_edges = [e for e in edges if e[0] in comp_set]
            decompose_connected(comp_edges)

    def decompose_connected(edges):
        if len(edges) <= 1:
            pieces.append(edges)
            return
        sub = Graph(g.n, tuple(edges), directed=False)
        gsub, ids = sub.induced_on(sub.non_isolated())
        lam = float(linalg.eigvalsh(gsub.normalized_laplacian())[1])
        if lam >= phi_target - 1e-12:
            pieces.append(edges)
            return
        local_s = ref_best_sweep_cut(gsub)
        s = {ids[v] for v in local_s}
        e_s = [e for e in edges if e[0] in s and e[1] in s]
        e_t = [e for e in edges if e[0] not in s and e[1] not in s]
        e_cut = [e for e in edges if (e[0] in s) != (e[1] in s)]
        if not e_s and not e_t:
            for e in e_cut:
                pieces.append([e])
            return
        decompose_edges(e_s)
        decompose_edges(e_t)
        decompose_edges(e_cut)

    decompose_edges(list(g.edges))
    out = [Graph(g.n, tuple(p), directed=False) for p in pieces]
    bound = 4.0 * np.log2(max(g.n, 2)) + 1
    worst = int(piece_multiplicity(out, g.n).max(initial=0))
    if worst > bound:
        raise InvalidInput(f"vertex multiplicity {worst} exceeds {bound:.1f}; lower phi_target")
    return out


# -- cases -----------------------------------------------------------------


def two_cliques_joined(side, path):
    """Two K_side joined by a path of `path` edges."""
    edges = [(i, j) for i in range(side) for j in range(i + 1, side)]
    edges += [(side + i, side + j) for i in range(side) for j in range(i + 1, side)]
    chain = [side - 1] + [2 * side + k for k in range(path - 1)] + [side]
    edges += list(zip(chain, chain[1:]))
    return Graph(2 * side + path - 1, tuple(edges))


def unit_graphs():
    for n in range(2, 41, 3):
        for p in (0.08, 0.2, 0.45, 0.8):
            yield random_graph(n, p, seed=1000 * n + int(100 * p))
    for side in (4, 6, 8):
        yield dumbbell_graph(side)
        yield two_cliques_joined(side, 2)
    for n in (3, 8, 15, 24):
        yield cycle_graph(n)
    for a, b in ((1, 5), (3, 3), (4, 7), (6, 6)):
        yield complete_bipartite(a, b)


def directed_graphs():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        arcs = [(u, v, float(rng.uniform(0.5, 2.0)))
                for u in range(n) for v in range(n) if u != v and rng.random() < 2.5 / n]
        yield Graph(n, tuple(arcs), directed=True)


def outcome(decompose, g, phi):
    try:
        return [p.edges for p in decompose(g, phi)]
    except InvalidInput as exc:
        return str(exc)


def test_decomposition_matches_the_recursive_reference():
    multi = 0
    for g in unit_graphs():
        for phi in (None, 0.1, 0.3, 0.6):
            got = outcome(expander_decompose, g, phi)
            assert got == outcome(ref_expander_decompose, g, phi), (g.n, g.m, phi)
            multi += isinstance(got, list) and len(got) > 2
    assert multi >= 50


def test_components_and_bipartition_match_the_reference():
    graphs = list(unit_graphs()) + list(directed_graphs())
    graphs += [g.reweighted(np.linspace(0.5, 2.0, g.m)) for g in graphs if g.m and not g.directed]
    assert any(g.directed and any((v, u) in {(a, b) for a, b, _ in g.edges}
                                  for u, v, _ in g.edges) for g in graphs)
    for g in graphs:
        assert g.connected_components() == ref_connected_components(g)
        assert g.bipartition() == ref_bipartition(g)
        assert g.is_connected() == (len(ref_connected_components(g)) <= 1)
    assert {g.bipartition() is None for g in graphs} == {True, False}


@pytest.mark.parametrize("g", [dumbbell_graph(6), two_cliques_joined(8, 2), cycle_graph(12),
                               random_graph(30, 0.2, seed=4)],
                         ids=["dumbbell", "cliques-path", "cycle", "random"])
def test_sweep_cut_matches_the_per_vertex_sweep(g):
    gsub, _ = g.induced_on(g.non_isolated())
    assert gsub.is_connected()
    assert _best_sweep_cut(gsub) == ref_best_sweep_cut(gsub)
