"""Shared fixtures: deterministic graph builders and seeded instance families."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, settings

from walksparse import linalg
from walksparse.errors import SubspaceExhausted
from walksparse.graph import Graph

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def exhaust_on_call(monkeypatch, module, name, call):
    """Patch module.name so that its call-th call raises
    SubspaceExhausted("patched"), as a walk that runs out does; the other
    calls run it."""
    calls, original = [], getattr(module, name)

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise SubspaceExhausted("patched")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def path_graph(n):
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def star_graph(leaves):
    return Graph(leaves + 1, tuple((0, i + 1, 1.0) for i in range(leaves)))


def complete_bipartite(a, b):
    return Graph(a + b, tuple((i, a + j, 1.0) for i in range(a) for j in range(b)))


def dumbbell_graph(side=8):
    edges = [(i, j, 1.0) for i in range(side) for j in range(i + 1, side)]
    edges += [(side + i, side + j, 1.0) for i in range(side) for j in range(i + 1, side)]
    edges += [(0, side, 1.0)]
    return Graph(2 * side, tuple(edges))


def bridged_cliques(side, weight):
    """Two K_side on 0..side-1 and side..2 side-1 joined by (0, side, weight)."""
    k = complete_graph(side).edges
    shifted = tuple((side + u, side + v, w) for u, v, w in k)
    return Graph(2 * side, k + shifted + ((0, side, weight),))


def cliques_in_a_path(count=3, side=14, links=4, seed=0):
    """count copies of K_side in a path, each neighbouring pair joined by
    `links` distinct seeded random edges (three K_14: n 42, m 281)."""
    rng = np.random.default_rng(seed)
    edges = [(b * side + u, b * side + v, w)
             for b in range(count) for u, v, w in complete_graph(side).edges]
    for b in range(count - 1):
        pairs = set()
        while len(pairs) < links:
            pairs.add((b * side + int(rng.integers(side)), (b + 1) * side + int(rng.integers(side))))
        edges += [(u, v, 1.0) for u, v in sorted(pairs)]
    return Graph(count * side, tuple(edges))


def ring_matching_expander(n=32):
    """Cycle plus the antipodal perfect matching: 3-regular, connected."""
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    edges += [(i, i + n // 2, 1.0) for i in range(n // 2)]
    return Graph(n, tuple(edges))


def reweighting_of(g, out):
    """The s with out == g.reweighted(s): weight ratios, 0 for dropped edges."""
    kept = {(u, v): w for u, v, w in out.edges}
    return np.array([kept.get((u, v), 0.0) / w for u, v, w in g.edges])


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [
        (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, tuple(edges))


def random_connected_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(n, tuple((u, v, 1.0) for u, v in sorted(edges)))


def random_tournament(n, seed):
    rng = np.random.default_rng(seed)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                arcs.append((i, j, 1.0))
            else:
                arcs.append((j, i, 1.0))
    return Graph(n, tuple(arcs), directed=True)


def tournament_union(n, seed_a, seed_b):
    """Set union of two seeded random tournaments (each arc kept once)."""
    t1 = random_tournament(n, seed_a)
    t2 = random_tournament(n, seed_b)
    arcs = sorted({(u, v) for u, v, _ in t1.edges} | {(u, v) for u, v, _ in t2.edges})
    return Graph(n, tuple((u, v, 1.0) for u, v in arcs), directed=True)


def projection_vectors(n, m, seed):
    """Columns v_1..v_m in R^n with sum v_i v_i^T = I exactly (up to fl)."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, m))
    w = np.linalg.inv(scipy.linalg.sqrtm(b @ b.T).real) @ b
    return w


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.T)


def random_psd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T) / n


def subspace_basis(sub):
    """Orthonormal columns spanning a Subspace: the kernel of C^T C for its
    complement rows C."""
    c = sub.complement_rows
    return linalg.kernel_basis(c.T @ c)


def in_subspace(sub, y, tol=1e-8):
    """y lies in the Subspace: its complement rows C give
    ||C y|| <= tol * max(1, ||y||)."""
    y = np.asarray(y, dtype=float)
    resid = np.linalg.norm(sub.complement_rows @ y)
    return resid <= tol * max(1.0, float(np.linalg.norm(y)))


def diagonal_family(m, n, seed):
    """Diagonal symmetric matrices with sum |A_i| = I exactly."""
    rng = np.random.default_rng(seed)
    entries = rng.uniform(-1.0, 1.0, size=(m, n))
    entries /= np.sum(np.abs(entries), axis=0, keepdims=True)
    return [np.diag(entries[i]) for i in range(m)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
