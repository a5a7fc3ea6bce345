"""Graph model, derived matrices, bipartite lift, expander decomposition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    random_connected_graph,
    random_graph,
    random_tournament,
)
from walksparse import linalg
from walksparse.errors import InvalidInput
from walksparse.graph import (
    Graph,
    bipartite_lift,
    default_phi_target,
    expander_decompose,
    lambda2,
    lift_edge_to_arc,
    piece_multiplicity,
    sv_error_matrices,
)
from walksparse.cli import parse_edge_list


class TestModel:
    def test_canonicalization(self):
        g = Graph(3, ((2, 0, 1.0), (0, 2, 2.0), (1, 2, 1.0)))
        assert g.edges == ((0, 2, 3.0), (1, 2, 1.0))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInput):
            Graph(3, ((1, 1, 1.0),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidInput):
            Graph(3, ((0, 1, 0.0),))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            Graph(2, ((0, 5, 1.0),))

    def test_reweighted_drops_zeros(self):
        g = cycle_graph(4)
        out = g.reweighted(np.array([1.0, 0.0, 2.0, 1.0]))
        assert out.m == 3
        assert out.edges[1][2] == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reweighted_rejects_non_finite(self, bad):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(InvalidInput, match="non-finite"):
            g.reweighted([1.0, bad])

    @given(st.integers(0, 10_000))
    def test_components_cover_vertices(self, seed):
        g = random_graph(8, 0.3, seed)
        comps = g.connected_components()
        assert sorted(v for c in comps for v in c) == list(range(8))


class TestMatrices:
    def test_single_edge(self):
        g = Graph(2, ((0, 1, 1.0),))
        assert np.allclose(g.laplacian(), [[1, -1], [-1, 1]])
        assert np.allclose(g.unsigned_laplacian(), [[1, 1], [1, 1]])

    def test_triangle_normalized_spectrum(self):
        # complete-graph normalized spectrum: 0 and n/(n-1)
        w = linalg.eigvalsh(complete_graph(3).normalized_laplacian())
        assert np.allclose(w, [0.0, 1.5, 1.5], atol=1e-10)

    def test_bipartite_iff_lambda_max_two(self):
        w = linalg.eigvalsh(complete_bipartite(3, 4).normalized_laplacian())
        assert abs(w[-1] - 2.0) <= 1e-9
        w = linalg.eigvalsh(complete_graph(5).normalized_laplacian())
        assert w[-1] < 2.0 - 1e-6

    def test_incidence_reconstruction(self):
        for seed in range(10):
            g = random_connected_graph(7, 0.4, seed)
            b = g.incidence_signed()
            bu = g.incidence_unsigned()
            w = g.weights()
            assert np.max(np.abs((b * w) @ b.T - g.laplacian())) <= 1e-10
            assert np.max(np.abs((bu * w) @ bu.T - g.unsigned_laplacian())) <= 1e-10


def lognormal_edge_lines(n, m, seed):
    """Edge lines of a connected graph with m lognormal-weighted edges, each
    pair in a random orientation and the lines in a random order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    chosen = {tuple(sorted((int(perm[k]), int(perm[rng.integers(0, k)])))) for k in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen]
    chosen.update(rest[k] for k in rng.choice(len(rest), m - len(chosen), replace=False))
    lines = [
        f"{v} {u} {float(w)!r}" if flip else f"{u} {v} {float(w)!r}"
        for (u, v), w, flip in zip(
            sorted(chosen), rng.lognormal(0.0, 1.0, m), rng.random(m) < 0.5
        )
    ]
    return [lines[k] for k in rng.permutation(m)]


def reference_matrices(g):
    """The graph matrices from one loop over the edges in order, adding
    each edge's weight to its entries one at a time."""
    a, d_out, d_in = np.zeros((g.n, g.n)), np.zeros(g.n), np.zeros(g.n)
    b, b_abs, used = np.zeros((g.n, g.m)), np.zeros((g.n, g.m)), set()
    for j, (u, v, w) in enumerate(g.edges):
        a[u, v] += w
        d_out[u] += w
        d_in[v] += w
        if not g.directed:
            a[v, u] += w
            d_out[v] += w
            d_in[u] += w
        b[u, j], b[v, j] = 1.0, -1.0
        b_abs[u, j], b_abs[v, j] = 1.0, 1.0
        used |= {u, v}
    return {
        "adjacency": a,
        "out_degrees": d_out,
        "in_degrees": d_in,
        "incidence_signed": b,
        "incidence_unsigned": b_abs,
        "non_isolated": sorted(used),
    }


class TestMatricesBitExact:
    """Each derived array has the bytes of the per-edge reference loop."""

    def assert_matches_loop(self, g):
        ref = reference_matrices(g)
        for name, want in ref.items():
            got = getattr(g, name)()
            if name == "non_isolated":
                assert got == want and all(type(v) is int for v in got)
                continue
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        if not g.directed:
            d = g.weighted_degrees()
            assert d.tobytes() == ref["out_degrees"].tobytes()
            lap = np.diag(ref["out_degrees"]) - ref["adjacency"]
            assert g.laplacian().tobytes() == lap.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lognormal_graph_from_shuffled_lines(self, seed):
        lines = lognormal_edge_lines(44, 317, seed)
        self.assert_matches_loop(parse_edge_list("\n".join(["n 44", *lines])))

    def test_directed_graph_with_antiparallel_arcs(self):
        rng = np.random.default_rng(5)
        arcs = [(0, 1, 0.3), (1, 0, 1.7), (2, 1, 0.1), (1, 2, 2.9), (3, 0, 1.1)]
        arcs += [(u, v, float(w)) for u, v, w in zip([4, 2, 4], [2, 4, 3], rng.lognormal(size=3))]
        g = Graph(6, tuple(arcs), directed=True)
        assert g.m == 8
        self.assert_matches_loop(g)
        with pytest.raises(InvalidInput):
            g.weighted_degrees()

    @pytest.mark.parametrize("directed", [False, True])
    def test_edgeless_graph(self, directed):
        self.assert_matches_loop(Graph(4, (), directed))
        self.assert_matches_loop(Graph(0, (), directed))


class TestBipartiteLift:
    def test_single_arc(self):
        g = Graph(2, ((0, 1, 1.0),), directed=True)
        lift = bipartite_lift(g)
        assert lift.edges == ((0, 3, 1.0),)
        assert lift_edge_to_arc((0, 3), 2) == (0, 1)

    def test_directed_triangle_becomes_hexagon(self):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), directed=True)
        lift = bipartite_lift(g)
        assert lift.n == 6 and lift.m == 3
        degs = lift.weighted_degrees()
        assert np.all(degs == 1.0)

    def test_spectrum_symmetry(self):
        # the lift is bipartite: spectrum symmetric about 1
        for seed in range(5):
            g = random_tournament(6, seed)
            lift = bipartite_lift(g)
            sub, _ = lift.induced_on(lift.non_isolated())
            w = linalg.eigvalsh(sub.normalized_laplacian())
            assert np.max(np.abs(w + w[::-1] - 2.0)) <= 1e-9

    def test_requires_directed(self):
        with pytest.raises(InvalidInput):
            bipartite_lift(cycle_graph(4))


class TestSvErrorMatrices:
    def test_single_arc_zero(self):
        g = Graph(2, ((0, 1, 1.0),), directed=True)
        e, f = sv_error_matrices(g)
        assert np.allclose(e, 0.0) and np.allclose(f, 0.0)

    def test_eulerian_cycle_symmetric(self):
        g = Graph(4, tuple((i, (i + 1) % 4, 1.0) for i in range(4)), directed=True)
        e, f = sv_error_matrices(g)
        assert np.allclose(e, f)
        assert linalg.eigvalsh(e)[0] >= -1e-12

    def test_bipartite_kernel(self):
        g = complete_bipartite(3, 5)
        e, _ = sv_error_matrices(g)
        ones = np.ones(8)
        sign = np.concatenate([np.ones(3), -np.ones(5)])
        assert np.linalg.norm(e @ ones) <= 1e-9
        assert np.linalg.norm(e @ sign) <= 1e-9

    def test_psd_random_directed(self):
        for seed in range(10):
            g = random_tournament(7, seed)
            e, f = sv_error_matrices(g)
            assert linalg.eigvalsh(e)[0] >= -1e-8
            assert linalg.eigvalsh(f)[0] >= -1e-8


class TestExpanderDecompose:
    def test_complete_graph_single_piece(self):
        pieces = expander_decompose(complete_graph(12), 0.1)
        assert len(pieces) == 1
        assert lambda2(pieces[0]) >= 0.1 - 1e-9

    def test_dumbbell_splits(self):
        g = dumbbell_graph(8)
        pieces = expander_decompose(g, 0.1)
        assert len(pieces) >= 2
        assert sum(p.m for p in pieces) == g.m
        sizes = sorted(p.m for p in pieces)
        assert sizes[0] == 1  # the bridge lands alone
        for p in pieces:
            assert lambda2(p) >= 0.1 - 1e-9

    def test_empty_graph(self):
        assert expander_decompose(Graph(5, ()), 0.1) == []

    def test_partition_and_multiplicity(self):
        g = random_connected_graph(20, 0.15, seed=4)
        phi = default_phi_target(g.n)
        pieces = expander_decompose(g, phi)
        combined = sorted(e for p in pieces for e in p.edges)
        assert combined == sorted(g.edges)
        mult = np.zeros(g.n)
        for p in pieces:
            for v in p.non_isolated():
                mult[v] += 1
        assert mult.max() <= 4 * np.log2(g.n) + 1
        assert np.array_equal(piece_multiplicity(pieces, g.n), mult)

    def test_cycle_decomposes(self):
        g = cycle_graph(24)
        pieces = expander_decompose(g, 0.3)
        assert sum(p.m for p in pieces) == g.m
        for p in pieces:
            assert lambda2(p) >= 0.3 - 1e-9

    def test_invalid_phi(self):
        with pytest.raises(InvalidInput):
            expander_decompose(complete_graph(4), 2.5)

    def test_weighted_rejected(self):
        with pytest.raises(InvalidInput):
            expander_decompose(Graph(3, ((0, 1, 2.0), (1, 2, 1.0))), 0.1)

    def test_deterministic(self):
        g = random_connected_graph(16, 0.2, seed=8)
        p1 = expander_decompose(g, 0.2)
        p2 = expander_decompose(g, 0.2)
        assert [p.edges for p in p1] == [p.edges for p in p2]
