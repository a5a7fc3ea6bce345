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
    sv_error_matrices,
)


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
