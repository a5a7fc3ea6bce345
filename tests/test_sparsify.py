"""Halving sparsification loop and the graph pipelines built on it."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
    tournament_union,
)
from walksparse import graph as graph_mod
from walksparse import linalg, verify
from walksparse.errors import InvalidInput, WalksparseError
from walksparse.graph import Graph
from walksparse.linalg import Subspace, kernel_basis
from walksparse.matrix_walk import MatrixFamily
from walksparse.sparsify import (
    degree_subspace,
    halve,
    sparsify,
    spectral_family,
    spectral_sparsify,
    sv_expander_family,
    sv_sparsify,
    sv_sparsify_expander,
    uc_family,
    uc_sparsify,
)


class TestCoreLoop:
    def test_below_threshold_identity(self):
        fam = spectral_family(complete_graph(8))
        s, records, stopped = sparsify(fam, Subspace.full(fam.m), eps=0.5)
        assert np.array_equal(s, np.ones(fam.m))
        assert records == [] and stopped is None
        assert linalg.operator_norm(fam.blocks[0].aggregate(s - 1.0)) == 0.0

    def test_forced_rounds_contract(self):
        g = complete_graph(16)
        fam = spectral_family(g)
        h = degree_subspace(g)
        s, records, stopped = sparsify(fam, h, eps=0.45, c_support=1.0)
        assert len(records) >= 2 and stopped is None
        assert np.count_nonzero(s) == records[-1] <= 1.0 * g.n / 0.45**2
        assert np.all(s >= 0.0)
        # support drops by at least an eighth of the round's support
        before = [fam.m] + records[:-1]
        for prev, cur in zip(before, records):
            assert cur <= prev - np.ceil(prev / 8.0)
        # s - 1 stays in the subspace
        diff = s - 1.0
        resid = np.linalg.norm(h.complement_rows @ diff)
        assert resid <= 1e-7 * max(1.0, np.linalg.norm(diff))
        # error from an independent eigen oracle
        assert linalg.operator_norm(fam.blocks[0].aggregate(diff)) <= 0.45

    def test_eps_validation(self):
        fam = spectral_family(complete_graph(8))
        with pytest.raises(InvalidInput):
            sparsify(fam, Subspace.full(fam.m), eps=0.75)

    @pytest.mark.parametrize("c_support", [np.nan, np.inf, 0.0, -1.0])
    def test_c_support_validation(self, c_support):
        fam = spectral_family(complete_graph(8))
        with pytest.raises(InvalidInput, match="c_support"):
            sparsify(fam, Subspace.full(fam.m), eps=0.5, c_support=c_support)

    def test_non_psd_rejected(self):
        mats = np.zeros((40, 2, 2))
        mats[0] = np.diag([0.5, -0.5])
        fam = MatrixFamily.from_matrices(mats)
        with pytest.raises(InvalidInput):
            sparsify(fam, Subspace.full(40), eps=0.4)

    def test_subspace_exhausted_when_threshold_too_low(self):
        # a round whose restricted subspace is below (4/5) m_r cannot walk:
        # the loop stops and returns the last completed round
        g = complete_graph(16)
        fam = spectral_family(g)
        h = degree_subspace(g)
        s, records, stopped = sparsify(fam, h, eps=0.5, c_support=0.25)
        assert re.fullmatch(r"restricted subspace dim \d+ < \(4/5\) m_r = [\d.]+", stopped)
        assert records and np.count_nonzero(s) == records[-1] > 0.25 * g.n / 0.5**2
        diff = s - 1.0
        assert np.linalg.norm(h.complement_rows @ diff) <= 1e-7 * np.linalg.norm(diff)


class TestDegreeSubspace:
    def test_star_members_balance(self):
        # a star admits no degree-preserving perturbation: every leaf row
        # pins its single edge, so the subspace is trivial
        g = star_graph(3)
        sub = degree_subspace(g)
        assert sub.dim == 0
        for y in sub.basis().T:
            rows = np.zeros(g.n)
            for j, (u, v, w) in enumerate(g.edges):
                rows[u] += w * y[j]
                rows[v] += w * y[j]
            assert np.max(np.abs(rows)) <= 1e-10

    def test_cycle_alternating_member(self):
        g = cycle_graph(4)
        sub = degree_subspace(g)
        # edges sorted: (0,1),(0,3),(1,2),(2,3); alternate so each vertex
        # sees one +1 and one -1
        y = np.array([1.0, -1.0, -1.0, 1.0])
        assert sub.contains(y / 2.0, tol=1e-10)

    def test_random_graph_dimension(self):
        g = random_connected_graph(10, 0.6, seed=2)
        sub = degree_subspace(g)
        assert sub.dim >= g.m - g.n
        resid = sub.complement_rows @ sub.basis()
        assert np.max(np.abs(resid), initial=0.0) <= 1e-10


class TestSpectralSparsify:
    def test_identity_below_threshold(self):
        g = complete_graph(8)
        res = spectral_sparsify(g, 0.5)
        assert res.graph.edges == g.edges

    def test_forced_rounds_quality(self):
        g = complete_graph(16)
        res = spectral_sparsify(g, 0.45, c_support=1.0)
        assert res.graph.m < g.m
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
        lap = g.laplacian()
        lph = linalg.matrix_function(lap, "pinv_sqrt")
        rel = linalg.operator_norm(lph @ (lap - res.graph.laplacian()) @ lph)
        assert rel <= 0.45
        assert all(w > 0 for _, _, w in res.graph.edges)
        # Loewner-order oracle: (1 - eps) L <= L_hat <= (1 + eps) L
        eps = rel + 1e-9
        lap_t = res.graph.laplacian()
        upper = linalg.eigvalsh((1.0 + eps) * lap - lap_t)
        lower = linalg.eigvalsh(lap_t - (1.0 - eps) * lap)
        assert upper[0] >= -1e-8 and lower[0] >= -1e-8

    def test_walks_take_no_svd_for_step_caps(self, monkeypatch):
        # the Frobenius cap clears the box boundary at every step, so the
        # exact operator norm is never needed
        calls = []
        spectral_norm = linalg.spectral_norm
        monkeypatch.setattr(linalg, "spectral_norm", lambda a: calls.append(1) or spectral_norm(a))
        res = spectral_sparsify(complete_graph(16), 0.45, c_support=1.0)
        assert res.rounds >= 1
        assert not calls

    def test_walk_holds_under_five_quadratic_forms(self):
        # an iteration holds N, one Hadamard factor of the next N and its
        # Gram product at once: no earlier N, no m_t x m_t weight products
        g = complete_graph(20)
        tracemalloc.start()
        try:
            res = spectral_sparsify(g, 0.45, c_support=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rounds >= 1
        assert peak < 5 * g.m * g.m * 8

    def test_component_wrapper(self):
        g = Graph(6, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
        res = spectral_sparsify(g, 0.5)
        assert res.graph == g  # both components below threshold
        assert res.pieces == 2 and res.rounds == 0


class TestComponents:
    """spectral and uc split undirected input into its connected components."""

    @pytest.mark.parametrize("pipeline,eps,c_support", [
        (spectral_sparsify, 0.45, 1.0),
        (uc_sparsify, 0.45, 0.6),
    ], ids=["spectral", "uc"])
    def test_components_match_separate_runs(self, pipeline, eps, c_support):
        # K_14 on 0..13, K_12 on 14..25, vertex 26 isolated
        big, k12 = complete_graph(14), complete_graph(12)
        shift = lambda edges: tuple((u + 14, v + 14, w) for u, v, w in edges)
        g = Graph(27, big.edges + shift(k12.edges))
        res = pipeline(g, eps, c_support=c_support)
        a, b = pipeline(big, eps, c_support=c_support), pipeline(k12, eps, c_support=c_support)
        assert res.graph == Graph(27, a.graph.edges + shift(b.graph.edges))
        assert res.graph.m < g.m
        assert res.pieces == 2
        assert res.rounds == a.rounds + b.rounds > 0
        assert res.diagnostics == a.diagnostics + b.diagnostics

    def test_diagnostics_are_the_rounds_of_both_components(self):
        # K_14 on 0..13, K_12 on 14..25: one support size per halving round
        big, k12 = complete_graph(14), complete_graph(12)
        shift = lambda edges: tuple((u + 14, v + 14, w) for u, v, w in edges)
        res = spectral_sparsify(Graph(26, big.edges + shift(k12.edges)), 0.45, c_support=1.0)
        records = []
        for c in (big, k12):
            records += sparsify(spectral_family(c), degree_subspace(c), 0.45, c_support=1.0)[1]
        assert len(records) > 2
        assert res.diagnostics == records and res.rounds == len(records)

    @pytest.mark.parametrize("pipeline", [spectral_sparsify, uc_sparsify],
                             ids=["spectral", "uc"])
    def test_directed_rejected(self, pipeline):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), directed=True)
        with pytest.raises(InvalidInput):
            pipeline(g, 0.45)


class TestUcSparsify:
    def test_block_identity(self):
        # sum of the family equals diag(proj off ker L, proj off ker U)
        for g in (complete_graph(7), complete_bipartite(3, 4)):
            fam = uc_family(g)
            total = np.zeros((2 * g.n, 2 * g.n))
            for i in range(fam.m):
                total += fam.member(i)
            lap_kernel = kernel_basis(g.laplacian())
            uns_kernel = kernel_basis(g.unsigned_laplacian())
            proj_l = np.eye(g.n) - lap_kernel @ lap_kernel.T
            proj_u = np.eye(g.n) - uns_kernel @ uns_kernel.T
            expect = np.block(
                [
                    [proj_l, np.zeros((g.n, g.n))],
                    [np.zeros((g.n, g.n)), proj_u],
                ]
            )
            assert np.max(np.abs(total - expect)) <= 1e-9

    def test_identity_below_threshold(self):
        g = complete_graph(8)
        res = uc_sparsify(g, 0.5)
        assert res.graph.edges == g.edges
        assert verify.check_uc_undirected(g, res.graph, 0.5).measured_eps == 0.0

    def test_forced_rounds_both_errors(self):
        g = complete_graph(16)
        res = uc_sparsify(g, 0.45, c_support=0.6)
        assert res.graph.m < g.m
        assert verify.check_uc_undirected(g, res.graph, 0.45).measured_eps <= 0.45
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_bipartite_kernel_preserved(self):
        g = complete_bipartite(10, 10)
        res = uc_sparsify(g, 0.45, c_support=0.5)
        assert res.graph.m < g.m
        diff = g.adjacency() - res.graph.adjacency()
        sign = np.concatenate([np.ones(10), -np.ones(10)])
        assert np.linalg.norm(diff @ sign) <= 1e-8


class TestSvSparsify:
    def test_k44_family_norm(self):
        g = complete_bipartite(4, 4)
        fam = sv_expander_family(g, 1.0)
        norm = fam.aggregate_norm(np.ones(g.m))
        assert abs(norm - 1.0) <= 1e-9  # lam / lambda_2 with lambda_2 = 1

    def test_small_lambda_vacuous_but_valid(self):
        g = complete_bipartite(4, 4)
        fam = sv_expander_family(g, 1e-6)
        assert fam.aggregate_norm(np.ones(g.m)) <= 2e-6

    def test_expander_degrees_preserved(self):
        g = complete_bipartite(4, 4)
        res = sv_sparsify_expander(g, 0.5)
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_non_bipartite_rejected(self):
        with pytest.raises(InvalidInput):
            sv_sparsify_expander(complete_graph(5), 0.4)

    def test_directed_cycle_pipeline(self):
        g = Graph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)), directed=True)
        res = sv_sparsify(g, eps=0.5)
        assert res.graph.m == g.m  # a cycle admits no degree-preserving removal
        rep = verify.check_sv(g, res.graph, target=0.5)
        assert rep.kernel_ok
        assert rep.measured_eps <= 1e-9

    def test_empty_graph(self):
        g = Graph(4, (), directed=True)
        res = sv_sparsify(g, eps=0.5)
        assert res.graph == g
        assert res.pieces == 0 and res.rounds == 0

    def test_tournament_union_sparsifies(self):
        g = tournament_union(16, 101, 202)
        res = sv_sparsify(g, eps=2.0, phi_target=0.25, c_support=1.25)
        assert res.graph.m < g.m
        rep = verify.check_sv(g, res.graph, target=2.0)
        assert rep.kernel_ok
        assert rep.degree_max_dev <= 1e-6

    def test_weighted_arcs_rejected(self):
        g = Graph(3, ((0, 1, 2.0),), directed=True)
        with pytest.raises(InvalidInput):
            sv_sparsify(g, eps=0.5)

    def test_piece_eps_out_of_range_rejected(self, monkeypatch):
        # the accuracy check comes before the expander decomposition
        def decompose(*args, **kwargs):
            raise AssertionError("decomposed before checking eps * phi_target")

        monkeypatch.setattr(graph_mod, "expander_decompose", decompose)
        g = tournament_union(16, 1, 2)
        with pytest.raises(InvalidInput):
            sv_sparsify(g, eps=2.0, phi_target=0.3)  # eps * phi = 0.6 > 1/2

    def test_multi_piece_union_and_mapping(self):
        # two dense clusters: the lift decomposes into several pieces and the
        # reweighted union must map back to arcs with exact degrees
        arcs = set()
        for s1, s2, off in ((1, 2, 0), (3, 4, 16)):
            for rng in (np.random.default_rng(s1), np.random.default_rng(s2)):
                for i in range(16):
                    for j in range(i + 1, 16):
                        if rng.random() < 0.5:
                            arcs.add((off + i, off + j))
                        else:
                            arcs.add((off + j, off + i))
        arcs |= {(0, 16), (16, 0)}
        g = Graph(32, tuple((u, v, 1.0) for u, v in sorted(arcs)), directed=True)
        res = sv_sparsify(g, eps=2.0, phi_target=0.25, c_support=1.25)
        assert res.pieces >= 2
        assert res.graph.m < g.m
        rep = verify.check_sv(g, res.graph, target=2.0)
        assert rep.kernel_ok
        assert rep.degree_max_dev <= 1e-6


class TestHalvingStops:
    def test_stops_below_walk_minimum(self):
        # K_10 has 45 edges; one round leaves 38, below the walk minimum of 40
        fam = spectral_family(complete_graph(10))
        s, records, stopped = sparsify(fam, Subspace.full(45), 0.5, c_support=0.05)
        assert records == [38]
        assert np.count_nonzero(s) == 38
        assert stopped == "support 38 below walk minimum 40"

    def test_negative_weight_raises(self):
        # the round drops three of four entries but leaves -0.5 on the last
        with pytest.raises(WalksparseError, match="negative weight"):
            halve(np.ones(4), 1, lambda s: (np.array([-0.5, 0.0, 0.0, 0.0]), None))
