"""Halving sparsification loop and the graph pipelines built on it."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    bridged_cliques,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    exhaust_on_call,
    in_subspace,
    random_connected_graph,
    star_graph,
    subspace_basis,
    tournament_union,
)
from walksparse import graph as graph_mod
from walksparse import linalg, sketches, sparsify as sparsify_mod, verify
from walksparse.errors import InvalidInput, SubspaceExhausted, WalksparseError
from walksparse.graph import Graph
from walksparse.linalg import Subspace, kernel_basis
from walksparse.matrix_walk import FAMILY_NORM_SLACK, MatrixFamily, check_family_norm
from walksparse.matrix_walk import partial_color
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

SKETCH_VECTORS = np.random.default_rng(0).normal(size=(20, 16))


class TestCoreLoop:
    def test_below_threshold_identity(self):
        fam = spectral_family(complete_graph(8))
        s, rounds, stopped = sparsify(fam, Subspace.full(fam.m), eps=0.5)
        assert np.array_equal(s, np.ones(fam.m))
        assert rounds == [] and stopped is None
        assert linalg.operator_norm(fam.blocks[0].aggregate(s - 1.0)) == 0.0

    def test_forced_rounds_contract(self):
        g = complete_graph(16)
        fam = spectral_family(g)
        h = degree_subspace(g)
        s, rounds, stopped = sparsify(fam, h, eps=0.45, c_support=1.0)
        records = [r.support for r in rounds]
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
        # error from an independent eigen oracle, which the last round reports
        assert linalg.operator_norm(fam.blocks[0].aggregate(diff)) <= 0.45
        assert rounds[-1].error == linalg.operator_norm(fam.blocks[0].aggregate(diff))

    def test_dense_family_halves(self):
        # 48 random PSD 6 x 6 members whose sum has norm 1: each round walks
        # DenseBlock.scaled and .restricted, and the oracle sums the members
        rng = np.random.default_rng(5)
        a = rng.normal(size=(48, 6, 3))
        mats = a @ np.swapaxes(a, 1, 2)
        mats /= linalg.operator_norm(mats.sum(axis=0))
        fam = MatrixFamily.from_matrices(mats)
        s, rounds, stopped = sparsify(fam, Subspace.full(48), eps=0.5, c_support=1.0)
        records = [r.support for r in rounds]
        assert records and np.all(s >= 0.0) and np.count_nonzero(s) == records[-1]
        assert stopped is None or stopped.startswith("support")
        for prev, cur in zip([48] + records[:-1], records):
            assert cur <= prev - np.ceil(prev / 8.0)
        members = fam.members()
        assert all(np.array_equal(b, mats[i]) for i, b in enumerate(members))
        agg = sum(si * b for si, b in zip(s, members))
        assert linalg.operator_norm(agg) <= 2.0 + 1e-9
        assert linalg.operator_norm(agg - mats.sum(axis=0)) <= 0.5

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

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_non_psd_rejected_at_any_scale(self, scale):
        # the member's smallest eigenvalue is minus its largest |eigenvalue|:
        # the verdict is relative to the member, so a light copy fails too
        mats = np.zeros((60, 3, 3))
        mats[0] = np.diag([0.0, 0.01, -0.01])
        fam = MatrixFamily.from_matrices(scale * mats)
        with pytest.raises(InvalidInput, match="member 0 is not PSD"):
            sparsify(fam, Subspace.full(60), 0.5, c_support=1.0)

    def test_subspace_exhausted_when_threshold_too_low(self):
        # a round whose restricted subspace is below (4/5) m_r cannot walk:
        # the loop stops and returns the last completed round
        g = complete_graph(16)
        fam = spectral_family(g)
        h = degree_subspace(g)
        s, rounds, stopped = sparsify(fam, h, eps=0.5, c_support=0.25)
        assert re.fullmatch(r"restricted subspace dim \d+ < \(4/5\) m_r = [\d.]+", stopped)
        assert rounds and np.count_nonzero(s) == rounds[-1].support > 0.25 * g.n / 0.5**2
        diff = s - 1.0
        assert np.linalg.norm(h.complement_rows @ diff) <= 1e-7 * np.linalg.norm(diff)


class TestDegreeSubspace:
    def test_star_members_balance(self):
        # a star admits no degree-preserving perturbation: every leaf row
        # pins its single edge, so the subspace is trivial
        g = star_graph(3)
        sub = degree_subspace(g)
        assert sub.dim == 0
        for y in subspace_basis(sub).T:
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
        assert in_subspace(sub, y / 2.0, tol=1e-10)

    def test_random_graph_dimension(self):
        g = random_connected_graph(10, 0.6, seed=2)
        sub = degree_subspace(g)
        assert sub.dim >= g.m - g.n
        resid = sub.complement_rows @ subspace_basis(sub)
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

    @pytest.mark.parametrize(
        "name,powers",
        [("k24", (-40, 0, 40)), ("lognormal", range(-60, 61, 12))],
    )
    def test_output_does_not_depend_on_the_weight_scale(self, name, powers):
        # scaling every weight by an even power of two scales L^{+/2} by an
        # exact power of two, so the walk takes the same path at every
        # scale once its zero tests are relative
        if name == "k24":
            g = complete_graph(24)
        else:
            rng = np.random.default_rng(3)
            pairs = [(i, j) for i in range(20) for j in range(i + 2, 20)]
            chosen = [(i, i + 1) for i in range(19)]
            chosen += [pairs[k] for k in rng.choice(len(pairs), 101, replace=False)]
            g = Graph(20, tuple((u, v, w) for (u, v), w in zip(chosen, rng.lognormal(0, 1, 120))))
        runs = set()
        for k in powers:
            gk = g.reweighted(np.full(g.m, 2.0**k))
            out = spectral_sparsify(gk, 0.45, c_support=1.0).graph
            eps = verify.check_spectral(gk, out, 0.45).measured_eps
            runs.add((tuple((u, v, w / 2.0**k) for u, v, w in out.edges), eps))
        assert len(runs) == 1
        assert next(iter(runs))[0] != g.edges

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

    @pytest.mark.parametrize("pipeline,g,message", [
        (spectral_sparsify, bridged_cliques(16, 1e-10), "lambda_2/lambda_max = 7.816e-13"),
        (uc_sparsify, bridged_cliques(16, 1e-10), "lambda_2/lambda_max = 7.816e-13"),
        # K_12,12 plus a 1e-10 edge inside one side: U has no exact kernel
        # (the edge closes odd cycles) but one numerically zero eigenvalue
        (uc_sparsify, Graph(24, complete_bipartite(12, 12).edges + ((0, 1, 1e-10),)),
         "unsigned Laplacian is numerically bipartite: lambda_1/lambda_max = 6.945e-13"),
    ], ids=["spectral", "uc", "uc-light-odd-edge"])
    def test_numerically_disconnected_component_is_refused_before_the_walk(
            self, pipeline, g, message, monkeypatch):
        # two K_16 joined by a 1e-10 bridge form one component whose L has
        # two numerically zero eigenvalues: whitening by L^{+/2} would drop
        # the bridge direction, so the family builder refuses the input
        def walk(*args):
            raise AssertionError("the walk ran on a numerically disconnected input")

        monkeypatch.setattr(sparsify_mod, "partial_color", walk)
        with pytest.raises(InvalidInput, match=message):
            pipeline(g, 0.45, c_support=1.0)

    @pytest.mark.parametrize("side,bridge", [(8, 1.3e-8), (8, 1.73e-8), (16, 1.3e-8),
                                             (16, 3e-7)])
    @pytest.mark.parametrize("family_of", [spectral_family, uc_family], ids=["spectral", "uc"])
    def test_family_of_a_light_bridge_is_accepted(self, family_of, side, bridge):
        # whitening two cliques joined by a light (but numerically connected)
        # bridge sums to a projection only up to ~1e-6 rounding, which
        # FAMILY_NORM_SLACK admits; the default c_support takes no round
        g = bridged_cliques(side, bridge)
        fam = family_of(g)
        assert fam.abs_aggregate_norm() <= 1.0 + FAMILY_NORM_SLACK
        s, rounds, stopped = sparsify(fam, degree_subspace(g), 0.45)
        assert np.array_equal(s, np.ones(g.m)) and rounds == [] and stopped is None


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
        fam = sv_expander_family(g)
        norm = fam.aggregate_norm(np.ones(g.m))
        assert abs(norm - 1.0) <= 1e-9  # lam / lambda_2 with lambda_2 = 1

    def test_small_lambda_vacuous_but_valid(self):
        g = complete_bipartite(4, 4)
        fam = sv_expander_family(g).scaled(np.full(g.m, 1e-6))
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
        # K_10 has 45 edges; one round leaves 39, below the walk minimum of 40
        fam = spectral_family(complete_graph(10))
        s, rounds, stopped = sparsify(fam, Subspace.full(45), 0.5, c_support=0.05)
        assert [r.support for r in rounds] == [39]
        assert np.count_nonzero(s) == 39
        assert stopped == "support 39 below walk minimum 40"

    def test_walk_that_runs_out_keeps_the_completed_rounds(self, monkeypatch):
        # K_16 at eps 0.45, c_support 1 needs a second round; its walk
        # raises, so the pipeline returns the first round's weights
        exhaust_on_call(monkeypatch, sparsify_mod, "partial_color", 2)
        res = spectral_sparsify(complete_graph(16), 0.45, c_support=1.0)
        assert res.rounds == 1 and res.stopped_early == "patched"
        assert res.graph.m == res.diagnostics[0].support

    @given(m=st.integers(8, 64), k=st.integers(0, 3))
    def test_a_raising_round_returns_the_last_completed_one(self, m, k):
        # each round zeroes the first half of the support and doubles the
        # rest; round k + 1 raises, before the threshold 0 is reached
        after = [np.ones(m)]

        def round_fn(s):
            if len(after) == k + 1:
                raise SubspaceExhausted(f"round {k + 1} cannot run")
            support = np.flatnonzero(s)
            s_new = 2.0 * s
            s_new[support[: (len(support) + 1) // 2]] = 0.0
            after.append(s_new)
            return s_new, len(after) - 1

        s, rounds, stopped = halve(np.ones(m), 0, round_fn, np.sum)
        assert stopped == f"round {k + 1} cannot run"
        assert np.array_equal(s, after[k]) and len(rounds) == k
        assert [r.support for r in rounds] == [np.count_nonzero(a) for a in after[1:]]
        assert [r.error for r in rounds] == [np.sum(a) for a in after[1:]]
        assert [r.walk_iterations for r in rounds] == list(range(1, k + 1))

    def test_round_that_leaves_the_subspace_raises(self, monkeypatch):
        # one coordinate that the walk left free is set to -1: its edge is
        # dropped, and the degree rows no longer hold
        walk = sparsify_mod.partial_color

        def off_subspace(*args, **kwargs):
            x = walk(*args, **kwargs)
            x[np.flatnonzero(np.abs(x) < 1.0)[0]] = -1.0
            return x

        monkeypatch.setattr(sparsify_mod, "partial_color", off_subspace)
        with pytest.raises(WalksparseError, match="reweighting left the constraint subspace"):
            spectral_sparsify(complete_graph(16), 0.45, c_support=1.0)

    def test_negative_weight_raises(self):
        # the round drops three of four entries but leaves -0.5 on the last
        with pytest.raises(WalksparseError, match="negative weight"):
            halve(np.ones(4), 1, lambda s: (np.array([-0.5, 0.0, 0.0, 0.0]), 1), np.sum)


def spy_walks(monkeypatch):
    """The (family, subspace) of every `partial_color` call of a matrix round."""
    walks, walk = [], sparsify_mod.partial_color

    def spy(family, h, **kwargs):
        walks.append((family, h))
        return walk(family, h, **kwargs)

    monkeypatch.setattr(sparsify_mod, "partial_color", spy)
    return walks


class TestChunkedRounds:
    @given(m_r=st.integers(0, 500), width=st.integers(1, 80))
    def test_round_chunks_partition_the_support(self, m_r, width):
        chunks = sparsify_mod.round_chunks(m_r, width)
        assert len(chunks) == max(1, m_r // width)
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(m_r))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert len(chunks) == 1 or min(sizes) >= width

    def test_chunk_walks_see_a_family_of_norm_one(self, monkeypatch):
        # K_32's first two rounds, of 496 and 432 edges, reach 12 r = 384 for
        # its r = 32 degree rows: two walks each, in the chunk's own subspace
        walks = spy_walks(monkeypatch)
        g = complete_graph(32)
        res = spectral_sparsify(g, 0.45, c_support=1.0)
        assert [f.m for f, _ in walks[:5]] == [248, 248, 216, 216, res.diagnostics[1].support]
        assert len(walks) == res.rounds + 2
        for family, h in walks:
            check_family_norm(family)
            assert h.dim >= 0.8 * family.m
        for family, _ in walks[:4]:
            assert abs(family.abs_aggregate_norm() - 1.0) <= 1e-9
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_round_below_twelve_rows_walks_whole(self, monkeypatch):
        # K_24's 276 edges are below 12 r = 288: one walk on the whole
        # support, bit for bit; K_25's 300 edges walk two chunks of 150
        walks = spy_walks(monkeypatch)
        for n, sizes in ((24, [276]), (25, [150, 150])):
            g = complete_graph(n)
            fam, h, s = spectral_family(g), degree_subspace(g), np.ones(g.m)
            walks.clear()
            s_new, _ = sparsify_mod._matrix_round(fam, h, s)
            assert [f.m for f, _ in walks] == sizes
        g = complete_graph(24)
        fam, h = spectral_family(g), degree_subspace(g)
        s, support = np.ones(g.m), np.arange(g.m)
        s_new, _ = sparsify_mod._matrix_round(fam, h, s)
        x = partial_color(fam.scaled(0.5 * s).restricted(support),
                          linalg.nullspace((h.complement_rows * s)[:, support]))
        assert np.array_equal(s_new, sparsify_mod.halve_support(s, support, x))


class TestRoundRecords:
    """Each round records the support after it and its error, which on a
    one-piece input ends at what `verify` measures on the output: exactly
    for `sketch` and `resist`, which call verify's measure, and to 1e-9 for
    the matrix pipelines, whose family norm is the same error computed
    another way."""

    @pytest.mark.parametrize("pipeline,check,tol", [
        (lambda: spectral_sparsify(complete_graph(16), 0.45, c_support=1.0),
         lambda g, out: verify.check_spectral(g, out, np.inf), 1e-9),
        (lambda: uc_sparsify(complete_graph(14), 0.5, c_support=0.5),
         lambda g, out: verify.check_uc_undirected(g, out, np.inf), 1e-9),
        (lambda: sketches.sketch(complete_graph(16), SKETCH_VECTORS, 0.5),
         lambda g, out: verify.check_sketch(g, out, SKETCH_VECTORS, np.inf), 0.0),
        (lambda: sketches.resistance_sparsify(complete_graph(14), 0.5, c_resist=1.0),
         lambda g, out: verify.check_resistance(g, out, np.inf), 0.0),
    ], ids=["spectral", "uc", "sketch", "resist"])
    def test_last_round_is_the_verified_output(self, pipeline, check, tol):
        res = pipeline()
        assert res.pieces == 1 and res.rounds >= 2
        last = res.diagnostics[-1]
        assert last.support == res.graph.m
        n = res.graph.n
        assert abs(last.error - check(complete_graph(n), res.graph).measured_eps) <= tol
        supports = [r.support for r in res.diagnostics]
        assert supports == sorted(supports, reverse=True)
        assert all(r.error > 0.0 and r.walk_iterations > 0 for r in res.diagnostics)

    def test_sv_round_error_is_the_sv_error(self):
        # K_12,12 less a perfect matching: irregular enough that the family
        # scale lam_build = 10/11 differs from 1, so a round's family norm
        # is not its SV error; the halving loop stops after one round
        g = Graph(24, tuple((i, 12 + j, 1.0) for i in range(12) for j in range(12) if i != j))
        res = sv_sparsify_expander(g, 0.5, c_support=1.0)
        assert res.pieces == 1 and res.rounds == 1
        last = res.diagnostics[-1]
        assert last.support == res.graph.m < g.m
        assert abs(last.error - verify.check_sv(g, res.graph, np.inf).measured_eps) <= 1e-9

    def test_resistance_error_is_inf_once_disconnected(self):
        # K_4 less the edges at vertex 3: vertex 3 has no path to the rest
        g = complete_graph(4)
        s = np.array([1.0 if 3 not in (u, v) else 0.0 for u, v, _ in g.edges])
        assert graph_mod.resistance_error(g, g) == 0.0
        assert graph_mod.resistance_error(g, g.reweighted(s)) == np.inf
