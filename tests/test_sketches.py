"""Sketch machinery: recentering, freeze sets, sketch and resistance loops."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from walksparse import linalg, sketches, verify
from walksparse.errors import InvalidInput, WalksparseError
from walksparse.graph import Graph
from walksparse.sketches import (
    freeze_sets,
    resistance_pairs,
    resistance_sparsify,
    shift_center,
    sketch,
    sketch_expander,
)


def unit_vectors(k, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(k, n))
    return z / np.linalg.norm(z, axis=1)[:, None]


class TestShiftCenter:
    def test_constant_vector_vanishes(self):
        g = complete_graph(5)
        assert np.allclose(shift_center(3.0 * np.ones(5), g), 0.0)

    def test_regular_graph_mean(self):
        g = cycle_graph(6)
        z = np.arange(6.0)
        assert np.allclose(shift_center(z, g), z - z.mean())

    def test_degree_weighted_sum_zero(self):
        g = random_connected_graph(9, 0.4, seed=3)
        rng = np.random.default_rng(4)
        z = rng.normal(size=9)
        zbar = shift_center(z, g)
        assert abs(g.weighted_degrees() @ zbar) <= 1e-9


class TestFreezeSets:
    def test_uniform_weights_nothing_frozen(self):
        g = complete_graph(8)
        e0, e1, es = freeze_sets(g, np.ones(g.m))
        assert len(e0) == 0 and len(e1) == 0
        assert len(es) == g.m

    def test_star_classification(self):
        g = star_graph(6)
        s = np.ones(g.m)
        e0, e1, es = freeze_sets(g, s)
        # every leaf has support degree 1 <= m/(10 n)? m=6, n=7 -> 6/70 < 1,
        # so no vertex is low-degree and uniform weights freeze nothing
        assert len(e0) == 0 and len(e1) == 0
        assert sorted(np.concatenate([e0, e1, es])) == list(range(g.m))

    def test_bounds_after_real_rounds(self):
        g = complete_graph(16)
        kvecs = unit_vectors(140, 16, seed=5)
        res = sketch_expander(g, kvecs, 0.3)
        s = np.zeros(g.m)
        for u, v, w in res.graph.edges:
            for j, (a, b, _) in enumerate(g.edges):
                if (a, b) == (u, v):
                    s[j] = w
        e0, e1, es = freeze_sets(g, s)
        assert len(e0) <= g.m / 5 + 1e-9
        assert len(e1) <= g.m / 10 + 1e-9
        assert len(e0) + len(e1) + len(es) == np.count_nonzero(s)

    def test_partition_of_support(self):
        g = complete_graph(10)
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 3.0, size=g.m)
        s[rng.random(g.m) < 0.3] = 0.0
        e0, e1, es = freeze_sets(g, s)
        combined = sorted(np.concatenate([e0, e1, es]))
        assert combined == sorted(np.flatnonzero(s > 0))

    @given(st.integers(0, 10_000))
    def test_partition_property(self, seed):
        g = complete_graph(9)
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, 4.0, size=g.m)
        s[rng.random(g.m) < 0.4] = 0.0
        e0, e1, es = freeze_sets(g, s)
        combined = np.concatenate([e0, e1, es])
        assert len(combined) == len(set(combined.tolist()))
        assert sorted(combined) == sorted(np.flatnonzero(s > 0))
        assert len(e1) <= g.m / 10.0 + 1e-9


class TestSketchExpander:
    def test_below_threshold_identity(self):
        # eps small enough that the threshold exceeds m: no rounds run
        g = complete_graph(8)
        kvecs = unit_vectors(30, 8, seed=7)
        res = sketch_expander(g, kvecs, 0.2)
        assert res.rounds == 0
        assert res.graph.edges == g.edges
        assert verify.check_sketch(g, res.graph, kvecs, np.inf).measured_eps <= 1e-12

    def test_k16_quality(self):
        g = complete_graph(16)
        kvecs = unit_vectors(200, 16, seed=8)
        res = sketch_expander(g, kvecs, 0.25)
        assert res.rounds >= 1
        assert res.graph.m < g.m
        assert verify.check_sketch(g, res.graph, kvecs, np.inf).measured_eps <= 4.0 * 0.25
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
        for diag in res.diagnostics:
            assert diag.identity_residual <= 1e-8
            assert diag.norm_chain_margin >= -1e-9
            assert diag.degree_dev <= 1e-6
            lam_factor = max(1.0, np.sqrt(max(0.0, np.log(200.0 / diag.support))))
            assert diag.walk_discrepancy <= 12.0 * lam_factor

    def test_too_few_vectors_rejected(self):
        g = complete_graph(8)
        with pytest.raises(InvalidInput):
            sketch_expander(g, unit_vectors(5, 8, seed=1), 0.5)

    def test_weighted_input_rejected(self):
        g = Graph(3, ((0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)))
        with pytest.raises(InvalidInput):
            sketch_expander(g, unit_vectors(5, 3, seed=1), 0.5)

    def test_disconnected_rejected(self):
        # lambda_2 of two disjoint triangles is 0 up to rounding
        edges = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
        g = Graph(6, tuple((u, v, 1.0) for u, v in edges))
        with pytest.raises(InvalidInput, match="connected"):
            sketch_expander(g, unit_vectors(8, 6, seed=1), 0.5)


class TestSketchPipeline:
    def test_dumbbell_pieces_union_degree_preserving(self):
        g = dumbbell_graph(8)
        kvecs = unit_vectors(60, 16, seed=9)
        res = sketch(g, kvecs, 0.3, phi_target=0.1)
        assert res.pieces >= 2
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
        assert verify.check_sketch(g, res.graph, kvecs, np.inf).measured_eps <= 4.0 * 0.3

    def test_expander_single_piece_matches(self):
        g = complete_graph(12)
        kvecs = unit_vectors(40, 12, seed=10)
        res = sketch(g, kvecs, 0.4)
        assert res.pieces == 1

    def test_deterministic(self):
        g = complete_graph(12)
        kvecs = unit_vectors(40, 12, seed=11)
        r1 = sketch(g, kvecs, 0.4)
        r2 = sketch(g, kvecs, 0.4)
        assert r1.graph.edges == r2.graph.edges


class TestResistance:
    def test_pairs_shape(self):
        g = complete_graph(6)
        vecs = resistance_pairs(g)
        assert vecs.shape == (15, 6)

    def test_path_identity(self):
        # trees admit no degree-preserving sparsification; loop never runs
        g = path_graph(3)
        res = resistance_sparsify(g, 0.5)
        assert res.graph.edges == g.edges
        assert verify.effective_resistance_report(g, res.graph) <= 1e-12
        # series resistance oracle
        ldag = linalg.matrix_function(g.laplacian(), "pinv")
        b = np.array([1.0, 0.0, -1.0])
        assert abs(b @ ldag @ b - 2.0) <= 1e-9

    def test_k16_quality(self):
        g = complete_graph(16)
        res = resistance_sparsify(g, 0.3)
        assert res.rounds >= 1
        assert res.graph.m < g.m
        assert verify.effective_resistance_report(g, res.graph) <= 4.0 * 0.3
        spectral = verify.check_spectral(g, res.graph, np.inf)
        assert spectral.measured_eps <= 4.0 * np.sqrt(0.3)
        sketch_rep = verify.check_sketch(g, res.graph, resistance_pairs(g), np.inf)
        assert sketch_rep.measured_eps <= 4.0 * 0.3
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_deterministic(self):
        g = complete_graph(12)
        r1 = resistance_sparsify(g, 0.4)
        r2 = resistance_sparsify(g, 0.4)
        assert r1.graph.edges == r2.graph.edges

    def test_irregular_graph_quality(self):
        # non-uniform degrees exercise the freeze sets and recentering
        rng = np.random.default_rng(5)
        edges = {
            (i, j)
            for i in range(20)
            for j in range(i + 1, 20)
            if rng.random() < 0.45
        }
        g = Graph(20, tuple((u, v, 1.0) for u, v in sorted(edges)))
        res = resistance_sparsify(g, 1.0)
        assert res.rounds >= 1
        assert res.graph.m < g.m
        assert verify.effective_resistance_report(g, res.graph) <= 4.0 * 1.0
        assert verify.check_spectral(g, res.graph, np.inf).measured_eps <= 4.0 * 1.0
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_resistance_oracle_complete_graph(self):
        # K_n has all pairwise resistances 2/n
        g = complete_graph(8)
        ldag = linalg.matrix_function(g.laplacian(), "pinv")
        b = np.zeros(8)
        b[0], b[3] = 1.0, -1.0
        assert abs(b @ ldag @ b - 2.0 / 8.0) <= 1e-9

    @pytest.mark.parametrize("c_resist", [np.nan, np.inf, 0.0, -1.0])
    def test_c_resist_validation(self, c_resist):
        with pytest.raises(InvalidInput, match="c_resist"):
            resistance_sparsify(complete_graph(8), 0.5, c_resist=c_resist)


class TestHalvingStops:
    def test_sketch_stops_when_update_subspace_is_empty(self):
        g = complete_graph(12)
        kvecs = np.random.default_rng(0).normal(size=(30, 12))
        res = sketch_expander(g, kvecs, 1.5)
        assert res.rounds == 7 and res.graph.m == 19
        assert res.stopped_early.startswith("walk stopped: update subspace is empty")
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_resistance_stops_when_update_subspace_is_empty(self):
        res = resistance_sparsify(complete_graph(12), 1.9)
        assert res.rounds == 4 and res.graph.m == 20
        assert res.stopped_early.startswith("walk stopped: update subspace is empty")

    def test_round_that_freezes_nothing_raises(self, monkeypatch):
        # a walk that returns x = 0 leaves s unchanged; `halve` must reject
        # the round instead of repeating it
        calls = []

        def frozen_nothing(m, sides, extra_rows, adaptive_steps, log):
            calls.append(m)
            assert len(calls) == 1, "the halving loop repeated a round that zeroed nothing"
            return np.zeros(m)

        monkeypatch.setattr(sketches, "_walk_loop", frozen_nothing)
        kvecs = np.random.default_rng(0).normal(size=(30, 12))
        with pytest.raises(WalksparseError, match="support only dropped 0"):
            sketch_expander(complete_graph(12), kvecs, 1.5)


class TestRoundChecks:
    def test_rewrite_check_fires_on_a_non_degree_preserving_coloring(self, monkeypatch):
        # x = 1/2 on every coordinate moves every support degree, so
        # sum_e x s <b_e, z>^2 + 2 <a_z, x> = (1/2) sum_v d_s(v) zbar(v)^2 != 0
        def wrong(m, sides, extra_rows, adaptive_steps, log):
            return np.full(m, 0.5)

        monkeypatch.setattr(sketches, "_walk_loop", wrong)
        with pytest.raises(WalksparseError, match="degree-preserving rewrite failed"):
            sketch(complete_graph(12), unit_vectors(40, 12, seed=12), 0.4)

    def test_rewrite_check_covers_dropped_pair_rows(self, monkeypatch):
        # on K_n, L^+ b_ij is (e_i - e_j)/n, so a pair's row a_z is zero once
        # the edge ij leaves the support, and the walk drops its unit row;
        # the check still runs over all k pairs, where lhs = 0 on a dropped
        # pair is degree preservation at i and j
        g = complete_graph(14)
        pairs = resistance_pairs(g).shape[0]
        real = sketches._walk_loop
        wrong_rounds = []

        def wrong_once_rows_drop(m, sides, extra_rows, adaptive_steps, log):
            if sides[-1].ahat.shape[0] == pairs:
                return real(m, sides, extra_rows, adaptive_steps, log)
            wrong_rounds.append(sides[-1].ahat.shape[0])
            return np.full(m, 0.5)

        monkeypatch.setattr(sketches, "_walk_loop", wrong_once_rows_drop)
        with pytest.raises(WalksparseError, match="degree-preserving rewrite failed"):
            resistance_sparsify(g, 0.5, c_resist=1.0)
        assert len(wrong_rounds) == 1


def test_sketch_round_holds_under_three_constraint_copies():
    # a round holds at most two k x m float64 arrays at once (a_z and its
    # unit rows, then the unit rows and the vector side's active columns)
    g = complete_graph(16)
    kvecs = unit_vectors(600, 16, seed=13)
    tracemalloc.start()
    try:
        res = sketch(g, kvecs, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rounds >= 1
    assert peak < 3 * kvecs.shape[0] * g.m * 8
