"""Sketch machinery: recentering, freeze sets, sketch and resistance loops."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    cliques_in_a_path,
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from walksparse import graph as graph_mod
from walksparse import linalg, sketches, sparsify, verify
from walksparse.cli import main, serialize_graph
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

    def test_k16_quality(self, monkeypatch):
        # each walk's discrepancy max |<a_z/||a_z||, x>| over the unit rows
        # that `prepare_constraints` gave its round
        units, walks = [], []
        prepare, walk_loop = sketches.prepare_constraints, sketches._walk_loop

        def spy_prepare(*args):
            out = prepare(*args)
            units.append(out[0])
            return out

        def spy_walk(m, *args):
            x = walk_loop(m, *args)
            walks.append((m, float(np.max(np.abs(units[-1] @ x), initial=0.0))))
            return x

        monkeypatch.setattr(sketches, "prepare_constraints", spy_prepare)
        monkeypatch.setattr(sketches, "_walk_loop", spy_walk)
        g = complete_graph(16)
        kvecs = unit_vectors(200, 16, seed=8)
        res = sketch_expander(g, kvecs, 0.25)
        # each round walks its support in chunks, K_16's first in three of 40
        assert res.rounds >= 1 and [m for m, _ in walks[:3]] == [40, 40, 40]
        supports = [g.m] + [r.support for r in res.diagnostics[:-1]]
        assert sum(m for m, _ in walks) == sum(supports)
        assert res.graph.m < g.m
        assert verify.check_sketch(g, res.graph, kvecs, np.inf).measured_eps <= 4.0 * 0.25
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
        for m_r, discrepancy in walks:
            lam_factor = max(1.0, np.sqrt(max(0.0, np.log(200.0 / m_r))))
            assert discrepancy <= 12.0 * lam_factor

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

    def test_constant_vectors_divide_by_no_zero_scale(self):
        # a constant z has zbar = 0 up to rounding, so zbar^T D zbar is 0 or
        # tiny; the zero-row rule and the round checks make no 0/0 of it
        kvecs = np.vstack([unit_vectors(40, 12, seed=12), np.full((2, 12), 0.3), np.zeros(12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sketch(complete_graph(12), kvecs, 0.4)
        assert res.rounds > 0

    @pytest.mark.parametrize("k", [-40, -24, 24, 40])
    def test_same_sketch_at_any_scale(self, k):
        # a_z scales by 4^k and every zero-row test and round check is relative
        # to zbar^T D zbar, so no row is dropped and the output is the same
        g = complete_graph(16)
        kvecs = np.random.default_rng(0).normal(size=(60, 16))
        res = sketch(g, kvecs, 0.5)
        assert sketch(g, kvecs * 2.0**k, 0.5).graph.edges == res.graph.edges


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


@pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda g, kvecs, eps: sketch(g, kvecs, eps),
        lambda g, kvecs, eps: sketch_expander(g, kvecs, eps),
        lambda g, kvecs, eps: resistance_sparsify(g, eps),
    ],
    ids=["sketch", "sketch_expander", "resistance_sparsify"],
)
def test_eps_must_be_positive_and_finite(monkeypatch, run, eps):
    # rejected on entry, before any spectral or decomposition work
    def unreachable(*args, **kwargs):
        raise AssertionError("eps was not checked on entry")

    monkeypatch.setattr(sketches.graph_mod, "expander_decompose", unreachable)
    monkeypatch.setattr(sketches.graph_mod, "lambda2", unreachable)
    kvecs = np.random.default_rng(0).normal(size=(40, 12))
    with pytest.raises(InvalidInput, match="not a positive finite number"):
        run(complete_graph(12), kvecs, eps)


@pytest.mark.parametrize(
    "kvecs",
    [np.ones(12), np.ones((40, 11)), np.full((40, 12), np.nan), np.full((40, 12), np.inf)],
    ids=["one-dimensional", "wrong-length", "nan", "inf"],
)
@pytest.mark.parametrize("run", [sketch, sketch_expander])
def test_constraint_vectors_checked_on_entry(monkeypatch, run, kvecs):
    # rejected before any spectral or decomposition work, without a warning
    def unreachable(*args, **kwargs):
        raise AssertionError("the constraint vectors were not checked on entry")

    monkeypatch.setattr(sketches.graph_mod, "expander_decompose", unreachable)
    monkeypatch.setattr(sketches.graph_mod, "lambda2", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="constraint vectors"):
            run(complete_graph(12), kvecs, 0.5)


class TestHalvingStops:
    def test_sketch_stops_when_update_subspace_is_empty(self):
        g = complete_graph(12)
        kvecs = np.random.default_rng(0).normal(size=(30, 12))
        res = sketch_expander(g, kvecs, 1.5)
        assert res.rounds == 7 and res.graph.m == 19
        assert res.stopped_early.startswith("update subspace is empty")
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6

    def test_resistance_stops_when_update_subspace_is_empty(self):
        res = resistance_sparsify(complete_graph(12), 1.9)
        assert res.rounds == 5 and res.graph.m == 19
        assert res.stopped_early.startswith("update subspace is empty")

    def test_round_that_freezes_nothing_raises(self, monkeypatch):
        # a walk that returns x = 0 leaves s unchanged; `halve` must reject
        # the round instead of repeating it.  The round's chunk walks cover
        # K_12's 66 edges once
        calls = []

        def frozen_nothing(m, sides, extra_rows, adaptive_steps, log):
            calls.append(m)
            assert sum(calls) <= 66, "the halving loop repeated a round that zeroed nothing"
            return np.zeros(m)

        monkeypatch.setattr(sketches, "_walk_loop", frozen_nothing)
        kvecs = np.random.default_rng(0).normal(size=(30, 12))
        with pytest.raises(WalksparseError, match="support only dropped 0"):
            sketch_expander(complete_graph(12), kvecs, 1.5)


class TestRoundChecks:
    def test_norm_chain_check_fires_on_long_rows(self, monkeypatch):
        # rows 10^6 times longer than a_z break the freeze sets' bound
        # ||a_z|| <= 100 (n/m) zbar^T D zbar
        prepare = sketches.prepare_constraints

        def long_rows(a_rows, zbar_d):
            unit, norms, kept = prepare(a_rows, zbar_d)
            return unit, 1e6 * norms, kept

        monkeypatch.setattr(sketches, "prepare_constraints", long_rows)
        with pytest.raises(WalksparseError, match="freeze-set norm bound violated"):
            sketch_expander(complete_graph(12), unit_vectors(40, 12, seed=12), 0.4)

    def test_degree_check_fires_on_a_moved_weight(self, monkeypatch):
        # an update that also scales one kept edge moves both its endpoints'
        # weighted degrees
        update = sketches.halve_support

        def heavier(s, support, x_sub):
            s_new = update(s, support, x_sub)
            s_new[np.flatnonzero(s_new)[0]] *= 1.5
            return s_new

        monkeypatch.setattr(sketches, "halve_support", heavier)
        with pytest.raises(WalksparseError, match="degree preservation failed"):
            sketch_expander(complete_graph(12), unit_vectors(40, 12, seed=12), 0.4)

    def test_courant_fischer_check_fires_on_uncentred_vectors(self, monkeypatch):
        # a constant shift adds to zbar^T D zbar and not to zbar^T L zbar, so
        # zbar^T L zbar >= lambda_2 zbar^T D zbar fails without the recentring
        monkeypatch.setattr(sketches, "shift_center", lambda z, g: np.asarray(z) + 1.0)
        with pytest.raises(WalksparseError, match="variational lower bound"):
            sketch_expander(complete_graph(12), unit_vectors(40, 12, seed=12), 0.4)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-30], ids=["1", "2^-30"])
    def test_rewrite_check_fires_on_a_non_degree_preserving_coloring(self, monkeypatch, scale):
        # x = 1/2 on every coordinate of a chunk moves every support degree,
        # so chunk c's term of sum_e x s <b_e, z>^2 + 2 <a_z, x> is
        # (1/2) sum_v d_c(v) zbar(v)^2.  K_12 walks two chunks, and the union
        # of signs (1, -1) leaves (1/2) sum_v (d_1(v) - d_2(v)) zbar(v)^2 != 0,
        # at any scale of the vectors
        def wrong(m, sides, extra_rows, adaptive_steps, log):
            return np.full(m, 0.5)

        monkeypatch.setattr(sketches, "_walk_loop", wrong)
        with pytest.raises(WalksparseError, match="degree-preserving rewrite failed: residual 7.8"):
            sketch(complete_graph(12), scale * unit_vectors(40, 12, seed=12), 0.4)

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
    # unit rows, then the unit rows and the vector side's active columns);
    # K_16 walks its rounds whole, K_24's first round walks two chunks
    for n in (16, 24):
        g = complete_graph(n)
        kvecs = unit_vectors(600, n, seed=13)
        tracemalloc.start()
        try:
            res = sketch(g, kvecs, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rounds >= 1
        assert peak < 3 * kvecs.shape[0] * g.m * 8


def spy_round_walks(monkeypatch):
    """Per `_combined_round` call, the (m, iterations) of each walk it ran."""
    rounds = []
    combined, walk_loop = sketches._combined_round, sketches._walk_loop

    def spy_round(*args):
        rounds.append([])
        return combined(*args)

    def spy_walk(m, sides, extra_rows, adaptive_steps, log):
        x = walk_loop(m, sides, extra_rows, adaptive_steps, log)
        rounds[-1].append((m, log.iterations))
        return x

    monkeypatch.setattr(sketches, "_combined_round", spy_round)
    monkeypatch.setattr(sketches, "_walk_loop", spy_walk)
    return rounds


def sketch_width(m_r, n):
    """Chunk width of a `sketch` round of m_r support edges on n vertices."""
    return max(sketches.SKETCH_CHUNK_PER_VERTEX * n, -(-m_r // sketches.SKETCH_MAX_CHUNKS))


class TestChunkedRounds:
    # a `sketch` round of m_r support edges on n vertices walks
    # max(1, m_r // sketch_width(m_r, n)) chunks, round-robin on the support

    @pytest.mark.parametrize("n,first", [(24, [56, 55, 55, 55, 55]), (16, [40, 40, 40])])
    def test_rounds_walk_their_chunks_and_keep_their_certificates(self, monkeypatch, n, first):
        # K_24: 276 edges, five chunks of about 2 * 24 in round 1; K_16: 120, three of 40
        rounds = spy_round_walks(monkeypatch)
        g = complete_graph(n)
        kvecs = unit_vectors(300, n, seed=21)
        res = sketch(g, kvecs, 0.25)
        assert res.rounds >= 2 and [m for m, _ in rounds[0]] == first
        supports = [g.m] + [r.support for r in res.diagnostics]
        for m_r, record, walks in zip(supports, res.diagnostics, rounds):
            assert sum(m for m, _ in walks) == m_r
            assert len(walks) == max(1, m_r // sketch_width(m_r, n))
            assert record.walk_iterations == sum(iterations for _, iterations in walks)
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-12
        # the last round's error is the result's, measured the same way
        assert res.diagnostics[-1].error == graph_mod.sketch_error(g, res.graph, kvecs)
        assert verify.check_sketch(g, res.graph, kvecs, 4.0 * 0.25).passed

    def test_resist_chunk_families_have_norm_one(self, monkeypatch):
        # each chunk's matrix side walks its members of the half family
        # scaled to norm 1; whole rounds walk it unscaled.  The round checks
        # the half family itself, once, with check_family_norm
        half_norms, side_norms = [], []
        check, side = sketches.check_family_norm, sketches._MatrixSide

        def spy_check(family):
            check(family)
            half_norms.append(family.abs_aggregate_norm())

        def spy_side(family, **kwargs):
            side_norms.append(family.abs_aggregate_norm())
            return side(family, **kwargs)

        monkeypatch.setattr(sketches, "check_family_norm", spy_check)
        monkeypatch.setattr(sketches, "_MatrixSide", spy_side)
        rounds = spy_round_walks(monkeypatch)
        res = resistance_sparsify(complete_graph(22), 0.25, c_resist=1.0)
        assert res.rounds >= 1 and [m for m, _ in rounds[0]] == [116, 115]
        # the chunk count of each walk's round, in walk order
        chunk_counts = [len(r) for r in rounds for _ in r]
        assert len(side_norms) == len(chunk_counts)
        for chunks, norm in zip(chunk_counts, side_norms):
            if chunks > 1:
                assert norm == pytest.approx(1.0, abs=1e-12)
            else:
                assert norm <= 1.0
        # one check per round that walked, on its half family: 231 and 176 edges
        assert len(half_norms) == sum(1 for r in rounds if r)
        assert half_norms[:2] == [pytest.approx(0.500, abs=5e-4), pytest.approx(0.609, abs=5e-4)]


class TestSignChoice:
    def test_k16_round_takes_the_best_admissible_sign_pattern(self, monkeypatch):
        # K_16's second `sketch` round, on uneven weights s, walks three
        # chunks.  The closed form scores every one of the 2^3 sign patterns
        # as `graph.sketch_error` measures the weights s (1 + sum_c sigma_c
        # x_c), and the round takes the least among the unions with no more
        # +1 than -1 entries
        g = complete_graph(16)
        kvecs = unit_vectors(200, 16, seed=8)
        zbar = shift_center(kvecs, g)
        zbar_d = (zbar**2) @ g.weighted_degrees()
        forms = graph_mod.sketch_forms(g, kvecs)
        s = sketches._combined_round(g, None, zbar, zbar_d, np.ones(g.m), g.n, forms)[0]
        support = np.flatnonzero(s)
        colorings, scored = [], []
        walk, score = sketches._walk_loop, sketches._pattern_errors
        monkeypatch.setattr(sketches, "_walk_loop",
                            lambda m, *a: colorings.append(walk(m, *a)) or colorings[-1])
        monkeypatch.setattr(sketches, "_pattern_errors",
                            lambda *a: scored.append(a) or score(*a))
        s_new, _ = sketches._combined_round(g, None, zbar, zbar_d, s, g.n, forms)
        chunks = sparsify.round_chunks(len(support), sketch_width(len(support), g.n))
        assert len(chunks) == len(colorings) == 3
        xs = np.zeros((3, g.m))
        for c, (chunk, x) in enumerate(zip(chunks, colorings)):
            xs[c, support[chunk]] = x
        patterns = np.array(list(itertools.product([1.0, -1.0], repeat=3))).T
        base, change, den, _ = scored[0]
        closed = score(base, change, den, patterns)
        admissible, best = [], None
        for sigma, err in zip(patterns.T, closed):
            x = sigma @ xs
            exact = graph_mod.sketch_error(g, g.reweighted(s * (1.0 + x)), kvecs)
            assert err == pytest.approx(exact, rel=1e-9)
            if np.sum(x == 1.0) <= np.sum(x == -1.0):
                admissible.append(tuple(sigma))
                if best is None or exact < best[0]:
                    best = (exact, s * (1.0 + x))
        assert len(scored) == 1 and sorted(map(tuple, scored[0][3].T)) == sorted(admissible)
        assert np.array_equal(s_new, best[1])

    def test_dense_round_walks_at_most_the_chunk_cap(self, monkeypatch):
        # K_54's 1431 edges hold 13 chunks of 2n = 108, past the cap of 12:
        # the round widens its chunks to ceil(1431 / 12) = 120 and walks 11,
        # so its sign search scores at most 2^12 patterns
        g = complete_graph(54)
        kvecs = unit_vectors(54, 54, seed=3)
        zbar = shift_center(kvecs, g)
        zbar_d = (zbar**2) @ g.weighted_degrees()
        forms = graph_mod.sketch_forms(g, kvecs)
        walks, scored = [], []
        walk, score = sketches._walk_loop, sketches._pattern_errors
        monkeypatch.setattr(sketches, "_walk_loop", lambda m, *a: walks.append(m) or walk(m, *a))
        monkeypatch.setattr(sketches, "_pattern_errors",
                            lambda *a: scored.append(a[3].shape[1]) or score(*a))
        s, _ = sketches._combined_round(g, None, zbar, zbar_d, np.ones(g.m), g.n, forms)
        assert g.m // (sketches.SKETCH_CHUNK_PER_VERTEX * g.n) > sketches.SKETCH_MAX_CHUNKS
        assert len(walks) == 11 <= sketches.SKETCH_MAX_CHUNKS and sum(walks) == g.m
        assert len(scored) == 1
        assert 0 < scored[0] <= 2 ** len(walks) <= 2**sketches.SKETCH_MAX_CHUNKS
        assert np.count_nonzero(s) < g.m

    def test_resist_rounds_walk_four_n_chunks_and_keep_their_signs(self, monkeypatch):
        # a combined round walks round_chunks(m_r, CHUNK_PER_VERTEX n) chunks,
        # [116, 115] in K_22's round 1, and its coloring is the plain
        # concatenation of its chunk colorings: no sign search runs
        colorings, unions = [], []
        walk, update = sketches._walk_loop, sketches.halve_support
        monkeypatch.setattr(sketches, "_walk_loop",
                            lambda m, *a: colorings.append(walk(m, *a)) or colorings[-1])
        monkeypatch.setattr(sketches, "halve_support",
                            lambda s, support, x: unions.append((s, x)) or update(s, support, x))
        monkeypatch.setattr(sketches, "_pattern_errors", None)
        g = complete_graph(22)
        res = resistance_sparsify(g, 0.25, c_resist=1.0)
        assert res.rounds == len(unions) >= 2
        for s, x in unions:
            chunks = sparsify.round_chunks(len(x), sketches.CHUNK_PER_VERTEX * g.n)
            concatenated = np.zeros(len(x))
            for chunk in chunks:
                concatenated[chunk] = colorings.pop(0)
            assert np.array_equal(x, concatenated)
        assert [len(c) for c in sparsify.round_chunks(g.m, sketches.CHUNK_PER_VERTEX * g.n)] == [
            116, 115]
        assert not colorings


class TestPiecesWithConstantRows:
    # three K_14 in a path, cut into pieces at phi_target 0.1: for a pair
    # outside a piece, L^+ b_ij is constant on the piece up to rounding, and
    # its recentred row is noise that failed the variational check before

    @pytest.mark.parametrize("command,eps", [("sketch", 0.25), ("resist", 0.25), ("resist", 0.4),
                                             ("resist", 0.5)])
    def test_library_and_cli_agree_with_the_measured_error(self, tmp_path, command, eps):
        g = cliques_in_a_path()
        path, vpath = tmp_path / "g.txt", tmp_path / "v.txt"
        path.write_text(serialize_graph(g))
        argv = [command, str(path), "--epsilon", str(eps), "--phi-target", "0.1"]
        # the command pins the BLAS to one thread; the library run matches it
        with linalg.one_blas_thread():
            if command == "sketch":
                kvecs = resistance_pairs(g)
                vpath.write_text("".join(" ".join(repr(float(x)) for x in row) + "\n"
                                         for row in kvecs))
                argv += ["--vectors", str(vpath)]
                res = sketch(g, kvecs, eps, phi_target=0.1)
                rep = verify.check_sketch(g, res.graph, kvecs, 4.0 * eps)
            else:
                argv += ["--c-resist", "1"]
                res = resistance_sparsify(g, eps, phi_target=0.1, c_resist=1.0)
                rep = verify.check_resistance(g, res.graph, eps)
        assert res.pieces > 1 and res.rounds > 0 and res.graph.m < g.m
        # resist measures 0.336 at eps 0.4, a pass, and 0.676 at eps 0.5: a
        # miss, not an input error
        assert rep.passed == (rep.measured_eps <= rep.target) == (eps < 0.5)
        out, report = tmp_path / "out.txt", tmp_path / "rep.json"
        code = main([*argv, "--check", "--out", str(out), "--report", str(report)])
        assert code == (0 if rep.passed else 1)
        assert json.loads(report.read_text())["measured_eps"] == rep.measured_eps
        assert out.read_text() == serialize_graph(res.graph)
