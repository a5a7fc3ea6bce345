"""Verification module: approximation checks, resistance report, brute force."""

import json

import numpy as np
import pytest

from conftest import (
    bridged_cliques,
    complete_bipartite,
    complete_graph,
    diagonal_family,
    path_graph,
    random_connected_graph,
)
from walksparse import linalg
from walksparse import verify as verify_mod
from walksparse.errors import InvalidInput
from walksparse.graph import Graph
from walksparse.sparsify import spectral_sparsify
from walksparse.verify import (
    ApproxReport,
    brute_force_min_discrepancy,
    check_matrix_approx,
    check_resistance,
    check_sketch,
    check_spectral,
    check_sv,
    check_uc_undirected,
    effective_resistance_report,
)


def two_k4(joined):
    """Two disjoint K_4; joined moves 1e-4 from (0, 1) and (4, 5) onto the
    cross edges (0, 4) and (1, 5), which keeps every degree."""
    edges = complete_graph(4).edges
    edges += tuple((u + 4, v + 4, w) for u, v, w in edges)
    if not joined:
        return Graph(8, edges)
    moved = tuple((u, v, w - 1e-4 if (u, v) in ((0, 1), (4, 5)) else w) for u, v, w in edges)
    return Graph(8, moved + ((0, 4, 1e-4), (1, 5, 1e-4)))


def lognormal_graph(n, m, seed):
    """Connected graph: a path plus m - n + 1 seeded pairs, lognormal weights."""
    rng = np.random.default_rng(seed)
    path = [(i, i + 1) for i in range(n - 1)]
    rest = [(i, j) for i in range(n) for j in range(i + 2, n)]
    pairs = path + [rest[k] for k in rng.choice(len(rest), m - n + 1, replace=False)]
    return Graph(n, tuple((u, v, float(w)) for (u, v), w in zip(pairs, rng.lognormal(size=m))))


class TestMatrixApprox:
    def test_identity_passes(self):
        a = complete_graph(5).laplacian()
        rep = check_matrix_approx(a, a, a, a, target=0.1)
        assert rep.measured_eps == 0.0 and rep.passed

    def test_identity_error_matrices(self):
        a = np.diag([1.0, 2.0, 3.0])
        eps = 0.05
        rep = check_matrix_approx(a, a + eps * np.eye(3), np.eye(3), np.eye(3), 0.1)
        assert abs(rep.measured_eps - eps) <= 1e-12

    def test_kernel_violation_detected(self):
        # perturb along the kernel of the error matrices
        e_mat = np.diag([1.0, 1.0, 0.0])
        a = np.diag([1.0, 1.0, 0.0])
        a_tilde = a.copy()
        a_tilde[2, 2] += 0.5  # moves the difference into ker(E)
        rep = check_matrix_approx(a, a_tilde, e_mat, e_mat, target=10.0)
        assert not rep.kernel_ok and not rep.passed

    def test_report_json_order(self):
        rep = ApproxReport("spectral", 0.5, 0.1, True, 0.0, 7)
        keys = list(json.loads(json.dumps(rep.to_dict())).keys())
        assert keys == [
            "kind",
            "target",
            "measured_eps",
            "kernel_ok",
            "degree_max_dev",
            "support_size",
            "pass",
        ]
        assert rep.passed


class TestGraphChecks:
    def test_spectral_identity(self):
        g = complete_graph(6)
        rep = check_spectral(g, g, target=0.5)
        assert rep.measured_eps == 0.0 and rep.passed

    @pytest.mark.parametrize("weight", [1.0, 1e-12])
    def test_spectral_error_does_not_vanish_on_light_graphs(self, weight):
        # dropping every other edge of K_12 and tripling the rest is far from
        # a spectral approximation at any weight; the zero-eigenvalue test
        # of the whitening must be relative for the light graph to fail too
        g = complete_graph(12).reweighted(np.full(66, weight))
        rep = check_spectral(g, g.reweighted(np.where(np.arange(g.m) % 2, 0.0, 3.0)), 0.5)
        assert rep.measured_eps == pytest.approx(1.457, abs=1e-3) and not rep.passed

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_degree_verdict_does_not_change_with_the_weight_scale(self, k):
        # degrees are checked against DEGREE_TOL times the input's largest
        # degree: at 2^40 rounding alone moves a degree by more than 1e-6,
        # at 2^-40 a 1.001 scaling moves one by less
        g = lognormal_graph(20, 120, seed=0).reweighted(np.full(120, 2.0**k))
        out = spectral_sparsify(g, 0.45, c_support=1.0).graph
        assert check_spectral(g, out, 0.45).passed
        assert not check_spectral(g, out.reweighted(np.full(out.m, 1.001)), 0.45).passed
        # kernel residuals are checked against KERNEL_RTOL times ||L|| of the
        # input: two K_4 joined in the candidate by two 1e-4 edges, degrees
        # kept, leave ker L at every scale (a floor of 1 passed it at 2^-40)
        g, joined = two_k4(joined=False), two_k4(joined=True)
        g, joined = (h.reweighted(np.full(h.m, 2.0**k)) for h in (g, joined))
        for check in (check_spectral, check_uc_undirected):
            rep = check(g, joined, 0.45)
            assert not rep.kernel_ok and not rep.passed

    def test_uc_kernel_of_a_bipartite_component_beside_an_odd_cycle(self):
        # C_4 beside a triangle: U's kernel holds the C_4's sign vector, and
        # weight moved onto both C_4 diagonals (degrees kept) leaves it
        c4 = ((0, 1), (1, 2), (2, 3), (0, 3))
        triangle = ((4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0))
        g = Graph(7, c4 + triangle)
        moved = Graph(7, tuple((u, v, 1.0 - 5e-4) for u, v in c4)
                      + ((0, 2, 1e-3), (1, 3, 1e-3)) + triangle)
        rep = check_uc_undirected(g, moved, 0.5)
        assert rep.measured_eps <= 1e-3 and rep.degree_max_dev <= 1e-12
        assert not rep.kernel_ok and not rep.passed
        assert check_uc_undirected(g, g, 0.5).passed

    def test_matrix_notions_measure_through_check_matrix_approx(self, monkeypatch):
        # spectral and sv are one matrix approximation each, uc is two (L, U)
        calls = []

        def spy(*args):
            calls.append(args)
            return check_matrix_approx(*args)

        monkeypatch.setattr(verify_mod, "check_matrix_approx", spy)
        g, d = complete_graph(6), Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)), directed=True)
        counts = []
        for check, h in ((check_spectral, g), (check_uc_undirected, g), (check_sv, d)):
            before = len(calls)
            assert check(h, h, 0.5).passed
            counts.append(len(calls) - before)
        assert counts == [1, 2, 1]

    @pytest.mark.parametrize("bridge,ratio", [(1e-8, "7.812e-11"), (1e-10, "7.816e-13")])
    @pytest.mark.parametrize("check", [check_spectral, check_uc_undirected])
    def test_numerically_disconnected_laplacian_is_refused(self, check, bridge, ratio):
        # lambda_2 of two K_16 joined by a light bridge is below ZERO_RTOL
        # lambda_max, so the whitening would drop the bridge direction
        g = bridged_cliques(16, bridge)
        with pytest.raises(InvalidInput, match=f"lambda_2/lambda_max = {ratio}"):
            check(g, g, 0.45)

    def test_numerically_bipartite_unsigned_laplacian_is_refused(self):
        # K_12,12 plus a 1e-10 edge inside one side has an odd cycle, so U
        # has no exact kernel, but lambda_1(U) is below ZERO_RTOL lambda_max:
        # U^{+/2} would drop the light edge's direction
        g = Graph(24, complete_bipartite(12, 12).edges + ((0, 1, 1e-10),))
        with pytest.raises(InvalidInput, match="unsigned Laplacian is numerically bipartite: "
                                               "lambda_1/lambda_max = 6.945e-13"):
            check_uc_undirected(g, g, 0.45)
        assert check_spectral(g, g, 0.45).passed

    def test_a_light_bridge_above_the_kernel_cut_off_is_checked(self):
        g = bridged_cliques(16, 1e-6)
        assert check_spectral(g, g, 0.45).passed and check_uc_undirected(g, g, 0.45).passed

    def test_uc_identity_and_scaling(self):
        g = complete_graph(6)
        assert check_uc_undirected(g, g, 0.3).passed
        scaled = g.reweighted(np.full(g.m, 1.1))
        rep = check_uc_undirected(g, scaled, 0.3)
        assert rep.degree_max_dev > 1e-6 and not rep.passed

    def test_uc_bipartite_kernel(self):
        g = complete_bipartite(3, 3)
        rep = check_uc_undirected(g, g, 0.5)
        assert rep.kernel_ok

    def test_sv_identity(self):
        g = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)), directed=True)
        rep = check_sv(g, g, 0.5)
        assert rep.passed and rep.measured_eps == 0.0

    def test_sv_degree_violation(self):
        g = complete_bipartite(3, 3)
        bad = g.reweighted(np.concatenate([np.zeros(1), np.ones(g.m - 1)]))
        rep = check_sv(g, bad, 10.0)
        assert not rep.kernel_ok or rep.degree_max_dev > 1e-6

    def test_sketch_check(self):
        g = complete_graph(6)
        rng = np.random.default_rng(1)
        kvecs = rng.normal(size=(10, 6))
        rep = check_sketch(g, g, kvecs, target=0.1)
        assert rep.measured_eps == 0.0 and rep.passed

    def test_sketch_check_rejects_non_finite(self):
        g = complete_graph(8)
        kvecs = np.random.default_rng(1).normal(size=(10, 8))
        for bad in (np.nan, np.inf):
            kvecs[4, 2] = bad
            with pytest.raises(InvalidInput):
                check_sketch(g, g, kvecs, target=0.1)

    @pytest.mark.parametrize("shape", [(10, 9), (10, 7), (8,)],
                             ids=["long-rows", "short-rows", "one-dimensional"])
    def test_sketch_check_rejects_misshapen_vectors(self, shape):
        g = complete_graph(8)
        kvecs = np.random.default_rng(1).normal(size=shape)
        with pytest.raises(InvalidInput, match="rows of length n"):
            check_sketch(g, g, kvecs, target=0.1)

    def test_sketch_check_scale_free(self):
        # the skip cut-off is relative to ||z||^2, so tiny vectors still count
        kvecs = np.random.default_rng(0).normal(size=(40, 8))
        g, h = complete_graph(8), path_graph(8)
        eps = check_sketch(g, h, kvecs, target=0.5).measured_eps
        assert eps > 0.5
        scaled = check_sketch(g, h, kvecs * 1e-8, target=0.5).measured_eps
        assert abs(scaled - eps) <= 1e-9

    @pytest.mark.parametrize("check", [
        lambda g, h: check_spectral(g, h, 0.5),
        lambda g, h: check_uc_undirected(g, h, 0.5),
        lambda g, h: check_sv(g, h, 0.5),
        lambda g, h: check_sketch(g, h, np.eye(g.n), 0.5),
        lambda g, h: check_resistance(g, h, 0.5),
        effective_resistance_report,
    ], ids=["spectral", "uc", "sv", "sketch", "resistance", "resistance_report"])
    def test_mismatched_graphs_rejected(self, check):
        cycle = tuple((i, (i + 1) % 4, 1.0) for i in range(4))
        with pytest.raises(InvalidInput, match="n 4 against 5"):
            check(Graph(4, cycle), complete_graph(5))
        with pytest.raises(InvalidInput, match="directed True against False"):
            check(Graph(4, cycle, directed=True), Graph(4, cycle))


class TestResistance:
    def test_path_series(self):
        g = path_graph(3)
        assert effective_resistance_report(g, g) == 0.0
        ldag = linalg.matrix_function(g.laplacian(), "pinv")
        b = np.array([1.0, 0.0, -1.0])
        assert abs(b @ ldag @ b - 2.0) <= 1e-12

    def test_complete_graph_closed_form(self):
        g = complete_graph(10)
        ldag = linalg.matrix_function(g.laplacian(), "pinv")
        b = np.zeros(10)
        b[2], b[7] = 1.0, -1.0
        assert abs(b @ ldag @ b - 0.2) <= 1e-12

    def test_detects_deviation(self):
        g = complete_graph(6)
        doubled = g.reweighted(np.full(g.m, 2.0))
        worst = effective_resistance_report(g, doubled)
        assert abs(worst - 0.5) <= 1e-9  # halved resistances

    def test_disconnection_is_infinite(self):
        g = path_graph(4)
        s = np.ones(g.m)
        s[1] = 0.0
        broken = g.reweighted(s)
        assert effective_resistance_report(g, broken) == float("inf")

    def test_report_wrapper(self):
        g = complete_graph(6)
        rep = check_resistance(g, g, target=0.25)
        assert rep.passed


class TestBruteForce:
    def test_single_identity(self):
        x, val = brute_force_min_discrepancy([np.eye(3)])
        assert val == 1.0 and x[0] == 1.0

    def test_cancelling_pair(self):
        a = np.diag([0.4, -0.2])
        _, val = brute_force_min_discrepancy([a, a])
        assert val <= 1e-15

    def test_walk_cannot_beat_oracle(self):
        from test_matrix_walk import drive_full_coloring

        for seed in (0, 1):
            mats = diagonal_family(10, 4, seed=seed)
            _, best = brute_force_min_discrepancy(mats)
            x = drive_full_coloring(mats)
            walk_norm = linalg.operator_norm(sum(xi * a for xi, a in zip(x, mats)))
            assert walk_norm >= best - 1e-9

    def test_deterministic(self):
        mats = diagonal_family(8, 3, seed=5)
        x1, v1 = brute_force_min_discrepancy(mats)
        x2, v2 = brute_force_min_discrepancy(mats)
        assert np.array_equal(x1, x2) and v1 == v2

    def test_size_limit(self):
        with pytest.raises(InvalidInput):
            brute_force_min_discrepancy([np.eye(2)] * 21)

    def test_pure_functions_idempotent(self):
        g = random_connected_graph(8, 0.5, seed=9)
        r1 = check_spectral(g, g, 0.1)
        r2 = check_spectral(g, g, 0.1)
        assert r1 == r2
