"""Linear-algebra substrate: eigendecomposition, spectral functions, subspaces."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    path_graph,
    random_connected_graph,
    random_psd,
    random_symmetric,
)
from walksparse import linalg
from walksparse.errors import InvalidInput, NotPSD


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(4)
    blocks = [rng.normal(size=(k, k)) for k in (2, 3, 1)]
    got = linalg.block_diag(*blocks)
    want = scipy.linalg.block_diag(*blocks)
    assert got.dtype == want.dtype and got.shape == want.shape == (6, 6)
    assert np.array_equal(got, want)


class TestEigh:
    def test_identity(self):
        w, v = linalg.eigh(np.eye(3))
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(v @ v.T, np.eye(3))

    def test_diagonal_sorted_ascending(self):
        w, _ = linalg.eigh(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])

    def test_reconstruction_random(self):
        # oracle: rebuild V diag(w) V^T and compare entrywise
        a = random_symmetric(6, seed=42)
        w, v = linalg.eigh(a)
        resid = np.max(np.abs((v * w) @ v.T - a))
        assert resid <= 1e-10 * max(1.0, linalg.operator_norm(a))

    def test_sign_convention(self):
        a = random_symmetric(5, seed=3)
        _, v = linalg.eigh(a)
        for col in v.T:
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_deterministic(self):
        a = random_symmetric(7, seed=9)
        w1, v1 = linalg.eigh(a)
        w2, v2 = linalg.eigh(a.copy())
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            linalg.eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatrixFunction:
    def test_abs(self):
        out = linalg.matrix_function(np.diag([-2.0, 3.0]), "abs")
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_pinv(self):
        out = linalg.matrix_function(np.diag([2.0, 0.0]), "pinv")
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_pinv_three_fold_product(self):
        # L * pinv(L) * L = L for the path Laplacian (triple-product oracle)
        lap = path_graph(3).laplacian()
        pinv = linalg.matrix_function(lap, "pinv")
        assert np.max(np.abs(lap @ pinv @ lap - lap)) <= 1e-10

    def test_sqrt_psd_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            linalg.matrix_function(np.diag([1.0, -0.5]), "sqrt_psd")

    def test_sqrt_psd_squares_back(self):
        a = random_psd(5, seed=11)
        root = linalg.matrix_function(a, "sqrt_psd")
        assert np.allclose(root @ root, a, atol=1e-10)

    def test_pinv_sqrt(self):
        a = np.diag([4.0, 0.0, 9.0])
        out = linalg.matrix_function(a, "pinv_sqrt")
        assert np.allclose(out, np.diag([0.5, 0.0, 1.0 / 3.0]))

    def test_unknown_function(self):
        with pytest.raises(InvalidInput):
            linalg.matrix_function(np.eye(2), "log")


class TestOperatorNorm:
    def test_diagonal(self):
        assert linalg.operator_norm(np.diag([-5.0, 2.0])) == 5.0

    def test_zero(self):
        assert linalg.operator_norm(np.zeros((4, 4))) == 0.0

    def test_rank_one(self):
        # lambda_max of v v^T is ||v||^2
        v = np.array([1.2, -0.8, 1.2, 0.4])
        v *= 2.0 / np.linalg.norm(v)
        assert abs(linalg.operator_norm(np.outer(v, v)) - 4.0) <= 1e-12


class TestSubspaces:
    def test_nullspace_of_basis_vector(self):
        sub = linalg.nullspace([np.array([1.0, 0.0, 0.0])])
        assert sub.dim == 2
        for col in sub.basis().T:
            assert abs(col[0]) <= 1e-12

    def test_empty_rows_full_space(self):
        sub = linalg.nullspace([], m=7)
        assert sub.dim == 7
        assert sub.contains(np.ones(7))

    def test_random_rows_dimension(self):
        # orthogonalization oracle: 5 generic rows have rank 5
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 20))
        assert np.linalg.matrix_rank(rows) == 5
        sub = linalg.nullspace(rows)
        assert sub.dim == 15
        basis = sub.basis()
        assert np.max(np.abs(rows @ basis)) <= 1e-10

    def test_complement_rows_orthonormal(self):
        rng = np.random.default_rng(2)
        sub = linalg.nullspace(rng.normal(size=(4, 9)))
        r = sub.complement_rows
        assert np.allclose(r @ r.T, np.eye(r.shape[0]), atol=1e-10)

    @given(st.integers(0, 6), st.integers(1, 60))
    def test_nullspace_dim_lower_bound(self, k, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(k, 10))
        sub = linalg.nullspace(rows, m=10)
        assert sub.dim >= 10 - k
        assert np.max(np.abs(rows @ sub.basis()), initial=0.0) <= 1e-9


def _with_singular_values(s, m, seed):
    """len(s) x m rows with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    v, _ = np.linalg.qr(rng.normal(size=(m, len(s))))
    return (u * s) @ v.T


def _unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1)[:, None]


# crafted constraint stacks and their thin-SVD ranks; the rank cut is
# ZERO_RTOL * max(1, s_max) = 1e-10 on all of them
ORTHONORMALIZE_STACKS = {
    # degree rows of a bipartite graph: the two sides' sums are equal
    "bipartite_degree_rows": (
        lambda: _unit_rows(complete_bipartite(4, 5).incidence_unsigned()), 8),
    "singular_value_2x_cut": (lambda: _with_singular_values([1.0, 0.6, 0.3, 2e-10], 15, 1), 4),
    "singular_value_half_cut": (lambda: _with_singular_values([1.0, 0.6, 0.3, 5e-11], 15, 2), 3),
    "zero_row": (lambda: np.vstack([_unit_rows(np.random.default_rng(3).normal(size=(3, 12))),
                                    np.zeros((1, 12))]), 3),
    "all_zero": (lambda: np.zeros((3, 8)), 0),
    "no_rows": (lambda: np.zeros((0, 8)), 0),
    "more_rows_than_columns": (lambda: np.random.default_rng(4).normal(size=(9, 5)), 5),
}


class TestOrthonormalize:
    @pytest.mark.parametrize("name", ORTHONORMALIZE_STACKS)
    def test_matches_thin_svd(self, name):
        build, rank = ORTHONORMALIZE_STACKS[name]
        rows = build()
        out = linalg.orthonormalize(rows)
        s = np.linalg.svd(rows, compute_uv=False)
        cut = linalg.ZERO_RTOL * max(1.0, s[0] if s.size else 0.0)
        assert int(np.sum(s > cut)) == rank
        assert out.shape == (rank, rows.shape[1])
        assert np.max(np.abs(out @ out.T - np.eye(rank)), initial=0.0) <= 1e-12
        # each row lies in the span up to the singular values below the cut
        dropped = float(np.max(s[s <= cut], initial=0.0))
        resid = np.linalg.norm(rows - (rows @ out.T) @ out, axis=1)
        assert np.all(resid <= 1e-12 * np.linalg.norm(rows, axis=1) + dropped)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            linalg.orthonormalize(np.array([[1.0, np.nan]]))


class TestSpectralProperties:
    """Seed-fixed property suites used by the acceptance gate."""

    def test_cauchy_interlacing(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            a = random_symmetric(n, seed=seed + 1000)
            k = int(rng.integers(1, n))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            alpha = linalg.eigvalsh(a)
            beta = linalg.eigvalsh(a[np.ix_(idx, idx)])
            for i in range(k):
                assert alpha[i] <= beta[i] + 1e-9
                assert beta[i] <= alpha[n - k + i] + 1e-9

    def test_trace_product_inequality(self):
        # tr(ACBC) <= tr(A|C|) tr(B|C|) for PSD A, B and symmetric C
        for seed in range(100):
            n = 3 + seed % 6
            a = random_psd(n, seed=3 * seed)
            b = random_psd(n, seed=3 * seed + 1)
            c = random_symmetric(n, seed=3 * seed + 2)
            cabs = linalg.matrix_function(c, "abs")
            lhs = float(np.trace(a @ c @ b @ c))
            rhs = float(np.trace(a @ cabs)) * float(np.trace(b @ cabs))
            assert lhs <= rhs + 1e-9

    def test_bipartite_spectrum_symmetry(self):
        # normalized-Laplacian spectrum of a bipartite graph mirrors around 1
        from walksparse.graph import Graph

        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a, b = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            edges = [
                (i, a + j, 1.0)
                for i in range(a)
                for j in range(b)
                if rng.random() < 0.7
            ]
            g = Graph(a + b, tuple(edges)) if edges else complete_bipartite(a, b)
            if len(g.non_isolated()) < g.n:
                continue
            w = linalg.eigvalsh(g.normalized_laplacian())
            assert np.max(np.abs(w + w[::-1] - 2.0)) <= 1e-9
            checked += 1
        assert checked >= 20

    def test_bipartite_iff_top_eigenvalue_two(self):
        for a, b in [(3, 4), (2, 5), (4, 4)]:
            g = complete_bipartite(a, b)
            w = linalg.eigvalsh(g.normalized_laplacian())
            assert abs(w[-1] - 2.0) <= 1e-9
        for seed in range(10):
            g = random_connected_graph(8, 0.5, seed)
            has_triangle = np.trace(np.linalg.matrix_power(g.adjacency(), 3)) > 0
            if not has_triangle:
                continue
            w = linalg.eigvalsh(g.normalized_laplacian())
            assert w[-1] < 2.0 - 1e-6

    def test_reconstruction_suite(self):
        for seed in range(100):
            n = 2 + seed % 7
            a = random_symmetric(n, seed=seed)
            w, v = linalg.eigh(a)
            resid = linalg.operator_norm((v * w) @ v.T - a)
            assert resid <= 1e-10 * max(1.0, linalg.operator_norm(a))
