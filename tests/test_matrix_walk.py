"""Matrix discrepancy walk: doubling, quadratic-form matrix, subspaces, walk."""

import numpy as np
import pytest

from conftest import (
    complete_graph,
    diagonal_family,
    in_subspace,
    projection_vectors,
    random_symmetric,
    subspace_basis,
)
from walksparse import linalg, matrix_walk, potential, sketches, sparsify
from walksparse.errors import InvalidInput, StepTooLarge, SubspaceExhausted, WalksparseError
from walksparse.matrix_walk import (
    DoubledFamily,
    MatrixFamily,
    WalkLog,
    WalkOptions,
    _MatrixSide,
    _VectorSide,
    _lanczos_direction,
    _walk_loop,
    partial_color,
    quad_matrix,
    vector_partial_color,
)


def small_family(m=6, n=3, seed=0):
    mats = [random_symmetric(n, seed=seed + i, scale=1.0) for i in range(m)]
    total = sum(linalg.matrix_function(a, "abs") for a in mats)
    scale = linalg.operator_norm(total)
    return [a / scale for a in mats]


def spectra_at(fam, x):
    """A matrix side holding the +- spectra of fam's aggregate at x."""
    side = _MatrixSide(fam, keep_count=lambda mt: mt // 3)
    side.rows(x, np.arange(fam.m))
    return side


class TestDoubledFamily:
    def test_norm_equals_doubled_top_eigenvalue(self):
        mats = small_family()
        fam = DoubledFamily.from_matrices(mats)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=len(mats))
            orig = sum(xi * a for xi, a in zip(x, mats))
            doub = sum(xi * a for xi, a in zip(x, fam.doubled))
            lam_max = float(linalg.eigvalsh(doub)[-1])
            assert abs(lam_max - linalg.operator_norm(orig)) <= 1e-10

    def test_abs_sum_within_identity(self):
        mats = small_family()
        total = sum(linalg.matrix_function(a, "abs") for a in mats)
        assert linalg.operator_norm(total) <= 1.0 + 1e-8


class TestQuadMatrix:
    def test_uniform_density(self):
        # M = I/n makes N(i,j) = n^{-3/2} tr(A_i A_j)
        mats = small_family(m=5, n=4, seed=2)
        n = 4
        n_mat = quad_matrix(np.eye(n) / n, mats)
        expect = np.array(
            [[np.trace(a @ b) / n**1.5 for b in mats] for a in mats]
        )
        assert np.allclose(n_mat, expect, atol=1e-10)

    def test_zero_family(self):
        zeros = [np.zeros((3, 3))] * 4
        assert np.allclose(quad_matrix(np.eye(3) / 3, zeros), 0.0)

    def test_psd(self):
        mats = small_family(m=8, n=3, seed=7)
        fam = DoubledFamily.from_matrices(mats)
        agg = sum(0.3 * a for a in fam.doubled)
        ctx = potential.density_optimizer(agg, eta=1.0)
        n_mat = quad_matrix(ctx.density, fam)
        assert linalg.eigvalsh(n_mat)[0] >= -1e-10

    def test_requires_density(self):
        with pytest.raises(InvalidInput):
            quad_matrix(np.eye(3), [np.eye(3)])

    def test_matches_walk_fast_path(self):
        # the Hadamard-Gram fast path agrees with the reference Gram build
        vec = projection_vectors(3, 12, seed=5)
        fam = MatrixFamily.from_rank_one(vec)
        x = np.linspace(-0.5, 0.5, 12)
        eta = 0.25 * np.sqrt(12)
        spectra = spectra_at(fam, x)
        active = np.arange(12)
        n_fast, lin_fast = spectra.quad_and_linear(active)

        doubled = DoubledFamily.from_matrices(fam.members())
        agg = sum(xi * a for xi, a in zip(x, doubled.doubled))
        ctx = potential.density_optimizer(agg, eta)
        n_ref = quad_matrix(ctx.density, doubled)
        assert np.allclose(n_fast, n_ref, atol=1e-9)
        lin_ref = np.array([np.trace(ctx.density @ a) for a in doubled.doubled])
        assert np.allclose(lin_fast, lin_ref, atol=1e-9)

    def test_weighted_two_blocks_on_an_active_subset(self):
        # the uc_family shape: two rank-one blocks sharing lognormal weights,
        # N and the linear row over a subset of the members
        from walksparse.matrix_walk import Rank1Block

        m, n = 30, 4
        rng = np.random.default_rng(17)
        w = rng.lognormal(sigma=1.0, size=m)
        vecs = [rng.normal(size=(n, m)), rng.normal(size=(n, m))]
        fam = MatrixFamily([Rank1Block(v, w) for v in vecs])
        fam = fam.scaled(np.full(m, 1.0 / fam.abs_aggregate_norm()))
        x = 0.6 * rng.uniform(-1, 1, size=m)
        eta = 0.25 * np.sqrt(m)
        active = np.sort(rng.choice(m, 19, replace=False))
        n_fast, lin_fast = spectra_at(fam, x).quad_and_linear(active)

        doubled = DoubledFamily.from_matrices(fam.members())
        agg = sum(xi * a for xi, a in zip(x, doubled.doubled))
        ctx = potential.density_optimizer(agg, eta)
        n_ref = quad_matrix(ctx.density, doubled, active)
        lin_ref = np.array([np.trace(ctx.density @ doubled.doubled[i]) for i in active])
        assert np.abs(n_fast - n_ref).max() <= 1e-12 * np.abs(n_ref).max()
        assert np.abs(lin_fast - lin_ref).max() <= 1e-12 * np.abs(lin_ref).max()


def row_span(rows):
    """Orthonormal rows W spanning the stacked rows R, as the walk builds them."""
    _, s, vt = np.linalg.svd(np.vstack(rows), full_matrices=False)
    return vt[: int(np.sum(s > linalg.ZERO_RTOL * max(1.0, s[0])))]


def min_on_null(n_mat, rows):
    """Exact minimum of y^T N y over unit y in null(R)."""
    basis = subspace_basis(linalg.nullspace(np.vstack(rows)))
    return float(linalg.eigvalsh(basis.T @ n_mat @ basis)[0])


def krylov_ritz_values(quad, w, start, steps):
    """Smallest Ritz value of quad on the Krylov space of P quad P from P start,
    P the projection off w's orthonormal rows, after each of 1..steps steps
    (Arnoldi with two Gram-Schmidt passes)."""
    proj = np.eye(quad.shape[0]) - w.T @ w
    basis, ritz = np.zeros((0, quad.shape[0])), []
    v = proj @ start
    for _ in range(steps):
        for _ in range(2):
            v = proj @ (v - (basis @ v) @ basis)
        basis = np.vstack([basis, v / np.linalg.norm(v)])
        ritz.append(float(linalg.eigvalsh(basis @ quad @ basis.T)[0]))
        v = quad @ basis[-1]
    return ritz


def direction(side, w, m):
    """The walk's direction for a lone side over all m coordinates."""
    return _lanczos_direction(side.quad, side.bound, w, matrix_walk._start_vector(m, 0),
                              np.arange(m))


class TestStepSubspace:
    """null(R) for the rows the walk stacks from `_MatrixSide.rows`, and the
    direction `_lanczos_direction` takes from it on N."""

    def test_zero_family_dimension(self):
        # N = 0: no linear-term row, so null(R) is all of R^m; every Lanczos
        # vector breaks down and restarts, and the bound tr N/(m - keep + 1) is 0
        m = 9
        side = _MatrixSide(
            MatrixFamily.from_matrices(np.zeros((m, 2, 2))), keep_count=lambda mt: mt // 3
        )
        assert side.rows(np.zeros(m), np.arange(m)) == []
        y, ritz, steps = direction(side, np.zeros((0, m)), m)
        assert steps == m
        assert side.bound == 0.0 == ritz
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        assert y @ side.quad @ y == 0.0

    def test_constraints_hold(self):
        # n(n+1)/2 > 2m/3: N has no large kernel, so the certificate is
        # checked on a positive quadratic term
        m, n = 40, 8
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=9))
        rng = np.random.default_rng(3)
        x = 0.4 * rng.uniform(-1, 1, size=m)
        eta = 0.25 * np.sqrt(m)
        h = linalg.nullspace(rng.normal(size=(m // 5, m)))
        side = _MatrixSide(fam, keep_count=lambda mt: mt // 3)
        # the rows _walk_loop stacks while every coordinate is active
        rows = [x[None, :] / np.linalg.norm(x), *side.rows(x, np.arange(m)), h.complement_rows]
        w = row_span(rows)
        assert m - w.shape[0] >= m - 2 - (m - h.dim)
        y, _, _ = direction(side, w, m)
        # reference linear term and N from the explicit doubling
        doubled = DoubledFamily.from_matrices(fam.members())
        agg = sum(xi * a for xi, a in zip(x, doubled.doubled))
        ctx = potential.density_optimizer(agg, eta)
        n_mat = quad_matrix(ctx.density, doubled)
        lin = np.array([np.trace(ctx.density @ a) for a in doubled.doubled])
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-9
        assert abs(np.dot(y, x)) <= 1e-9
        assert abs(lin @ y) <= 1e-9
        assert in_subspace(h, y, tol=1e-9)
        quad = float(y @ n_mat @ y)
        assert quad <= np.trace(n_mat) / (m - m // 3 + 1)
        assert quad >= min_on_null(n_mat, rows) - 1e-12


class TestLanczosDirection:
    """`_lanczos_direction`: the smallest Ritz vector of N on null(R)."""

    def test_exact_minimum_when_krylov_fills_null_space(self):
        # dim null(R) = m - 8 = LANCZOS_STEPS: the Krylov basis spans null(R)
        # before the first Ritz check, so the Ritz value is the exact minimum
        n = 8
        m = n + matrix_walk.LANCZOS_STEPS
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=61))
        rng = np.random.default_rng(61)
        x = 0.5 * rng.uniform(-1, 1, size=m)
        side = _MatrixSide(fam, keep_count=lambda mt: mt // 3)
        rows = [x[None, :] / np.linalg.norm(x), *side.rows(x, np.arange(m)),
                linalg.nullspace(rng.normal(size=(6, m))).complement_rows]
        w = row_span(rows)
        assert w.shape[0] == 8
        y, ritz, steps = direction(side, w, m)
        assert steps == m - 8 <= matrix_walk.LANCZOS_STEPS
        exact = min_on_null(side.quad, rows)
        assert exact > 1e-6
        assert abs(float(y @ side.quad @ y) - exact) <= 1e-9
        assert abs(ritz - exact) <= 1e-9

    def test_search_extends_until_the_bound_holds(self):
        # eigenvalues packed in [1, 2]: LANCZOS_STEPS steps leave the Ritz
        # value above a bound 1e-4 over the minimum on null(w), so the search
        # extends, growing its Krylov arrays, by LANCZOS_STEPS at a time up to
        # the first multiple whose Ritz value meets the bound
        m = 120
        rng = np.random.default_rng(71)
        eigvecs = np.linalg.qr(rng.normal(size=(m, m)))[0]
        quad = linalg.sym((eigvecs * np.linspace(1.0, 2.0, m)) @ eigvecs.T)
        w = np.linalg.qr(rng.normal(size=(m, 3)))[0].T
        exact = min_on_null(quad, [w])
        start = matrix_walk._start_vector(m, 0)
        ritz_by_steps = krylov_ritz_values(quad, w, start, m - 3)
        per = matrix_walk.LANCZOS_STEPS
        checks = range(per, m - 3, per)
        expected = next(k for k in checks if ritz_by_steps[k - 1] <= exact + 1e-4)
        assert expected > per
        y, ritz, steps = _lanczos_direction(quad, exact + 1e-4, w, start, np.arange(m))
        assert steps == expected
        assert abs(ritz - ritz_by_steps[steps - 1]) <= 1e-10
        assert exact <= ritz <= exact + 1e-4
        assert abs(float(y @ quad @ y) - ritz) <= 1e-12
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        assert np.max(np.abs(w @ y)) <= 1e-12

    def test_projection_family_needs_restart(self, monkeypatch):
        # the x row removes the start's component in N's zero eigenspace, so
        # one Krylov sequence stops at the number of distinct eigenvalues
        n, m = 4, 64
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=17))
        h = linalg.nullspace(np.random.default_rng(17).normal(size=(12, m)))
        x = partial_color(fam, h)
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        start = matrix_walk._start_vector
        monkeypatch.setattr(matrix_walk, "_start_vector", lambda m, restart: start(m, 0))
        with pytest.raises(SubspaceExhausted, match="Lanczos starts"):
            partial_color(fam, h)

    def test_reruns_identical_in_one_process(self):
        n, m = 4, 64
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=17))
        h = linalg.nullspace(np.random.default_rng(17).normal(size=(12, m)))
        x1 = partial_color(fam, h)
        # a walk of another size in between draws other start vectors
        partial_color(MatrixFamily.from_rank_one(projection_vectors(n, 40, seed=3)))
        x2 = partial_color(fam, h)
        assert np.array_equal(x1, x2)

    def test_each_search_starts_from_the_last_direction(self, monkeypatch):
        # the first search starts from the walk's unit fixed start; each next
        # one from that start plus the unit direction just taken, zero at the
        # coordinates that were frozen when it was taken
        g = complete_graph(12)
        starts, taken = [], []
        search, cap = _lanczos_direction, _MatrixSide.step_cap

        def spy_search(quad, bound, w, start, active):
            starts.append(start.copy())
            return search(quad, bound, w, start, active)

        def spy_cap(self, y_full, limit=np.inf):
            taken.append(y_full.copy())
            return cap(self, y_full, limit)

        monkeypatch.setattr(matrix_walk, "_lanczos_direction", spy_search)
        monkeypatch.setattr(_MatrixSide, "step_cap", spy_cap)
        partial_color(sparsify.spectral_family(g), sparsify.degree_subspace(g))
        start0 = matrix_walk._start_vector(g.m, 0)
        start0 = start0 / np.linalg.norm(start0)
        assert len(starts) == len(taken) >= 2
        assert np.array_equal(starts[0], start0)
        for start, y_full in zip(starts[1:], taken):
            assert abs(np.linalg.norm(y_full) - 1.0) <= 1e-12
            assert np.array_equal(start, start0 + y_full)


class _Recorder:
    """A walk side that records each iteration's state, quadratic form and
    chosen direction."""

    def __init__(self, side):
        self.side = side
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.side, name)

    def rows(self, x, active):
        rows = self.side.rows(x, active)
        self.calls.append({"x": x.copy(), "active": active.copy(), "rows": rows,
                           "weights": getattr(self.side, "weights", None)})
        return rows

    def step_cap(self, y_full, limit):
        call = self.calls[-1]
        call["y"] = y_full.copy()
        call["quad"], call["bound"] = self.side.quad, self.side.bound
        if isinstance(self.side, _MatrixSide):
            call["keep"] = self.side.keep_count(len(call["active"]))
        call["cap"] = self.side.step_cap(y_full, limit)
        return call["cap"]


@pytest.fixture
def lanczos_calls(monkeypatch):
    """Each direction search of the walk: its form Q, bound and Ritz value."""
    calls = []

    def recording(quad, bound, w, start, active):
        y, ritz, steps = _lanczos_direction(quad, bound, w, start, active)
        calls.append({"quad": quad, "bound": bound, "ritz": ritz})
        return y, ritz, steps

    monkeypatch.setattr(matrix_walk, "_lanczos_direction", recording)
    return calls


def weighted_gram(rows, weights, active):
    """Reference G = sum_i (w_i / sum w) a_i a_i^T over the active coordinates."""
    a = rows[:, active]
    return (a.T * (weights / np.sum(weights))) @ a


def within(quad, bound):
    return quad <= bound * (1.0 + 1e-9) + 1e-12


class TestDirectionInOldSubspace:
    """y is a unit vector in null(R) for the stacked rows R, its quadratic
    term on Q = N (+ (b_N / b_G) G) is the smallest Ritz value, and each
    side's certificate holds."""

    @pytest.mark.parametrize("combined", [False, True])
    def test_first_iterations(self, combined, lanczos_calls):
        # n(n+1) > m: N has full rank, so the certificate is not met at 0
        m, n = 48, 8
        rng = np.random.default_rng(41)
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=41), rng.uniform(0.5, 1, m))
        # the walk takes orthonormal static rows
        extra = linalg.orthonormalize(rng.normal(size=(m // 10, m)))
        sixth = lambda mt: int(np.ceil(mt / 6.0))
        vec_rows = rng.normal(size=(96, m))
        vec_rows /= np.linalg.norm(vec_rows, axis=1)[:, None]
        if combined:
            # resist's side set: keep 5/6 of N, 1/6 vector-side budgets
            matrix = _MatrixSide(fam, keep_count=lambda mt: mt - int(np.floor(mt / 6.0)))
            sides = [_Recorder(matrix), _Recorder(_VectorSide(vec_rows, sixth))]
        else:
            matrix = _MatrixSide(fam, keep_count=lambda mt: mt // 3)
            sides = [_Recorder(matrix)]
        _walk_loop(m, sides, extra, True, None)
        for it in range(6):
            mat, search = sides[0].calls[it], lanczos_calls[it]
            y, x, active = mat["y"], mat["x"], mat["active"]
            y_act = y[active]
            m_t = len(active)
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-9
            assert np.all(y[np.setdiff1d(np.arange(m), active)] == 0.0)
            restricted = extra[:, active]
            rows = [restricted / np.linalg.norm(restricted, axis=1)[:, None], *mat["rows"]]
            if np.linalg.norm(x[active]) > 0.0:
                rows.append(x[None, active] / np.linalg.norm(x[active]))
            n_mat = mat["quad"]
            n_bound = np.trace(n_mat) / (m_t - mat["keep"] + 1)
            assert within(float(y_act @ n_mat @ y_act), n_bound)
            if combined:
                vec = sides[1].calls[it]
                assert np.array_equal(vec["y"], y)
                assert vec["rows"]
                rows.extend(vec["rows"])
                gram = weighted_gram(vec_rows, vec["weights"], active)
                g_bound = np.trace(gram) / (sixth(m_t) + 1)
                assert within(float(y_act @ gram @ y_act), g_bound)
                assert np.allclose(search["quad"], n_mat + (n_bound / g_bound) * gram,
                                   rtol=1e-9, atol=1e-12 * np.trace(n_mat))
            else:
                # one side: the search runs on N itself
                assert search["quad"] is n_mat and search["bound"] == mat["bound"]
            stacked = np.vstack(rows)
            assert np.max(np.abs(stacked @ y_act)) <= 1e-9
            quad = float(y_act @ search["quad"] @ y_act)
            assert abs(quad - search["ritz"]) <= 1e-12 * max(1.0, abs(quad))
            assert search["ritz"] <= search["bound"]
            assert quad >= min_on_null(search["quad"], [stacked]) - 1e-12


class TestWalkInvariantChecks:
    """The walk raises when the chosen direction breaks a constraint, or
    when no direction or step lets it finish."""

    def test_quadratic_slack(self):
        m = 40
        fam = MatrixFamily.from_rank_one(projection_vectors(4, m, seed=43))
        side = _MatrixSide(fam, keep_count=lambda mt: mt // 3)
        x = np.linspace(-0.3, 0.3, m)
        side.rows(x, np.arange(m))
        low, _, _ = direction(side, np.zeros((0, m)), m)
        step = side.admissibility(side.step_cap(low, 1.0))
        side.observe(low, step, WalkLog())
        top = np.linalg.eigh(side.quad)[1][:, -1]
        step = side.admissibility(side.step_cap(top, 1.0))
        with pytest.raises(WalksparseError, match="y\\^T N y"):
            side.observe(top, step, WalkLog())

    def test_vector_quadratic_slack(self):
        # rows clustered around one direction: G's top eigenvalue is far
        # above tr G / (cut + 1)
        m = 40
        rng = np.random.default_rng(59)
        rows = rng.normal(size=(120, m)) + 4.0 * rng.normal(size=m)
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        tenth = lambda mt: int(np.ceil(mt / 10.0))
        side = _VectorSide(rows, budget=tenth)
        x = np.linspace(-0.3, 0.3, m)
        stacked = [x[None, :] / np.linalg.norm(x), *side.rows(x, np.arange(m))]
        low, _, _ = direction(side, row_span(stacked), m)
        step = side.admissibility(side.step_cap(low, 1.0))
        side.observe(low, step, WalkLog())
        top = np.linalg.eigh(side.quad)[1][:, -1]
        assert float(top @ side.quad @ top) > 2.0 * side.bound
        step = side.admissibility(side.step_cap(top, 1.0))
        with pytest.raises(WalksparseError, match="y\\^T G y"):
            side.observe(top, step, WalkLog())

    def test_constraint_residual(self, monkeypatch):
        m = 40
        fam = MatrixFamily.from_rank_one(projection_vectors(4, m, seed=47))
        h = linalg.nullspace(np.random.default_rng(47).normal(size=(m // 5, m)))
        # a direction off by 1e-6 in every coordinate leaves H
        monkeypatch.setattr(linalg, "fix_signs", lambda v: np.array(v, dtype=float) + 1e-6)
        with pytest.raises(WalksparseError, match="constraint residual"):
            partial_color(fam, h)

    @pytest.mark.parametrize("cap,message", [
        (1e-9, "walk did not converge within 456 iterations"),
        (0.0, "no admissible step length"),
    ], ids=["tiny-steps", "no-step"])
    def test_step_caps_that_stall_the_walk(self, cap, message, monkeypatch):
        # m = 40 allows ceil(m / (1/(2 eta))^2) + m + 16 = 456 iterations
        fam = MatrixFamily.from_rank_one(projection_vectors(8, 40, seed=23))
        step_cap = _MatrixSide.step_cap
        monkeypatch.setattr(_MatrixSide, "step_cap",
                            lambda self, y, limit=np.inf: min(step_cap(self, y, limit), cap))
        with pytest.raises(SubspaceExhausted, match=f"^{message}$"):
            partial_color(fam, options=WalkOptions(adaptive_steps=True))

    def test_no_direction_meets_the_bound(self, monkeypatch):
        # a negative bound: no Ritz value on null(R) certifies it
        fam = MatrixFamily.from_rank_one(projection_vectors(8, 40, seed=23))
        combined = matrix_walk._combined_form
        monkeypatch.setattr(matrix_walk, "_combined_form",
                            lambda sides: (combined(sides)[0], -1.0))
        with pytest.raises(SubspaceExhausted, match=r"min of y\^T Q y over null\(R\) is .* > "
                                                    r"bound -1\.000000e\+00 at m_t=40$"):
            partial_color(fam)

    def test_two_matrix_sides_each_certificate_holds(self):
        # Q = N_1 + (b_1 / b_2) N_2: one Ritz bound meets both sides' bounds,
        # and each side's observe checks its own
        # n(n+1) > m: neither N has a large kernel
        m, n = 48, 8
        keep = lambda mt: mt - mt // 6
        sides = [
            _Recorder(_MatrixSide(MatrixFamily.from_rank_one(projection_vectors(n, m, seed)), keep))
            for seed in (53, 54)
        ]
        x = _walk_loop(m, sides, np.zeros((0, m)), True, None)
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        assert len(sides[0].calls) == len(sides[1].calls) > 0
        for first, second in zip(*(side.calls for side in sides)):
            y = first["y"][first["active"]]
            for call in (first, second):
                m_t = len(call["active"])
                quad = float(y @ call["quad"] @ y)
                assert 0.0 < quad
                assert within(quad, np.trace(call["quad"]) / (m_t - call["keep"] + 1))


class TestPartialColor:
    def test_zero_family_small(self):
        fam = MatrixFamily.from_matrices(np.zeros((8, 2, 2)))
        x = partial_color(fam)
        assert np.count_nonzero(np.abs(x) == 1.0) >= 2
        assert linalg.operator_norm(fam.aggregate(x)) == 0.0

    def test_a_list_is_walked_as_its_dense_family(self):
        mats = [random_symmetric(3, seed) / 40.0 for seed in range(16)]
        x = partial_color(mats)
        assert x.tobytes() == partial_color(MatrixFamily.from_matrices(mats)).tobytes()
        assert np.count_nonzero(np.abs(x) == 1.0) >= 4

    def test_projection_instance(self):
        n, m = 4, 64
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=17))
        rng = np.random.default_rng(17)
        h = linalg.nullspace(rng.normal(size=(12, m)))
        log = WalkLog()
        x = partial_color(fam, h, log=log)
        bound = 16.0 * np.sqrt(2.0 * n / m)
        assert np.max(np.abs(x)) <= 1.0
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        assert fam.aggregate_norm(x) <= bound
        assert in_subspace(h, x, tol=1e-8)
        assert log.iterations <= m * m / 4 + m

    @pytest.mark.parametrize("n,m", [(4, 64), (8, 40)])
    def test_log_invariants(self, n, m):
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=23))
        log = WalkLog()
        x = partial_color(fam, log=log)
        if n * (n + 1) / 2 > 2 * m / 3:
            # the kept third of N leaves the kernel of y -> A(y), so the
            # steps move A(x) and the bounds below are checked away from zero
            assert max(log.step_norm) > 0.0
            assert max(log.quad_term) > 0.0
        assert max(abs(v) for v in log.linear_term) <= 1e-8
        for quad, m_t in zip(log.quad_term, log.m_t):
            assert quad <= 9.0 * np.sqrt(2.0 * n) / m_t**2 + 1e-8
        assert max(log.step_norm) <= 0.5 + 1e-9
        # norm increments match the squared steps
        prev = 0.0
        for nsq, delta in zip(log.norm_sq, log.delta):
            assert abs(nsq - prev - delta**2) <= 1e-9
            prev = nsq
        # potential telescoping: the final potential is controlled by the
        # initial one plus the summed second-order contributions
        eta = 0.25 * np.sqrt(m)
        phi_final = spectra_at(fam, x).potential()
        budget = 2.0 * np.sqrt(2.0 * n) / eta + sum(
            2.0 * eta * d**2 * (9.0 * np.sqrt(2.0 * n) / m_t**2)
            for d, m_t in zip(log.delta, log.m_t)
        )
        assert phi_final <= budget + 1e-6

    def test_monotone_norm_and_membership_adaptive(self):
        n, m = 4, 48
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=29))
        log = WalkLog()
        x = partial_color(fam, options=WalkOptions(adaptive_steps=True), log=log)
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        assert fam.aggregate_norm(x) <= 16.0 * np.sqrt(2.0 * n / m)
        assert max(log.step_norm) <= 0.5 + 1e-9
        assert all(b >= a - 1e-12 for a, b in zip(log.norm_sq, log.norm_sq[1:]))

    def test_default_step_is_the_adaptive_one(self):
        # the step every pipeline takes: 17 iterations on K_12 with its degree
        # subspace, where the fixed cap 1/(2 eta) takes 427
        g = complete_graph(12)
        fam, h = sparsify.spectral_family(g), sparsify.degree_subspace(g)
        logs = {name: WalkLog() for name in ("default", "adaptive", "fixed")}
        x = partial_color(fam, h, log=logs["default"])
        adaptive = partial_color(fam, h, WalkOptions(adaptive_steps=True), logs["adaptive"])
        partial_color(fam, h, WalkOptions(adaptive_steps=False), logs["fixed"])
        assert x.tobytes() == adaptive.tobytes()
        assert [log.iterations for log in logs.values()] == [17, 17, 427]

    def test_deterministic(self):
        fam = MatrixFamily.from_rank_one(projection_vectors(4, 40, seed=31))
        x1 = partial_color(fam)
        x2 = partial_color(fam)
        assert np.array_equal(x1, x2)

    def test_rejects_small_subspace(self):
        m = 40
        fam = MatrixFamily.from_rank_one(projection_vectors(4, m, seed=2))
        rng = np.random.default_rng(0)
        h = linalg.nullspace(rng.normal(size=(m // 2, m)))
        with pytest.raises(InvalidInput):
            partial_color(fam, h)

    def test_rejects_empty_family(self):
        # eta = sqrt(m)/4 is 0 without members, and the walk has nothing to color
        with pytest.raises(InvalidInput, match="no members"):
            partial_color(MatrixFamily.from_rank_one(np.zeros((3, 0))))

    def test_rejects_oversized_family_norm(self):
        vec = 2.0 * projection_vectors(4, 40, seed=3)
        fam = MatrixFamily.from_rank_one(vec)
        with pytest.raises(InvalidInput):
            partial_color(fam)

    def test_diagonal_sanity_against_brute_force(self):
        # full colorings can't beat the exhaustive optimum
        from walksparse.verify import brute_force_min_discrepancy

        mats = diagonal_family(10, 4, seed=13)
        _, best = brute_force_min_discrepancy(mats)
        x = drive_full_coloring(mats)
        assert np.all(np.abs(x) == 1.0)
        walk_norm = linalg.operator_norm(
            sum(xi * a for xi, a in zip(x, mats))
        )
        assert walk_norm >= best - 1e-9
        assert walk_norm <= 16.0 * np.sqrt(2.0 * 4 / 10)


def steep_combined_walk():
    """(m, unit rows, resist's side set) for a combined walk whose vector
    side sets some steps below the boundary and the matrix cap: lambda0 = 20
    on 1000 Gaussian rows (the step rule holds for any lambda0)."""
    m, n = 48, 4
    fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=37))
    rows = np.random.default_rng(37).normal(size=(1000, m))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    vec = _VectorSide(rows, budget=lambda mt: int(np.ceil(mt / 6.0)))
    vec.lambda0, vec.base_cap = 20.0, 1.0 / 40.0
    return m, rows, [_MatrixSide(fam, keep_count=lambda mt: mt - int(np.floor(mt / 6.0))), vec]


class TestCombinedWalk:
    def test_one_log_entry_per_iteration(self):
        # the matrix side logs its step figure, the vector side its exact
        # potential increase and that increase's bound
        m, n = 48, 4
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=37))
        rng = np.random.default_rng(37)
        rows = rng.normal(size=(96, m))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        sixth = lambda mt: int(np.ceil(mt / 6.0))
        sides = [
            _MatrixSide(fam, keep_count=lambda mt: mt - int(np.floor(mt / 6.0))),
            _VectorSide(rows, budget=sixth),
        ]
        log = WalkLog()
        x = _walk_loop(m, sides, np.zeros((0, m)), True, log)
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        assert log.iterations > 0
        assert len(log.step_norm) == len(log.m_t) == len(log.phi) == log.iterations
        assert len(log.quad_term) == len(log.gram_term) == log.iterations
        assert len(log.increase) == len(log.increase_bound) == log.iterations
        assert len(log.lanczos_steps) == log.iterations
        assert all(isinstance(k, int) and k >= 1 for k in log.lanczos_steps)
        assert max(log.step_norm) <= 0.5 + 1e-9
        assert all(v <= b * (1.0 + 2e-9) for v, b in zip(log.increase, log.increase_bound))

    def test_steps_never_below_the_old_rule(self):
        # delta >= min(matrix cap, 1/(2 lambda0 max_i |<a_i, y>|), boundary):
        # the vector side's search starts at the old cap, and the matrix
        # side's cap is unchanged
        m, rows, sides = steep_combined_walk()
        mat, vec = sides = [_Recorder(side) for side in sides]
        log = WalkLog()
        _walk_loop(m, sides, np.zeros((0, m)), True, log)
        searched = 0
        for mc, vc, delta, boundary in zip(mat.calls, vec.calls, log.delta, log.boundary):
            half_cap = 0.5 / (vec.lambda0 * np.max(np.abs(rows @ vc["y"])))
            old = min(mc["cap"], half_cap, boundary)
            assert vc["cap"] >= min(half_cap, boundary)
            assert delta == min(mc["cap"], vc["cap"], boundary) >= old
            searched += vc["cap"] < min(mc["cap"], boundary)
        assert searched > 0
        assert all(v <= b * (1.0 + 2e-9) for v, b in zip(log.increase, log.increase_bound))

    def test_vector_step_past_the_crossing_is_refused(self, monkeypatch):
        m, _, sides = steep_combined_walk()
        step_cap = _VectorSide.step_cap

        def overshoot(self, y_full, limit):
            # a search that returns 1.5 times the crossing it found
            cap = step_cap(self, y_full, limit)
            return 1.5 * cap if cap < limit else cap

        monkeypatch.setattr(_VectorSide, "step_cap", overshoot)
        with pytest.raises(StepTooLarge, match="inadmissible step"):
            _walk_loop(m, sides, np.zeros((0, m)), True, WalkLog())

    def test_every_iteration_meets_both_certificates(self):
        # y^T N y <= tr N/(m_t - keep + 1) and y^T G y <= tr G/(cut + 1), with G
        # rebuilt from the recorded weights
        m, n = 48, 4
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=37))
        rng = np.random.default_rng(37)
        rows = rng.normal(size=(96, m))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        sixth = lambda mt: int(np.ceil(mt / 6.0))
        mat, vec = sides = [
            _Recorder(_MatrixSide(fam, keep_count=lambda mt: mt - int(np.floor(mt / 6.0)))),
            _Recorder(_VectorSide(rows, budget=sixth)),
        ]
        _walk_loop(m, sides, np.zeros((0, m)), True, None)
        assert len(mat.calls) == len(vec.calls) > 0
        for mc, vc in zip(mat.calls, vec.calls):
            active = mc["active"]
            y, m_t = mc["y"][active], len(active)
            assert within(float(y @ mc["quad"] @ y), np.trace(mc["quad"]) / (m_t - mc["keep"] + 1))
            gram = weighted_gram(rows, vc["weights"], active)
            assert within(float(y @ gram @ y), np.trace(gram) / (sixth(m_t) + 1))

    def test_forms_are_exactly_symmetric_as_assembled(self):
        # N and G are used without a symmetrizing copy: G and a dense
        # block's N are Gram products (syrk) times symmetric factors, and a
        # rank-one N is built in row blocks of N_BLOCK rows by GEMMs
        m, n = 48, 4
        rng = np.random.default_rng(41)
        x = 0.5 * rng.uniform(-1, 1, size=m)
        active = np.sort(rng.choice(m, 37, replace=False))
        rows = rng.normal(size=(96, m))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        third = lambda mt: mt // 3
        for side in (
            _MatrixSide(MatrixFamily.from_rank_one(projection_vectors(n, m, seed=41)), third),
            _MatrixSide(MatrixFamily.from_matrices(small_family(m, 3, seed=41)), third),
            _VectorSide(rows, budget=third),
        ):
            side.rows(x, active)
            assert side.quad.shape == (37, 37) and np.array_equal(side.quad, side.quad.T)
        # around the block edges, on one-block and two-block (uc_family)
        # families, blocked N matches the unblocked Hadamard product of Grams
        block = matrix_walk.N_BLOCK
        # a complete graph with at least 3 block + 5 edges
        g = complete_graph(int(np.ceil(np.sqrt(2 * (3 * block + 5)))) + 1)
        for fam in (sparsify.spectral_family(g), sparsify.uc_family(g)):
            x = 0.5 * rng.uniform(-1, 1, size=fam.m)
            spectra = spectra_at(fam, x)
            for m_t in (1, block - 1, block, block + 1, 3 * block + 5):
                active = np.sort(rng.choice(fam.m, m_t, replace=False))
                n_mat, _ = spectra.quad_and_linear(active)
                ref = unblocked_quad(spectra, active)
                assert n_mat.shape == (m_t, m_t) and np.array_equal(n_mat, n_mat.T)
                assert np.abs(n_mat - ref).max() <= 1e-12 * np.abs(ref).max()


def unblocked_quad(spectra, active):
    """N = sum over rank-one blocks and signs of (P^T P) o (Q^T Q), with
    P = D^{1/2} C and Q = D C for C = V^T G W^{1/2}, as whole m_t x m_t Grams."""
    n_mat = 0.0
    for blk, dp, dm, v in zip(spectra.family.blocks, spectra.d_plus, spectra.d_minus,
                              spectra.vecs):
        c = (v.T @ blk.vectors[:, active]) * np.sqrt(blk.weights[active])
        for d in (dp, dm):
            p, q = np.sqrt(d)[:, None] * c, d[:, None] * c
            n_mat = n_mat + (p.T @ p) * (q.T @ q)
    return n_mat


def force_exact_norm(monkeypatch):
    """Put `_MatrixSide.product_norm` on its exact path (no screen)."""
    screened = matrix_walk._MatrixSide.product_norm
    monkeypatch.setattr(matrix_walk._MatrixSide, "product_norm",
                        lambda self, y, step_limit=np.inf: screened(self, y, np.inf))


def exact_step_norm(fam, x, y, eta):
    """||M^{1/2} A(y)||_op rebuilt from the doubled aggregates, M^{1/2} = (uI - eta A(x))^{-1}."""
    a_x, a_y = fam.aggregate(x), fam.aggregate(y)
    doubled_x, doubled_y = linalg.block_diag(a_x, -a_x), linalg.block_diag(a_y, -a_y)
    u = potential.solve_normalizer_from_eigenvalues(np.linalg.eigvalsh(doubled_x), eta)
    half = np.linalg.inv(u * np.eye(len(doubled_x)) - eta * doubled_x)
    return float(np.linalg.norm(half @ doubled_y, 2))


class TestStepCapScreen:
    """The matrix side's step cap comes from a Frobenius bound whenever that
    cap clears the largest step the walk can take, and from the exact norm
    otherwise, so the walk takes the same steps as with the exact norm."""

    def fam_and_subspace(self):
        m, n = 40, 8
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=23))
        return fam, linalg.nullspace(np.random.default_rng(47).normal(size=(m // 5, m)))

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_same_walk_as_exact_norm(self, adaptive, monkeypatch):
        fam, h = self.fam_and_subspace()
        options = WalkOptions(adaptive_steps=adaptive)
        calls = []
        spectral_norm = linalg.spectral_norm
        monkeypatch.setattr(linalg, "spectral_norm", lambda a: calls.append(1) or spectral_norm(a))
        x_screened = partial_color(fam, h, options=options)
        assert not calls
        force_exact_norm(monkeypatch)
        x_exact = partial_color(fam, h, options=options)
        assert calls
        assert x_screened.tobytes() == x_exact.tobytes()

    def test_same_resistance_round_as_exact_norm(self, monkeypatch):
        xs, calls = [], []
        walk, spectral_norm = sketches._walk_loop, linalg.spectral_norm
        monkeypatch.setattr(sketches, "_walk_loop", lambda *a: xs.append(walk(*a)) or xs[-1])
        monkeypatch.setattr(linalg, "spectral_norm", lambda a: calls.append(1) or spectral_norm(a))
        sketches.resistance_sparsify(complete_graph(14), 0.5, c_resist=1.0)
        assert not calls
        force_exact_norm(monkeypatch)
        sketches.resistance_sparsify(complete_graph(14), 0.5, c_resist=1.0)
        assert calls
        assert len(xs) >= 2 and len(xs) % 2 == 0
        half = len(xs) // 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(xs[:half], xs[half:]))

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_logged_step_norm_bounds_the_exact_one(self, adaptive):
        fam, h = self.fam_and_subspace()
        side = _Recorder(_MatrixSide(fam, keep_count=lambda mt: mt // 3))
        log = WalkLog()
        _walk_loop(fam.m, [side], h.complement_rows, adaptive, log)
        assert len(side.calls) == len(log.step_norm) == log.iterations > 0
        for call, step, delta in zip(side.calls, log.step_norm, log.delta):
            exact = side.eta * delta * exact_step_norm(fam, call["x"], call["y"], side.eta)
            assert exact * (1.0 - 1e-9) <= step <= 0.5 + 1e-9
        assert max(log.step_norm) > 0.0

    def test_exact_norm_below_the_limit(self):
        # the Frobenius bound stands only where its cap clears the limit
        fam, _ = self.fam_and_subspace()
        rng = np.random.default_rng(53)
        x, y = 0.4 * rng.uniform(-1, 1, fam.m), rng.normal(size=fam.m)
        spectra = spectra_at(fam, x)
        frob, exact = spectra.product_norm(y, 0.0), spectra.product_norm(y)
        assert frob > exact
        cap = 0.5 / (spectra.eta * frob)
        assert spectra.product_norm(y, 0.5 * cap) == frob
        assert spectra.product_norm(y, 2.0 * cap) == exact
        assert abs(exact - exact_step_norm(fam, x, y, spectra.eta)) <= 1e-10


class TestAdmissibilityCheck:
    """The loop checks every side's admissibility term against its bound once
    per iteration, and each side logs its term every iteration."""

    def test_inflated_product_bound(self, monkeypatch):
        # a product bound 200 times too large: the fixed cap 1/(2 eta) is no
        # longer admissible, while adaptive steps take the smaller cap
        fam = MatrixFamily.from_rank_one(projection_vectors(8, 40, seed=23))
        bound = _MatrixSide.product_norm
        monkeypatch.setattr(_MatrixSide, "product_norm",
                            lambda self, y, step_limit=np.inf: 200.0 * bound(self, y, step_limit))
        with pytest.raises(StepTooLarge, match="inadmissible step"):
            partial_color(fam, options=WalkOptions(adaptive_steps=False))
        log = WalkLog()
        x = partial_color(fam, options=WalkOptions(adaptive_steps=True), log=log)
        assert np.count_nonzero(np.abs(x) == 1.0) >= fam.m / 4
        assert len(log.step_norm) == log.iterations > 0
        assert max(log.step_norm) <= 0.5 + 1e-9

    def test_side_without_rows_logs_zero(self):
        # all-zero constraint rows are dropped: cap unbounded, increase and
        # bound 0
        log = WalkLog()
        x = vector_partial_color(np.zeros((25, 20)), log=log)
        assert np.count_nonzero(np.abs(x) == 1.0) >= 5
        assert len(log.increase) == len(log.delta) == log.iterations > 0
        assert log.increase == log.increase_bound == [0.0] * log.iterations
        assert not log.step_norm


def drive_full_coloring(mats):
    """Full +-1 coloring by repeated partial colorings on the active set,
    finishing greedily (sign minimizing the aggregate norm) below 9 coords."""
    mats = [np.asarray(a, dtype=float) for a in mats]
    m = len(mats)
    x = np.zeros(m)
    active = list(range(m))
    while active:
        if len(active) >= 9:
            sub = MatrixFamily.from_matrices(np.stack([mats[i] for i in active]))
            x_sub = partial_color(sub, options=WalkOptions(adaptive_steps=True))
            for pos, i in enumerate(active):
                x[i] = x_sub[pos]
            active = [i for i in active if abs(x[i]) < 1.0]
            # clamp near-frozen coordinates the sub-walk left fractional
            continue
        i = active.pop(0)
        base = sum(x[j] * mats[j] for j in range(m) if j != i)
        plus = linalg.operator_norm(base + mats[i])
        minus = linalg.operator_norm(base - mats[i])
        x[i] = 1.0 if plus <= minus else -1.0
    return x
